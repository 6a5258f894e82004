"""Package structure: modules reach each other only through public names,
and every private helper is used by its own module."""

import ast
from pathlib import Path

import lagtransport


def _private_sibling_imports(source: str) -> list[str]:
    """Underscore names a module imports from lagtransport modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("lagtransport"):
            continue
        found += [
            alias.name for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")
        ]
    return found


def test_detector_flags_private_sibling_imports():
    assert _private_sibling_imports("from .flow import flow_map, _tols") == ["_tols"]
    assert _private_sibling_imports("from lagtransport.grid import _SNAP") == ["_SNAP"]
    assert _private_sibling_imports("from . import _helpers") == ["_helpers"]
    assert _private_sibling_imports("from __future__ import annotations") == []
    assert _private_sibling_imports("from numpy import _core") == []


def test_no_module_imports_a_private_name_from_a_sibling():
    root = Path(lagtransport.__file__).parent
    offenders = {
        path.name: names
        for path in sorted(root.glob("*.py"))
        if (names := _private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert not offenders


def _unreferenced_private_defs(source: str) -> list[str]:
    """Module-level private functions and classes that the rest of the
    module never names (a recursive call does not count)."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        used = any(
            isinstance(sub, ast.Name) and sub.id == node.name
            for other in tree.body if other is not node
            for sub in ast.walk(other)
        )
        if not used:
            found.append(node.name)
    return found


def test_detector_flags_unreferenced_private_defs():
    source = (
        "def _used(): pass\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "class _Dead: pass\n"
        "class _Base: pass\n"
        "class Public(_Base): pass\n"
        "def __dunder__(): pass\n"
        "def public(): return _used()\n"
        "TABLE = {'x': _helper_ref}\n"
        "def _helper_ref(): pass\n"
    )
    assert _unreferenced_private_defs(source) == ["_recursive", "_Dead"]
    assert _unreferenced_private_defs("def _f(): pass\n_g = _f\n") == []


def test_every_private_def_is_used_in_its_own_module():
    root = Path(lagtransport.__file__).parent
    offenders = {
        path.name: names
        for path in sorted(root.glob("*.py"))
        if (names := _unreferenced_private_defs(path.read_text(encoding="utf-8")))
    }
    assert not offenders
