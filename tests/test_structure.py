"""Package structure: modules reach each other only through public names."""

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
