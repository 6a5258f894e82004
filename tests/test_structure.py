"""Package structure: modules reach each other only through public names,
no code reads or writes another object's private attributes, every
private helper is used by its own module, every public name is
used outside the tests, every defaulted parameter is passed by some
program call (in src/ or benchmark/, not in the tests or demos), every
solver setting is set by some run, no module branches on a field's or
kernel's name, no module imports a name it never uses, every library
name the benchmark hooks still resolves, and every library exception
but the CLI's config error is a numerical failure, the one exit-3 type."""

import ast
import dataclasses
import importlib.util
import json
from collections import Counter
from pathlib import Path

import lagtransport
from lagtransport import cli
from lagtransport.transport import SolverConfig


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


def _foreign_private_attributes(source: str) -> list[str]:
    """`obj._name` reads and writes where `obj` is not `self` or `cls`."""
    return [
        ast.unparse(node) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_detector_flags_foreign_private_attributes():
    source = (
        "class A:\n"
        "    def f(self, grid):\n"
        "        self._cache = {}\n"
        "        grid._cache[1] = 2\n"
        "        return cls._table, grid.x_labels(), self.__class__\n"
        "def g(state):\n"
        "    state._data = None\n"
        "    return np._core, object.__setattr__\n"
    )
    assert sorted(_foreign_private_attributes(source)) == [
        "grid._cache", "np._core", "state._data"
    ]


def test_no_module_reaches_into_another_objects_private_attributes():
    root = Path(lagtransport.__file__).parent
    offenders = {
        path.name: names
        for path in sorted(root.glob("*.py"))
        if (names := _foreign_private_attributes(path.read_text(encoding="utf-8")))
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


def _defaulted_params(tree) -> dict[str, list[tuple[str, int | None]]]:
    """Module-level functions and methods of `tree` with defaulted
    parameters: name -> [(parameter, position in a call's arguments, or
    None when keyword-only)].  A method's position skips self."""
    out: dict[str, list[tuple[str, int | None]]] = {}
    scopes = [(tree.body, False)] + [
        (node.body, True) for node in tree.body if isinstance(node, ast.ClassDef)
    ]
    for body, in_class in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            skip = 1 if in_class and not static else 0
            first_default = len(positional) - len(args.defaults)
            params = [
                (a.arg, i - skip)
                for i, a in enumerate(positional) if i >= first_default
            ]
            params += [
                (a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            if params:
                out.setdefault(node.name, []).extend(params)
    return out


def _unpassed_defaults(library: list[str], callers: list[str]) -> list[str]:
    """"function.parameter" for every defaulted parameter of a function
    defined in the `library` sources that no call in the `callers`
    sources passes, by keyword or by position.

    Calls are matched by the bare name or attribute name of the callee.
    A function is exempt when some caller names it other than as the
    callee of a call (it escapes as a value, as into a builder table) or
    calls it with *args or **kwargs, since its real call sites are then
    out of sight.
    """
    defs: dict[str, list[tuple[str, int | None]]] = {}
    for source in library:
        for name, params in _defaulted_params(ast.parse(source)).items():
            defs.setdefault(name, []).extend(params)
    most_positional = dict.fromkeys(defs, 0)
    keywords: dict[str, set] = {name: set() for name in defs}
    exempt: set[str] = set()
    for source in callers:
        tree = ast.parse(source)
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callees.add(id(node.func))
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in defs:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            ):
                exempt.add(name)
            most_positional[name] = max(most_positional[name], len(node.args))
            keywords[name].update(kw.arg for kw in node.keywords)
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in callees and name in defs):
                exempt.add(name)
    found = []
    for name, params in defs.items():
        if name in exempt:
            continue
        found += [
            f"{name}.{param}" for param, pos in params
            if param not in keywords[name]
            and (pos is None or most_positional[name] <= pos)
        ]
    return found


def test_detector_flags_defaults_no_call_passes():
    library = (
        "def solve(a, tol=1e-8, iters=10, *, verbose=False): pass\n"
        "def built(n=1): pass\n"
        "def splatted(n=1): pass\n"
        "class Box:\n"
        "    def area(self, scale=1.0, unit='m'): pass\n"
        "    def __init__(self, side=1.0): pass\n"
    )
    callers = (
        "solve(1, 1e-6)\n"
        "solve(2, verbose=True)\n"
        "TABLE = {'built': built}\n"
        "splatted(**{'n': 2})\n"
        "Box().area(2.0)\n"
    )
    assert _unpassed_defaults([library], [callers]) == [
        "solve.iters", "area.unit",
    ]
    # positional passing reaches a later default; an escape exempts
    assert _unpassed_defaults(
        ["def f(a=1, b=2): pass\n"], ["f(1, 2)\n"]
    ) == []
    assert _unpassed_defaults(["def f(a=1): pass\n"], ["g = f\n"]) == []


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that only tests or demos override is one value in use by
    # the program: make it a constant
    root = Path(lagtransport.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    library = [p.read_text(encoding="utf-8") for p in sorted(root.glob("*.py"))]
    callers = [
        p.read_text(encoding="utf-8")
        for d in ("src", "benchmark")
        for p in sorted((repo / d).rglob("*.py"))
    ]
    assert not _unpassed_defaults(library, callers)


def _name_tests(source: str) -> list[int]:
    """Lines that compare a `.name` attribute with a string literal, or
    with a tuple, list or set of them."""

    def is_literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(is_literal(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Attribute) and o.attr == "name" for o in operands) \
                and any(is_literal(o) for o in operands):
            found.append(node.lineno)
    return found


def test_detector_flags_name_tests():
    assert _name_tests('if kernel.name == "zero":\n    pass\n') == [1]
    assert _name_tests('x = 1\nok = "zero" != fld.name\n') == [2]
    assert _name_tests('ok = k.name in ("a", "b")\n') == [1]
    assert _name_tests('ok = 0 < k.name == "a"\n') == [1]
    # a bare name, a name against a name, and a name in a string are fine
    assert _name_tests('ok = name == "separable"\n') == []
    assert _name_tests("ok = k.name == other.name\n") == []
    assert _name_tests('label = f"{k.name}!"\n') == []


def test_no_module_tests_a_name():
    # structure is declared as data (Kernel.triangular, Kernel.factors)
    # and read from it, never from a name
    root = Path(lagtransport.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(root.glob("*.py"))
        if (lines := _name_tests(path.read_text(encoding="utf-8")))
    }
    assert not offenders


def _solver_settings_set(source: str) -> set[str]:
    """Settings a source sets: the keywords of its SolverConfig(...)
    calls and the keys of every dict literal that a "solver" key maps
    to."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "SolverConfig":
                found.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant) and key.value == "solver"
                        and isinstance(value, ast.Dict)):
                    found.update(
                        k.value for k in value.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
    return found


def test_detector_finds_solver_settings():
    source = (
        "a = SolverConfig(p=2.0, picard_tol=1e-9)\n"
        "b = transport.SolverConfig(window=w, **extra)\n"
        "cfg = {'grid': {}, 'solver': {'nodes_per_slab': 9}}\n"
        "other = {'solver': make()}\n"
        "c = Other(slab_time_samples=3)\n"
        "d = {'slab_time_samples': 3}\n"
    )
    assert _solver_settings_set(source) == {
        "p", "picard_tol", "window", "nodes_per_slab",
    }
    assert _solver_settings_set("SolverConfig()\n") == set()


def test_every_solver_setting_is_set_outside_the_tests():
    # a setting only tests vary has one value in use: make it a constant
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(cli._SOLVER_SCHEMA) == fields
    repo = Path(__file__).resolve().parents[1]
    used = set()
    for d in ("src", "demos", "benchmark"):
        for path in sorted((repo / d).rglob("*.py")):
            used |= _solver_settings_set(path.read_text(encoding="utf-8"))
    for path in sorted((repo / "demos" / "configs").glob("*.json")):
        used |= set(json.loads(path.read_text(encoding="utf-8")).get("solver", {}))
    assert sorted(fields - used) == []


def _loaded_names(node) -> Counter:
    """How often each name is loaded under `node`: the id of a Name and
    the attribute of an Attribute in load context."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
    return found


def _unnamed_public_defs(library: dict[str, str], others: list[str]) -> list[str]:
    """"module.name" for every public module-level function or class of
    the `library` sources (module name -> source), and "module.Class.name"
    for every public method or property of a public class, that neither
    the library nor the `others` sources name.

    A name counts when it is loaded as a Name or as an Attribute.  Imports,
    `__all__` strings and loads inside the definition's own body do not.
    """
    named = Counter()
    for source in [*library.values(), *others]:
        named += _loaded_names(ast.parse(source))
    found = []
    for module, source in library.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{sub.name}", sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_")
                ]
            found += [
                f"{module}.{qualified}" for qualified, d in defs
                if named[d.name] <= _loaded_names(d)[d.name]
            ]
    return found


def test_detector_flags_public_defs_without_a_caller():
    library = {
        "mod": (
            "__all__ = ['exported']\n"
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def imported(): pass\n"
            "def exported(): pass\n"
            "def _private(): pass\n"
            "class Box:\n"
            "    def grow(self): return self.grow()\n"
            "    def area(self): pass\n"
            "    @property\n"
            "    def side(self): return 1.0\n"
            "    def __len__(self): return 0\n"
            "class _Hidden:\n"
            "    def method(self): pass\n"
        ),
    }
    others = [
        "from mod import Box, imported, used\n"
        "used()\n"
        "box = Box()\n"
        "print(box.area(), box.side, 'recursive')\n"
    ]
    assert _unnamed_public_defs(library, others) == [
        "mod.recursive", "mod.imported", "mod.exported", "mod.Box.grow",
    ]
    # a class named only inside its own methods has no caller
    assert _unnamed_public_defs(
        {"m": "class Node:\n    def clone(self): return Node()\n"},
        ["node.clone()\n"],
    ) == ["m.Node"]


def _benchmark_layers():
    """benchmark/layers.py loaded by path, read only: its hooks are not
    installed and it is not added to sys.modules."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


# the targets `install` hooks for their results, besides SPAN_HOOKS
_RESULT_HOOKS = (
    ("lagtransport.cli", "make_field"),
    ("lagtransport.cli", "make_kernel"),
    ("lagtransport.transport", "_kernel_matrices"),
)


def test_every_benchmark_hook_resolves():
    # a hook whose target is gone is skipped, and every metric it feeds
    # goes missing from the traced run
    layers = _benchmark_layers()
    install = next(
        node for node in ast.parse(Path(layers.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    named = {
        sub.value for sub in ast.walk(install)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }
    assert all({module, path} <= named for module, path in _RESULT_HOOKS)
    targets = [(m, p) for m, p, _ in layers.SPAN_HOOKS.values()]
    missing = [
        f"{module}:{path}" for module, path in [*targets, *_RESULT_HOOKS]
        if layers._resolve(module, path) is None
    ]
    assert not missing


def test_every_public_name_is_used_outside_the_tests():
    # a public name that only tests call checks nothing the library does;
    # the oracle exists for the acceptance criteria, so their uses count,
    # and so do the names the benchmark hooks, which it resolves by string
    root = Path(lagtransport.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    library = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(root.glob("*.py"))
    }
    others = [
        path.read_text(encoding="utf-8")
        for d in ("demos", "benchmark")
        for path in sorted((repo / d).rglob("*.py"))
    ]
    acceptance = _loaded_names(ast.parse(
        (repo / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    ))
    hooked = {
        f"{module.rsplit('.', 1)[-1]}.{path}"
        for module, path, _ in _benchmark_layers().SPAN_HOOKS.values()
    }
    offenders = [
        name for name in _unnamed_public_defs(library, others)
        if not (name.startswith("oracle.") and acceptance[name.split(".")[-1]])
        and name not in hooked
    ]
    assert not offenders


def _unused_imports(source: str) -> list[str]:
    """Names a source imports and never loads.  Names listed in its
    `__all__` and `__future__` imports are exempt."""
    tree = ast.parse(source)
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
            }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [name for name in bound if name not in used]
    return found


def test_detector_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dump, load as read\n"
        "from .fields import Kernel\n"
        "__all__ = ['Kernel']\n"
        "def f(x):\n"
        "    return numpy.linalg.norm(read(x))\n"
    )
    assert _unused_imports(source) == ["os", "osp", "dump"]
    # an attribute of the same name is not a use of the import
    assert _unused_imports("from json import dump\nx.dump\n") == ["dump"]


def test_no_module_imports_a_name_it_never_uses():
    root = Path(lagtransport.__file__).parent
    tests = Path(__file__).resolve().parent
    offenders = {
        path.name: names
        for path in [*sorted(root.glob("*.py")), *sorted(tests.glob("*.py"))]
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not offenders


def _caught_library_exceptions(source: str, namespace: dict, functions) -> list[str]:
    """Library exception classes (defined in a lagtransport module) that
    the `except` clauses of the named top-level `functions` of `source`
    catch, each clause's type evaluated in `namespace`."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        for handler in ast.walk(node):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            caught = eval(  # a name or a tuple of names, as the module binds them
                compile(ast.Expression(handler.type), "<except>", "eval"),
                dict(namespace),
            )
            found += [
                cls.__name__
                for cls in (caught if isinstance(caught, tuple) else (caught,))
                if cls.__module__.split(".")[0] == "lagtransport"
            ]
    return found


def test_detector_flags_caught_library_exceptions():
    def library(name):
        return type(name, (Exception,), {"__module__": "lagtransport.flow"})

    class mod:
        Inner = library("Inner")

    namespace = {"mod": mod, "Failure": library("Failure"), "Other": library("Other")}
    source = (
        "def main():\n"
        "    try:\n"
        "        pass\n"
        "    except (Failure, ValueError):\n"
        "        pass\n"
        "    except mod.Inner:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "def other():\n"
        "    try:\n"
        "        pass\n"
        "    except Other:\n"
        "        pass\n"
    )
    assert _caught_library_exceptions(source, namespace, ("main",)) == [
        "Failure", "Inner"
    ]


def test_exit_3_has_one_exception_type():
    from lagtransport.flow import NumericalFailure

    # every exception a library module defines is a numerical failure,
    # except the config error that the CLI raises for exit 2
    root = Path(lagtransport.__file__).parent
    defined = []
    for path in sorted(root.glob("*.py")):
        name = "lagtransport" + ("" if path.stem == "__init__" else f".{path.stem}")
        module = importlib.import_module(name)
        defined += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == name
        ]
    assert NumericalFailure in defined and cli.ConfigError in defined
    assert [
        cls.__qualname__ for cls in defined
        if cls is not cli.ConfigError and not issubclass(cls, NumericalFailure)
    ] == []
    # so the CLI decides its exit code from these two types alone
    source = Path(cli.__file__).read_text(encoding="utf-8")
    caught = _caught_library_exceptions(source, vars(cli), ("main", "_cmd_study"))
    assert set(caught) == {"ConfigError", "NumericalFailure"}
