"""Span recorder and name-based hooks for the traced benchmark run.

The traced run measures the library from the outside.  `install` looks up
public functions of the lagtransport modules by name and replaces every
module-level binding of each with a timing wrapper; the library itself is
not edited.  A hook whose target no longer exists is skipped, and every
metric fed by it is reported as absent instead of failing the run, so a
change that deletes a function leaves the benchmark working.

Spans are kept in memory as rows (name, start, end, parent, attrs) and
written as JSONL when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_NAME, _START, _END, _PARENT, _ATTRS, _NESTED = range(6)

_FIELD_CALLABLES = ("b1", "b2", "div_b1", "div_b2")
_KERNEL_CALLABLES = ("gamma", "smooth_part")


class Recorder:
    """In-memory spans of one traced run; records only while `active`."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.operator_bytes = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def open(self, name: str) -> int:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None, depth > 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        span[_ATTRS] = attrs
        self._stack.pop()
        self._depth[span[_NAME]] -= 1

    def wrap(self, name: str, fn, attrs_of=None):
        """`fn` timed as span `name`; `attrs_of(result)` adds span attributes."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            attrs = None
            try:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(out)
                return out
            finally:
                self.close(idx, attrs)

        return timed

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs, _) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")

    def self_times(self) -> list[float]:
        out = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] is not None:
                out[s[_PARENT]] -= s[_END] - s[_START]
        return out


def _replace_everywhere(owner, attr: str, new) -> None:
    """Rebind `owner.attr` and every lagtransport module global bound to the
    same object, since modules call each other through imported names."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("lagtransport"):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def _resolve(module: str, path: str):
    """(owner, attribute) for `module:path`, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


# span name -> (module, attribute path, attrs_of(result) or None)
SPAN_HOOKS = {
    "cli.load_config": ("lagtransport.cli", "load_config", None),
    "cli.slice_to_csv": ("lagtransport.transport", "slice_to_csv", None),
    "cli.json_dump": ("lagtransport.cli", "json.dump", None),
    "transport.continue_solution": ("lagtransport.transport", "continue_solution", None),
    "transport.choose_slab": ("lagtransport.transport", "choose_slab", None),
    "transport.picard_solve": ("lagtransport.transport", "picard_solve", None),
    "transport.apply_A": ("lagtransport.transport", "apply_A", None),
    "transport.fixed_point_residual": (
        "lagtransport.transport", "fixed_point_residual", None),
    "transport.eulerian_reconstruct": (
        "lagtransport.transport", "eulerian_reconstruct", None),
    "fields.kernel_slab_rate": ("lagtransport.fields", "kernel_slab_rate", None),
    "flow.flow_map": ("lagtransport.flow", "flow_map", None),
    "flow.inverse_flow_grid": ("lagtransport.flow", "inverse_flow_grid", None),
    "flow.solve_ivp": (
        "lagtransport.flow", "solve_ivp", lambda sol: {"nfev": int(sol.nfev)}),
    "grid.axis_weights": ("lagtransport.grid", "axis_weights", None),
    "grid.suffix_weight_matrix": ("lagtransport.grid", "suffix_weight_matrix", None),
    "grid.lp_norm": ("lagtransport.grid", "lp_norm", None),
}
HOOK_NAMES = (*SPAN_HOOKS, "fields.field_eval", "fields.kernel_eval",
              "transport.operator_bytes")


def install(rec: Recorder) -> set[str]:
    """Install every hook whose target exists; returns the installed names.

    Besides the span hooks, "fields.field_eval" and "fields.kernel_eval"
    wrap the callables of every field and kernel the CLI builds, and
    "transport.operator_bytes" records the largest kernel operator built.
    """
    installed = set()
    for name, (module, path, attrs_of) in SPAN_HOOKS.items():
        target = _resolve(module, path)
        if target is not None:
            owner, attr = target
            _replace_everywhere(owner, attr, rec.wrap(name, getattr(owner, attr), attrs_of))
            installed.add(name)

    def result_hook(name, module, path, on_result):
        target = _resolve(module, path)
        if target is None:
            return
        owner, attr = target
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if rec.active:
                on_result(out)
            return out

        _replace_everywhere(owner, attr, hooked)
        installed.add(name)

    def wrap_callables(obj, names):
        for attr in names:
            fn = getattr(obj, attr, None)
            if fn is not None:
                setattr(obj, attr, rec.wrap(f"fields.{attr}", fn))

    def record_operator(out):
        mats = out[0] if isinstance(out, tuple) else out
        rec.operator_bytes = max(rec.operator_bytes, int(getattr(mats, "nbytes", 0)))

    result_hook("fields.field_eval", "lagtransport.cli", "make_field",
                lambda fld: wrap_callables(fld, _FIELD_CALLABLES))
    result_hook("fields.kernel_eval", "lagtransport.cli", "make_kernel",
                lambda ker: wrap_callables(ker, _KERNEL_CALLABLES))
    result_hook("transport.operator_bytes", "lagtransport.transport",
                "_kernel_matrices", record_operator)
    return installed


def layer_metrics(rec: Recorder, installed: set[str], payload: dict | None) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name.

    `.calls` counts spans, `.s` sums the durations of outermost spans of a
    name, `.self_s` sums self times.  `payload` is the solve's output JSON.
    """
    self_s = rec.self_times()
    stats: dict[str, list[float]] = {}
    ivp = {"x_block": [0, 0, 0.0], "r_fiber": [0, 0, 0.0]}
    children: dict[int, set[str]] = {}
    for s in rec.spans:
        if s[_PARENT] is not None:
            children.setdefault(s[_PARENT], set()).add(s[_NAME])
    for i, s in enumerate(rec.spans):
        entry = stats.setdefault(s[_NAME], [0, 0.0, 0.0])
        entry[0] += 1
        if not s[_NESTED]:
            entry[1] += s[_END] - s[_START]
        entry[2] += self_s[i]
        if s[_NAME] == "flow.solve_ivp":
            seen = children.get(i, set())
            kind = "r_fiber" if seen & {"fields.b2", "fields.div_b2"} else "x_block"
            ivp[kind][0] += 1
            ivp[kind][1] += (s[_ATTRS] or {}).get("nfev", 0)
            ivp[kind][2] += self_s[i]

    out: dict[str, float] = {}

    def put(metric, names, column, hook=None):
        if all(h in installed for h in ([hook] if hook else names)):
            out[metric] = sum(stats.get(n, (0, 0.0, 0.0))[column] for n in names)

    fields = [f"fields.{a}" for a in _FIELD_CALLABLES]
    kernels = [f"fields.{a}" for a in _KERNEL_CALLABLES]
    put("fields.field_eval.calls", fields, 0, "fields.field_eval")
    put("fields.field_eval.s", fields, 1, "fields.field_eval")
    put("fields.kernel_eval.calls", kernels, 0, "fields.kernel_eval")
    put("fields.kernel_eval.s", kernels, 1, "fields.kernel_eval")
    for name, suffixes in (
        ("fields.kernel_slab_rate", ("calls", "s")),
        ("flow.flow_map", ("calls", "s")),
        ("flow.inverse_flow_grid", ("calls", "s")),
        ("grid.axis_weights", ("calls", "s")),
        ("grid.suffix_weight_matrix", ("calls", "s")),
        ("grid.lp_norm", ("calls", "self_s")),
        ("transport.choose_slab", ("self_s",)),
        ("transport.picard_solve", ("self_s",)),
        ("transport.apply_A", ("calls", "self_s")),
        ("transport.fixed_point_residual", ("s",)),
        ("transport.eulerian_reconstruct", ("self_s",)),
        ("cli.load_config", ("s",)),
    ):
        for suffix in suffixes:
            put(f"{name}.{suffix}", [name], ("calls", "s", "self_s").index(suffix))
    put("cli.output_write.s", ["cli.slice_to_csv", "cli.json_dump"], 1)
    if "flow.solve_ivp" in installed and "fields.field_eval" in installed:
        for kind, (solves, nfev, self_time) in ivp.items():
            out[f"flow.{kind}.solves"] = solves
            out[f"flow.{kind}.nfev"] = nfev
            out[f"flow.{kind}.self_s"] = self_time
    if "transport.operator_bytes" in installed:
        out["transport.operator_bytes"] = rec.operator_bytes
    if payload is not None:
        slabs = payload.get("run", {}).get("slabs", [])
        out["transport.slabs"] = len(slabs)
        out["transport.picard_iters"] = sum(s["iterations"] for s in slabs)
    main = [i for i, s in enumerate(rec.spans) if s[_NAME] == "cli.main"]
    if main:
        s = rec.spans[main[0]]
        out["bench.span_coverage"] = 1.0 - self_s[main[0]] / (s[_END] - s[_START])
    return out
