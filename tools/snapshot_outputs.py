"""Snapshot what a lagtransport tree computes, for byte-identity checks.

    python3 tools/snapshot_outputs.py SRC OUTDIR

SRC is the `src` directory of a checkout; the library is imported from
it and its sibling `demos/` supplies the configs and scripts.  The runs:

- `lagtransport.cli` on each of `demos/configs/*.json` (the command is the
  file name up to its first `_`), and on `flow_logistic.json` backward;
- the seven configs written out in `INLINE_RUNS`: `flow` on a `swirl`
  field (n = 2, j = 0) and `solve` without a kernel on the same field;
  `flow` on a mollified `logistic` field, on a `linear` field and on a
  `sobolev` field, each with a fiber (j = 1); and `solve` with the
  `fragmentation` kernel on a geometric fiber, under `logistic` (a moving
  fiber, one slab) and under `linear` on an n = 2 grid (five slabs);
- `solve` on the benchmark's workload configs at seeds 0 and 3, with the
  reference config of any workload that has one, built by importing this
  checkout's `benchmark/workloads.py` (read only; nothing is written there);
- each `demos/*.py` script with its default arguments.

With the six demo configs and five demo scripts that is 27 runs.

Every run gets a directory under OUTDIR holding its config, its outputs,
`exit_code`, `stdout` and `stderr`.  A CLI run works inside its own
directory with relative paths, and the checkout's path is replaced by
`<tree>` in what a run prints, so two snapshots differ only where the
trees compute differently:

    python3 tools/snapshot_outputs.py ../parent/src /tmp/snap_parent
    python3 tools/snapshot_outputs.py src /tmp/snap_change
    diff -r /tmp/snap_parent /tmp/snap_change

The runs go one at a time, each in a fresh process.  OUTDIR must not exist.

    python3 tools/snapshot_outputs.py --compare PARENT CHANGE

compares two snapshots instead: for each run, whether its exit codes
match and whether its files are byte-identical, and for each CSV or JSON
output that differs the largest relative difference over its numbers.  A
CSV column's numbers are compared relative to the column's largest
magnitude (a slice's values to the slice's max), a JSON number relative
to the larger of its two values; what is not a number must match, and a
JSON value that only one side holds is named.  It exits 1 when a run is
missing from one side or its exit codes differ.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "benchmark"
SEEDS = (0, 3)
TIMEOUT_S = 600
# the layouts and fields no demo config reaches: both float writers on an
# n = 2, j = 0 grid, a solve that has no kernel, the compressibility check
# of a mollified field, the `linear` and `sobolev` blocks, and a triangular
# kernel on a moving fiber and on an n = 2 grid (the n-d interpolation)
_SWIRL = {"name": "swirl", "params": {"omega": 0.7}}
_NODES = [0.0, 0.2, 0.4]
_FRAGMENTATION = {"name": "fragmentation", "params": {"scale": 2.0}}
_FRAGMENTATION_FIBER = {"r_bounds": [[1e-3, 1.0]], "r_spacing": "geometric"}
INLINE_RUNS = (
    ("inline-flow_swirl", "flow", {
        "schema_version": 1, "field": _SWIRL,
        "grid": {"x_bounds": [[-1.0, 1.0], [-0.5, 1.5]], "x_counts": [5, 4],
                 "time_nodes": [0.0, 0.3, 0.6]},
    }),
    ("inline-solve_swirl_no_kernel", "solve", {
        "schema_version": 1, "field": _SWIRL,
        "grid": {"x_bounds": [[-1.0, 1.0], [-0.5, 1.5]], "x_counts": [9, 7]},
        "initial": {"name": "gaussian",
                    "params": {"x_center": [0.2, 0.4], "x_width": 0.3}},
        "t_end": 0.6,
    }),
    ("inline-flow_logistic_mollified", "flow", {
        "schema_version": 1,
        "field": {"name": "logistic", "params": {"eps": 0.1}},
        "grid": {"x_bounds": [[-3.0, 3.0]], "x_counts": [9],
                 "r_bounds": [[0.1, 0.9]], "r_counts": [7], "time_nodes": _NODES},
    }),
    ("inline-flow_linear", "flow", {
        "schema_version": 1,
        "field": {"name": "linear", "params": {"lam": 0.3, "mu": -0.2, "n": 1, "j": 1}},
        "grid": {"x_bounds": [[-1.0, 1.0]], "x_counts": [5],
                 "r_bounds": [[0.5, 1.5]], "r_counts": [6], "time_nodes": _NODES},
    }),
    ("inline-flow_sobolev", "flow", {
        "schema_version": 1,
        "field": {"name": "sobolev", "params": {"alpha": 0.6, "j": 1}},
        "grid": {"x_bounds": [[0.3, 1.3]], "x_counts": [6],
                 "r_bounds": [[0.0, 1.0]], "r_counts": [4], "time_nodes": _NODES},
    }),
    ("inline-solve_logistic_fragmentation", "solve", {
        "schema_version": 1,
        "field": {"name": "logistic", "params": {"k": 1, "mu": 0.3}},
        "kernel": _FRAGMENTATION,
        "grid": {"x_bounds": [[-3.141592653589793, 3.141592653589793]],
                 "x_counts": [5], **_FRAGMENTATION_FIBER, "r_counts": [65]},
        "initial": {"name": "log_gaussian"},
        "t_end": 0.08,
    }),
    ("inline-solve_linear_fragmentation", "solve", {
        "schema_version": 1,
        "field": {"name": "linear", "params": {"lam": 0.3, "mu": 0.0, "n": 2, "j": 1}},
        "kernel": _FRAGMENTATION,
        "grid": {"x_bounds": [[-1.0, 1.0], [-1.0, 1.0]], "x_counts": [5, 5],
                 **_FRAGMENTATION_FIBER, "r_counts": [33]},
        "initial": {"name": "log_gaussian"},
        "t_end": 0.5,
    }),
)


def _run(argv: list, cwd: Path, src: Path) -> None:
    """Run `argv` in `cwd` on the library of `src`; record its exit code
    and its output there."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        (cwd / name).write_text(text.replace(str(src.parent), "<tree>"),
                                encoding="utf-8")
    (cwd / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")
    print(f"{proc.returncode}  {cwd.name}", flush=True)


def cli_runs(demos: Path):
    """(label, command, config) of every CLI run."""
    for path in sorted((demos / "configs").glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        command = path.stem.split("_")[0]
        yield f"demo-{path.stem}", command, cfg
        if path.stem == "flow_logistic":
            yield f"demo-{path.stem}-backward", command, dict(cfg, direction="backward")
    yield from INLINE_RUNS
    sys.path.insert(0, str(BENCHMARK))
    sys.dont_write_bytecode = True  # no __pycache__ in benchmark/
    import workloads

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in (w["name"] for w in declared["workloads"]):
        for seed in SEEDS:
            label = f"workload-{name}-seed{seed}"
            yield label, "solve", workloads.make_config(name, seed)
            ref = workloads.reference_config(name, seed)
            if ref is not None:
                yield f"{label}-reference", "solve", ref


def _leaves(node, prefix=""):
    """(path, value) of each leaf of a parsed JSON value, an empty list or
    object included."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, f"{prefix}.{key}" if isinstance(node, dict)
                               else f"{prefix}[{key}]")
    else:
        yield prefix.lstrip("."), node


def _number(value):
    """`value` as a float when it is a number or a CSV cell that reads as
    one, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _groups(path: Path) -> dict:
    """{name: values} of an output: a CSV file's columns by header, or a
    JSON file's leaves by path, one value each."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return {key: [value] for key, value in _leaves(json.loads(text))}
    header, *rows = csv.reader(io.StringIO(text))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _relative_difference(old: list, new: list) -> float | None:
    """The largest |a - b| of two value groups over the group's largest
    magnitude (0.0 when they are equal; a NaN pair counts as equal and a
    NaN against a number as inf), or None when they differ in length or
    in anything but their numbers."""
    if len(old) != len(new):
        return None
    pairs = [(_number(a), _number(b)) for a, b in zip(old, new) if a != b]
    if any(a is None or b is None for a, b in pairs):
        return None
    gaps = [math.inf if math.isnan(a - b) else abs(a - b) for a, b in pairs
            if not (math.isnan(a) and math.isnan(b))]
    if not gaps:
        return 0.0
    scale = max((abs(v) for v in map(_number, old + new)
                 if v is not None and not math.isnan(v)), default=0.0)
    return max(gaps) / scale if scale else math.inf


def compare_outputs(old: Path, new: Path) -> str:
    """One line on how two versions of a CSV or JSON output differ."""
    groups = [_groups(old), _groups(new)]
    parts = []
    differences = {k: _relative_difference(groups[0][k], groups[1][k])
                   for k in groups[0].keys() & groups[1].keys()}
    numeric = {k: d for k, d in differences.items() if d is not None}
    if numeric:
        where = max(sorted(numeric), key=numeric.get)
        parts.append(f"largest relative difference {numeric[where]:.3g}"
                     + (f" at {where}" if numeric[where] else ""))
    changed = sorted(k for k, d in differences.items() if d is None)
    if changed:
        parts.append(f"not numbers, differ: {', '.join(changed)}")
    for side, mine, theirs in (("parent", *groups), ("change", *groups[::-1])):
        only = sorted(mine.keys() - theirs.keys())
        if only:
            more = f" and {len(only) - 3} more" if len(only) > 3 else ""
            parts.append(f"only in {side}: {', '.join(only[:3])}{more}")
    return "; ".join(parts)


def compare(parent: Path, change: Path) -> int:
    """Print how each run of two snapshots differs; 1 when a run is
    missing from one side or its exit codes differ, else 0."""
    runs = sorted({d.name for d in (*parent.iterdir(), *change.iterdir()) if d.is_dir()})
    status, identical = 0, 0
    for run in runs:
        old, new = parent / run, change / run
        if not (old.is_dir() and new.is_dir()):
            print(f"{run}: only in {'parent' if old.is_dir() else 'change'}")
            status = 1
            continue
        codes = [(d / "exit_code").read_text(encoding="utf-8").strip() for d in (old, new)]
        files = sorted({p.relative_to(d) for d in (old, new) for p in d.rglob("*")
                        if p.is_file()})
        differ = [f for f in files if not ((old / f).is_file() and (new / f).is_file()
                                           and (old / f).read_bytes() == (new / f).read_bytes())]
        if codes[0] != codes[1]:
            status = 1
        identical += not differ
        print(f"{run}: exit codes {'match' if codes[0] == codes[1] else 'DIFFER'} "
              f"({codes[0]} / {codes[1]}), "
              + (f"{len(differ)} files differ" if differ else "byte-identical"))
        for f in differ:
            if not ((old / f).is_file() and (new / f).is_file()):
                note = f"only in {'parent' if (old / f).is_file() else 'change'}"
            elif f.suffix in (".csv", ".json"):
                note = compare_outputs(old / f, new / f)
            else:
                note = "differs"
            print(f"    {f}: {note}")
    print(f"{len(runs)} runs, {identical} byte-identical")
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(Path(args[1]), Path(args[2]))
    if len(args) != 2:
        usage = __doc__.split("\n\n")
        print(usage[1], usage[8], sep="\n", file=sys.stderr)
        return 2
    src, out = Path(args[0]).resolve(), Path(args[1])
    if not (src / "lagtransport" / "cli.py").is_file():
        print(f"error: {src} holds no lagtransport package", file=sys.stderr)
        return 2
    demos = src.parent / "demos"
    out.mkdir(parents=True)
    for label, command, cfg in cli_runs(demos):
        run_dir = out / label
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps(cfg, indent=2) + "\n",
                                             encoding="utf-8")
        _run([sys.executable, "-m", "lagtransport.cli", command,
              "--config", "config.json", "--out", "out"], run_dir, src)
    for script in sorted(demos.glob("*.py")):
        run_dir = out / f"script-{script.stem}"
        run_dir.mkdir()
        _run([sys.executable, str(script)], run_dir, src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
