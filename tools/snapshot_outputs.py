"""Snapshot what a lagtransport tree computes, for byte-identity checks.

    python3 tools/snapshot_outputs.py SRC OUTDIR

SRC is the `src` directory of a checkout; the library is imported from
it and its sibling `demos/` supplies the configs and scripts.  The runs:

- `lagtransport.cli` on each of `demos/configs/*.json` (the command is the
  file name up to its first `_`), and on `flow_logistic.json` backward;
- `solve` on the benchmark's workload configs at seeds 0 and 3, with the
  reference config of any workload that has one, built by importing this
  checkout's `benchmark/workloads.py` (read only; nothing is written there);
- each `demos/*.py` script with its default arguments.

Every run gets a directory under OUTDIR holding its config, its outputs,
`exit_code`, `stdout` and `stderr`.  A CLI run works inside its own
directory with relative paths, and the checkout's path is replaced by
`<tree>` in what a run prints, so two snapshots differ only where the
trees compute differently:

    python3 tools/snapshot_outputs.py ../parent/src /tmp/snap_parent
    python3 tools/snapshot_outputs.py src /tmp/snap_change
    diff -r /tmp/snap_parent /tmp/snap_change

The runs go one at a time, each in a fresh process.  OUTDIR must not exist.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "benchmark"
SEEDS = (0, 3)
TIMEOUT_S = 600


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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
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
