"""List the library lines that the program's own runs never reach.

    python3 tools/traffic_lines.py SRC

SRC is the `src` directory of a checkout.  The runs are those of
`tools/snapshot_outputs.py`: `lagtransport.cli` on every config that
`snapshot_outputs.cli_runs` yields, then each `demos/*.py` script with
its default arguments.  They go one after another in this process, under
the stdlib `trace` module, with the library imported from SRC for the
first time inside the trace, so its module-level lines count as reached.
Outputs go to a temporary directory that is removed at the end, and no
bytecode is written.

For each module of the package it prints the number of executable lines
(the line numbers of its compiled code objects) that no run reached,
then each run of consecutive unreached lines with the source of its
first line:

    flow.py: 22 of 253 executable lines unreached
      90        raise NumericalFailure(f"{block} integration failed: ...
      139-141   raise ValueError(
      ...

The runs share one process, so a memo that one run fills is warm for
the next: a line counts as reached when any run reaches it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import trace
import types
from pathlib import Path


def _executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from `path`."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _traffic(src: Path, work: Path) -> dict[str, int]:
    """Run every CLI config and demo script in `work`; return the exit
    code of each run by label."""
    from lagtransport import cli
    from snapshot_outputs import cli_runs

    demos = src.parent / "demos"
    codes = {}
    for label, command, cfg in cli_runs(demos):
        run_dir = work / label
        run_dir.mkdir()
        config = run_dir / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        codes[label] = cli.main(
            [command, "--config", str(config), "--out", str(run_dir / "out")]
        )
    for script in sorted(demos.glob("*.py")):
        os.chdir(work)
        sys.argv = [str(script)]
        try:
            runpy.run_path(str(script), run_name="__main__")
            codes[f"script-{script.stem}"] = 0
        except SystemExit as exc:
            codes[f"script-{script.stem}"] = exc.code
    return codes


def _ranges(lines: list[int]) -> list[tuple[int, int]]:
    """Consecutive runs of the sorted `lines`, as (first, last) pairs."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], line)
        else:
            runs.append((line, line))
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    package = src / "lagtransport"
    if not (package / "cli.py").is_file():
        print(f"error: {src} holds no lagtransport package", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    tracer = trace.Trace(count=1, trace=0)
    cwd, argv0 = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory() as tmp:
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes = tracer.runfunc(_traffic, src, Path(tmp))
        finally:
            os.chdir(cwd)
            sys.argv = argv0
    reached = {}
    for filename, line in tracer.results().counts:
        reached.setdefault(Path(filename).resolve(), set()).add(line)
    print(f"{len(codes)} runs, exit codes "
          + ", ".join(f"{c}: {sum(v == c for v in codes.values())}"
                      for c in sorted(set(codes.values()), key=str)))
    for path in sorted(package.glob("*.py")):
        lines = _executable_lines(path)
        missing = sorted(lines - reached.get(path.resolve(), set()))
        print(f"{path.name}: {len(missing)} of {len(lines)} executable lines unreached")
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in _ranges(missing):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span:<9} {source[first - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
