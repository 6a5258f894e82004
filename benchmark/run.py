"""Benchmark of the lagtransport solver through its command line entry point.

Run from the root of a checkout:

    python3 benchmark/run.py --workload frag_cascade --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py            # every workload in turn, seed 0, 40 s each

Each operation is one `lagtransport.cli.main(["solve", ...])` call in a
fresh process (benchmark/worker.py), one process at a time: a closed loop
with a single client.  A run starts operations until the next one would
end after `--seconds`, and always makes at least one.  The library is run
from `src/` of the checkout and is never edited.

`--trace 0` reports the end-to-end metrics: the median `cli.main` time,
the median set-up time (process start until `lagtransport.cli` is
imported and the config is written, taken in at least MIN_SETUPS
processes), and the median peak RSS.  `--trace 1` alternates untraced and
traced operations; the traced ones wrap the library's functions from the
benchmark's own files (benchmark/layers.py) and give the per-layer metrics.

Every operation's output is checked (benchmark/workloads.py); a nonzero
exit, a crash or a failed check counts as a failed operation.  The last
line of standard output is one JSON object with the metrics BENCHMARK.json
declares for the trace mode; everything measured, the machine and the
process of every operation go to .bench_out/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SETUPS = 5
OPERATION_TIMEOUT_S = 75


def _unit(name: str) -> str:
    if name in ("error_rate", "ref_err", "bench.span_coverage"):
        return "1"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _child_env(nproc: int) -> dict:
    """Environment of the worker processes: BLAS threads at most nproc."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def _operation(job: dict, env: dict) -> dict:
    """Run one worker process to its end; a failure becomes a record."""
    job = dict(job, t_spawn=time.clock_gettime(time.CLOCK_MONOTONIC))
    record = {"role": job["role"], "workload": job["workload"],
              "traced": job["trace"], "passed": False}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=OPERATION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {OPERATION_TIMEOUT_S} s"
        return record
    lines = proc.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        record["error"] = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    if proc.returncode != 0:
        record["passed"] = False
    return record


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    out = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    cfg = workloads.make_config(name, seed)
    ref_cfg = workloads.reference_config(name, seed)
    records = []

    def job(role, config, trace_it, tag):
        return {"role": role, "workload": name, "config": config,
                "out_dir": str(out / tag), "trace": trace_it,
                "reference": str(out / "reference") if ref_cfg else None}

    if ref_cfg is not None:
        records.append(_operation(job("reference", ref_cfg, False, "reference"), env))

    start = time.perf_counter()
    durations = []
    while True:
        tic = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            tag = f"op{len(records)}"
            records.append(_operation(job("sample", cfg, traced, tag), env))
        durations.append(time.perf_counter() - tic)
        now = time.perf_counter() - start
        if now + statistics.median(durations) > seconds:
            break
    for _ in range(MIN_SETUPS - sum("setup_s" in r for r in records)):
        tag = f"op{len(records)}"
        records.append(_operation(job("setup", cfg, False, tag), env))

    ops = [r for r in records if r["role"] == "sample"]
    plain = [r for r in ops if not r["traced"]]
    traced = [r for r in ops if r["traced"]]
    failed = sum(not r["passed"] for r in ops)
    metrics = {
        "wall_s": _median(r.get("wall_s") for r in plain),
        "setup_s": _median(r.get("setup_s") for r in records),
        "peak_rss_mb": _median(r.get("peak_rss_mb") for r in plain),
        "error_rate": failed / len(ops),
        "ref_err": _median(r.get("ref_err") for r in plain),
    }
    if trace:
        keys = set.intersection(*(set(r.get("layers", {})) for r in traced))
        for key in sorted(keys):
            metrics[key] = _median(r["layers"][key] for r in traced)
        traced_wall = _median(r.get("wall_s") for r in traced)
        if traced_wall is not None and metrics["wall_s"] is not None:
            metrics["bench.trace_overhead_s"] = traced_wall - metrics["wall_s"]
    metrics = {k: v for k, v in metrics.items() if v is not None}
    machine = _machine()
    machine.update(next((r["machine"] for r in records if "machine" in r), {}))
    result = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(ops),
        "failed": failed,
        "samples": len(plain),
        "metrics": metrics,
        "machine": machine,
        "processes": [
            {k: r.get(k) for k in ("pid", "workload", "role", "traced", "passed",
                                   "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ref_err",
                                   "error", "hooks_absent") if k in r}
            for r in records
        ],
        "config": cfg,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    result["path"] = str((out / "result.json").relative_to(ROOT))
    return result


def _report(result: dict) -> None:
    name, m = result["workload"], result["machine"]
    print(f"== {name} (seed {result['seed']}, {result['seconds']} s, "
          f"trace {result['trace']}): {result['why']}")
    print(f"   machine: {m['nproc']} cpu {m['cpu']}, Python {m['python']}, "
          f"numpy {m.get('numpy')}, scipy {m.get('scipy')}, {m.get('blas')} "
          f"threads {m.get('blas_threads')}")
    for key, value in result["metrics"].items():
        note = ""
        if key == "wall_s":
            note = f"  (median of {result['samples']})"
        elif key == "error_rate":
            note = f"  ({result['failed']} of {result['attempted']} failed)"
        print(f"   {name} {key:38s} {value:.6g} {_unit(key)}{note}")
    for proc in result["processes"]:
        if proc.get("error"):
            print(f"   pid {proc.get('pid')} {proc['role']}: {proc['error']}",
                  file=sys.stderr)
    print(f"   results: {result['path']}")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*why, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lagtransport" / "cli.py").is_file():
        print(f"error: {ROOT}/src/lagtransport is missing; run from a checkout",
              file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    names = tuple(why) if args.workload == "all" else (args.workload,)
    env = _child_env(_machine()["nproc"])
    results = [
        run_workload(name, why[name], args.seed, args.seconds, bool(args.trace), env)
        for name in names
    ]
    metrics = {}
    for result in results:
        _report(result)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for spec in wanted:
            if spec["name"] in result["metrics"]:
                metrics[prefix + spec["name"]] = {
                    "value": result["metrics"][spec["name"]], "unit": spec["unit"],
                }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
