"""One benchmark process: set up, make one `lagtransport.cli.main` call, check it.

run.py starts this script once per operation with a JSON job as its only
argument, and reads the JSON object this script prints as the last line of
its standard output.  Job keys:

    role         "setup" (set up only), "reference" (untimed solve whose
                 output the workload's check compares against) or "sample"
    workload     workload name
    config       the solve config to write
    out_dir      directory for the config, outputs and spans
    t_spawn      CLOCK_MONOTONIC reading just before the process was started
    trace        record spans and report per-layer metrics
    reference    out_dir of the reference solve, or null
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _machine() -> dict:
    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS libraries loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({
            line.split()[-1] for line in fh
            if "openblas" in line and line.split()[-1].startswith("/")
        })
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import lagtransport.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"lagtransport imported from {cli.__file__}, not {ROOT}/src")
    out_dir = Path(job["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(job["config"], indent=2), encoding="utf-8")
    result = {
        "pid": os.getpid(),
        "role": job["role"],
        "workload": job["workload"],
        "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - job["t_spawn"],
    }
    if job["role"] == "setup":
        print(json.dumps(result))
        return 0

    import layers
    import workloads

    rec = installed = None
    if job["trace"]:
        rec = layers.Recorder()
        installed = layers.install(rec)
        rec.active = True
        main_span = rec.open("cli.main")
    argv = ["solve", "--config", str(cfg_path), "--out", str(out_dir)]
    error = None
    tic, cpu_tic = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code, error = None, traceback.format_exc()
    finally:
        wall = time.perf_counter() - tic
        cpu = time.process_time() - cpu_tic
        if rec is not None:
            rec.close(main_span)
            rec.active = False
    result["wall_s"] = wall
    result["cpu_s"] = cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["exit_code"] = code
    result["machine"] = _machine()

    payload = None
    passed = code == 0
    if passed:
        try:
            payload = workloads.read_payload(out_dir)
            if job["role"] == "sample":
                ref = Path(job["reference"]) if job["reference"] else None
                gate = workloads.check(
                    job["workload"], job["config"], payload, out_dir, ref
                )
                passed = bool(gate.pop("passed"))
                result["ref_err"] = gate.pop("ref_err")
                result["check"] = gate
        except (OSError, ValueError, KeyError) as exc:
            passed, error = False, f"check failed: {exc!r}"
    result["passed"] = passed
    if error:
        result["error"] = error
    if rec is not None:
        result["layers"] = layers.layer_metrics(rec, installed, payload)
        result["hooks_absent"] = sorted(set(layers.HOOK_NAMES) - installed)
        rec.write_jsonl(out_dir / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
