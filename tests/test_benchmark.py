"""The benchmark's own gate: one traced operation of each workload.

Each operation is `benchmark/worker.py` in a subprocess, as the benchmark
runs it, with its outputs under the test's temporary directory.  The
benchmark's files are read and run, never edited.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _workloads():
    """benchmark/workloads.py loaded by path, without adding it to
    sys.modules."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _operation(role, workload, config, out_dir, trace, reference):
    job = {
        "role": role, "workload": workload, "config": config,
        "out_dir": str(out_dir), "trace": trace,
        "reference": str(reference) if reference else None,
        "t_spawn": time.clock_gettime(time.CLOCK_MONOTONIC),
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the benchmark reads the last line of the worker's output
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_a_traced_operation_passes_the_workload_gate(tmp_path, workload):
    workloads = _workloads()
    reference = None
    ref_config = workloads.reference_config(workload, 0)
    if ref_config is not None:
        reference = tmp_path / "reference"
        ref = _operation("reference", workload, ref_config, reference, False, None)
        assert ref["passed"], ref
    result = _operation(
        "sample", workload, workloads.make_config(workload, 0),
        tmp_path / "sample", True, reference,
    )
    assert result["passed"], result
    assert result["hooks_absent"] == []
    # bench.trace_overhead_s is derived by run.py from two runs
    declared = {m["name"] for m in DECLARED["per_layer"]} - {"bench.trace_overhead_s"}
    assert declared <= set(result["layers"]), declared - set(result["layers"])
