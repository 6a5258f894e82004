"""tools/bench_record.py on a synthetic `.bench_out` tree of two workloads."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
MACHINE = {"nproc": 2, "python": "3.11.7"}


def _bench_record():
    """tools/bench_record.py loaded by path, without adding it to
    sys.modules."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _process(role, traced=False, **metrics):
    return {"pid": 1, "workload": "w", "role": role, "traced": traced,
            "passed": True, **metrics}


def _write(results, workload, trace, wall, setup, rss, metrics):
    """One run's result.json: untraced samples with the given wall, setup
    and RSS values, then a setup-only process and a reference run whose
    setup times count and whose wall time and RSS do not."""
    processes = [
        _process("sample", wall_s=w, setup_s=s, peak_rss_mb=r)
        for w, s, r in zip(wall, setup, rss)
    ] + [
        _process("setup", setup_s=setup[-2]),
        _process("reference", wall_s=9.0, setup_s=setup[-1], peak_rss_mb=99.0),
    ]
    result = {
        "workload": workload, "why": f"why {workload}", "seed": 0, "seconds": 40,
        "trace": trace, "attempted": len(wall), "failed": 0, "samples": len(wall),
        "metrics": metrics, "machine": MACHINE, "processes": processes,
    }
    run = results / f"{workload}-seed0-trace{trace}"
    run.mkdir(parents=True)
    (run / "result.json").write_text(json.dumps(result), encoding="utf-8")


_LAYERS = {"transport.picard_iters": 132.0, "transport.slabs": 17.0,
           "transport.apply_A.calls": 166.0}


def _tree(tmp_path):
    results = tmp_path / ".bench_out"
    setup = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    for workload, rss in (("alpha", [36.0, 35.0, 35.5, 34.5, 35.25]),
                          ("beta", [40.0, 41.0, 42.0, 43.0, 44.0])):
        wall = [0.5, 0.1, 0.4, 0.2, 0.3]
        plain = {"wall_s": 0.3, "setup_s": 1.0, "peak_rss_mb": sorted(rss)[2],
                 "error_rate": 0.0, "ref_err": 2.5e-5}
        _write(results, workload, 0, wall, setup, rss, plain)
        # a traced run reports its own medians and the layer counts
        traced = dict(plain, wall_s=0.35, **_LAYERS)
        _write(results, workload, 1, [0.35] * 5, setup, rss, traced)
    return results


def test_a_record_keeps_medians_quartiles_and_layer_counts(tmp_path):
    results, target = _tree(tmp_path), tmp_path / "BENCH_9.json"
    assert _bench_record().main([str(results), "abc123", str(target)]) == 0
    record = json.loads(target.read_text(encoding="utf-8"))
    assert {k: record[k] for k in ("commit", "seed", "seconds", "machine")} == {
        "commit": "abc123", "seed": 0, "seconds": 40, "machine": MACHINE,
    }
    assert list(record["workloads"]) == ["alpha", "beta"]
    # inclusive quartiles; wall time and RSS over the untraced samples,
    # setup time over every process
    assert record["workloads"]["alpha"] == {
        "wall_s": {"median": 0.3, "q1": 0.2, "q3": 0.4, "n": 5},
        "setup_s": {"median": 1.0, "q1": 0.625, "q3": 1.375, "n": 7},
        "peak_rss_mb": {"median": 35.25, "q1": 35.0, "q3": 35.5, "n": 5},
        "ref_err": 2.5e-5, "attempted": 5, "failed": 0, **_LAYERS,
    }
    assert record["workloads"]["beta"]["peak_rss_mb"]["median"] == 42.0
    assert "why" not in target.read_text(encoding="utf-8")


def test_a_missing_trace_exits_2(tmp_path, capsys):
    results, target = _tree(tmp_path), tmp_path / "BENCH_9.json"
    (results / "beta-seed0-trace1" / "result.json").unlink()
    assert _bench_record().main([str(results), "abc123", str(target)]) == 2
    assert "needs one --trace 0 and one --trace 1 run" in capsys.readouterr().err
    assert not target.exists()


def test_a_median_that_is_not_the_reported_one_raises(tmp_path):
    results, target = _tree(tmp_path), tmp_path / "BENCH_9.json"
    path = results / "alpha-seed0-trace0" / "result.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    result["metrics"]["wall_s"] = 0.25
    path.write_text(json.dumps(result), encoding="utf-8")
    with pytest.raises(ValueError,
                       match="alpha wall_s: median 0.3 is not the reported 0.25"):
        _bench_record().main([str(results), "abc123", str(target)])
    assert not target.exists()
