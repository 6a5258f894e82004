"""tools/snapshot_outputs.py --compare on two synthetic snapshots."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "snapshot_outputs.py"


def _snapshot_outputs():
    """tools/snapshot_outputs.py loaded by path, without adding it to
    sys.modules."""
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(root, label, exit_code=0, stdout="", outputs=None):
    """One run's directory as the snapshot writes it."""
    run = root / label
    (run / "out").mkdir(parents=True)
    (run / "exit_code").write_text(f"{exit_code}\n", encoding="utf-8")
    (run / "stdout").write_text(stdout, encoding="utf-8")
    for name, text in (outputs or {}).items():
        (run / "out" / name).write_text(text, encoding="utf-8")


def _csv(u):
    return "t,y_x1,u\n" + "".join(f"0.5,{x},{v!r}\n" for x, v in zip((0, 1), u))


def _json(**run):
    return json.dumps({"command": "solve", "run": run})


def _trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, u, slab, text in (
        (parent, (2.0, 1.0), {"differences": [], "residual": 1e-16}, "nan"),
        (change, (2.0, 1.5), {"residual": 2e-16}, "nan"),
    ):
        _run(root, "same", stdout="ok\n", outputs={"a.csv": _csv((2.0, 1.0))})
        _run(root, "moved", outputs={
            "s.csv": _csv(u),
            "s.json": _json(slabs=[slab], masses=[1.0, float("nan")], kernel=text),
        })
    _run(parent, "renamed", outputs={"s.json": _json(kernel="constant")})
    _run(change, "renamed", outputs={"s.json": _json(kernel="fragmentation")},
         stdout="more\n")
    return parent, change


def test_compare_reports_each_run_and_each_differing_output(tmp_path, capsys):
    # a CSV column is compared relative to its largest magnitude and a
    # JSON number to the larger of its two values; a NaN pair is equal,
    # a value one side lacks is named, and text that is not a number is
    # reported as differing, not measured
    parent, change = _trees(tmp_path)
    tool = _snapshot_outputs()
    assert tool.main(["--compare", str(parent), str(change)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved: exit codes match (0 / 0), 2 files differ",
        "    out/s.csv: largest relative difference 0.25 at u",
        "    out/s.json: largest relative difference 0.5 at run.slabs[0].residual; "
        "only in parent: run.slabs[0].differences",
        "renamed: exit codes match (0 / 0), 2 files differ",
        "    out/s.json: largest relative difference 0; "
        "not numbers, differ: run.kernel",
        "    stdout: differs",
        "same: exit codes match (0 / 0), byte-identical",
        "3 runs, 1 byte-identical",
    ]


def test_compare_fails_on_a_changed_exit_code_or_a_missing_run(tmp_path, capsys):
    parent, change = _trees(tmp_path)
    _run(parent, "failed", exit_code=0)
    _run(change, "failed", exit_code=3)
    _run(change, "extra")
    tool = _snapshot_outputs()
    assert tool.main(["--compare", str(parent), str(change)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "extra: only in change" in out
    failed = out.index("failed: exit codes DIFFER (0 / 3), 1 files differ")
    assert out[failed + 1] == "    exit_code: differs"
    assert out[-1] == "5 runs, 1 byte-identical"


def test_relative_difference_of_value_groups():
    tool = _snapshot_outputs()
    diff = tool._relative_difference
    assert diff(["1.0", "4.0"], ["1.0", "3.0"]) == 0.25
    assert diff([0.0], [0.0]) == 0.0
    assert diff([float("nan")], [float("nan")]) == 0.0
    assert diff([float("nan")], [1.0]) == math.inf
    assert diff([1.0], [1.0, 2.0]) is None
    assert diff(["a"], ["b"]) is None
    assert diff([True], [False]) is None
