"""Experiment harnesses: operator convergence, stability, counterexample."""

import json

import numpy as np
import pytest

from lagtransport.experiments import (
    ExperimentReport,
    counterexample_experiment,
    operator_convergence_experiment,
    stability_experiment,
)
from lagtransport.grid import GridSpec


# ---------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------


def test_report_passed_and_serialization(tmp_path):
    report = ExperimentReport(name="demo", params={"alpha": 1.0})
    report.rows.append({"eps": 0.1, "distance": 0.02})
    report.rows.append({"eps": 0.05, "distance": 0.005, "order_from_prev": 2.0})
    report.add_criterion("order", 2.0, 1.0, True, "dyadic slope")
    assert report.passed
    report.add_criterion("extra", 0.0, 1.0, False, "deliberately failing")
    assert not report.passed

    jpath = tmp_path / "report.json"
    report.to_json(jpath)
    data = json.loads(jpath.read_text())
    assert data["name"] == "demo"
    assert data["criteria"]["order"]["passed"] is True
    assert data["passed"] is False

    cpath = tmp_path / "report.csv"
    report.to_csv(cpath)
    header = cpath.read_text().splitlines()[0].split(",")
    # union of row keys, order-stable
    assert set(header) == {"eps", "distance", "order_from_prev"}


# ---------------------------------------------------------------------
# operator convergence
# ---------------------------------------------------------------------


def test_operator_convergence_small_run(tmp_path):
    grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(33,),
        r_bounds=((0.0, 1.0),), r_counts=(17,),
        time_nodes=np.linspace(0.0, 0.2, 5),
    )
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        report = operator_convergence_experiment(
            eps_values=(0.2, 0.1, 0.05), t_end=0.2, num_t=5, grid=grid,
        )
        report.to_json(path)
    assert report.passed, report.criteria
    dists = [row["distance"] for row in report.rows]
    assert dists[0] > dists[-1]
    # symmetric smoothing of a smooth field cancels the first moment,
    # so the measured order sits near two, well above the threshold
    assert report.criteria["order"]["value"] > 1.7
    # reports carry no timing data: a rerun writes identical bytes
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_operator_convergence_needs_two_radii():
    with pytest.raises(ValueError):
        operator_convergence_experiment(eps_values=(0.1,))


# ---------------------------------------------------------------------
# stability of the solved fixed point
# ---------------------------------------------------------------------


def test_stability_small_run():
    grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(33,),
        r_bounds=((0.0, 1.0),), r_counts=(17,),
        time_nodes=np.array([0.0, 0.2]),
    )
    report = stability_experiment(
        eps_values=(0.3, 0.15, 0.075), t_end=0.2, checkpoints=(0.2,),
        final_threshold=5e-3, grid=grid,
    )
    assert report.passed, report.criteria
    dists = [row["distance"] for row in report.rows]
    assert dists[-1] < dists[0]
    assert report.criteria["final_distance"]["value"] == dists[-1]


def test_stability_needs_three_radii():
    with pytest.raises(ValueError):
        stability_experiment(eps_values=(0.2, 0.1))


# ---------------------------------------------------------------------
# weak-but-not-strong convergence of the densities
# ---------------------------------------------------------------------


def test_counterexample_experiment_passes_at_moderate_resolution():
    report = counterexample_experiment(k_values=(2, 4, 8), line_nodes=2049)
    assert report.passed, report.criteria
    # the window averages converge to 1 like 1/k while the L1 distance
    # stays put: the scaled weak gaps are bounded, the distances agree
    rows = {row["k"]: row for row in report.rows}
    assert rows[8]["weak_gap"] < rows[2]["weak_gap"]
    l1_vals = [row["l1_distance"] for row in report.rows]
    assert max(l1_vals) - min(l1_vals) < 0.01 * np.mean(l1_vals)


def test_counterexample_detects_wrong_floor():
    report = counterexample_experiment(
        k_values=(2, 4), line_nodes=1025, floor_fraction=1.5,
    )
    assert not report.criteria["strong_failure"]["passed"]
