"""Experiment harnesses: stability, counterexample."""

import numpy as np
import pytest

from lagtransport.experiments import (
    ExperimentReport,
    counterexample_experiment,
    rows_to_csv,
    stability_experiment,
)
from lagtransport.fields import mollify_field, separable_kernel
from lagtransport.flow import flow_map
from lagtransport.grid import GridSpec, NormSpec, lp_norm
from lagtransport.transport import SolverConfig, continue_solution, make_initial

from conftest import sobolev_shear_field


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

    cpath = tmp_path / "report.csv"
    rows_to_csv(report.rows, cpath)
    header = cpath.read_text().splitlines()[0].split(",")
    # union of row keys, order-stable
    assert set(header) == {"eps", "distance", "order_from_prev"}


def _rows_csv_by_rows(rows):
    """Reference: the row-at-a-time writer rows_to_csv used to be."""
    keys = list(dict.fromkeys(k for row in rows for k in row))
    lines = [",".join(keys)]
    for row in rows:
        cells = (row.get(k, "") for k in keys)
        lines.append(",".join(
            f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells
        ))
    return "\n".join(lines) + "\n"


def test_rows_csv_matches_row_writer_across_block_edges(tmp_path, monkeypatch):
    # four-row blocks split the six rows; the text of a row is its prefix
    monkeypatch.setattr("lagtransport.flow._CSV_BLOCK_ROWS", 4)
    rows = [
        {"eps": 0.1, "distance": 0.1 + 0.2, "passed": True},
        {"eps": 0.05, "order": 2, "passed": False},
        {"distance": float("nan"), "name": "x"},
        {"eps": -0.0, "distance": 5e-324, "order": -3},
        {"passed": True},
        {"eps": float("inf"), "name": "last"},
    ]
    path = tmp_path / "rows.csv"
    rows_to_csv(rows, path)
    text = path.read_text()
    assert text == _rows_csv_by_rows(rows)
    assert text.splitlines()[:4] == [
        "eps,distance,passed,order,name",
        "0.10000000000000001,0.30000000000000004,True,,",
        "0.050000000000000003,,False,2,",
        ",nan,,,x",
    ]
    rows_to_csv([], path)
    assert path.read_text() == "\n" == _rows_csv_by_rows([])


# ---------------------------------------------------------------------
# stability of the solved fixed point
# ---------------------------------------------------------------------


def test_stability_small_run():
    grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(33,),
        r_bounds=((0.0, 1.0),), r_counts=(17,),
    )
    report = stability_experiment(
        eps_values=(0.3, 0.15, 0.075), t_end=0.2, checkpoints=(0.2,),
        final_threshold=5e-3, grid=grid,
    )
    assert report.passed, report.criteria
    dists = [row["distance"] for row in report.rows]
    assert dists[-1] < dists[0]
    assert report.criteria["final_distance"]["value"] == dists[-1]


def test_stability_where_the_drift_is_sobolev_and_not_lipschitz():
    # the paper's stability theorem is about Sobolev drifts, where
    # Cauchy-Lipschitz does not apply: b1 = (|x2|^(1/2), 0) is not
    # Lipschitz at x2 = 0.  Solutions under the mollified shear approach
    # the unmollified solve as eps falls.  The paper proves convergence,
    # not a rate: the rate eps^(1/2) = eps^alpha measured here (distance
    # ratios 0.703, 0.707, 0.707 per halving, against eps^2 for the
    # smooth logistic field of criterion 8) is empirical, recorded and
    # not asserted
    field = sobolev_shear_field()
    grid = GridSpec(
        x_bounds=((-1.5, 1.5), (-1.0, 1.0)), x_counts=(13, 13),
        r_bounds=((0.0, 1.0),), r_counts=(9,),
    )
    times = np.linspace(0.0, 0.4, 5)
    fmap = flow_map(field, grid, times)
    xs = grid.x_labels()
    exact = np.stack(np.broadcast_arrays(
        xs[:, 0] + times[:, None] * np.sqrt(np.abs(xs[:, 1])), xs[:, 1],
    ), axis=-1)
    assert np.max(np.abs(fmap.x1 - exact)) < 1e-14
    assert np.all(fmap.logj1 == 0.0)

    kernel = separable_kernel()
    config = SolverConfig(picard_tol=1e-10)
    datum = make_initial("gaussian", x_center=[0.0, 0.0])
    spec = NormSpec(p=2.0, window=((-1.0, 1.0), (-0.8, 0.8), (0.15, 0.85)))

    def final(fld):
        sol = continue_solution(datum, fld, kernel, config, grid, 0.4)
        assert len(sol.summaries) == 1
        return sol.final.values

    ref = final(field)
    dists = [
        lp_norm(final(mollify_field(field, eps)) - ref, grid, spec)
        for eps in (0.2, 0.1, 0.05, 0.025)
    ]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    # measured 7.25e-3 at eps = 0.025
    assert dists[-1] < 8e-3
    print(
        "sobolev shear stability: distances "
        + " -> ".join(f"{d:.2e}" for d in dists)
        + "; empirical ratios per halving "
        + ", ".join(f"{b / a:.3f}" for a, b in zip(dists, dists[1:]))
    )


def test_stability_needs_three_radii():
    with pytest.raises(ValueError):
        stability_experiment(eps_values=(0.2, 0.1))


@pytest.mark.parametrize("eps_values", [(0.2, 0.1, 0.0), (np.inf, 0.2, 0.1)])
def test_stability_rejects_bad_radii_before_solving(monkeypatch, eps_values):
    from lagtransport import experiments

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the radii were checked")

    monkeypatch.setattr(experiments, "continue_solution", no_solve)
    with pytest.raises(ValueError, match="radii"):
        stability_experiment(eps_values=eps_values)


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


@pytest.mark.parametrize("k_values", [(0, 2), (-2, 4), (2.5,), ()])
def test_counterexample_rejects_k_that_is_not_a_positive_integer(k_values):
    with pytest.raises(ValueError, match="positive integers"):
        counterexample_experiment(k_values=k_values, line_nodes=65)


@pytest.mark.parametrize("window", [(1.0,), (), (0.3, 2.3, 5.0), (2.3, 0.3)])
def test_counterexample_rejects_a_window_that_is_not_lo_below_hi(window):
    with pytest.raises(ValueError, match="window"):
        counterexample_experiment(k_values=(2,), line_nodes=65, window=window)


@pytest.mark.parametrize("checkpoints", [(), (0.0,), (0.2, 0.0)])
def test_stability_rejects_checkpoints_that_compare_nothing(checkpoints):
    # raised before any solve, naming the argument: a study needs a
    # checkpoint after the start, where the runs can differ
    with pytest.raises(ValueError, match="checkpoints must name at least one"):
        stability_experiment(checkpoints=checkpoints)


def test_counterexample_detects_wrong_floor():
    report = counterexample_experiment(
        k_values=(2, 4), line_nodes=1025, floor_fraction=1.5,
    )
    assert not report.criteria["strong_failure"]["passed"]
