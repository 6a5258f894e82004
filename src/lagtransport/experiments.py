"""Reproducible experiment harnesses with explicit pass/fail criteria.

Two studies, each returning an ExperimentReport:

* stability_experiment: solutions driven by mollified fields converge to
  the limit solution, measured on Eulerian slices at checkpoint times.
* counterexample_experiment: the oscillatory field family whose flow
  densities converge weakly to 1 while staying a fixed L^1 distance away,
  so weak convergence of densities cannot be upgraded to strong.

Reports carry rows (per-case records), criteria (threshold checks), and
no timing data, so a rerun with the same inputs writes identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (
    logistic_field,
    mollify_field,
    oscillatory_field,
    separable_kernel,
)
from .flow import integrate_flow, inverse_flow_grid, write_csv
from .grid import GridSpec, NormSpec, axis_weights, lp_norm
from .oracle import oscillatory_jacobian, strong_failure_floor
from .transport import SolverConfig, continue_solution, make_initial

__all__ = [
    "ExperimentReport",
    "rows_to_csv",
    "stability_experiment",
    "counterexample_experiment",
]


@dataclass
class ExperimentReport:
    """Outcome of one experiment: data rows plus criterion verdicts."""

    name: str
    params: dict
    rows: list = dc_field(default_factory=list)
    criteria: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.criteria.values())

    def add_criterion(self, key: str, value: float, threshold: float,
                      passed: bool, note: str = "") -> None:
        self.criteria[key] = {
            "value": float(value),
            "threshold": float(threshold),
            "passed": bool(passed),
            "note": note,
        }


def rows_to_csv(rows: list[dict], path) -> None:
    """One CSV row per dict; columns are the union of the keys in order of
    first appearance, a missing key is an empty cell, floats carry 17
    significant digits and every other value is written with str.  Each
    row's text is a `flow.write_csv` prefix, over a `(len(rows), 0)` table."""
    keys = list(dict.fromkeys(k for row in rows for k in row))
    texts = (",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                      for v in (row.get(k, "") for k in keys)) for row in rows)
    write_csv(path, keys, texts, np.empty((len(rows), 0)))


# windowed L^2 norm of the stability study
_WINDOW = ((-2.4, 2.4), (0.15, 0.85))
_SPEC = NormSpec(p=2.0, window=_WINDOW)


# =====================================================================
# stability of the fixed point under field mollification
# =====================================================================


def stability_experiment(
    eps_values: tuple = (0.2, 0.1, 0.05, 0.025),
    k: int = 1,
    mu: float = 0.3,
    t_end: float = 0.4,
    checkpoints: tuple = (0.2, 0.4),
    final_threshold: float = 1e-3,
    monotone_slack: float = 1.1,
    grid: GridSpec | None = None,
) -> ExperimentReport:
    """Solutions under mollified fields approach the limit solution.

    For each radius the full solver runs under b_eps and the Eulerian
    slices at the checkpoint times are compared with the limit run in the
    windowed L^2 norm; the per-radius distance is the worst checkpoint.
    Criteria: among the last three radii each distance improves on its
    predecessor (ratio at most `monotone_slack`), and the finest radius
    lands below `final_threshold`.  Every run uses the default separable
    kernel and starts from the default Gaussian datum, on a 49 x 25
    label grid over [-pi, pi] x [0, 1] unless `grid` is given.  The radii
    are at least three, distinct, finite and positive, else ValueError.
    """
    eps_values = tuple(sorted(eps_values, reverse=True))
    if len(eps_values) < 3:
        raise ValueError("need at least three mollification radii")
    if not all(0 < eps < np.inf for eps in eps_values):
        raise ValueError("mollification radii must be finite and positive")
    if len(set(eps_values)) < len(eps_values):  # equal distances pass vacuously
        raise ValueError(f"mollification radii must be distinct: {list(eps_values)}")
    if not checkpoints or min(checkpoints) <= 0:
        # at t = 0 every run holds the one initial datum: distance 0
        raise ValueError("checkpoints must name at least one time, all after 0")
    base = logistic_field(k=k, mu=mu)
    grid = grid or GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(49,),
        r_bounds=((0.0, 1.0),), r_counts=(25,),
    )
    kernel = separable_kernel()
    config = SolverConfig(window=_WINDOW)

    def run(field):
        return continue_solution(
            make_initial("gaussian"), field, kernel, config, grid, t_end,
            slice_times=checkpoints,
        ).slices

    ref_slices = run(base)
    report = ExperimentReport(
        name="stability",
        params={
            "eps_values": list(eps_values), "k": k, "mu": mu,
            "t_end": t_end, "checkpoints": list(checkpoints),
            "final_threshold": final_threshold,
            "monotone_slack": monotone_slack, "p": 2.0,
            "window": [list(w) for w in _WINDOW],
        },
    )
    dists = []
    for eps in eps_values:
        fld = mollify_field(base, eps)
        slices = run(fld)
        per_t = {
            t: lp_norm(slices[t].values - ref_slices[t].values, grid, _SPEC)
            for t in checkpoints
        }
        dist = max(per_t.values())
        dists.append(dist)
        row = {"eps": float(eps), "distance": float(dist)}
        for t in checkpoints:
            row[f"distance_t{t:g}"] = float(per_t[t])
            row[f"exit_fraction_t{t:g}"] = float(slices[t].exit_fraction)
        report.rows.append(row)

    tail = dists[-3:]
    worst_ratio = max(tail[i + 1] / tail[i] for i in range(len(tail) - 1))
    report.add_criterion(
        "monotone_tail", worst_ratio, monotone_slack,
        worst_ratio <= monotone_slack,
        "each of the last distances improves on its predecessor",
    )
    report.add_criterion(
        "final_distance", dists[-1], final_threshold,
        dists[-1] < final_threshold,
        "finest mollification lands within the stability tolerance",
    )
    return report


# =====================================================================
# weak-but-not-strong convergence of flow densities
# =====================================================================


def counterexample_experiment(
    k_values: tuple = (2, 4, 8, 16),
    t: float = 1.0,
    line_nodes: int = 4097,
    window: tuple = (0.3, 2.3),
    weak_constant: float = 1.5,
    floor_fraction: float = 0.99,
    spread_tol: float = 0.01,
) -> ExperimentReport:
    """Oscillating flows: densities flatten weakly yet never in L^1.

    For each wavenumber k the field sin(kx)/k is flowed to time t and the
    pushforward density rho_k = exp(-logJ at the backward label) is
    tabulated on a line grid over (0, 2 pi).  Checks, per k:

    * forward Jacobian by central differences (step 1e-3 / k, at five
      fixed points) matches the closed form to relative error 1e-4;
    * the numerical density matches the closed form evaluated pointwise,
      to relative error 1e-5;
    * the average of rho_k over a fixed generic window approaches 1 at
      rate 1/k (weak-star convergence against indicators);
    * the L^1(0, 2 pi) distance of rho_k from 1 stays above a positive
      floor and is k-independent (no strong convergence).

    The floor is the closed-form distance at wavenumber 1, which exact
    periodicity makes the common value for every integer k.
    """
    if not k_values or not all(
        isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1
        for k in k_values
    ):
        raise ValueError("k_values must be positive integers")
    if not 0.0 < t < np.inf:
        raise ValueError(f"t must be finite and positive, got {t!r}")
    if len(window) != 2 or not window[0] < window[1]:
        raise ValueError(f"window must be (lo, hi) with lo < hi, got {list(window)}")
    jacobian_points, fd_scale = (0.35, 0.8, 1.3, 1.9, 2.2), 1e-3
    jacobian_tol, density_tol = 1e-4, 1e-5
    report = ExperimentReport(
        name="counterexample",
        params={
            "k_values": [int(k) for k in k_values], "t": t,
            "line_nodes": line_nodes, "window": list(window),
            "jacobian_points": list(jacobian_points), "fd_scale": fd_scale,
            "weak_constant": weak_constant,
            "floor_fraction": floor_fraction, "spread_tol": spread_tol,
        },
    )
    if line_nodes < 2:
        raise ValueError(f"line_nodes must be at least 2, got {line_nodes}")
    ys = np.linspace(0.0, 2.0 * np.pi, line_nodes)
    wq = axis_weights(ys)
    in_win = (ys >= window[0]) & (ys <= window[1])
    ys_win = ys[in_win]
    if ys_win.size < 2:
        raise ValueError(
            f"window {list(window)} holds {ys_win.size} of the {line_nodes} "
            "line_nodes; the window average needs at least 2"
        )
    w_win = axis_weights(ys_win)
    with np.errstate(over="ignore", invalid="ignore"):  # exp(2 t) overflows
        floor = strong_failure_floor(t)
    if not np.isfinite(floor):
        raise ValueError(f"t = {t!r} is too large: the L1 floor is not finite")

    jac_errs, den_errs, weak_gaps, l1_vals = [], [], [], []
    for k in k_values:
        fld = oscillatory_field(k=k, j=0)
        # forward Jacobian via central differences of integrated trajectories
        h = fd_scale / k
        worst = 0.0
        for x0 in jacobian_points:
            plus = integrate_flow(
                fld, np.array([x0 + h]), np.array([0.0, t])
            )[-1, 0]
            minus = integrate_flow(
                fld, np.array([x0 - h]), np.array([0.0, t])
            )[-1, 0]
            num = (plus - minus) / (2.0 * h)
            exact = float(oscillatory_jacobian(k, t, x0))
            worst = max(worst, abs(num - exact) / abs(exact))
        jac_errs.append(worst)

        # densities on the line from backward labels
        _, logj1_fwd, _, _ = inverse_flow_grid(fld, ys[:, None], None, t, 0.0)
        rho_num = np.exp(-logj1_fwd)
        rho_exact = oscillatory_jacobian(k, -t, ys)
        den_errs.append(float(np.max(np.abs(rho_num - rho_exact) / rho_exact)))

        avg = float(np.sum(w_win * rho_num[in_win]) / np.sum(w_win))
        weak_gaps.append(abs(avg - 1.0))
        l1 = float(np.sum(wq * np.abs(rho_num - 1.0)))
        l1_vals.append(l1)
        report.rows.append(
            {
                "k": int(k),
                "jacobian_rel_err": float(worst),
                "density_rel_err": float(den_errs[-1]),
                "window_average": avg,
                "weak_gap": float(weak_gaps[-1]),
                "l1_distance": l1,
                "l1_floor": floor,
            }
        )

    report.add_criterion(
        "jacobian_match", max(jac_errs), jacobian_tol,
        max(jac_errs) < jacobian_tol,
        "central differences of the numerical flow hit the closed form",
    )
    report.add_criterion(
        "density_match", max(den_errs), density_tol,
        max(den_errs) < density_tol,
        "backward-label densities hit the closed form pointwise",
    )
    scaled = max(g * k for g, k in zip(weak_gaps, k_values))
    report.add_criterion(
        "weak_convergence", scaled, weak_constant, scaled <= weak_constant,
        "window averages approach 1 at rate 1/k",
    )
    report.add_criterion(
        "strong_failure", min(l1_vals), floor_fraction * floor,
        min(l1_vals) >= floor_fraction * floor,
        "L1 distance from 1 never drops toward 0",
    )
    spread = (max(l1_vals) - min(l1_vals)) / float(np.mean(l1_vals))
    report.add_criterion(
        "l1_k_independence", spread, spread_tol, spread <= spread_tol,
        "the L1 distance is the same for every wavenumber",
    )
    return report
