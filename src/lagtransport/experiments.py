"""Reproducible experiment harnesses with explicit pass/fail criteria.

Three studies, each returning an ExperimentReport:

* operator_convergence_experiment: the source operator built on mollified
  trajectories converges to the unmollified one as the mollification
  radius shrinks, at second order for smooth fields.
* stability_experiment: solutions driven by mollified fields converge to
  the limit solution, measured on Eulerian slices at checkpoint times.
* counterexample_experiment: the oscillatory field family whose flow
  densities converge weakly to 1 while staying a fixed L^1 distance away,
  so weak convergence of densities cannot be upgraded to strong.

Reports carry rows (per-case records), criteria (threshold checks), and
no timing data, so a rerun with the same inputs writes identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (
    Kernel,
    logistic_field,
    mollify_field,
    oscillatory_field,
    separable_kernel,
)
from .flow import flow_map, integrate_flow, inverse_flow_grid
from .grid import GridSpec, NormSpec, axis_weights, lp_norm
from .oracle import oscillatory_jacobian, strong_failure_floor
from .transport import SolverConfig, apply_A, continue_solution

__all__ = [
    "ExperimentReport",
    "operator_convergence_experiment",
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

    def to_json(self, path) -> None:
        payload = {
            "name": self.name,
            "params": self.params,
            "rows": self.rows,
            "criteria": self.criteria,
            "passed": self.passed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path) -> None:
        """One CSV row per data row; columns are the union of row keys."""
        keys: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for row in self.rows:
                cells = []
                for k in keys:
                    v = row.get(k, "")
                    if isinstance(v, float):
                        cells.append(f"{v:.17g}")
                    else:
                        cells.append(str(v))
                fh.write(",".join(cells) + "\n")


# =====================================================================
# operator convergence under mollification
# =====================================================================


def _probe_values(grid: GridSpec, num_t: int) -> np.ndarray:
    """Fixed smooth probe, constant in time, on the label grid."""
    xs = grid.x_labels()[:, 0]
    rs = grid.r_labels()[:, 0]
    vals = np.exp(-(xs[:, None] ** 2) / 0.8) * np.exp(
        -((rs[None, :] - 0.5) ** 2) / 0.08
    )
    return np.broadcast_to(vals[None], (num_t,) + vals.shape).copy()


def operator_convergence_experiment(
    eps_values: tuple = (0.2, 0.1, 0.05, 0.025),
    k: int = 2,
    mu: float = 0.3,
    t_end: float = 0.4,
    num_t: int = 9,
    grid: GridSpec | None = None,
    kernel: Kernel | None = None,
    order_threshold: float = 1.0,
    flow_tol: float = 1e-10,
) -> ExperimentReport:
    """Distance between the source operators of b_eps and b on a fixed probe.

    Both operators integrate the same kernel against the same probe; only
    the trajectories and the fiber density differ.  The distance is the
    sup-in-time windowed L^2 norm of the difference, and the fitted order
    is the mean dyadic slope of the distances.  Symmetric mollification
    of a smooth field cancels the first moment, so the observed order is
    about 2; the criterion only demands the guaranteed order 1.
    """
    eps_values = tuple(sorted(eps_values, reverse=True))
    if len(eps_values) < 2:
        raise ValueError("need at least two mollification radii")
    base = logistic_field(k=k, mu=mu)
    grid = grid or GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(49,),
        r_bounds=((0.0, 1.0),), r_counts=(25,),
        time_nodes=np.linspace(0.0, t_end, num_t),
    )
    kernel = kernel or separable_kernel()
    window = ((-2.4, 2.4), (0.15, 0.85))
    spec = NormSpec(p=2.0, window=window)
    times = np.linspace(0.0, t_end, num_t)
    probe = _probe_values(grid, num_t)
    zero_datum = np.zeros((grid.num_x, grid.num_r))

    fmap = flow_map(base, grid, times=times, tol=flow_tol)
    ref = apply_A(probe, fmap, kernel, grid, zero_datum)

    report = ExperimentReport(
        name="operator_convergence",
        params={
            "eps_values": list(eps_values), "k": k, "mu": mu,
            "t_end": t_end, "num_t": num_t, "p": 2.0,
            "window": [list(w) for w in window],
        },
    )
    dists = []
    for eps in eps_values:
        fld = mollify_field(base, eps)
        fmap_eps = flow_map(fld, grid, times=times, tol=flow_tol)
        img = apply_A(probe, fmap_eps, kernel, grid, zero_datum)
        dist = max(
            lp_norm(img[i] - ref[i], grid, spec) for i in range(times.size)
        )
        dists.append(dist)
        row = {"eps": float(eps), "distance": float(dist)}
        if len(dists) > 1:
            step = np.log(eps_values[len(dists) - 2] / eps)
            row["order_from_prev"] = float(
                np.log(dists[-2] / dists[-1]) / step
            )
        report.rows.append(row)

    orders = [r["order_from_prev"] for r in report.rows if "order_from_prev" in r]
    fitted = float(np.mean(orders))
    report.add_criterion(
        "order", fitted, order_threshold, fitted >= order_threshold,
        "mean dyadic slope of operator distances",
    )
    monotone = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    report.add_criterion(
        "monotone_decrease", float(monotone), 1.0, monotone,
        "distances shrink with the mollification radius",
    )
    return report


# =====================================================================
# stability of the fixed point under field mollification
# =====================================================================


def _stability_datum(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.exp(-(x[..., 0] ** 2) / 0.8) * np.exp(
        -((r[..., 0] - 0.5) ** 2) / 0.08
    )


def stability_experiment(
    eps_values: tuple = (0.2, 0.1, 0.05, 0.025),
    k: int = 1,
    mu: float = 0.3,
    t_end: float = 0.4,
    checkpoints: tuple = (0.2, 0.4),
    final_threshold: float = 1e-3,
    monotone_slack: float = 1.1,
    grid: GridSpec | None = None,
    kernel: Kernel | None = None,
    config: SolverConfig | None = None,
) -> ExperimentReport:
    """Solutions under mollified fields approach the limit solution.

    For each radius the full solver runs under b_eps and the Eulerian
    slices at the checkpoint times are compared with the limit run in the
    windowed L^2 norm; the per-radius distance is the worst checkpoint.
    Criteria: among the last three radii each distance improves on its
    predecessor (ratio at most `monotone_slack`), and the finest radius
    lands below `final_threshold`.
    """
    eps_values = tuple(sorted(eps_values, reverse=True))
    if len(eps_values) < 3:
        raise ValueError("need at least three mollification radii")
    base = logistic_field(k=k, mu=mu)
    grid = grid or GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(49,),
        r_bounds=((0.0, 1.0),), r_counts=(25,),
        time_nodes=np.array([0.0, t_end]),
    )
    kernel = kernel or separable_kernel()
    window = ((-2.4, 2.4), (0.15, 0.85))
    spec = NormSpec(p=2.0, window=window)
    config = config or SolverConfig(
        p=2.0, window=window, picard_tol=1e-10, nodes_per_slab=17
    )

    def run(field):
        sol = continue_solution(
            _stability_datum, field, kernel, config, grid, t_end
        )
        slices = {}
        for t in checkpoints:
            slices[t] = sol.eulerian_slice(field, t)
        return sol, slices

    _, ref_slices = run(base)
    report = ExperimentReport(
        name="stability",
        params={
            "eps_values": list(eps_values), "k": k, "mu": mu,
            "t_end": t_end, "checkpoints": list(checkpoints),
            "final_threshold": final_threshold,
            "monotone_slack": monotone_slack, "p": 2.0,
            "window": [list(w) for w in window],
        },
    )
    dists = []
    for eps in eps_values:
        fld = mollify_field(base, eps)
        _, slices = run(fld)
        per_t = {
            t: lp_norm(slices[t].values - ref_slices[t].values, grid, spec)
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
    jacobian_points: tuple = (0.35, 0.8, 1.3, 1.9, 2.2),
    fd_scale: float = 1e-3,
    jacobian_tol: float = 1e-4,
    density_tol: float = 1e-5,
    weak_constant: float = 1.5,
    floor_fraction: float = 0.99,
    spread_tol: float = 0.01,
    flow_tol: float = 1e-10,
) -> ExperimentReport:
    """Oscillating flows: densities flatten weakly yet never in L^1.

    For each wavenumber k the field sin(kx)/k is flowed to time t and the
    pushforward density rho_k = exp(-logJ at the backward label) is
    tabulated on a line grid over (0, 2 pi).  Checks, per k:

    * forward Jacobian by central differences matches the closed form;
    * the numerical density matches the closed form evaluated pointwise;
    * the average of rho_k over a fixed generic window approaches 1 at
      rate 1/k (weak-star convergence against indicators);
    * the L^1(0, 2 pi) distance of rho_k from 1 stays above a positive
      floor and is k-independent (no strong convergence).

    The floor is the closed-form distance at wavenumber 1, which exact
    periodicity makes the common value for every integer k.
    """
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
    ys = np.linspace(0.0, 2.0 * np.pi, line_nodes)
    wq = axis_weights(ys)
    in_win = (ys >= window[0]) & (ys <= window[1])
    ys_win = ys[in_win]
    w_win = axis_weights(ys_win)
    floor = strong_failure_floor(t)

    jac_errs, den_errs, weak_gaps, l1_vals = [], [], [], []
    for k in k_values:
        fld = oscillatory_field(k=int(k), j=0)
        # forward Jacobian via central differences of integrated trajectories
        h = fd_scale / k
        worst = 0.0
        for x0 in jacobian_points:
            plus = integrate_flow(fld, np.array([x0 + h]), np.array([0.0, t]),
                                  tol=flow_tol).positions[-1, 0]
            minus = integrate_flow(fld, np.array([x0 - h]), np.array([0.0, t]),
                                   tol=flow_tol).positions[-1, 0]
            num = (plus - minus) / (2.0 * h)
            exact = float(oscillatory_jacobian(k, t, x0))
            worst = max(worst, abs(num - exact) / abs(exact))
        jac_errs.append(worst)

        # densities on the line from backward labels
        _, logj1_fwd, _, _ = inverse_flow_grid(
            fld, ys[:, None], None, t, 0.0, flow_tol
        )
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
