"""Flows of structured fields with log-Jacobian bookkeeping.

Trajectories solve the augmented system

    dX1/dt = b1(t, X1)          dlogJ1/dt = div_x b1(t, X1)
    dX2/dt = b2(t, X1, X2)      dlogJ2/dt = div_r b2(t, X1, X2)

with an adaptive embedded Runge-Kutta pair and interpolated output at the
requested time nodes.  Because b1 never sees r, the x block is solved once
per x label and shared across the whole r fiber, so X1 is bit-identical
for labels (x, r1) and (x, r2) by construction.  The block triangular
gradient makes logJ = logJ1 + logJ2 the log-determinant of the full flow,
giving the compressibility densities rho = exp(-logJ) along trajectories
without any Eulerian reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .fields import StructuredVectorField
from .grid import GridSpec

__all__ = [
    "FlowSample",
    "FlowMap",
    "CompressibilityReport",
    "FlowIntegrationError",
    "PreconditionError",
    "integrate_flow",
    "flow_map",
    "inverse_flow_grid",
    "density_rho2",
    "check_compressibility",
    "verify_change_of_variables",
    "flow_map_to_csv",
]


class FlowIntegrationError(Exception):
    """The trajectory integrator failed to reach the requested time."""


class PreconditionError(ValueError):
    """Input geometry violates a documented precondition."""


def _tols(tol: float) -> tuple[float, float]:
    return tol, max(tol * 1e-3, 1e-14)


def _solve_x_block(
    field: StructuredVectorField,
    x0: np.ndarray,
    t_span: tuple[float, float],
    t_eval: np.ndarray | None,
    tol: float,
):
    """Integrate (X1, logJ1) for a batch of x labels in one system.

    Returns (positions (K, M, n), logj1 (K, M), dense interpolant or None).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    M, n = x0.shape

    def rhs(t, y):
        X = y[: M * n].reshape(M, n)
        out = np.empty_like(y)
        out[: M * n] = np.asarray(field.b1(t, X), dtype=float).reshape(-1)
        out[M * n :] = np.asarray(field.div_b1(t, X), dtype=float)
        return out

    y0 = np.concatenate([x0.reshape(-1), np.zeros(M)])
    rtol, atol = _tols(tol)
    sol = solve_ivp(
        rhs, t_span, y0, method="RK45", t_eval=t_eval,
        dense_output=True, rtol=rtol, atol=atol,
    )
    if not sol.success:
        raise FlowIntegrationError(f"x-block integration failed: {sol.message}")
    ys = sol.y.T  # (K, M*n + M)
    pos = ys[:, : M * n].reshape(-1, M, n)
    logj1 = ys[:, M * n :]
    return pos, logj1, sol.sol


def _solve_r_fiber(
    field: StructuredVectorField,
    x_of_t,
    r0: np.ndarray,
    t_span: tuple[float, float],
    t_eval: np.ndarray | None,
    tol: float,
):
    """Integrate (X2, logJ2) for one x label's whole r fiber.

    `x_of_t` maps t to the x position (n,) along that label's trajectory.
    Returns (positions (K, Q, j), logj2 (K, Q)).
    """
    r0 = np.atleast_2d(np.asarray(r0, dtype=float))
    Q, jdim = r0.shape

    def rhs(t, y):
        x = x_of_t(t)
        R = y[: Q * jdim].reshape(Q, jdim)
        out = np.empty_like(y)
        out[: Q * jdim] = np.asarray(field.b2(t, x, R), dtype=float).reshape(-1)
        div = np.asarray(field.div_b2(t, x, R), dtype=float)
        out[Q * jdim :] = np.broadcast_to(div, (Q,))
        return out

    y0 = np.concatenate([r0.reshape(-1), np.zeros(Q)])
    rtol, atol = _tols(tol)
    sol = solve_ivp(
        rhs, t_span, y0, method="RK45", t_eval=t_eval, rtol=rtol, atol=atol
    )
    if not sol.success:
        raise FlowIntegrationError(f"r-fiber integration failed: {sol.message}")
    ys = sol.y.T
    pos = ys[:, : Q * jdim].reshape(-1, Q, jdim)
    logj2 = ys[:, Q * jdim :]
    return pos, logj2


@dataclass
class FlowSample:
    """One trajectory: positions and log-Jacobians at shared time nodes."""

    label: np.ndarray          # (n + j,)
    times: np.ndarray          # (K,)
    positions: np.ndarray      # (K, n + j)
    logj1: np.ndarray          # (K,)
    logj: np.ndarray           # (K,)


@dataclass
class FlowMap:
    """Flow evaluated on a whole label grid at shared time nodes.

    Forward maps store X(t_k, label) with the base time at times[0].
    Backward maps store, per Eulerian point y and node t_k, the label
    X^{-1}(t_k, y) in the positions slot and the log-Jacobian of the
    inverse map in the logj slots (so positions[0] = y, logj[0] = 0).
    """

    grid: GridSpec
    direction: str
    times: np.ndarray          # (K,)
    x1: np.ndarray             # (K, Nx, n)
    logj1: np.ndarray          # (K, Nx)
    x2: np.ndarray             # (K, Nx, Nr, j)
    logj2: np.ndarray          # (K, Nx, Nr)
    field_name: str
    tol: float

    @property
    def num_x(self) -> int:
        return self.x1.shape[1]

    @property
    def num_r(self) -> int:
        return self.x2.shape[2]

    def logj(self) -> np.ndarray:
        """Total log-Jacobian per (node, x label, r label)."""
        return self.logj1[:, :, None] + self.logj2

    def positions(self) -> np.ndarray:
        """Joint positions, shape (K, Nx, Nr, n + j)."""
        K, Nx, Nr = self.x2.shape[:3]
        x_part = np.broadcast_to(
            self.x1[:, :, None, :], (K, Nx, Nr, self.x1.shape[-1])
        )
        return np.concatenate([x_part, self.x2], axis=-1)

    def sample(self, i_x: int, i_r: int = 0) -> FlowSample:
        label = np.concatenate(
            [self.grid.x_labels()[i_x], self.grid.r_labels()[i_r]]
        )
        pos = np.concatenate(
            [self.x1[:, i_x, :], self.x2[:, i_x, i_r, :]], axis=-1
        )
        return FlowSample(
            label=label,
            times=self.times,
            positions=pos,
            logj1=self.logj1[:, i_x].copy(),
            logj=self.logj1[:, i_x] + self.logj2[:, i_x, i_r],
        )


def integrate_flow(
    field: StructuredVectorField,
    label: np.ndarray,
    times: np.ndarray,
    tol: float = 1e-10,
) -> FlowSample:
    """Forward trajectory of a single label through the augmented system."""
    label = np.asarray(label, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    n, j = field.n, field.j
    if label.size != n + j:
        raise ValueError(f"label must have {n + j} coordinates")
    x0 = label[:n][None, :]
    xpos, logj1, dense = _solve_x_block(
        field, x0, (times[0], times[-1]), times, tol
    )
    if j == 0:
        return FlowSample(
            label=label, times=times, positions=xpos[:, 0, :],
            logj1=logj1[:, 0], logj=logj1[:, 0].copy(),
        )
    x_of_t = lambda t: dense(t)[:n]
    rpos, logj2 = _solve_r_fiber(
        field, x_of_t, label[n:][None, :], (times[0], times[-1]), times, tol
    )
    return FlowSample(
        label=label,
        times=times,
        positions=np.concatenate([xpos[:, 0, :], rpos[:, 0, :]], axis=-1),
        logj1=logj1[:, 0],
        logj=logj1[:, 0] + logj2[:, 0],
    )


def _forward_flow_map(field, grid, times, tol) -> FlowMap:
    xs = grid.x_labels()
    rs = grid.r_labels()
    Nx, n = xs.shape
    Nr = rs.shape[0]
    K = times.size
    xpos, logj1, dense = _solve_x_block(
        field, xs, (times[0], times[-1]), times, tol
    )
    x2 = np.zeros((K, Nx, Nr, field.j))
    logj2 = np.zeros((K, Nx, Nr))
    if field.j > 0:
        for i in range(Nx):
            x_of_t = lambda t: dense(t)[i * n : (i + 1) * n]
            x2[:, i], logj2[:, i] = _solve_r_fiber(
                field, x_of_t, rs, (times[0], times[-1]), times, tol
            )
    return FlowMap(
        grid=grid, direction="forward", times=times,
        x1=xpos, logj1=logj1, x2=x2, logj2=logj2,
        field_name=field.name, tol=tol,
    )


def _backward_flow_map(field, grid, times, tol) -> FlowMap:
    xs = grid.x_labels()
    rs = grid.r_labels()
    Nx, n = xs.shape
    Nr = rs.shape[0]
    K = times.size
    x1 = np.empty((K, Nx, n))
    logj1 = np.zeros((K, Nx))
    x2 = np.zeros((K, Nx, Nr, field.j))
    logj2 = np.zeros((K, Nx, Nr))
    x1[0] = xs
    if field.j > 0:
        x2[0] = np.broadcast_to(rs[None, :, :], (Nx, Nr, field.j))
    for k in range(1, K):
        lx, lj1, lx2, lj2 = _inverse_fiber(
            field, xs, rs, times[k], times[0], tol
        )
        x1[k] = lx
        logj1[k] = -lj1
        if field.j > 0:
            x2[k] = lx2
            logj2[k] = -lj2
    return FlowMap(
        grid=grid, direction="backward", times=times,
        x1=x1, logj1=logj1, x2=x2, logj2=logj2,
        field_name=field.name, tol=tol,
    )


def flow_map(
    field: StructuredVectorField,
    grid: GridSpec,
    times: np.ndarray | None = None,
    tol: float = 1e-10,
    direction: str = "forward",
) -> FlowMap:
    """Flow of every grid label, forward from times[0] or backward to it.

    The x block is integrated once per x label and shared across the r
    fiber.
    """
    if field.n != grid.n or field.j != grid.j:
        raise ValueError("field and grid dimensions disagree")
    times = grid.time_nodes if times is None else np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    if direction == "forward":
        return _forward_flow_map(field, grid, times, tol)
    if direction == "backward":
        return _backward_flow_map(field, grid, times, tol)
    raise ValueError(f"unknown direction {direction!r}")


def _inverse_fiber(field, xs, rs, t, t0, tol):
    """Backward pass (t -> t0) for Eulerian tensor points xs x rs.

    Returns (labels_x (Nx, n), logj1_fwd (Nx,), labels_r (Nx, Nr, j),
    logj2_fwd (Nx, Nr)) where the logj values are the forward-orientation
    integrals of the divergences along each backward path.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    Nx, n = xs.shape
    t_eval = np.array([t0])
    xpos, lj1, dense = _solve_x_block(field, xs, (t, t0), t_eval, tol)
    labels_x = xpos[-1]
    logj1_fwd = -lj1[-1]
    if field.j == 0:
        return labels_x, logj1_fwd, np.zeros((Nx, 1, 0)), np.zeros((Nx, 1))
    rs = np.atleast_2d(np.asarray(rs, dtype=float))
    Nr = rs.shape[0]
    labels_r = np.empty((Nx, Nr, field.j))
    logj2_fwd = np.empty((Nx, Nr))

    for i in range(Nx):
        x_of_t = lambda s: dense(s)[i * n : (i + 1) * n]
        rpos, lj2 = _solve_r_fiber(field, x_of_t, rs, (t, t0), t_eval, tol)
        labels_r[i] = rpos[-1]
        logj2_fwd[i] = -lj2[-1]
    return labels_x, logj1_fwd, labels_r, logj2_fwd


def inverse_flow_grid(
    field: StructuredVectorField,
    xs: np.ndarray,
    rs: np.ndarray | None,
    t: float,
    t0: float = 0.0,
    tol: float = 1e-10,
):
    """Inverse flow X^{-1}(t, .) on a tensor set of Eulerian points.

    Also returns the forward log-Jacobians accumulated along each path,
    so the transported densities at the Eulerian points are
    rho1 = exp(-logj1) and rho = exp(-(logj1 + logj2)).
    """
    if t == t0:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        Nx = xs.shape[0]
        if field.j == 0:
            return xs.copy(), np.zeros(Nx), np.zeros((Nx, 1, 0)), np.zeros((Nx, 1))
        rs = np.atleast_2d(np.asarray(rs, dtype=float))
        Nr = rs.shape[0]
        return (
            xs.copy(), np.zeros(Nx),
            np.broadcast_to(rs[None], (Nx, Nr, field.j)).copy(),
            np.zeros((Nx, Nr)),
        )
    return _inverse_fiber(field, xs, rs, t, t0, tol)


def density_rho2(fmap: FlowMap) -> np.ndarray:
    """Fiber density ratio rho2 = rho1(t, X1)/rho(t, X) = exp(logJ - logJ1),
    shape (K, Nx, Nr).  This is the weight the source operator carries in
    label coordinates."""
    return np.exp(fmap.logj2)


@dataclass
class CompressibilityReport:
    """Observed log-Jacobian ranges against the divergence-sup envelopes."""

    times: np.ndarray
    bound_total: np.ndarray      # integral of sampled sup |div b| up to t_k
    bound_x: np.ndarray
    bound_r: np.ndarray
    min_logj: np.ndarray
    max_logj: np.ndarray
    min_logj1: np.ndarray
    max_logj1: np.ndarray
    incompressibility_constant: float
    slack: float
    ok: bool
    violations: list


def check_compressibility(
    fmap: FlowMap,
    field: StructuredVectorField,
    slack: float = 1e-6,
) -> CompressibilityReport:
    """Check exp(-D(t)) <= exp(logJ) <= exp(D(t)) with D = int sup|div|.

    The divergence sup is a sampled maximum over the initial labels and
    every stored trajectory position (an under-estimate in principle,
    documented as such); `slack` absorbs integrator error.  The same
    envelope logic is applied per block to logJ1.
    """
    times = fmap.times
    K = times.size
    sup_tot = np.zeros(K)
    sup_x = np.zeros(K)
    sup_r = np.zeros(K)
    for k, t in enumerate(times):
        xs = fmap.x1[k]
        dx = np.abs(np.asarray(field.div_b1(t, xs), dtype=float))
        sup_x[k] = float(np.max(dx))
        if field.j > 0:
            xrep = np.repeat(xs[:, None, :], fmap.num_r, axis=1)
            dr = np.abs(
                np.asarray(field.div_b2(t, xrep, fmap.x2[k]), dtype=float)
            )
            dr = np.broadcast_to(dr, (fmap.num_x, fmap.num_r))
            sup_r[k] = float(np.max(dr))
            sup_tot[k] = float(np.max(dx[:, None] + dr))
        else:
            sup_tot[k] = sup_x[k]
    dt = np.diff(times)
    bound_tot = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (sup_tot[:-1] + sup_tot[1:]))]
    )
    bound_x = np.concatenate([[0.0], np.cumsum(0.5 * dt * (sup_x[:-1] + sup_x[1:]))])
    bound_r = np.concatenate([[0.0], np.cumsum(0.5 * dt * (sup_r[:-1] + sup_r[1:]))])
    logj = fmap.logj()
    min_lj = logj.min(axis=(1, 2))
    max_lj = logj.max(axis=(1, 2))
    min_lj1 = fmap.logj1.min(axis=1)
    max_lj1 = fmap.logj1.max(axis=1)
    violations = []
    for k in range(K):
        if max_lj[k] > bound_tot[k] + slack or min_lj[k] < -bound_tot[k] - slack:
            violations.append(
                ("logJ", float(times[k]), float(min_lj[k]), float(max_lj[k]),
                 float(bound_tot[k]))
            )
        if max_lj1[k] > bound_x[k] + slack or min_lj1[k] < -bound_x[k] - slack:
            violations.append(
                ("logJ1", float(times[k]), float(min_lj1[k]), float(max_lj1[k]),
                 float(bound_x[k]))
            )
    return CompressibilityReport(
        times=times, bound_total=bound_tot, bound_x=bound_x, bound_r=bound_r,
        min_logj=min_lj, max_logj=max_lj, min_logj1=min_lj1, max_logj1=max_lj1,
        incompressibility_constant=float(np.max(np.exp(-logj))),
        slack=slack, ok=not violations, violations=violations,
    )


def verify_change_of_variables(
    field: StructuredVectorField,
    grid: GridSpec,
    t: float,
    phi_x,
    phi_joint=None,
    support_x: tuple[tuple[float, float], ...] | None = None,
    support_r: tuple[tuple[float, float], ...] | None = None,
    tol: float = 1e-10,
) -> dict:
    """Double-entry check of the pushforward identities.

    Marginal:  int phi(y) rho1(t, y) dy      = int phi(X1(t, x)) dx
    Joint:     int phi(y, s) rho(t, y, s) dyds = int phi(X(t, x, r)) dxdr

    The right sides are label-grid quadratures along the forward flow; the
    left sides are Eulerian-grid quadratures with densities obtained from
    backward paths, so the two entries share no trajectory data.  Both
    integrals require phi supported inside the grid box with margin at
    least the maximal displacement; when support boxes are declared the
    margin is checked against a sampled field bound.
    """
    t0 = float(grid.time_nodes[0])
    if t <= t0:
        raise ValueError("need t > the grid's base time")
    disp = _displacement_bound(field, grid, t0, t)
    if support_x is not None:
        _check_margin(support_x, grid.x_bounds, disp, "x")
    if support_r is not None and grid.j > 0:
        _check_margin(support_r, grid.r_bounds, disp, "r")

    xs = grid.x_labels()
    rs = grid.r_labels()
    wx = grid.x_weights()
    wr = grid.r_weights()
    times = np.array([t0, 0.5 * (t0 + t), t])
    fwd = flow_map(field, grid, times=times, tol=tol)
    rhs_marg = float(np.sum(wx * _eval_phi_x(phi_x, fwd.x1[-1])))
    lab_x, lj1, lab_r, lj2 = inverse_flow_grid(
        field, xs, rs if grid.j else None, t, t0, tol
    )
    inside_x = _inside(lab_x, grid.x_bounds)
    rho1 = np.where(inside_x, np.exp(-lj1), 0.0)
    lhs_marg = float(np.sum(wx * _eval_phi_x(phi_x, xs) * rho1))
    out = {
        "t": t,
        "marginal_forward": rhs_marg,
        "marginal_eulerian": lhs_marg,
        "residual_marginal": abs(lhs_marg - rhs_marg),
        "displacement_bound": disp,
    }
    if phi_joint is not None:
        if grid.j == 0:
            raise ValueError("joint identity needs j >= 1")
        pos = fwd.positions()[-1]  # (Nx, Nr, n+j)
        vals = _eval_phi_joint(phi_joint, pos[..., : grid.n], pos[..., grid.n :])
        rhs_joint = float(np.sum(wx[:, None] * wr[None, :] * vals))
        rho = np.where(
            inside_x[:, None] & _inside_fiber(lab_r, grid.r_bounds),
            np.exp(-(lj1[:, None] + lj2)),
            0.0,
        )
        vals_e = _eval_phi_joint(
            phi_joint,
            np.broadcast_to(xs[:, None, :], lab_r.shape[:2] + (grid.n,)),
            np.broadcast_to(rs[None, :, :], lab_r.shape),
        )
        lhs_joint = float(np.sum(wx[:, None] * wr[None, :] * vals_e * rho))
        out["joint_forward"] = rhs_joint
        out["joint_eulerian"] = lhs_joint
        out["residual_joint"] = abs(lhs_joint - rhs_joint)
    return out


def _eval_phi_x(phi, pts):
    return np.asarray(phi(pts), dtype=float)


def _eval_phi_joint(phi, x, r):
    return np.asarray(phi(x, r), dtype=float)


def _inside(pts, bounds):
    ok = np.ones(pts.shape[:-1], dtype=bool)
    for axis, (lo, hi) in enumerate(bounds):
        ok &= (pts[..., axis] >= lo) & (pts[..., axis] <= hi)
    return ok


def _inside_fiber(lab_r, bounds):
    if not bounds:
        return np.ones(lab_r.shape[:-1], dtype=bool)
    return _inside(lab_r, bounds)


def _displacement_bound(field, grid, t0, t1, samples: int = 5) -> float:
    """Sampled sup of |b| over the grid times the duration."""
    xs = grid.x_labels()
    rs = grid.r_labels()
    sup = 0.0
    for s in np.linspace(t0, t1, samples):
        v1 = np.asarray(field.b1(s, xs), dtype=float)
        sup = max(sup, float(np.max(np.linalg.norm(v1, axis=-1))))
        if field.j > 0:
            xrep = np.repeat(xs[:, None, :], rs.shape[0], axis=1)
            rrep = np.broadcast_to(rs[None], (xs.shape[0],) + rs.shape)
            v2 = np.asarray(field.b2(s, xrep, rrep), dtype=float)
            sup = max(sup, float(np.max(np.linalg.norm(v2, axis=-1))))
    return sup * (t1 - t0)


def _check_margin(support, bounds, disp, tag):
    for (slo, shi), (blo, bhi) in zip(support, bounds):
        if slo - disp < blo or shi + disp > bhi:
            raise PreconditionError(
                f"{tag}-support ({slo}, {shi}) plus displacement {disp:.3g} "
                f"leaves the grid box ({blo}, {bhi})"
            )


def flow_map_to_csv(fmap: FlowMap, path) -> None:
    """Write one row per (label, time node): label coords, t, position
    coords, logJ1, logJ.  Floats carry 17 significant digits."""
    n = fmap.grid.n
    j = fmap.grid.j
    cols = (
        [f"label_x{i + 1}" for i in range(n)]
        + [f"label_r{i + 1}" for i in range(j)]
        + ["t"]
        + [f"pos_x{i + 1}" for i in range(n)]
        + [f"pos_r{i + 1}" for i in range(j)]
        + ["logJ1", "logJ"]
    )
    xs = fmap.grid.x_labels()
    rs = fmap.grid.r_labels()
    logj = fmap.logj()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i_x in range(fmap.num_x):
            for i_r in range(fmap.num_r):
                lab = np.concatenate([xs[i_x], rs[i_r]])
                for k, t in enumerate(fmap.times):
                    pos = np.concatenate(
                        [fmap.x1[k, i_x], fmap.x2[k, i_x, i_r]]
                    )
                    row = (
                        [f"{v:.17g}" for v in lab]
                        + [f"{t:.17g}"]
                        + [f"{v:.17g}" for v in pos]
                        + [
                            f"{fmap.logj1[k, i_x]:.17g}",
                            f"{logj[k, i_x, i_r]:.17g}",
                        ]
                    )
                    fh.write(",".join(row) + "\n")
