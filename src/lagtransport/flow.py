"""Flows of structured fields with log-Jacobian bookkeeping.

Trajectories solve the augmented system

    dX1/dt = b1(X1)             dlogJ1/dt = div_x b1(X1)
    dX2/dt = b2(X1, X2)         dlogJ2/dt = div_r b2(X1, X2)

with the adaptive Dormand-Prince 5(4) pair of `lagtransport.ode`, which
reproduces scipy's RK45 bit for bit, and its dense output at the
requested time nodes.  Because b1 never sees r, the x block is solved once
for all x labels and shared across each whole r fiber, so X1 is
bit-identical for labels (x, r1) and (x, r2) by construction.  When b2
never reads x (`StructuredVectorField.fiber_ignores_x`) the flow splits as
X(t, x, r) = (X1(t, x), X2(t, r)): labels that start one shared fiber
share one solve of it, stored once with an x axis of length 1.  Otherwise
the r fibers of every x label are stacked into a single second system
driven by the x block's dense path.  Either way a flow map makes two
integrator calls however many labels it has, and none for a block that
the field declares zero (`StructuredVectorField.zero_blocks`), whose flow
is the identity.  Each right-hand side makes one call of the block's
field callable (`b1_and_div`, `b2_and_div`), which returns the drift and
the divergence at the same points; a mollified field answers it with one
set of shifted stencil points per block.  The block triangular gradient
makes logJ = logJ1 + logJ2 the log-determinant of the full flow, giving
the compressibility densities rho = exp(-logJ) along trajectories
without any Eulerian reconstruction.
The checks integrate nothing: `check_compressibility` reads one map and
`verify_change_of_variables` the last nodes of a forward and a backward map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import StructuredVectorField
from .grid import GridSpec
from .ode import solve_ivp

__all__ = [
    "FlowMap",
    "CompressibilityReport",
    "NumericalFailure",
    "integrate_flow",
    "flow_from",
    "flow_map",
    "inverse_flow_grid",
    "check_compressibility",
    "verify_change_of_variables",
    "flow_map_to_csv",
    "write_csv",
]


class NumericalFailure(Exception):
    """A computation that cannot produce its result: an integrator that
    fails, a slab budget that no slab count meets, a re-basing that loses
    labels, a slab whose node systems are singular, whose nodes are not
    finite or whose residual exceeds its bound."""


def _tols(tol: float) -> tuple[float, float]:
    return tol, max(tol * 1e-3, 1e-14)


def _solve_block(parts, p0, t_span, t_eval, tol, block, dense_output=False):
    """Integrate positions p0 (..., d) and a log-Jacobian per point as one
    system.

    `parts(t, P)` maps positions shaped like p0 at time t to their
    (velocity, divergence).  `block` names the system in the error raised
    when the integrator fails.  Returns C-contiguous (positions (K, *p0.shape),
    logj (K, *p0.shape[:-1])) and the dense interpolant, or None without
    `dense_output`.
    """
    shape = p0.shape
    size = p0.size

    def rhs(t, y):
        velocity, divergence = parts(t, y[:size].reshape(shape))
        out = np.empty_like(y)
        out[:size].reshape(shape)[...] = velocity
        out[size:].reshape(shape[:-1])[...] = divergence
        return out

    y0 = np.concatenate([p0.reshape(-1), np.zeros(size // shape[-1])])
    rtol, atol = _tols(tol)
    sol = solve_ivp(rhs, t_span, y0, t_eval=t_eval, dense_output=dense_output,
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalFailure(f"{block} integration failed: {sol.message}")
    K = sol.y.shape[1]
    pos = np.ascontiguousarray(sol.y[:size].T).reshape((K,) + shape)
    logj = np.ascontiguousarray(sol.y[size:].T).reshape((K,) + shape[:-1])
    return pos, logj, sol.sol


def _identity_block(p0, t_span, K):
    """What `_solve_block` returns for a block of zero drift, without
    integrating: RK45 on f = 0 adds to every position a zero that carries
    the sign of the step, and leaves every log-Jacobian at +0.0."""
    moved = p0 + np.copysign(0.0, t_span[1] - t_span[0])
    pos = np.broadcast_to(moved, (K,) + p0.shape).copy()
    return pos, np.zeros((K,) + p0.shape[:-1])


def flow_from(
    field: StructuredVectorField,
    x0: np.ndarray,
    r0: np.ndarray,
    t_span: tuple[float, float],
    t_eval: np.ndarray,
    tol: float = 1e-10,
):
    """Flow M x labels and their r fibers from t_span[0] to t_span[1].

    `x0` holds the x labels, shape (M, n), and `r0` the fiber starts,
    (M, Q, j), or (1, Q, j) for one fiber that every label starts.  The
    x block is one system for all labels.  That is at most two integrator
    calls however many labels there are, and none for a block in
    `field.zero_blocks`, whose flow is the identity.

    When the field declares `fiber_ignores_x` and `r0` has one row, every
    label carries the same fiber trajectory: the fiber block is one
    system of Q points, kept on that one row, as a zero r block keeps
    its identity on the rows of `r0`.  Otherwise the fibers (one row is
    broadcast to all M labels) are a stacked system that reads the
    labels' x positions from the x block's dense path once per
    right-hand side, so one `b2_and_div` call covers every fiber; its
    step size follows the RMS error norm of the whole stacked state, so
    a fiber can move by about the tolerance against a solve of its own.
    Returns C-contiguous (x positions (K, M, n), logj1 (K, M), r
    positions (K, R, Q, j), logj2 (K, R, Q)) at the K nodes of `t_eval`,
    R = 1 or M rows; for j = 0 the r positions are empty, logj2 zero.
    """
    x0 = np.asarray(x0, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    if (x0.ndim != 2 or x0.shape[1] != field.n or r0.ndim != 3
            or r0.shape[0] not in (1, x0.shape[0]) or r0.shape[2] != field.j):
        raise ValueError(
            f"need x0 of shape (M, {field.n}) and r0 of shape (M or 1, Q, "
            f"{field.j}), got {x0.shape} and {r0.shape}"
        )
    K, (M, n), Q = len(t_eval), x0.shape, r0.shape[1]
    # only stacked fibers read the x block's dense path
    still = field.j == 0 or "r" in field.zero_blocks
    shared = field.fiber_ignores_x and r0.shape[0] == 1
    if "x" in field.zero_blocks:
        xpos, logj1 = _identity_block(x0, t_span, K)

        def x_at(t):
            return xpos[0, :, None, :]
    else:
        xpos, logj1, dense = _solve_block(
            lambda t, X: field.b1_and_div(X), x0, t_span, t_eval, tol,
            "x-block", dense_output=not (still or shared),
        )

        def x_at(t):
            return dense(t)[: M * n].reshape(M, 1, n)
    if still:
        return (xpos, logj1) + _identity_block(r0, t_span, K)
    if shared:
        rpos, logj2, _ = _solve_block(
            lambda t, R: field.b2_and_div(x0[:1, None, :], R), r0, t_span,
            t_eval, tol, "r-fiber",
        )
        return xpos, logj1, rpos, logj2

    rpos, logj2, _ = _solve_block(
        lambda t, R: field.b2_and_div(x_at(t), R),
        np.broadcast_to(r0, (M, Q, field.j)), t_span, t_eval, tol, "r-fiber",
    )
    return xpos, logj1, rpos, logj2


@dataclass
class FlowMap:
    """Flow evaluated on a whole label grid at shared time nodes.

    Forward maps store X(t_k, label) with the base time at times[0].
    Backward maps store, per Eulerian point y and node t_k, the label
    X^{-1}(t_k, y) in the positions slot and the log-Jacobian of the
    inverse map in the logj slots (so positions[0] = y, logj[0] = 0).
    A fiber that every x label shares is stored once, with an x axis of
    length 1 in x2 and logj2 that every consumer broadcasts.
    """

    grid: GridSpec
    times: np.ndarray          # (K,)
    x1: np.ndarray             # (K, Nx, n)
    logj1: np.ndarray          # (K, Nx)
    x2: np.ndarray             # (K, Nx or 1, Nr, j)
    logj2: np.ndarray          # (K, Nx or 1, Nr)

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
        shape = (self.times.size, self.num_x, self.num_r)
        return np.concatenate([
            np.broadcast_to(self.x1[:, :, None, :], shape + self.x1.shape[-1:]),
            np.broadcast_to(self.x2, shape + self.x2.shape[-1:])], axis=-1)


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    return times


def integrate_flow(
    field: StructuredVectorField,
    label: np.ndarray,
    times: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Joint positions (K, n + j) of a single label's forward trajectory
    at the K nodes of `times`."""
    label = np.asarray(label, dtype=float)
    times = _check_times(times)
    n, j = field.n, field.j
    if label.size != n + j:
        raise ValueError(f"label must have {n + j} coordinates")
    x1, _, x2, _ = flow_from(
        field, label[None, :n], label[n:].reshape(1, 1, j),
        (times[0], times[-1]), times, tol,
    )
    return np.concatenate([x1[:, 0], x2[:, 0, 0]], axis=-1)


def _forward_flow_map(field, grid, times, tol) -> FlowMap:
    x1, logj1, x2, logj2 = flow_from(
        field, grid.x_labels(), grid.r_labels()[None],
        (times[0], times[-1]), times, tol,
    )
    return FlowMap(
        grid=grid, times=times,
        x1=x1, logj1=logj1, x2=x2, logj2=logj2,
    )


def _backward_flow_map(field, grid, times, tol) -> FlowMap:
    xs, rs = grid.x_labels(), grid.r_labels()
    nodes = [inverse_flow_grid(field, xs, rs, t, times[0], tol) for t in times]
    # the first node's one fiber row broadcasts to the rows of the others
    x1, lj1, x2, lj2 = (np.stack(np.broadcast_arrays(*v)) for v in zip(*nodes))
    # 0.0 - v rather than -v: at t = times[0] the forward log-Jacobians
    # are +0.0, and the inverse map's must stay +0.0, not -0.0
    return FlowMap(
        grid=grid, times=times,
        x1=x1, logj1=0.0 - lj1, x2=x2, logj2=0.0 - lj2,
    )


def flow_map(
    field: StructuredVectorField,
    grid: GridSpec,
    times: np.ndarray,
    tol: float = 1e-10,
    direction: str = "forward",
) -> FlowMap:
    """Flow of every grid label, forward from times[0] or backward to it.

    `times` are the strictly increasing output nodes; the base time is
    times[0].  The x block is integrated once for all x labels and shared
    bit-for-bit across each r fiber.  Every x label starts the grid's
    r fiber, so a field that declares `fiber_ignores_x` or a zero r block
    solves and stores that one fiber; otherwise the fibers of all x
    labels form one stacked system.
    A backward map takes every node from `inverse_flow_grid`, which makes
    that pair of solves for each node after the first.
    """
    if field.n != grid.n or field.j != grid.j:
        raise ValueError("field and grid dimensions disagree")
    times = _check_times(times)
    if direction == "forward":
        return _forward_flow_map(field, grid, times, tol)
    if direction == "backward":
        return _backward_flow_map(field, grid, times, tol)
    raise ValueError(f"unknown direction {direction!r}")


def inverse_flow_grid(
    field: StructuredVectorField,
    xs: np.ndarray,
    rs: np.ndarray | None,
    t: float,
    t0: float = 0.0,
    tol: float = 1e-10,
):
    """Inverse flow X^{-1}(t, .) on a tensor set of Eulerian points.

    The points are xs (Nx, n) times rs (Nr, j); `rs` is ignored when
    j = 0.  Returns (labels_x (Nx, n), logj1 (Nx,), labels_r (R, Nr, j),
    logj2 (R, Nr)): the labels reached by flowing back from t to t0, and
    the forward log-Jacobians accumulated along each path, so the
    transported densities at the Eulerian points are rho1 = exp(-logj1)
    and rho = exp(-(logj1 + logj2)), R = 1 where `flow_from` shares the
    fiber rs, else Nx.  At t == t0 the labels are the points (R = 1) and
    the log-Jacobians are +0.0.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    rs = np.zeros((1, 0)) if field.j == 0 else np.atleast_2d(
        np.asarray(rs, dtype=float)
    )
    r0 = rs[None]
    if t == t0:
        return xs.copy(), np.zeros(xs.shape[0]), r0.copy(), np.zeros(r0.shape[:2])
    x1, lj1, x2, lj2 = flow_from(field, xs, r0, (t, t0), np.array([t0]), tol)
    return x1[-1], -lj1[-1], x2[-1], -lj2[-1]


@dataclass
class CompressibilityReport:
    """Observed log-Jacobian ranges against the divergence-sup envelopes."""

    times: np.ndarray
    bound_total: np.ndarray      # integral of sampled sup |div b| up to t_k
    incompressibility_constant: float
    ok: bool
    violations: list


# how far a log-Jacobian may pass its envelope by integrator error
_BOUND_SLACK = 1e-6


def check_compressibility(
    fmap: FlowMap, field: StructuredVectorField,
) -> CompressibilityReport:
    """Check exp(-D(t)) <= exp(logJ) <= exp(D(t)) with D = int sup|div|.

    The divergence sup is a sampled maximum over every position the map
    stores, at every node (an under-estimate in principle, documented as
    such), from one evaluation of each block's field callable: the field
    does not depend on time, so the sup is one number and D(t_k) is the
    running sum of dt times it.  A slack of 1e-6 absorbs integrator
    error.  The same envelope logic is applied per
    block to logJ1.
    """
    times = fmap.times
    dx = np.abs(np.asarray(field.b1_and_div(fmap.x1)[1], dtype=float))
    sup_x = sup_tot = np.max(dx)
    if field.j > 0:
        # a fiber stored once is read at one x label, as b2 ignores x there
        x1 = fmap.x1[:, : fmap.x2.shape[1], None, :]
        dr = np.abs(np.asarray(field.b2_and_div(x1, fmap.x2)[1], dtype=float))
        sup_tot = np.max(dx[..., None] + dr)
    dt = np.diff(times)
    bound_tot = np.concatenate([[0.0], np.cumsum(dt * sup_tot)])
    bound_x = np.concatenate([[0.0], np.cumsum(dt * sup_x)])
    logj = fmap.logj()
    min_lj = logj.min(axis=(1, 2))
    max_lj = logj.max(axis=(1, 2))
    min_lj1 = fmap.logj1.min(axis=1)
    max_lj1 = fmap.logj1.max(axis=1)
    env_tot, env_x = bound_tot + _BOUND_SLACK, bound_x + _BOUND_SLACK
    violations = []
    for k in range(times.size):
        if max_lj[k] > env_tot[k] or min_lj[k] < -env_tot[k]:
            violations.append(
                ("logJ", float(times[k]), float(min_lj[k]), float(max_lj[k]),
                 float(bound_tot[k]))
            )
        if max_lj1[k] > env_x[k] or min_lj1[k] < -env_x[k]:
            violations.append(
                ("logJ1", float(times[k]), float(min_lj1[k]), float(max_lj1[k]),
                 float(bound_x[k]))
            )
    return CompressibilityReport(
        times=times, bound_total=bound_tot,
        incompressibility_constant=float(np.max(np.exp(-logj))),
        ok=not violations, violations=violations,
    )


def verify_change_of_variables(
    fwd: FlowMap, bwd: FlowMap, phi_x, phi_joint=None,
) -> dict:
    """Double-entry check of the pushforward identities of the flow from
    the maps' first node t0 to their last node t.

    Marginal:  int phi(y) rho1(t, y) dy      = int phi(X1(t, x)) dx
    Joint:     int phi(y, s) rho(t, y, s) dyds = int phi(X(t, x, r)) dxdr

    The right sides are label-grid quadratures at the last node of the
    forward map `fwd`; the left sides are Eulerian-grid quadratures at
    the last node of the backward map `bwd`, whose labels and inverse
    log-Jacobians give the densities rho1 = exp(logj1) and
    rho = exp(logj1 + logj2), zero where a label leaves the box.  The two
    entries share no trajectory data.  Both integrals require phi
    supported inside the grid box with margin at least the maximal
    displacement over [t0, t]; the caller chooses phi to meet it.
    """
    if (fwd.grid != bwd.grid or fwd.times[0] != bwd.times[0]
            or fwd.times[-1] != bwd.times[-1]):
        raise ValueError("the forward and backward maps need one grid and "
                         "the same first and last nodes")
    grid = fwd.grid
    xs = grid.x_labels()
    wx = grid.x_weights()
    wr = grid.r_weights()
    rhs_marg = float(np.sum(wx * np.asarray(phi_x(fwd.x1[-1]), dtype=float)))
    lj1 = bwd.logj1[-1]
    inside_x = _inside(bwd.x1[-1], grid.x_bounds)
    rho1 = np.where(inside_x, np.exp(lj1), 0.0)
    lhs_marg = float(np.sum(wx * np.asarray(phi_x(xs), dtype=float) * rho1))
    out = {
        "t": float(fwd.times[-1]),
        "marginal_forward": rhs_marg,
        "marginal_eulerian": lhs_marg,
        "residual_marginal": abs(lhs_marg - rhs_marg),
    }
    if phi_joint is not None:
        if grid.j == 0:
            raise ValueError("joint identity needs j >= 1")
        pos = fwd.positions()[-1]  # (Nx, Nr, n+j)
        vals = np.asarray(
            phi_joint(pos[..., : grid.n], pos[..., grid.n :]), dtype=float
        )
        rhs_joint = float(np.sum(wx[:, None] * wr[None, :] * vals))
        rho = np.where(
            inside_x[:, None] & _inside(bwd.x2[-1], grid.r_bounds),
            np.exp(lj1[:, None] + bwd.logj2[-1]),
            0.0,
        )
        labels = grid.joint_labels()
        vals_e = np.asarray(
            phi_joint(labels[..., : grid.n], labels[..., grid.n :]), dtype=float
        )
        lhs_joint = float(np.sum(wx[:, None] * wr[None, :] * vals_e * rho))
        out["joint_forward"] = rhs_joint
        out["joint_eulerian"] = lhs_joint
        out["residual_joint"] = abs(lhs_joint - rhs_joint)
    return out


def _inside(pts, bounds):
    ok = np.ones(pts.shape[:-1], dtype=bool)
    for axis, (lo, hi) in enumerate(bounds):
        ok &= (pts[..., axis] >= lo) & (pts[..., axis] <= hi)
    return ok


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
    K, Nx, Nr = fmap.times.size, fmap.num_x, fmap.num_r
    labels = fmap.grid.joint_labels().reshape(Nx * Nr, n + j).tolist()
    # rows run over (x label, r label, time node), time fastest; one text per label
    prefixes = (p for lab in labels for p in [("%.17g," * (n + j)) % tuple(lab)] * K)
    logj1 = np.broadcast_to(fmap.logj1[:, :, None], (K, Nx, Nr))
    table = np.column_stack([
        np.tile(fmap.times, Nx * Nr),
        fmap.positions().transpose(1, 2, 0, 3).reshape(Nx * Nr * K, n + j),
        logj1.transpose(1, 2, 0).reshape(-1),
        fmap.logj().transpose(1, 2, 0).reshape(-1),
    ])
    write_csv(path, cols, prefixes, table)


# rows per format operation and per read of the prefixes: no byte depends
# on it, and a small block keeps the working set of one write small
_CSV_BLOCK_ROWS = 2**8


def write_csv(path, cols: list[str], prefixes, table: np.ndarray) -> None:
    """The package's one CSV writer: the header `cols`, then per row of
    the 2-d float `table` the next string of the iterable `prefixes` and
    the row's values, comma-separated with 17 significant digits.

    With empty prefixes these are the bytes of `np.savetxt(path, table,
    fmt="%.17g", delimiter=",", header=",".join(cols), comments="")`.  A
    block of rows is one string operation, its prefixes read at once.
    """
    nrows, ncols = table.shape
    line = "%s" + ",".join(["%.17g"] * ncols) + "\n"
    prefixes = iter(prefixes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, nrows, _CSV_BLOCK_ROWS):
            block = table[lo : lo + _CSV_BLOCK_ROWS]
            heads = itertools.islice(prefixes, block.shape[0])
            cells = itertools.chain.from_iterable(zip(heads, *block.T.tolist()))
            fh.write((line * block.shape[0]) % tuple(cells))
