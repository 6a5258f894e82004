"""Fixed-point solution of the transported integral equation.

In label coordinates the problem is a Volterra-type equation

    u~(t, x, r) = u0(x, r) + int_0^t int gamma(X2(s,x,r), X2(s,x,rt))
                  rho2(s,x,rt) u~(s, x, rt) drt ds,

whose right side defines the affine operator A.  The kernel sees only the
moved fiber coordinates, so the operator is one evaluation of the
kernel's factors per stored time slice, and a single slice when the
fibers do not move.  On a
short enough time slab A is a contraction in the sup-in-time windowed L^p
norm, so Picard iteration from u0 converges geometrically; longer
horizons are covered by chaining slabs, re-basing the initial datum at
each boundary through an Eulerian reconstruction.  Neither the kernel
nor the drift b = (b1(x), b2(x, r)) depends on time, so the slab budget
is measured once per run, from one evaluation of each, and the run is
equal slabs of one template: flow, operator, pull-backs and the buffers
Picard iterates in, built once.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .fields import Kernel, StructuredVectorField, kernel_slab_rate
from .flow import (
    FlowMap,
    NumericalFailure,
    flow_map,
    inverse_flow_grid,
)
from .grid import GridSpec, NormSpec, suffix_integrals, sup_in_time

__all__ = [
    "SolverConfig",
    "LagrangianState",
    "EulerianSlice",
    "ContinuedSolution",
    "PicardConvergenceError",
    "apply_A",
    "fixed_point_residual",
    "choose_slab",
    "picard_solve",
    "eulerian_reconstruct",
    "continue_solution",
    "check_horizon",
    "make_initial",
    "slice_to_csv",
]


class PicardConvergenceError(NumericalFailure):
    """Iteration exhausted its budget; carries the difference history."""

    def __init__(self, message: str, diffs: list[float]):
        super().__init__(message)
        self.diffs = diffs


# Every run uses one value of each, so they are constants rather than
# SolverConfig fields: the Lipschitz budget per slab (1/2 gives the
# classic geometric tail), the most slabs a run may plan and record, the
# Picard iteration cap, and the largest fraction of labels a re-basing
# may lose out of the label box.
_SLAB_TARGET = 0.5
_MAX_SLABS = 2**16
_MAX_ITERS = 80
_EXIT_FRACTION_LIMIT = 1e-3


@dataclass
class SolverConfig:
    """The slab/Picard settings that runs vary.

    p and window define the norm used for contraction measurements;
    picard_tol is the difference at which iteration stops;
    nodes_per_slab fixes the trapezoid resolution of the time integral
    inside each slab.  slab_time_samples is validated but read by
    nothing: it counted the times at which a time-dependent kernel's rate
    was sampled, and a kernel no longer depends on time.  It stays until
    the configs that set it drop it.
    Settings that no run could use (a tolerance that is not finite and
    positive, fewer than 2 nodes or samples, p < 1) raise ValueError at
    construction.
    """

    p: float = 2.0
    window: tuple | None = None
    picard_tol: float = 1e-8
    nodes_per_slab: int = 17
    slab_time_samples: int = 9

    def __post_init__(self) -> None:
        for name in ("nodes_per_slab", "slab_time_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 2:
                raise ValueError(f"{name} must be >= 2, got {value}")
        if not 0 < self.picard_tol < np.inf:  # also rejects NaN
            raise ValueError(
                f"picard_tol must be finite and positive, got {self.picard_tol!r}"
            )
        self.norm_spec()  # rejects p < 1

    def norm_spec(self) -> NormSpec:
        return NormSpec(p=self.p, window=self.window)


@dataclass
class LagrangianState:
    """u~ sampled on (time nodes) x (label grid), with its flow attached;
    the label grid and the time nodes are the flow's."""

    values: np.ndarray         # (K, Nx, Nr)
    fmap: FlowMap
    u0: np.ndarray             # (Nx, Nr)

    @property
    def grid(self) -> GridSpec:
        return self.fmap.grid

    @property
    def times(self) -> np.ndarray:
        return self.fmap.times


@dataclass
class EulerianSlice:
    """u(t, .) on an Eulerian grid, plus the fraction of points whose
    backward label lies beyond the padded label box (filled with 0)."""

    grid: GridSpec
    t: float
    values: np.ndarray         # (Nx, Nr)
    exit_fraction: float


def _kernel_matrices(fmap: FlowMap, kernel: Kernel) -> np.ndarray:
    """The kernel's quadrature operator on the moved fiber coordinates of
    the flow's label grid, from its declared factors: one (2, K_eff, R,
    L, Nr) array of the finite-rank tables a[k, i, l, m] = a_l(X2[k, i, m])
    and c[k, i, l, q] = c_l(X2[k, i, q]) * w_q on the flow's R fiber rows.

    Each factor is called once per stored time slice, so no temporary
    outgrows an (Nx, Nr) slice.  When the moved fiber coordinates are
    time-independent (b2 = 0) K_eff = 1: a single time slice is stored
    and broadcasts over the nodes, as a shared fiber's one row broadcasts
    over the x labels.  A triangular kernel is integrated over the
    node-aligned tails of the label fiber, as the fiber map is
    monotone (label order and moved order agree), and has no w_q in c;
    other kernels fold the fiber weights w(q) into the c_l.  Kernels act
    on a j = 1 fiber only.
    """
    grid = fmap.grid
    if grid.j != 1:
        raise ValueError(f"kernels act on a j = 1 fiber, not j = {grid.j}")
    moving = bool(np.any(fmap.x2[1:] != fmap.x2[:1]))
    pos = fmap.x2[..., 0] if moving else fmap.x2[:1, ..., 0]  # (K_eff, R, Nr)
    a_list, c_list = kernel.factors
    ops = np.empty((2,) + pos.shape[:2] + (len(a_list), fmap.num_r))
    a, c = ops
    wr = 1.0 if kernel.triangular else grid.r_weights()
    for k, l in np.ndindex(a.shape[0], a.shape[2]):
        a[k, :, l] = a_list[l](pos[k])
        np.multiply(c_list[l](pos[k]), wr, out=c[k, :, l])
    return ops


class _Workspace:
    """What a Picard solve on one flow and kernel reads and writes: the
    kernel operator `ops`, the array of `_kernel_matrices`, and the
    density ratio rho2 = exp(logJ2) (both None without a kernel; one row
    for a shared fiber), and the (K, Nx, Nr) buffers it iterates in, `u`,
    `u_next` and `scratch`.

    `continue_solution` builds one next to its slab template, so a run
    builds its operator once and allocates no slab-sized array after
    that; a state whose values are `u` is valid until the next solve in
    the same workspace."""

    def __init__(self, fmap: FlowMap, kernel: Kernel | None):
        shape = (fmap.times.size, fmap.num_x, fmap.num_r)
        self.ops = None if kernel is None else _kernel_matrices(fmap, kernel)
        self.rho2 = None if kernel is None else np.exp(fmap.logj2)
        self.u, self.u_next, self.scratch = (np.empty(shape) for _ in range(3))

    def swap(self) -> None:
        self.u, self.u_next = self.u_next, self.u


def apply_A(
    values: np.ndarray,
    fmap: FlowMap,
    kernel: Kernel | None,
    u0: np.ndarray,
    _work=None,
) -> np.ndarray:
    """One application of the affine Volterra operator.

    `values` is u~ on (K, Nx, Nr); the r~ integral runs over each label's
    r fiber with the density ratio rho2 = exp(logJ - logJ1) as weight,
    and the time integral is the trapezoid rule on the stored nodes.  The
    kernel acts through its factors at O(K Nx Nr L) cost: the weighted
    state is contracted against the c_l and the moments are expanded
    along the a_l.  A triangular kernel takes its moments on every
    node-aligned tail, as the parity suffix sums of `suffix_integrals`.

    The operator is the one of `_work`, a `_Workspace` of this flow and
    kernel, and the image is written into its `u_next` buffer and
    returned; without a workspace both are built anew.
    """
    values = np.asarray(values, dtype=float)
    work = _work if _work is not None else _Workspace(fmap, kernel)
    out = work.u_next
    if kernel is None:
        out[...] = u0
        return out
    a, c = work.ops
    weighted = np.multiply(work.rho2, values, out=work.scratch)  # rho2 u~
    # a static operator's single slice broadcasts over the nodes, and a
    # shared fiber's one row over the x labels, rather than being copied;
    # the contraction overwrites the weighted state, which it no longer needs
    if kernel.triangular:
        rows = c * weighted[:, :, None, :]  # (K, Nx, L, Nr)
        tails = suffix_integrals(fmap.grid.r_axes()[0], rows)
        inner = np.einsum("kilm,kilm->kim", a, tails, out=work.scratch)
    else:
        mom = np.einsum("kilq,kiq->kil", c, weighted)
        inner = np.einsum("kilm,kil->kim", a, mom, out=work.scratch)
    _cumulative_trapezoid(inner, fmap.times, out)
    out += u0
    return out


def _cumulative_trapezoid(
    values: np.ndarray, times: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """Trapezoid integrals of `values` along axis 0 from times[0] to each
    node, zero at the first, summed as scipy's cumulative_trapezoid does,
    written into `out` (values' shape, not aliasing it) and returned."""
    dt = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    out[0] = 0.0
    np.add(values[1:], values[:-1], out=out[1:])
    out[1:] *= dt
    out[1:] /= 2.0
    # the sequential sums of np.cumsum, node by node: a cumsum along axis 0
    # strides across the whole array at every step
    for prev, row in zip(out[1:-1], out[2:]):
        np.add(prev, row, out=row)
    return out


def fixed_point_residual(
    state: LagrangianState, kernel: Kernel | None, config: SolverConfig,
    _work=None,
) -> float:
    """sup-in-time windowed L^p norm of u~ - A(u~).

    `_work` is a `_Workspace` of this state's flow and kernel whose
    `u_next` and `scratch` the state's values do not alias; without one
    a new one is built.
    """
    work = _work if _work is not None else _Workspace(state.fmap, kernel)
    image = apply_A(state.values, state.fmap, kernel, state.u0, _work=work)
    diff = np.subtract(state.values, image, out=work.scratch)
    return sup_in_time(diff, state.grid, config.norm_spec(), out=diff)


def choose_slab(
    rate: float | None, div_sup: float, horizon: float,
) -> tuple[float, int]:
    """(length, count): the fewest equal slabs over the horizon whose
    kernel budget stays within the slab target of 1/2.

    A slab of length T is budgeted at rate * T * exp(div_sup * T), where
    `rate` is the kernel's mixed norm (None without a kernel: one slab)
    and `div_sup` the sup of |div_r b2| over the label grid, measured
    once per run.  rate * T is the time integral of the mixed norm over
    the slab, and exp(div_sup * T) the density-ratio envelope; the
    measured Picard ratios are the binding check downstream.  The budget
    grows with T, so the count is found by bisection over 1 ... 2**16:
    it is ceil(horizon / T_max), T_max the longest length within the
    budget.  A budget that needs more than 2**16 slabs, or is NaN and so
    meets no target, raises NumericalFailure before any work.
    """
    if not horizon > 0:
        raise ValueError("the horizon must be positive")
    if rate is None:
        return horizon, 1

    def within(count):
        length = horizon / count
        return rate * length * np.exp(div_sup * length) <= _SLAB_TARGET

    if not within(_MAX_SLABS):
        raise NumericalFailure(
            f"kernel budget (rate {rate:.6g}, divergence sup {div_sup:.6g}) "
            f"exceeds {_SLAB_TARGET} unless the horizon {horizon:.6g} is cut "
            "into more than 2**16 slabs"
        )
    lo, hi = 0, _MAX_SLABS  # hi slabs meet the budget, lo slabs do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if within(mid) else (mid, hi)
    return horizon / hi, hi


def picard_solve(
    u0_values: np.ndarray,
    fmap: FlowMap,
    kernel: Kernel | None,
    config: SolverConfig,
    _work=None,
) -> tuple[LagrangianState, dict]:
    """Fixed point of A on the slab of `fmap` (its label grid and time
    nodes) by Picard iteration from u0.

    Stops when consecutive iterates differ by less than picard_tol in the
    sup-in-time windowed L^p norm; raises PicardConvergenceError when the
    budget runs out or a difference is not finite.  One `_Workspace`,
    `_work` or else a new one, serves every iteration and the residual:
    its operator is built with it, and each step writes A(u) into its
    next-iterate buffer and the difference into its scratch buffer, then
    swaps the iterates, so the loop allocates no (K, Nx, Nr) array.  The
    returned state's values are the workspace's buffer.  The summary
    records the iterations, the differences, their ratios
    (`contraction_ratios`, the measured contraction rate, meaningful from
    the second ratio on) and the residual.
    """
    u0_values = np.asarray(u0_values, dtype=float)
    grid = fmap.grid
    if u0_values.shape != (grid.num_x, grid.num_r):
        raise ValueError("u0_values must have shape (num_x, num_r)")
    if _work is None:
        _work = _Workspace(fmap, kernel)
    spec = config.norm_spec()
    _work.u[...] = u0_values
    diffs: list[float] = []
    for _ in range(_MAX_ITERS):
        u_next = apply_A(_work.u, fmap, kernel, u0_values, _work=_work)
        step = np.subtract(u_next, _work.u, out=_work.scratch)
        diff = sup_in_time(step, grid, spec, out=step)
        diffs.append(diff)
        _work.swap()
        if not np.isfinite(diff):
            raise PicardConvergenceError(
                f"non-finite difference at iteration {len(diffs)}", diffs
            )
        if diff < config.picard_tol:
            state = LagrangianState(values=_work.u, fmap=fmap, u0=u0_values)
            ratios = [
                diffs[i + 1] / diffs[i]
                for i in range(len(diffs) - 1)
                if diffs[i] > max(config.picard_tol * 1e-3, 1e-15)
            ]
            summary = {
                "iterations": len(diffs),
                "contraction_ratios": ratios,
                "differences": diffs,
                "residual": fixed_point_residual(state, kernel, config, _work=_work),
            }
            return state, summary
    raise PicardConvergenceError(
        f"no convergence in {_MAX_ITERS} iterations "
        f"(last difference {diffs[-1]:.3e})",
        diffs,
    )


def _multilinear(axes, values, pts, fill_value) -> np.ndarray:
    """Multilinear interpolant of `values` on the tensor grid `axes` at
    the rows of `pts`, `fill_value` outside the box.

    Each coordinate falls in the cell [a_i, a_i+1) with a_i <= p, clamped
    to the first and last cells, so a point on the upper face uses the
    last cell.  The corners are summed in scipy's RegularGridInterpolator
    order, with its 2-d grouping (v w0) w1 and its n-d grouping
    v (w0 w1 ...), so the two agree bit for bit.
    """
    idx, frac = [], []
    for a, p in zip(axes, pts.T):
        i = np.clip(np.searchsorted(a, p, side="right") - 1, 0, a.size - 2)
        idx.append(i)
        frac.append((p - a[i]) / (a[i + 1] - a[i]))
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        at = tuple(i + c for i, c in zip(idx, corner))
        ws = [y if c else 1 - y for y, c in zip(frac, corner)]
        if len(axes) == 2:
            out = out + values[at] * ws[0] * ws[1]
        else:
            weight = 1.0
            for w in ws:
                weight = weight * w
            out = out + values[at] * weight
    outside = np.zeros(pts.shape[0], dtype=bool)
    for a, p in zip(axes, pts.T):
        outside |= (p < a[0]) | (p > a[-1])
    out[outside] = fill_value
    return out


def _node_index(times: np.ndarray, t: float) -> int:
    """Index of the node at t, within 1e-12 max(1, |t|), or ValueError."""
    k = int(np.argmin(np.abs(times - t)))
    if not np.isclose(times[k], t, rtol=0.0, atol=1e-12 * max(1.0, abs(t))):
        raise ValueError(f"t={t} is not one of the state's time nodes")
    return k


def _slab_node(boundaries: list, tau: np.ndarray, t: float) -> tuple[int, int]:
    """(slab, node) of t: the first slab covering t within 1e-12, whose
    nodes are its start plus the local nodes `tau`."""
    for i, (start, end) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        if start - 1e-12 <= t <= end + 1e-12:
            return i, _node_index(start + tau, t)
    raise ValueError(f"t={t} outside the solved horizon")


def _pull_back(field: StructuredVectorField, grid: GridSpec, t: float, t0: float):
    """(labels (Nx Nr, n + j), beyond) of the grid's points at t pulled
    back to t0, under `eulerian_reconstruct`'s box rule."""
    lab_x, _, lab_r, _ = inverse_flow_grid(
        field, grid.x_labels(), grid.r_labels(), t, t0
    )
    flat = np.empty((grid.num_x, grid.num_r, grid.n + grid.j))
    flat[..., : grid.n], flat[..., grid.n :] = lab_x[:, None], lab_r
    flat = flat.reshape(-1, grid.n + grid.j)
    outside = np.zeros(flat.shape[0], dtype=bool)
    for a, col in zip(grid.axes(), flat.T):
        pad = 1e-12 * max(1.0, abs(a[-1]) + abs(a[0]))
        beyond = (col < a[0] - pad) | (col > a[-1] + pad)
        outside |= beyond
        col[~beyond] = np.clip(col[~beyond], a[0], a[-1])
    return flat, outside


def eulerian_reconstruct(
    state: LagrangianState,
    field: StructuredVectorField,
    t: float,
    _pull=None,
) -> EulerianSlice:
    """u(t, .) on the state's label grid, read as Eulerian points, from
    the Lagrangian state.

    Each Eulerian node is pulled back along the field to the state's base
    time and u~(t) is interpolated multilinearly at that label.  `t` must
    be one of the state's nodes.  `_pull` passes the node's pull-back, if
    already made; `continue_solution` shares one across its slabs.

    Box rule: each axis [lo, hi] has a pad of 1e-12 max(1, |lo| + |hi|)
    for the rounding of the pull-back.  A label within the pad is clipped
    onto the box face and interpolated there; a label beyond it gets 0,
    and `exit_fraction` counts exactly those labels.
    """
    k = _node_index(state.times, t)
    grid = state.grid
    if _pull is None:
        _pull = _pull_back(field, grid, state.times[k], state.times[0])
    flat, outside = _pull
    # only the labels beyond the pad are left outside the box, to be 0
    vals = _multilinear(
        grid.axes(), state.values[k].reshape(grid.shape), flat, 0.0
    ).reshape(grid.num_x, grid.num_r)
    return EulerianSlice(
        grid=grid,
        t=float(state.times[k]),
        values=vals,
        exit_fraction=float(np.mean(outside)),
    )


@dataclass
class ContinuedSolution:
    """Solution on [t0, T] from contraction slabs, read off each slab
    while its state is alive: the total Eulerian mass at every node, and
    the Eulerian slices at the requested times (keyed as requested) and
    at the last boundary.  Boundaries and one record per slab document
    it: the slab's t_start, t_end and exit_fraction (that of its
    re-basing, 0.0 on the last slab) with its Picard summary."""

    field_name: str
    kernel_name: str
    mass_times: np.ndarray
    masses: np.ndarray
    slices: dict
    final: EulerianSlice
    summaries: list
    boundaries: list

    def run_summary(self) -> dict:
        return {
            "field": self.field_name,
            "kernel": self.kernel_name,
            "slab_boundaries": [float(b) for b in self.boundaries],
            "slabs": self.summaries,
        }


def continue_solution(
    u0,
    field: StructuredVectorField,
    kernel: Kernel | None,
    config: SolverConfig,
    grid: GridSpec,
    t_end: float,
    t0: float = 0.0,
    slice_times=(),
) -> ContinuedSolution:
    """Solve on [t0, t_end] by chaining equal slabs of one template.

    `u0` is either nodal values (Nx, Nr) or a callable u0(x, r) sampled on
    the label grid.  The slab budget (the kernel's slab rate and the sup
    of |div_r b2| over the label grid, read on one fiber row when b2
    ignores x) does not depend on time, so
    `choose_slab` plans the run once; a horizon `check_horizon` rejects,
    or a slice time off the planned nodes, raises before any work.  Every
    slab is the first shifted in time, so the flow map, the pull-back of
    each node read and the Picard workspace every slab iterates in (with
    the kernel operator) are built once, on the local nodes
    tau = linspace(0, T0, nodes_per_slab).  Each slab iterates Picard
    on them, reads its masses and slices at t_start + tau, drops its
    state, and re-bases its last node on the label grid.  A slab
    reconstructs each node it reads once: its last node, the re-basing
    datum and on the last slab `final`, and the nodes of its slices, so
    a slice on a slab boundary is the re-basing read.  By
    `eulerian_reconstruct`'s box rule a label pulled back beyond the
    box's 1e-12 pad is set to 0; a run of more than one slab whose
    re-basing would set more than 0.1% of them aborts before solving.
    """
    check_horizon(t0, t_end)
    u_cur = _sample_initial(u0, grid)
    rate, div_sup = None, 0.0
    if kernel is not None:
        rate = kernel_slab_rate(kernel, grid, config.p)
        # b2 reads no x of a shared fiber: one row of labels has its sup
        labels = grid.joint_labels()[: 1 if field.fiber_ignores_x else None]
        div_sup = float(np.max(np.abs(np.asarray(
            field.div_b2(labels[..., : grid.n], labels[..., grid.n :]),
            dtype=float,
        ))))
    length, count = choose_slab(rate, div_sup, t_end - t0)
    boundaries = list(itertools.accumulate([length] * count, initial=t0))
    tau = np.linspace(0.0, length, config.nodes_per_slab)
    last = tau.size - 1
    # (slab, node) of each slice time, or ValueError before any work
    slice_nodes = [_slab_node(boundaries, tau, t) for t in slice_times]
    pulls = {k: _pull_back(field, grid, tau[k], 0.0)
             for k in {last, *(k for _, k in slice_nodes)}}
    exit_fraction = float(np.mean(pulls[last][1]))
    if count > 1 and exit_fraction > _EXIT_FRACTION_LIMIT:
        raise NumericalFailure(
            f"re-basing at t={boundaries[1]:.6g} lost {exit_fraction:.2%} "
            f"of labels (limit {_EXIT_FRACTION_LIMIT:.2%})"
        )
    fmap = flow_map(field, grid, tau)
    work = _Workspace(fmap, kernel)
    w = grid.x_weights()[:, None] * grid.r_weights()[None, :]
    mass_times, masses, summaries, slices = [], [], [], dict.fromkeys(slice_times)
    for i, t_start in enumerate(boundaries[:-1]):
        # the template shifted in time: its arrays on the nodes t_start + tau
        shifted = replace(fmap, times=t_start + tau)
        state, summary = picard_solve(u_cur, shifted, kernel, config, _work=work)
        # one read per node: the last one, and those of the slab's slices
        read = {k: eulerian_reconstruct(state, field, state.times[k], _pull=pulls[k])
                for k in {last, *(k for slab, k in slice_nodes if slab == i)}}
        slices.update((t, read[k]) for t, (slab, k) in zip(slice_times, slice_nodes)
                      if slab == i)
        start = 0 if i == 0 else 1
        # mass int u dy dr as the label-grid quadrature of u~ exp(logJ), in
        # the two workspace buffers the state does not use, and a row sum
        # per node: the same pairwise sum as np.sum(dens[k])
        dens = np.multiply(w, state.values, out=work.u_next)
        logj = np.add(fmap.logj1[:, :, None], fmap.logj2, out=work.scratch)
        dens *= np.exp(logj, out=logj)
        mass_times.extend(state.times[start:].tolist())
        masses.extend(dens[start:].reshape(tau.size - start, -1).sum(axis=1).tolist())
        summary.update(t_start=float(t_start), t_end=float(boundaries[i + 1]),
                       exit_fraction=exit_fraction if i + 1 < count else 0.0)
        u_cur = read[last].values
        summaries.append(summary)
        del state
    return ContinuedSolution(
        field_name=field.name,
        kernel_name=kernel.name if kernel is not None else "none",
        mass_times=np.asarray(mass_times), masses=np.asarray(masses),
        slices=slices, final=read[last], summaries=summaries, boundaries=boundaries,
    )


def check_horizon(t0: float, t_end: float) -> None:
    """Raise ValueError when no slab can cover the horizon [t0, t_end]:
    t_end must be finite and exceed t0 by more than 1e-12 max(1, |t_end|),
    the tolerance that absorbs the rounding of summed slab lengths (a
    non-finite t_end fails the comparison)."""
    tol = 1e-12 * max(1.0, abs(t_end))
    if not t0 < t_end - tol:
        raise ValueError(
            f"t_end = {t_end!r} must be finite and exceed t0 = {t0!r} by "
            f"more than {tol:.3g}"
        )


def _sample_initial(u0, grid: GridSpec) -> np.ndarray:
    if callable(u0):
        labels = grid.joint_labels()
        vals = np.asarray(
            u0(labels[..., : grid.n], labels[..., grid.n :]), dtype=float
        )
        return np.broadcast_to(vals, (grid.num_x, grid.num_r)).copy()
    vals = np.asarray(u0, dtype=float)
    if vals.shape == grid.shape:
        vals = vals.reshape(grid.num_x, grid.num_r)
    if vals.shape != (grid.num_x, grid.num_r):
        raise ValueError("u0 must match the label grid")
    return vals.copy()


# --- initial datum catalogue -----------------------------------------


class _GaussianDatum:
    """amp * exp(-|x - cx|^2 / wx) * exp(-|r - cr|^2 / wr).

    A center is a number or a flat list of one value or one per axis of
    its block, checked when the datum is called; a width is finite and
    positive."""

    def __init__(self, x_center=0.0, x_width=0.8, r_center=0.5, r_width=0.08,
                 amplitude=1.0):
        self.x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
        self.x_width = float(x_width)
        self.r_center = np.atleast_1d(np.asarray(r_center, dtype=float))
        self.r_width = float(r_width)
        self.amplitude = float(amplitude)
        if self.x_center.ndim > 1 or self.r_center.ndim > 1:
            raise ValueError("a center must be a number or a flat list")
        if not (0.0 < self.x_width < np.inf and 0.0 < self.r_width < np.inf):
            raise ValueError(f"widths must be finite and positive, got "
                             f"{self.x_width!r} and {self.r_width!r}")

    def __call__(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        if (self.x_center.size not in (1, x.shape[-1])
                or self.r_center.size not in (1, r.shape[-1])):
            raise ValueError(
                f"centers of {self.x_center.size} and {self.r_center.size} "
                f"values for blocks of dimension {x.shape[-1]} and {r.shape[-1]}"
            )
        out = self.amplitude * np.exp(
            -np.sum((x - self.x_center) ** 2, axis=-1) / self.x_width
        )
        if r.shape[-1]:
            out = out * np.exp(
                -np.sum((r - self.r_center) ** 2, axis=-1) / self.r_width
            )
        return out


class _LogGaussianDatum:
    """amp * exp(-(ln r - ln c)^2 / (2 sigma^2)) on a j = 1 fiber, x-independent.

    The natural shape for fragmentation cascades, which spread mass over
    decades of r: smooth and well resolved on geometric r grids.
    """

    def __init__(self, r_center=0.25, r_sigma=0.2, amplitude=1.0):
        self.r_center = float(r_center)
        self.r_sigma = float(r_sigma)
        self.amplitude = float(amplitude)
        if self.r_center <= 0 or self.r_sigma <= 0:
            raise ValueError("log-Gaussian needs positive center and sigma")

    def __call__(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        if r.shape[-1] != 1:
            raise ValueError(f"log-Gaussian reads j = 1, not j = {r.shape[-1]}")
        v = np.log(r[..., 0])
        out = self.amplitude * np.exp(
            -((v - np.log(self.r_center)) ** 2) / (2.0 * self.r_sigma**2)
        )
        return out + 0.0 * x[..., 0]


class _ConstantDatum:
    def __init__(self, value=1.0):
        self.value = float(value)

    def __call__(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.full(x.shape[:-1], self.value)


_INITIAL_BUILDERS = {
    "gaussian": _GaussianDatum,
    "log_gaussian": _LogGaussianDatum,
    "constant": _ConstantDatum,
}


def make_initial(name: str, **params):
    """Catalogue initial data: gaussian, log_gaussian, constant; each
    parameter left out takes its default in the datum's signature."""
    try:
        builder = _INITIAL_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown initial datum {name!r}") from None
    known = inspect.signature(builder).parameters
    for key in params:
        if key not in known:
            raise ValueError(f"unknown parameter {key!r} for datum {name!r}")
    return builder(**params)


def slice_to_csv(slc: EulerianSlice, path) -> None:
    """Rows (t, point coords..., u) with 17 significant digits.

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",",
    comments="")` with the column names as header.  A row is its x
    label's columns, then its r label's, so t and each label are
    formatted once, and each row formats only its u.
    """
    grid = slc.grid
    n, j = grid.n, grid.j
    cols = (
        ["t"]
        + [f"y_x{i + 1}" for i in range(n)]
        + [f"y_r{i + 1}" for i in range(j)]
        + ["u"]
    )
    t_col = "%.17g," % slc.t
    x_cols = [t_col + ("%.17g," * n) % tuple(x) for x in grid.x_labels().tolist()]
    r_cols = [("%.17g," * j) % tuple(r) for r in grid.r_labels().tolist()]
    row = "%s%.17g\n" * grid.num_r
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        # one string operation per x label, over its (prefix, u) pairs
        for x_col, u in zip(x_cols, slc.values.tolist()):
            prefixes = [x_col + r_col for r_col in r_cols]
            fh.write(row % tuple(itertools.chain.from_iterable(zip(prefixes, u))))
