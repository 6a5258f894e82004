"""Fixed-point solution of the transported integral equation.

In label coordinates the problem is a Volterra-type equation

    u~(t, x, r) = u0(x, r) + int_0^t int gamma(X2(s,x,r), X2(s,x,rt))
                  rho2(s,x,rt) u~(s, x, rt) drt ds,

whose right side defines the affine operator A.  The kernel sees only the
moved fiber coordinates, so the operator is one evaluation of the
kernel's factors per stored time slice, and a single slice when the
fibers do not move.  On a
short enough time slab A is a contraction in the sup-in-time windowed L^p
norm, so the slab has one fixed point.  Under the trapezoid rule in time
node k depends on itself only through the kernel term, so every slab is
solved exactly by marching its nodes: one L x L solve per fiber row and
node for a kernel that is not triangular, a back-substitution along the
fiber for a triangular one, and u0 at every node without a kernel.  The
slab's residual must stay within picard_tol times max(1, the state's
norm).  Longer horizons are
covered by chaining slabs, re-basing the initial datum at each boundary
through an Eulerian reconstruction.
Neither the kernel nor the drift b = (b1(x), b2(x, r)) depends on time,
so the slab budget is measured once per run, from one evaluation of
each, and the run is equal slabs of one template: flow, operator, node
systems, pull-backs and the buffers a slab is solved in, built once, so
every slab runs the template's arithmetic and one application of A, for
its residual.  A slab's solution is its node values, u~ on the label
grid at the template's nodes, read at the slab's own times
t_start + tau.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass

import numpy as np

from .fields import Kernel, StructuredVectorField, kernel_slab_rate
from .flow import (
    FlowMap,
    NumericalFailure,
    flow_map,
    inverse_flow_grid,
    write_csv,
)
from .grid import GridSpec, NormSpec, suffix_factors, suffix_integrals, sup_in_time

__all__ = [
    "SolverConfig",
    "EulerianSlice",
    "ContinuedSolution",
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


# Every run uses one value of each, so they are constants rather than
# SolverConfig fields: the Lipschitz budget per slab (1/2 gives the
# classic geometric tail), the most slabs a run may plan and record, and
# the largest fraction of labels a re-basing may lose out of the label box.
_SLAB_TARGET = 0.5
_MAX_SLABS = 2**16
_EXIT_FRACTION_LIMIT = 1e-3


@dataclass
class SolverConfig:
    """The slab settings that runs vary.

    p and window define the norm used for contraction measurements and
    residuals; picard_tol bounds every slab's fixed-point residual,
    relative to the state's norm when that exceeds 1 (a slab is marched
    to its exact discrete fixed point, so a residual above it means the
    node solves lost their accuracy); nodes_per_slab
    fixes the trapezoid resolution of the time integral inside each
    slab.
    slab_time_samples is validated but read by nothing: it counted the
    times at which a time-dependent kernel's rate was sampled, and a
    kernel no longer depends on time.  It stays until the configs that
    set it drop it.
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
    """What a slab solve on one flow and kernel reads and writes: the
    kernel operator `ops`, the array of `_kernel_matrices`, the density
    ratio rho2 = exp(logJ2), one slice when it is the same at every node,
    the march's half steps `half` and its node solver `node`
    (`_node_solver`), all None without a kernel (one row of `ops` and
    rho2 for a shared fiber), and the two (K, Nx, Nr) buffers it works
    in, `u` and `u_next`.

    `continue_solution` builds one on its slab template, so a run builds
    its operator and its node systems once and allocates no slab-sized
    array after that; the node values `picard_solve` returns are `u`,
    valid until the next solve in the same workspace."""

    def __init__(self, fmap: FlowMap, kernel: Kernel | None):
        shape = (fmap.times.size, fmap.num_x, fmap.num_r)
        self.u, self.u_next = np.empty(shape), np.empty(shape)
        self.ops = self.rho2 = self.half = self.node = None
        if kernel is not None:
            self.ops = _kernel_matrices(fmap, kernel)
            logj2 = fmap.logj2
            self.rho2 = np.exp(logj2[:1] if np.all(logj2 == logj2[:1]) else logj2)
            self.half, self.node = _node_solver(fmap, kernel, self)


def _triangular_set(fmap: FlowMap, ops: np.ndarray, rho2: np.ndarray, k: int,
                    h: float) -> tuple:
    """(d, psi, q, singular): what the back-substitution of a triangular
    kernel's node system (I - h T) u = y at node k >= 1 reads, for the
    operator `ops` of `_kernel_matrices` and the stored rho2, each one
    slice or one per node, and the half step h.  None of it depends on
    the state.

    T = sum_l diag(a_l) S diag(c_l rho2), S the tail weights whose rows
    `suffix_factors` gives, so row m of T u is D_m u_m + phi_m . z(m) with
    D_m = diag_m sum_l (a_l c_l rho2)(m), phi_m holding scale_m a_l(m) in
    the block of parity[m], and the 2L running sums z(m) = sum_{q > m}
    columns[p, q] (c_l rho2 u)(q), one per parity p and factor l.  Back
    from the last node, u_m = (y_m + h phi_m . z(m)) / delta_m with
    delta_m = 1 - h D_m, so z(m-1) = G_m z(m) + v_m y_m / delta_m, with
    v_m = columns[:, m] (c_l rho2)(m) and G_m = I + h v_m phi_m^T / delta_m.
    The suffix products P_m = G_m ... G_{N-1} and their inverses, from
    G_m^{-1} = I - h v_m phi_m^T / (delta_m + h phi_m . v_m), found by
    doubling, unroll it: with the sums
    s(m) = sum_{j > m} q_j y_j, q_j = P_j^{-1} v_j / delta_j, the node's
    image is g_m = (T u)_m = psi_m . s(m) + d_m y_m, where
    psi_m = phi_m^T P_{m+1} / delta_m and d_m = D_m / delta_m, and
    u_m = y_m + h g_m.  `singular` is True when a delta is zero and the
    node system singular.  Products too ill-conditioned, far past any
    slab budget, show in the slab's residual.
    """
    diag, scale, parity, columns = suffix_factors(fmap.grid.r_axes()[0])
    a, c = ops[:, k if ops.shape[1] > 1 else 0]
    w = c * rho2[k if len(rho2) > 1 else 0][:, None, :]  # c_l rho2, (R, L, Nr)
    a = np.broadcast_to(a, w.shape)
    d = diag * np.einsum("ilm,ilm->im", a, w)
    delta = 1.0 - h * d
    singular = bool(np.any(delta == 0.0))
    delta[delta == 0.0] = 1.0  # a singular set raises before its solve
    d /= delta
    # (2, L, Nr, R) -> (2L, Nr, R): one block of L per parity.  The 2L x 2L
    # factors lead and the fiber nodes come before the rows, so a shift
    # along the fiber is one contiguous slice of the flattened (Nr R) axis
    wl, al, delta = w.transpose(1, 2, 0), a.transpose(1, 2, 0), delta.T
    v = (columns[:, None, :, None] * wl).reshape((-1,) + wl.shape[1:])
    phi = ((np.arange(2)[:, None] == parity) * scale)[:, None, :, None] * al
    psi = phi.reshape(v.shape) / delta
    hv, flat_psi = (x.reshape(len(v), -1) for x in (h * v, psi))  # (2L, Nr R)
    eye, outer = np.eye(len(v))[:, :, None], hv[:, None] * flat_psi[None]
    p = eye + outer  # G_m
    inv = eye - outer / (1.0 + np.einsum("en,en->n", hv, flat_psi))
    for span in (len(w) * 2**i for i in range((len(delta) - 1).bit_length())):
        p[..., :-span] = np.einsum("efn,fgn->egn", p[..., :-span], p[..., span:])
        inv[..., :-span] = np.einsum("efn,fgn->egn", inv[..., span:], inv[..., :-span])
    p, inv = (x.reshape(x.shape[:2] + v.shape[1:]) for x in (p, inv))
    psi[:, :-1] = np.einsum("emi,efmi->fmi", psi[:, :-1], p[:, :, 1:])
    q = np.einsum("efmi,fmi->emi", inv, v) / delta
    return d, psi, q, singular


def apply_A(
    values: np.ndarray,
    fmap: FlowMap,
    kernel: Kernel | None,
    u0: np.ndarray,
    _work: _Workspace,
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
    kernel whose `u_next` buffer `values` does not alias.  The weighted
    state, the contraction and then the image are written into that
    buffer, and the image is returned.
    """
    values = np.asarray(values, dtype=float)
    out = _work.u_next
    if kernel is None:
        out[...] = u0
        return out
    weighted = np.multiply(_work.rho2, values, out=out)  # rho2 u~
    # the contraction overwrites the weighted state, which it no longer needs
    inner = _kernel_image(fmap, kernel, *_work.ops, weighted, out=out)
    _cumulative_trapezoid(inner, fmap.times)
    out += u0
    return out


def _kernel_image(fmap: FlowMap, kernel: Kernel, a, c, weighted, out) -> np.ndarray:
    """The kernel term T_k applied at each node k of `weighted`, the
    (K, Nx, Nr) state times rho2, for the (K, R, L, Nr) tables a and c of
    `_kernel_matrices`, written into `out` and returned.

    A static operator's single slice broadcasts over the nodes, and a
    shared fiber's one row over the x labels, rather than being copied.
    """
    if kernel.triangular:
        rows = c * weighted[:, :, None, :]  # (K, Nx, L, Nr)
        tails = suffix_integrals(fmap.grid.r_axes()[0], rows)
        return np.einsum("kilm,kilm->kim", a, tails, out=out)
    mom = np.einsum("kilq,kiq->kil", c, weighted)
    return np.einsum("kilm,kil->kim", a, mom, out=out)


def _cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of `values` (at least 2-d) along axis 0 from
    times[0] to each node, zero at the first, summed as scipy's
    cumulative_trapezoid does, written over `values` and returned.

    Three passes, none allocating an array of values' size: the pair sums
    v[k] + v[k-1], from the last node down so that each row is read
    before it is overwritten; `* dt` and `/ 2.0`; and the sequential sums
    of np.cumsum, node by node, since a cumsum along axis 0 strides across
    the whole array at every step.  The loops take their row views once
    and pass `out` positionally: on a small slab the per-call overhead is
    the cost.
    """
    dt = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    rows = list(values)
    for row, below in zip(rows[:0:-1], rows[-2::-1]):
        np.add(row, below, row)
    values[0] = 0.0
    values[1:] *= dt
    values[1:] /= 2.0
    for prev, row in zip(rows[1:-1], rows[2:]):
        np.add(prev, row, row)
    return values


def fixed_point_residual(
    values: np.ndarray,
    fmap: FlowMap,
    kernel: Kernel | None,
    u0: np.ndarray,
    config: SolverConfig,
    _work: _Workspace,
) -> float:
    """sup-in-time windowed L^p norm of u~ - A(u~), for the arrays
    `apply_A` takes: u~ on (K, Nx, Nr), the flow, the kernel and the
    datum u0.

    `_work` is a `_Workspace` of this flow and kernel whose `u_next`
    `values` does not alias.  The difference overwrites the image in
    `u_next`.
    """
    image = apply_A(values, fmap, kernel, u0, _work=_work)
    diff = np.subtract(values, image, out=image)
    return sup_in_time(diff, fmap.grid, config.norm_spec(), out=diff)


def choose_slab(
    rate: float | None, div_sup: float, horizon: float,
) -> tuple[float, int]:
    """(length, count): the fewest equal slabs over the horizon whose
    kernel budget stays within the slab target of 1/2.

    A slab of length T is budgeted at rate * T * exp(div_sup * T), where
    `rate` is the kernel's mixed norm (None without a kernel: one slab)
    and `div_sup` the sup of |div_r b2| over the label grid, measured
    once per run.  rate * T is the time integral of the mixed norm over
    the slab, and exp(div_sup * T) the density-ratio envelope.  The
    slabs are marched exactly, so the budget sets how far each node
    solve is from singular; each slab's residual, bounded through
    picard_tol, is the check downstream.  The budget
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
) -> tuple[np.ndarray, dict]:
    """(values, record): the exact fixed point of the trapezoid slab
    equation on the slab of `fmap` (its label grid and time nodes), u~ on
    (K, Nx, Nr), marched node by node in the `u` buffer of a
    `_Workspace`, `_work` or else a new one.

    The operator's image at node k is g_k = T_k u_k, T_k the kernel term
    at node k.  With h the half step the workspace's node system k was
    built on, (t_k - t_{k-1}) / 2 to rounding, the fixed point at node k
    is u_k = y + h g_k for y = u_{k-1} + h g_{k-1}: node k depends on
    itself only through T_k, so each node solves (I - h T_k) u_k = y
    (the workspace's `node`), forms g_k from its terms and sets
    u_k = y + h g_k.  Node 0 is u0, and g_0 = T_0 u0 is applied as
    `apply_A` applies it.  Without a kernel every node is u0.  g and h g
    are kept in the first two rows of the workspace's `u_next`, so the
    march allocates no slab-sized array, and the returned values are
    the workspace's `u`, valid until its next solve.  The march reads
    nothing of `fmap` but its grid: the same workspace solves every slab
    of a run, whatever its start.

    The record keeps the keys `iterations` (0) and `contraction_ratios`
    of the Picard iteration the march replaced, with one measured ratio
    ||v - u0|| / ||v|| (unless ||v|| is 0), v the marched state, and the
    residual ||v - A v||.  The ratio is within residual / ||v|| of
    ||A v - u0|| / ||v|| = ||A v - A 0|| / ||v - 0||, so the residual's is
    the slab's one `apply_A`.  A singular node system, a non-finite node
    or a residual above picard_tol * max(1, ||v||) raises
    NumericalFailure: the node solves' rounding scales with the state.
    """
    u0_values = np.asarray(u0_values, dtype=float)
    grid = fmap.grid
    if u0_values.shape != (grid.num_x, grid.num_r):
        raise ValueError("u0_values must have shape (num_x, num_r)")
    if _work is None:
        _work = _Workspace(fmap, kernel)
    u, (g, step) = _work.u, _work.u_next[:2]
    u[0] = u0_values
    if kernel is None:
        u[1:] = u0_values
    else:
        weighted = np.multiply(_work.rho2[0], u0_values, out=step)
        _kernel_image(fmap, kernel, *_work.ops[:, :1], weighted[None], out=g[None])
        for k, h in enumerate(_work.half, start=1):
            np.multiply(g, h, out=step)
            np.add(u[k - 1], step, out=u[k])  # y
            _work.node(k, u[k])
            np.multiply(g, h, out=step)
            u[k] += step
    if not np.isfinite(u[-1]).all():
        # a non-finite entry stays so at every later node: name the first
        first = next(k for k, row in enumerate(u) if not np.isfinite(row).all())
        raise NumericalFailure(f"non-finite value at node {first}")
    spec = config.norm_spec()
    size = sup_in_time(u, grid, spec, out=_work.u_next)
    diff = np.subtract(u, u0_values, out=_work.u_next)
    moved = sup_in_time(diff, grid, spec, out=diff)
    residual = fixed_point_residual(u, fmap, kernel, u0_values, config, _work=_work)
    if not residual <= config.picard_tol * max(1.0, size):
        raise NumericalFailure(f"slab residual {residual:.3e} exceeds picard_tol "
                               f"{config.picard_tol:.3g} times max(1, {size:.3g})")
    summary = {
        "iterations": 0,
        "contraction_ratios": [moved / size] if size > 0 else [],
        "residual": residual,
    }
    return u, summary


def _node_solver(fmap: FlowMap, kernel: Kernel, work: _Workspace) -> tuple:
    """(half, node) of a `_Workspace` with its `ops`, `rho2` and `u_next`
    built: node(k, y) writes g_k = T_k u_k into the first row of
    `work.u_next`, for the u_k that solves (I - h T_k) u_k = y at node
    k >= 1 with h = half[k-1], and raises NumericalFailure when that
    system has no unique solution.  half is (t_k - t_{k-1}) / 2 at each
    node, except that a triangular kernel on a static fiber, on steps
    equal to the rounding of the times, has one half step, that of its
    first node, at every node, and so one node system.

    On a fiber row let A_k be the (L, Nr) table of the a_l at node k and
    C_k that of the c_l times rho2.  A kernel that is not triangular has
    T_k = A_k^T C_k with the fiber weights in C_k, so its node system
    reduces to (I - h C_k A_k^T) m_k = C_k y for the L moments
    m_k = C_k u_k, and g_k = A_k^T m_k; the systems are inverted here
    (`_invert_small`), and a singular one raises.  A triangular kernel's
    node is solved by the back-substitution of `_triangular_set`.  Its
    sets are held when they are small: the static fiber's one set, or a
    shared fiber's one row per node, (K - 1) Nr (4L + 1) floats in all.
    A moving fiber that reads x would hold 4L + 1 slabs of them, so the
    march builds each node's set when it reaches it.
    """
    g, times = work.u_next[0], fmap.times
    half = np.diff(times) / 2.0
    if kernel.triangular:
        sets = None
        equal = np.ptp(2.0 * half) <= np.finfo(float).eps * max(abs(times))
        if equal and work.ops.shape[1] == len(work.rho2) == 1:
            half[:] = half[0]
            sets = [_triangular_set(fmap, work.ops, work.rho2, 1, half[0])] * half.size
        elif work.ops.shape[2] == work.rho2.shape[1] == 1:
            sets = [_triangular_set(fmap, work.ops, work.rho2, k, h)
                    for k, h in enumerate(half, start=1)]

        def node(k, y):
            d, psi, q, singular = (sets[k - 1] if sets else _triangular_set(
                fmap, work.ops, work.rho2, k, half[k - 1]))
            if singular:
                raise NumericalFailure(f"singular node system at node {k}")
            # sums[:, m] is the sum over j >= m of q_j y_j
            sums = np.cumsum((q * y.T)[:, ::-1], axis=1)[:, ::-1]
            np.multiply(d, y, out=g)
            g[:, :-1] += np.einsum("emi,emi->im", psi[:, :-1], sums[:, 1:])
            return g

        return half, node
    shape = (times.size,) + work.ops.shape[2:]
    # a static operator's one slice and rho2 read the same at every node
    a, c = (np.broadcast_to(ops, shape) for ops in work.ops)
    rho2 = np.broadcast_to(work.rho2, (shape[0],) + work.rho2.shape[1:])
    products = np.einsum("kilq,kiq,kimq->kilm", c[1:], rho2[1:], a[1:])
    inverses, singular = _invert_small(np.eye(shape[2]) - half[:, None, None, None]
                                       * products)
    if singular.any():
        first = 1 + int(np.argmax(singular.any(axis=1)))
        raise NumericalFailure(f"singular node system at node {first}")

    def node(k, y):
        m = np.einsum("ilq,iq,iq->il", c[k], rho2[k], y)
        m = np.einsum("ilm,im->il", inverses[k - 1], m)
        return np.einsum("ilm,il->im", a[k], m, out=g)

    return half, node


def _invert_small(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inverses, singular) of a stack (..., L, L) of small matrices, by
    Gauss-Jordan elimination with partial pivoting in numpy's elementwise
    operations; `singular` marks the matrices that met a zero pivot,
    whose inverses are not meaningful.

    L is a kernel's rank, a few at most.  numpy.linalg's first call
    starts OpenBLAS, which adds about 0.25 MB to a solve process's peak
    memory; this does not.
    """
    size = stack.shape[-1]
    aug = np.zeros((stack[..., 0, 0].size, size, 2 * size))
    aug[:, :, :size] = stack.reshape(-1, size, size)
    aug[:, range(size), range(size, 2 * size)] = 1.0
    rows = np.arange(aug.shape[0])
    singular = np.zeros(aug.shape[0], dtype=bool)
    for j in range(size):
        best = j + np.argmax(np.abs(aug[:, j:, j]), axis=1)
        aug[rows, j], aug[rows, best] = aug[rows, best], aug[rows, j]
        zero = aug[:, j, j] == 0.0
        singular |= zero
        aug[:, j] /= np.where(zero, 1.0, aug[:, j, j])[:, None]
        factors = aug[:, :, j].copy()
        factors[:, j] = 0.0
        aug -= factors[:, :, None] * aug[:, None, j]
    return (aug[:, :, size:].reshape(stack.shape),
            singular.reshape(stack.shape[:-2]))


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


def _slab_node(boundaries: list, tau: np.ndarray, t: float) -> tuple[int, int]:
    """(slab, node) of t: the first slab covering t within 1e-12, whose
    nodes are its start plus the local nodes `tau`, and the node of that
    slab at t within 1e-12 max(1, |t|), or ValueError."""
    for i, (start, end) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        if start - 1e-12 <= t <= end + 1e-12:
            times = start + tau
            k = int(np.argmin(np.abs(times - t)))
            if not np.isclose(times[k], t, rtol=0.0, atol=1e-12 * max(1.0, abs(t))):
                raise ValueError(f"t={t} is not one of the state's time nodes")
            return i, k
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
    values: np.ndarray, grid: GridSpec, t: float, pull: tuple,
) -> EulerianSlice:
    """u(t, .) on the label grid `grid`, read as Eulerian points, from
    `values`, u~ at one node, (Nx, Nr), whose time is `t`.

    `pull` is the pull-back of the grid's points from t to the slab's
    base time along the field, as `_pull_back` makes it
    (`continue_solution` shares one across its slabs), and u~(t) is
    interpolated multilinearly at each pulled-back label.

    Box rule: each axis [lo, hi] has a pad of 1e-12 max(1, |lo| + |hi|)
    for the rounding of the pull-back.  A label within the pad is clipped
    onto the box face and interpolated there; a label beyond it gets 0,
    and `exit_fraction` counts exactly those labels.
    """
    flat, outside = pull
    # only the labels beyond the pad are left outside the box, to be 0
    vals = _multilinear(
        grid.axes(), values.reshape(grid.shape), flat, 0.0
    ).reshape(grid.num_x, grid.num_r)
    return EulerianSlice(
        grid=grid,
        t=float(t),
        values=vals,
        exit_fraction=float(np.mean(outside)),
    )


@dataclass
class ContinuedSolution:
    """Solution on [t0, T] from contraction slabs, read off each slab
    while its node values are alive: the total Eulerian mass at every
    node, and the Eulerian slices at the requested times (keyed as
    requested) and at the last boundary.  Boundaries and one record per
    slab document it: the slab's t_start, t_end and exit_fraction (that
    of its re-basing, 0.0 on the last slab) with its `picard_solve`
    record."""

    mass_times: np.ndarray
    masses: np.ndarray
    slices: dict
    final: EulerianSlice
    summaries: list
    boundaries: list


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
    each node read and the workspace every slab is solved in (with the
    kernel operator) are built once, on the local nodes
    tau = linspace(0, T0, nodes_per_slab).  Each slab solves its fixed
    point on the template (`picard_solve`), so every slab runs the same
    node systems and steps; its node values are read at the times
    t_start + tau, for its masses and slices, and its last node is
    re-based on the label grid.  A slab
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
            field.b2_and_div(labels[..., : grid.n], labels[..., grid.n :])[1],
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
        # solved on the template, and read at the slab's own times
        u, summary = picard_solve(u_cur, fmap, kernel, config, _work=work)
        times = t_start + tau
        # one read per node: the last one, and those of the slab's slices
        read = {k: eulerian_reconstruct(u[k], grid, times[k], pulls[k])
                for k in {last, *(k for slab, k in slice_nodes if slab == i)}}
        slices.update((t, read[k]) for t, (slab, k) in zip(slice_times, slice_nodes)
                      if slab == i)
        start = 0 if i == 0 else 1
        # mass int u dy dr as the label-grid quadrature of u~ exp(logJ), in
        # the workspace buffer the values do not use, exp(logJ1 + logJ2)
        # one (Nx, Nr) node at a time, and a row sum per node: the same
        # pairwise sum as np.sum(dens[k])
        dens = np.multiply(w, u, out=work.u_next)
        for node, logj1, logj2 in zip(dens, fmap.logj1, fmap.logj2):
            logj = logj1[:, None] + logj2
            node *= np.exp(logj, out=logj)
        mass_times.extend(times[start:].tolist())
        masses.extend(dens[start:].reshape(tau.size - start, -1).sum(axis=1).tolist())
        summary.update(t_start=float(t_start), t_end=float(boundaries[i + 1]),
                       exit_fraction=exit_fraction if i + 1 < count else 0.0)
        u_cur = read[last].values
        summaries.append(summary)
    return ContinuedSolution(
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
    decades of r: smooth and well resolved on geometric r grids.  It is
    its limit 0 at r = 0, and a fiber that reaches r < 0 raises
    ValueError.
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
        if np.any(r[..., 0] < 0):
            raise ValueError("log-Gaussian needs r >= 0")
        with np.errstate(divide="ignore"):  # ln 0 = -inf, and exp(-inf) = 0
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
    comments="")` with the column names as header.  t and each label are
    formatted once: a row's `flow.write_csv` prefix joins its x label's
    text to its r label's, and each row formats only its u.
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
    prefixes = (x_col + r_col for x_col in x_cols for r_col in r_cols)
    write_csv(path, cols, prefixes, slc.values.reshape(-1, 1))
