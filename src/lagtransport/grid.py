"""Tensor-product label grids, quadrature weights, and windowed L^p norms.

The solver works on a truncated box ``[x-box] x [r-box]`` whose nodes serve
both as Lagrangian labels and as Eulerian evaluation points.  Quadrature is
composite Simpson on uniform axes (with a trapezoid patch on the last cell
when the point count is even) and Simpson in log coordinates on
geometrically spaced axes.  Weights are always positive, which the norm
and mass bookkeeping downstream rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "NormSpec",
    "axis_weights",
    "suffix_weight_matrix",
    "suffix_integrals",
    "suffix_factors",
    "lp_norm",
    "sup_in_time",
]

_SNAP = 1e-12


def _uniform_spacing(coords: np.ndarray) -> float | None:
    """Return the common spacing of `coords`, or None if not uniform."""
    d = np.diff(coords)
    h = d[0]
    # np.allclose(d, h, rtol=1e-9, atol=0.0) for finite d, without its
    # per-call cost
    if np.all(np.abs(d - h) <= 1e-9 * np.abs(h)):
        return float(h)
    return None


def _uniform_weights(npts: int, h: float) -> np.ndarray:
    """Composite Simpson weights for a uniform axis; even point counts get
    a trapezoid patch on the last cell."""
    w = np.zeros(npts)
    if npts == 2:
        w[:] = 0.5 * h
        return w
    if npts % 2 == 1:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
        return w
    w[: npts - 1] = _uniform_weights(npts - 1, h)
    w[-2] += 0.5 * h
    w[-1] += 0.5 * h
    return w


@functools.lru_cache(maxsize=32)
def _axis_plan(axis: bytes) -> tuple[np.ndarray, tuple | None]:
    """(weights, tails) of one axis, given as its float64 bytes: the
    read-only `axis_weights` result, and what `suffix_integrals` needs,
    (log, odd, even, h_odd / 3, h_even / 3, h_even / 2, h_last / 2) with
    `log` whether the panels are Simpson in log c and `odd`, `even` the
    strided parity slices of the tails of 3 and more nodes; tails is None
    on an axis that is neither uniform nor geometric."""
    coords = np.frombuffer(axis)
    npts = coords.size
    if npts < 2:
        raise ValueError("axis needs at least 2 points")
    s, log = coords, False
    h = _uniform_spacing(s)
    if h is None and np.all(coords > 0.0):
        s, log = np.log(coords), True
        h = _uniform_spacing(s)
    if h is None:
        d = np.diff(coords)
        w = np.zeros(npts)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
        tails = None
    else:
        w = _uniform_weights(npts, h)
        if log:
            w = w * coords
        d = np.diff(s)  # each tail its own spacing, as axis_weights(coords[m:])
        # a negative start would wrap around, so short axes select nothing
        odd = slice(npts - 3, None, -2) if npts >= 3 else slice(0, 0)
        even = slice(npts - 4, None, -2) if npts >= 4 else slice(0, 0)
        tails = (log, odd, even, d[odd] / 3.0, d[even] / 3.0, 0.5 * d[even],
                 0.5 * (coords[-1] - coords[-2]))
    w.flags.writeable = False
    return w, tails


def axis_weights(coords: np.ndarray) -> np.ndarray:
    """Quadrature weights for one axis, read-only.

    Uniform axes get composite Simpson weights; when the point count is
    even the last cell is patched with the trapezoid rule.  Geometric
    axes are uniform in log coordinates, so they get Simpson weights
    there times the Jacobian (node value), which keeps fourth-order
    accuracy for integrands smooth in the log variable.  Any other
    spacing falls back to the trapezoid rule.  Weights are always
    positive; uniform and trapezoid weights sum to the interval length
    exactly, log-Simpson weights to quadrature accuracy.  The rule is
    decided once per axis, in the plan `suffix_integrals` also reads.
    """
    return _axis_plan(np.asarray(coords, dtype=float).tobytes())[0]


def suffix_weight_matrix(coords: np.ndarray) -> np.ndarray:
    """Weights for integrals over the node-aligned tails ``[c_m, c_last]``.

    Row m holds quadrature weights for the subgrid coords[m:], zero below
    the diagonal.  Used for kernels supported on ``r < r_tilde`` so the
    integrand jump always lands exactly on a node.  The last row is zero
    (empty integration range).  This is the reference for
    `suffix_integrals`, which applies it in O(N) per row without building
    it; no solver path builds the matrix.  Each row is the `axis_weights`
    of its subgrid, planned without the plan cache, so one call leaves
    the cached plans of the process as they were.
    """
    coords = np.asarray(coords, dtype=float)
    npts = coords.size
    mat = np.zeros((npts, npts))
    for m in range(npts - 1):
        mat[m, m:] = _axis_plan.__wrapped__(coords[m:].tobytes())[0]
    return mat


def suffix_integrals(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values @ suffix_weight_matrix(coords).T`` to rounding, in O(N) per
    row of `values` (last axis on `coords`) and without a matrix product.

    A tail of N >= 3 nodes is Simpson panels (in log r on a geometric
    axis), plus the trapezoid on its last cell if N is even, so the tails
    of each parity are reverse cumulative sums of every other panel.  The
    2-node tail is the trapezoid in r.  Uniform and geometric axes only.
    The axis work (its spacing tests, logarithm and panel factors) is the
    axis's cached plan, the one `axis_weights` reads, so repeated calls on
    one axis only sum panels.
    """
    coords, values = np.asarray(coords, float), np.asarray(values, float)
    tails = _axis_plan(coords.tobytes())[1]
    if tails is None:
        raise ValueError("suffix integrals need a uniform or geometric axis")
    log, odd, even, h_odd, h_even, half_even, half_last = tails
    g = values * coords if log else values
    panels = g[..., :-2] + 4.0 * g[..., 1:-1] + g[..., 2:]
    out = np.zeros(values.shape)
    out[..., odd] = h_odd * np.cumsum(panels[..., odd], axis=-1)
    out[..., even] = (h_even * np.cumsum(panels[..., even], axis=-1)
                      + half_even * (g[..., -2] + g[..., -1])[..., None])
    out[..., -2] = half_last * (values[..., -2] + values[..., -1])
    return out


def suffix_factors(coords: np.ndarray) -> tuple[np.ndarray, ...]:
    """(diag, scale, parity, columns) of `suffix_weight_matrix(coords)`,
    to rounding: row m is diag[m] at column m, scale[m] *
    columns[parity[m], q] at each column q > m, and zero before m.

    A tail from m of 3 or more nodes is Simpson panels of width d_m (in
    log r on a geometric axis, where each column also carries its node's
    r), so past its first node its weights are d_m times those of a
    column: 4/3 and 2/3 alternating back from the last node's 1/3 for an
    odd node count, and for an even count 2/3 and 4/3 alternating back to
    the trapezoid patch's 5/6 and 1/2.  parity[m] = (N - m) mod 2 picks
    the column.  The 2-node tail is the trapezoid in r and the last row
    is zero.  Uniform and geometric axes only, read from the axis plan
    `suffix_integrals` reads.
    """
    coords = np.asarray(coords, dtype=float)
    tails = _axis_plan(coords.tobytes())[1]
    if tails is None:
        raise ValueError("suffix integrals need a uniform or geometric axis")
    jac = coords if tails[0] else np.ones(coords.size)
    d, last = np.diff(np.log(coords) if tails[0] else coords), coords[-1] - coords[-2]
    parity = np.arange(coords.size, 0, -1) % 2
    columns = np.where(parity, [[4.0 / 3.0], [2.0 / 3.0]], [[2.0 / 3.0], [4.0 / 3.0]])
    columns[0, -2:], columns[1, -1] = (5.0 / 6.0, 0.5), 1.0 / 3.0
    diag = np.append(d[:-1] / 3.0 * jac[:-2], (0.5 * last, 0.0))
    scale = np.append(d[:-1], (last / jac[-1], 0.0))
    return diag, scale, parity, columns * jac


def _build_axis(lo: float, hi: float, count: int, spacing: str) -> np.ndarray:
    if spacing == "uniform":
        return np.linspace(lo, hi, count)
    return np.geomspace(lo, hi, count)


def _memo(method):
    """A GridSpec method whose result is built once per grid and argument
    tuple, and made read-only: the array, or each array of a tuple."""

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self._cache:
            out = method(self, *args)
            for arr in out if isinstance(out, tuple) else (out,):
                arr.flags.writeable = False
            self._cache[key] = out
        return self._cache[key]

    return cached


def _pairs(name: str, bounds) -> tuple[tuple[float, float], ...]:
    """`bounds` as a tuple of (lo, hi) float pairs, or a ValueError that
    names them."""
    try:
        return tuple((float(lo), float(hi)) for lo, hi in bounds)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must hold one (lo, hi) pair of numbers per axis, got {bounds!r}"
        ) from None


@dataclass(frozen=True)
class GridSpec:
    """Truncated tensor-product grid over the x-box and r-box.

    The grid is space only: its nodes are the Lagrangian labels and the
    Eulerian evaluation points.  Times belong to the calls that use them,
    such as `flow_map(times=...)` and `continue_solution(t0=...)`.

    A grid is an immutable value: assigning a field raises
    `FrozenInstanceError`.  Its derived arrays (axes, labels, weights and
    window weights) are built once, on first use, and are read-only.

    Args:
        x_bounds: per-axis closed intervals for the x block.
        x_counts: integer node counts per x axis (>= 2).
        r_bounds: per-axis closed intervals for the r block; empty for j=0.
        r_counts: integer node counts per r axis (>= 2).
        r_spacing: "uniform" or "geometric" node placement on the r axes.
            Geometric placement resolves kernels singular at r -> 0.
    """

    x_bounds: tuple[tuple[float, float], ...]
    x_counts: tuple[int, ...]
    r_bounds: tuple[tuple[float, float], ...] = ()
    r_counts: tuple[int, ...] = ()
    r_spacing: str = "uniform"

    def __post_init__(self) -> None:
        # lists become tuples; the instance is frozen, hence object.__setattr__
        for name in ("x_bounds", "r_bounds"):
            object.__setattr__(self, name, _pairs(name, getattr(self, name)))
        for c in tuple(self.x_counts) + tuple(self.r_counts):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValueError(f"axis counts must be integers, got {c!r}")
        for name in ("x_counts", "r_counts"):
            object.__setattr__(self, name, tuple(int(c) for c in getattr(self, name)))
        if len(self.x_bounds) != len(self.x_counts):
            raise ValueError("x_bounds and x_counts length mismatch")
        if len(self.r_bounds) != len(self.r_counts):
            raise ValueError("r_bounds and r_counts length mismatch")
        if len(self.x_bounds) == 0:
            raise ValueError("need at least one x axis")
        for (lo, hi), c in zip(
            self.x_bounds + self.r_bounds, self.x_counts + self.r_counts
        ):
            if not (hi > lo):
                raise ValueError(f"empty axis interval ({lo}, {hi})")
            if c < 2:
                raise ValueError("each axis needs at least 2 nodes")
        if self.r_spacing not in ("uniform", "geometric"):
            raise ValueError(f"unknown axis spacing {self.r_spacing!r}")
        if self.r_spacing == "geometric":
            for lo, _ in self.r_bounds:
                if lo <= 0:
                    raise ValueError("geometric axis requires positive lower bound")
        object.__setattr__(self, "_cache", {})

    # --- dimensions -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.x_bounds)

    @property
    def j(self) -> int:
        return len(self.r_bounds)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.x_counts + self.r_counts

    @property
    def num_x(self) -> int:
        return int(np.prod(self.x_counts))

    @property
    def num_r(self) -> int:
        return int(np.prod(self.r_counts)) if self.r_counts else 1

    # --- coordinates ----------------------------------------------------

    @_memo
    def x_axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _build_axis(lo, hi, c, "uniform")
            for (lo, hi), c in zip(self.x_bounds, self.x_counts)
        )

    @_memo
    def r_axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _build_axis(lo, hi, c, self.r_spacing)
            for (lo, hi), c in zip(self.r_bounds, self.r_counts)
        )

    def axes(self) -> tuple[np.ndarray, ...]:
        return self.x_axes() + self.r_axes()

    @_memo
    def x_labels(self) -> np.ndarray:
        """All x nodes, shape (num_x, n), C-order over the axis product."""
        return _product_points(self.x_axes())

    @_memo
    def r_labels(self) -> np.ndarray:
        """All r nodes, shape (num_r, j); a single empty row when j=0."""
        return _product_points(self.r_axes()) if self.j else np.zeros((1, 0))

    @_memo
    def joint_labels(self) -> np.ndarray:
        """All (x, r) labels, shape (num_x, num_r, n + j): x slow, r fast.

        Entry [i, q] is x_labels()[i] followed by r_labels()[q]; split it
        as [..., :n] and [..., n:] to call a field or datum, and reshape
        to (num_x * num_r, n + j) for one row per label.
        """
        out = np.empty((self.num_x, self.num_r, self.n + self.j))
        out[..., : self.n] = self.x_labels()[:, None, :]
        out[..., self.n :] = self.r_labels()[None, :, :]
        return out

    # --- quadrature -----------------------------------------------------

    @_memo
    def x_weights(self) -> np.ndarray:
        return _product_weights([axis_weights(a) for a in self.x_axes()]).ravel()

    @_memo
    def r_weights(self) -> np.ndarray:
        if self.j == 0:
            return np.ones(1)
        return _product_weights([axis_weights(a) for a in self.r_axes()]).ravel()

    @_memo
    def window_weights(
        self, window: tuple[tuple[float, float], ...] | None
    ) -> np.ndarray:
        """Joint-grid weights (shape `shape`) of the sub-box `window`, one
        (lo, hi) pair of floats per axis, or of the whole grid for None.
        Window edges snap outward to grid nodes; nodes outside get 0.
        ValueError unless each interval spans at least 2 nodes."""
        axes = self.axes()
        if window is None:
            return _product_weights([axis_weights(a) for a in axes])
        if len(window) != len(axes):
            raise ValueError("window must give one interval per grid axis")
        per_axis = []
        for a, (lo, hi) in zip(axes, window):
            mask = (a >= lo - _SNAP * max(1.0, abs(lo))) & (
                a <= hi + _SNAP * max(1.0, abs(hi))
            )
            sub = a[mask]
            if sub.size < 2:
                raise ValueError(f"window ({lo}, {hi}) spans fewer than 2 nodes")
            w = np.zeros_like(a)
            w[mask] = axis_weights(sub)
            per_axis.append(w)
        return _product_weights(per_axis)


def _product_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _product_weights(per_axis: Sequence[np.ndarray]) -> np.ndarray:
    """The outer product of per-axis weights, one array axis per grid axis."""
    w = per_axis[0]
    for nxt in per_axis[1:]:
        w = np.multiply.outer(w, nxt)
    return w


# --- windowed norms -----------------------------------------------------


@dataclass(frozen=True)
class NormSpec:
    """L^p norm over an optional window (sub-box of label space).

    `window` lists one (lo, hi) pair per axis of the joint (x, r) product,
    read as a tuple of float pairs (else ValueError); None means the
    whole grid.  Window edges snap outward to grid nodes, so the
    effective window is the node span containing the request.
    """

    p: float = 2.0
    window: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (self.p >= 1.0 or math.isinf(self.p)):
            raise ValueError("p must be >= 1 or inf")
        if self.window is not None:
            object.__setattr__(self, "window", _pairs("window", self.window))


def lp_norm(values: np.ndarray, grid: GridSpec, spec: NormSpec) -> float:
    """Windowed L^p norm of nodal values via the grid quadrature: the
    one-node case of `sup_in_time`.

    Accepts values shaped like the joint grid or as (num_x, num_r).
    For p = inf returns the max of |values| over window nodes.
    """
    return sup_in_time(np.asarray(values, dtype=float)[None], grid, spec)


def sup_in_time(
    values_t: np.ndarray, grid: GridSpec, spec: NormSpec, out=None,
) -> float:
    """max over the leading (time) axis of the windowed L^p norm.

    A node's norm is (sum of w |v|^p)^(1/p): the weighted powers of all
    nodes are formed in one array and summed one row per node, a pairwise
    sum, and the root is taken once, of the largest sum, on its numpy
    scalar (an array power would turn ** 0.5 into sqrt).  For p = inf it
    is the max of |values| over the window's nodes.  A NaN at any node
    gives NaN.  |values|, then its weighted powers, are written into
    `out`, a C-contiguous float array of values_t's shape (values_t
    itself allowed), or into a new array when it is None.
    """
    values_t = np.asarray(values_t, dtype=float)
    if values_t.shape[1:] not in (grid.shape, (grid.num_x, grid.num_r)):
        raise ValueError(
            f"values shape {values_t.shape[1:]} does not match grid "
            f"(expected {grid.shape} or ({grid.num_x}, {grid.num_r}))"
        )
    K = values_t.shape[0]
    terms = np.abs(values_t, out=out).reshape((K,) + grid.shape)
    wts = grid.window_weights(spec.window)
    if math.isinf(spec.p):
        return float(np.max(terms, where=wts > 0, initial=0.0))
    terms **= spec.p
    terms *= wts
    return float(np.max(terms.reshape(K, -1).sum(axis=1)) ** (1.0 / spec.p))

