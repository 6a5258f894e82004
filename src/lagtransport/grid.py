"""Tensor-product label grids, quadrature weights, and windowed L^p norms.

The solver works on a truncated box ``[x-box] x [r-box]`` whose nodes serve
both as Lagrangian labels and as Eulerian evaluation points.  Quadrature is
composite Simpson on uniform axes (with a trapezoid patch on the last cell
when the point count is even) and Simpson in log coordinates on
geometrically spaced axes.  Weights are always positive, which the norm
and mass bookkeeping downstream rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "NormSpec",
    "axis_weights",
    "suffix_weight_matrix",
    "lp_norm",
    "sup_in_time",
    "integrate_r",
    "integrate_full",
]

_SNAP = 1e-12


def _uniform_spacing(coords: np.ndarray) -> float | None:
    """Return the common spacing of `coords`, or None if not uniform."""
    d = np.diff(coords)
    h = d[0]
    if np.allclose(d, h, rtol=1e-9, atol=0.0):
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


def axis_weights(coords: np.ndarray) -> np.ndarray:
    """Quadrature weights for one axis.

    Uniform axes get composite Simpson weights; when the point count is
    even the last cell is patched with the trapezoid rule.  Geometric
    axes are uniform in log coordinates, so they get Simpson weights
    there times the Jacobian (node value), which keeps fourth-order
    accuracy for integrands smooth in the log variable.  Any other
    spacing falls back to the trapezoid rule.  Weights are always
    positive; uniform and trapezoid weights sum to the interval length
    exactly, log-Simpson weights to quadrature accuracy.
    """
    coords = np.asarray(coords, dtype=float)
    npts = coords.size
    if npts < 2:
        raise ValueError("axis needs at least 2 points")
    h = _uniform_spacing(coords)
    if h is not None:
        return _uniform_weights(npts, h)
    if np.all(coords > 0.0):
        logc = np.log(coords)
        hv = _uniform_spacing(logc)
        if hv is not None:
            return _uniform_weights(npts, hv) * coords
    w = np.zeros(npts)
    d = np.diff(coords)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def suffix_weight_matrix(coords: np.ndarray) -> np.ndarray:
    """Weights for integrals over the node-aligned tails ``[c_m, c_last]``.

    Row m holds quadrature weights for the subgrid coords[m:], zero below
    the diagonal.  Used for kernels supported on ``r < r_tilde`` so the
    integrand jump always lands exactly on a node.  The last row is zero
    (empty integration range).
    """
    coords = np.asarray(coords, dtype=float)
    npts = coords.size
    mat = np.zeros((npts, npts))
    for m in range(npts - 1):
        mat[m, m:] = axis_weights(coords[m:])
    return mat


def _build_axis(lo: float, hi: float, count: int, spacing: str) -> np.ndarray:
    if spacing == "uniform":
        return np.linspace(lo, hi, count)
    if spacing == "geometric":
        if lo <= 0:
            raise ValueError("geometric axis requires positive lower bound")
        return np.geomspace(lo, hi, count)
    raise ValueError(f"unknown axis spacing {spacing!r}")


@dataclass
class GridSpec:
    """Truncated tensor-product grid over the x-box and r-box.

    Args:
        x_bounds: per-axis closed intervals for the x block.
        x_counts: node counts per x axis (>= 2).
        r_bounds: per-axis closed intervals for the r block; empty for j=0.
        r_counts: node counts per r axis.
        time_nodes: strictly increasing evaluation times.
        r_spacing: "uniform" or "geometric" node placement on the r axes.
            Geometric placement resolves kernels singular at r -> 0.
    """

    x_bounds: tuple[tuple[float, float], ...]
    x_counts: tuple[int, ...]
    r_bounds: tuple[tuple[float, float], ...] = ()
    r_counts: tuple[int, ...] = ()
    time_nodes: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, 17))
    r_spacing: str = "uniform"

    def __post_init__(self) -> None:
        self.x_bounds = tuple((float(a), float(b)) for a, b in self.x_bounds)
        self.r_bounds = tuple((float(a), float(b)) for a, b in self.r_bounds)
        self.x_counts = tuple(int(c) for c in self.x_counts)
        self.r_counts = tuple(int(c) for c in self.r_counts)
        self.time_nodes = np.asarray(self.time_nodes, dtype=float)
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
        if self.time_nodes.ndim != 1 or self.time_nodes.size < 2:
            raise ValueError("time_nodes must be a 1-d array with >= 2 entries")
        if np.any(np.diff(self.time_nodes) <= 0):
            raise ValueError("time_nodes must be strictly increasing")
        if self.r_spacing not in ("uniform", "geometric"):
            raise ValueError(f"unknown axis spacing {self.r_spacing!r}")
        if self.r_spacing == "geometric":
            for lo, _ in self.r_bounds:
                if lo <= 0:
                    raise ValueError("geometric axis requires positive lower bound")
        self._cache: dict = {}

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

    def x_axes(self) -> tuple[np.ndarray, ...]:
        key = "x_axes"
        if key not in self._cache:
            self._cache[key] = tuple(
                _build_axis(lo, hi, c, "uniform")
                for (lo, hi), c in zip(self.x_bounds, self.x_counts)
            )
        return self._cache[key]

    def r_axes(self) -> tuple[np.ndarray, ...]:
        key = "r_axes"
        if key not in self._cache:
            self._cache[key] = tuple(
                _build_axis(lo, hi, c, self.r_spacing)
                for (lo, hi), c in zip(self.r_bounds, self.r_counts)
            )
        return self._cache[key]

    def axes(self) -> tuple[np.ndarray, ...]:
        return self.x_axes() + self.r_axes()

    def x_labels(self) -> np.ndarray:
        """All x nodes, shape (num_x, n), C-order over the axis product."""
        key = "x_labels"
        if key not in self._cache:
            self._cache[key] = _product_points(self.x_axes())
        return self._cache[key]

    def r_labels(self) -> np.ndarray:
        """All r nodes, shape (num_r, j); a single empty row when j=0."""
        key = "r_labels"
        if key not in self._cache:
            if self.j == 0:
                self._cache[key] = np.zeros((1, 0))
            else:
                self._cache[key] = _product_points(self.r_axes())
        return self._cache[key]

    # --- quadrature -----------------------------------------------------

    def x_weights(self) -> np.ndarray:
        key = "x_weights"
        if key not in self._cache:
            self._cache[key] = _product_weights(
                [axis_weights(a) for a in self.x_axes()]
            )
        return self._cache[key]

    def r_weights(self) -> np.ndarray:
        key = "r_weights"
        if key not in self._cache:
            if self.j == 0:
                self._cache[key] = np.ones(1)
            else:
                self._cache[key] = _product_weights(
                    [axis_weights(a) for a in self.r_axes()]
                )
        return self._cache[key]

    def r_suffix_weights(self) -> np.ndarray:
        """Tail-quadrature matrix for the (single) r axis; requires j=1."""
        if self.j != 1:
            raise ValueError("suffix weights are defined for j=1 grids")
        key = "r_suffix"
        if key not in self._cache:
            self._cache[key] = suffix_weight_matrix(self.r_axes()[0])
        return self._cache[key]


def _product_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _product_weights(per_axis: Sequence[np.ndarray]) -> np.ndarray:
    w = per_axis[0]
    for nxt in per_axis[1:]:
        w = np.multiply.outer(w, nxt)
    return w.ravel()


# --- windowed norms -----------------------------------------------------


@dataclass(frozen=True)
class NormSpec:
    """L^p norm over an optional window (sub-box of label space).

    `window` lists one (lo, hi) pair per axis of the joint (x, r) product;
    None means the whole grid.  Window edges snap outward to grid nodes,
    so the effective window is the node span containing the request.
    """

    p: float = 2.0
    window: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (self.p >= 1.0 or math.isinf(self.p)):
            raise ValueError("p must be >= 1 or inf")


def _window_mask_weights(
    grid: GridSpec, window: tuple[tuple[float, float], ...] | None
) -> np.ndarray:
    """Joint-grid weight array (grid.shape) that is zero outside the window."""
    axes = grid.axes()
    if window is None:
        per_axis = [axis_weights(a) for a in axes]
    else:
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
    full = per_axis[0]
    for nxt in per_axis[1:]:
        full = np.multiply.outer(full, nxt)
    return full


def _as_joint(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape == grid.shape:
        return values
    if values.shape == (grid.num_x, grid.num_r):
        return values.reshape(grid.shape)
    if grid.j == 0 and values.shape == (grid.num_x,):
        return values.reshape(grid.shape)
    raise ValueError(
        f"values shape {values.shape} does not match grid "
        f"(expected {grid.shape} or ({grid.num_x}, {grid.num_r}))"
    )


def lp_norm(values: np.ndarray, grid: GridSpec, spec: NormSpec) -> float:
    """Windowed L^p norm of nodal values via the grid quadrature.

    Accepts values shaped like the joint grid or as (num_x, num_r).
    For p = inf returns the max of |values| over window nodes.
    """
    joint = _as_joint(values, grid)
    wts = _window_mask_weights(grid, spec.window)
    if math.isinf(spec.p):
        return float(np.max(np.abs(joint)[wts > 0])) if np.any(wts > 0) else 0.0
    return float(np.sum(wts * np.abs(joint) ** spec.p) ** (1.0 / spec.p))


def sup_in_time(values_t: np.ndarray, grid: GridSpec, spec: NormSpec) -> float:
    """max over the leading (time) axis of the windowed L^p norm."""
    return max(lp_norm(v, grid, spec) for v in values_t)


def integrate_r(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Integrate over the r-box.  `values` has trailing axis num_r (or the
    r_counts block); for j=0 this is the identity (empty-product measure)."""
    values = np.asarray(values, dtype=float)
    w = grid.r_weights()
    if values.shape[-1] != w.size:
        if values.shape[-len(grid.r_counts) :] == grid.r_counts and grid.j > 0:
            values = values.reshape(values.shape[: -len(grid.r_counts)] + (w.size,))
        else:
            raise ValueError("trailing axis does not match the r grid")
    return values @ w


def integrate_full(values: np.ndarray, grid: GridSpec) -> float:
    """Integral over the whole (x, r) box."""
    joint = _as_joint(values, grid)
    wts = _window_mask_weights(grid, None)
    return float(np.sum(wts * joint))
