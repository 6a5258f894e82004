"""Structured vector fields b = (b1(x), b2(x, r)) and integral kernels.

The first block never sees r, so the x-part of the flow can be solved on
its own; everything downstream leans on that structure.  Each block is
one callable that returns its drift and its analytic divergence at the
same points, as the flow integrates them; the tests cross-check the
divergences against central differences.

Kernels gamma(r, r_tilde) on a one-dimensional fiber drive the integral
source term.  A kernel is data: its finite-rank factors, gamma =
sum_l a_l(r) c_l(r_tilde), and whether its support is triangular, which
every consumer reads in place of the kernel's name.  The factors let the
solver apply the kernel through moments instead of an r x r_tilde
operator; triangular support (r <= r_tilde, zero above) lets it place
the support jump exactly on quadrature nodes instead of smearing it
across a cell.  With no source term there is no kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .grid import GridSpec, suffix_integrals

__all__ = [
    "StructuredVectorField",
    "Kernel",
    "zero_field",
    "linear_field",
    "oscillatory_field",
    "logistic_field",
    "swirl_field",
    "sobolev_field",
    "mollify_field",
    "make_field",
    "constant_kernel",
    "fragmentation_kernel",
    "separable_kernel",
    "make_kernel",
    "kernel_slab_rate",
]


@dataclass
class StructuredVectorField:
    """Vector field with the block structure b = (b1(x), b2(x, r)).

    Each block is one callable that returns its drift and divergence at
    the same points, the pair the flow's right-hand sides integrate:
    `b1_and_div` maps x[..., n] -> (b1 [..., n], div_x b1 [...]) and
    `b2_and_div` maps (x[..., n], r[..., j]) -> (b2 [..., j], div_r b2
    [...]), with the batch shape that x and r broadcast to.  Both must be
    vectorized over leading axes.  A field does not depend on time, so
    one evaluation on a set of points gives its sup over any time window.

    `zero_blocks` declares the blocks, "x" (b1) and "r" (b2), whose drift
    and divergence are exactly 0.0 everywhere; the flow of a declared
    block is the identity and is returned without integrating.

    `fiber_ignores_x` declares that `b2_and_div` never reads x, so the
    same r gives the same bits at any x.  The flow then splits as
    X(t, x, r) = (X1(t, x), X2(t, r)), and labels that start the same
    fiber share one fiber solve, stored once.
    """

    name: str
    n: int
    j: int
    b1_and_div: Callable
    b2_and_div: Callable
    zero_blocks: frozenset = frozenset()
    fiber_ignores_x: bool = False

    def __post_init__(self) -> None:
        self.zero_blocks = frozenset(self.zero_blocks)
        if not self.zero_blocks <= {"x", "r"}:
            raise ValueError(
                f"zero_blocks holds 'x' and/or 'r', got {set(self.zero_blocks)}"
            )


# =====================================================================
# built-in catalogue
# =====================================================================


def _zero_x(x: np.ndarray):
    return np.zeros_like(x), np.zeros(x.shape[:-1])


def _zero_r(x: np.ndarray, r: np.ndarray):
    return np.zeros_like(r), np.zeros(r.shape[:-1])


def zero_field(n: int = 1, j: int = 0) -> StructuredVectorField:
    return StructuredVectorField(
        "zero", n, j, _zero_x, _zero_r, zero_blocks={"x", "r"},
    )


def _linear_x(lam: float, n: int, x: np.ndarray):
    return lam * x, np.full(x.shape[:-1], lam * n)

def _linear_r(mu: float, x: np.ndarray, r: np.ndarray):
    return mu * r, np.full(r.shape[:-1], mu * r.shape[-1])


def linear_field(
    lam: float = 0.5, mu: float = 0.0, n: int = 1, j: int = 0
) -> StructuredVectorField:
    """b1 = lam*x, b2 = mu*r: closed-form flow X = (x e^{lam t}, r e^{mu t})."""
    lam, mu = float(lam), float(mu)
    return StructuredVectorField(
        "linear", n, j, partial(_linear_x, lam, n), partial(_linear_r, mu),
        fiber_ignores_x=True,
    )


def _osc_x(k: float, x: np.ndarray):
    return np.sin(k * x) / k, np.cos(k * x[..., 0])


def oscillatory_field(k: int = 1, j: int = 0) -> StructuredVectorField:
    """b1(x) = sin(kx)/k on the line; divergence cos(kx) of unit size.

    The optional r block is inert (b2 = 0), so kernel-coupled runs can
    reuse the same x dynamics.  k = 0 is rejected: sin(kx)/k is 0/0.
    """
    k = float(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    return StructuredVectorField(
        "oscillatory", 1, j, partial(_osc_x, k), _zero_r, zero_blocks={"r"},
    )


def _logistic_r(mu: float, x: np.ndarray, r: np.ndarray):
    return mu * r * (1.0 - r), mu * (1.0 - 2.0 * r[..., 0])


def logistic_field(k: int = 1, mu: float = 0.3) -> StructuredVectorField:
    """b1 = sin(kx)/k with a logistic fiber drift b2 = mu r(1 - r).

    The fiber block fixes r = 0 and r = 1, so the unit r-box is invariant
    and the fiber map is monotone; div_r b2 = mu(1 - 2r) makes the density
    ratio rho2 genuinely nonconstant.  k = 0 is rejected, as by
    `oscillatory_field`.
    """
    k, mu = float(k), float(mu)
    if k == 0:
        raise ValueError("k must be nonzero")
    return StructuredVectorField(
        "logistic", 1, 1, partial(_osc_x, k), partial(_logistic_r, mu),
        fiber_ignores_x=True,
    )


def _swirl_x(omega: float, x: np.ndarray):
    out = np.empty_like(x)
    out[..., 0] = -omega * x[..., 1]
    out[..., 1] = omega * x[..., 0]
    return out, np.zeros(x.shape[:-1])


def swirl_field(omega: float = 1.0) -> StructuredVectorField:
    """Rigid rotation in the plane; divergence-free."""
    return StructuredVectorField(
        "swirl", 2, 0, partial(_swirl_x, float(omega)), _zero_r,
    )


def _sobolev_x(alpha: float, x: np.ndarray):
    with np.errstate(divide="ignore"):
        div = alpha * np.abs(x[..., 0]) ** (alpha - 1.0)
    return np.sign(x) * np.abs(x) ** alpha, div


def sobolev_field(alpha: float = 2.0 / 3.0, j: int = 0) -> StructuredVectorField:
    """b1(x) = |x|^alpha sign(x): W^{1,q}_loc but with divergence blowing
    up at the origin, so working windows must stay away from x = 0."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return StructuredVectorField(
        "sobolev", 1, j, partial(_sobolev_x, alpha), _zero_r, zero_blocks={"r"},
    )


# =====================================================================
# mollification
# =====================================================================


def _bump(z2: np.ndarray) -> np.ndarray:
    """Standard smooth bump exp(-1/(1-|z|^2)) on |z| < 1 (unnormalized)."""
    out = np.zeros_like(z2)
    inside = z2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z2[inside]))
    return out


def _stencil(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric unit-mass discretization of the bump on [-1, 1]^dim,
    17 nodes per axis: the nodes and weights of that grid."""
    grid = GridSpec(x_bounds=((-1.0, 1.0),) * dim, x_counts=(17,) * dim)
    pts = grid.x_labels()
    w = grid.x_weights() * _bump(np.sum(pts**2, axis=-1))
    keep = w > 0.0
    pts, w = pts[keep], w[keep]
    w = w / np.sum(w)  # exact discrete unit mass
    return pts, w


# Shifted points per base call: bounds the (S, block, ...) temporaries of
# a mollified evaluation so they stay in cache for any batch size.
_MOLLIFY_BLOCK = 2**14


class _Mollified:
    """Convolution of one field block with the scaled bump stencil.

    The point arrays (x for the x block, x and r for the r block) are
    broadcast to a common batch shape and flattened.  Each block of batch
    points is shifted by every stencil offset at once, and the base block
    is called once on those shifts; the stencil axis of each output it
    returns, drift and divergence, is then contracted with the
    coefficients.  Offset columns are split across the arrays by their
    trailing widths.
    """

    def __init__(self, base: Callable, eps: float,
                 offsets: np.ndarray, coeffs: np.ndarray):
        self.base = base
        self.eps = eps
        self.offsets = offsets
        self.coeffs = coeffs

    def __call__(self, *pts: np.ndarray) -> tuple[np.ndarray, ...]:
        pts = [np.asarray(p, dtype=float) for p in pts]
        batch = np.broadcast_shapes(*(p.shape[:-1] for p in pts))
        size = math.prod(batch)
        flat, shifts, col = [], [], 0
        for p in pts:
            width = p.shape[-1]
            flat.append(np.broadcast_to(p, batch + (width,)).reshape(size, width))
            shifts.append(self.eps * self.offsets[:, None, col : col + width])
            col += width
        step = max(1, _MOLLIFY_BLOCK // self.coeffs.size)
        outs = None
        # an empty batch still makes one (empty) call, which fixes the shape
        for lo in range(0, max(size, 1), step):
            shifted = [f[None, lo : lo + step] - dz for f, dz in zip(flat, shifts)]
            values = [np.asarray(v, dtype=float) for v in self.base(*shifted)]
            if outs is None:
                outs = [np.empty((size,) + v.shape[2:]) for v in values]
            for out, v in zip(outs, values):
                out[lo : lo + step] = (
                    self.coeffs @ v.reshape(v.shape[0], -1)
                ).reshape(v.shape[1:])
        return tuple(out.reshape(batch + out.shape[1:]) for out in outs)


def mollify_field(fld: StructuredVectorField, eps: float) -> StructuredVectorField:
    """Mollify a field in its space variables with a unit-mass bump.

    Convolution acts on x for the x block and on (x, r) for the r block,
    so the block structure survives.  A block's divergence is mollified
    with its drift, by the same stencil, which keeps div(b_eps) =
    (div b)_eps exactly at the discrete level.  The symmetric normalized
    stencil reproduces constants (and any affine field) exactly.  A
    mollified zero is exactly zero, so the declared zero blocks carry
    over; so does `fiber_ignores_x`, since the shifted points of a given r
    are the same r shifts at every x, and a block that never reads x sums
    the same values in the same order.  `eps` must be positive and
    finite.

    Cost: each evaluation of a block shifts every block of batch points
    by all S stencil offsets once (S = 15 for n = 1, 193 for n + j = 2
    from 17 nodes per axis) and makes one base call on those shifts,
    which gives the drift and the divergence together; a block holds
    about 2**14 shifted points, so the temporaries stay that size however
    large the batch.  The fiber block dominates a flow's cost (S = 193
    against 15), so a field whose fiber ignores x pays it on one fiber of
    Nr points, not on all Nx x Nr labels, and the flow map stores that
    one fiber.
    """
    if not (0.0 < eps < np.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return StructuredVectorField(
        fld.name + "_mollified", fld.n, fld.j,
        _Mollified(fld.b1_and_div, eps, *_stencil(fld.n)),
        _Mollified(fld.b2_and_div, eps, *_stencil(fld.n + fld.j)),
        zero_blocks=fld.zero_blocks, fiber_ignores_x=fld.fiber_ignores_x,
    )


_FIELD_BUILDERS = {
    "zero": zero_field,
    "linear": linear_field,
    "oscillatory": oscillatory_field,
    "logistic": logistic_field,
    "swirl": swirl_field,
    "sobolev": sobolev_field,
}


def make_field(name: str, **params) -> StructuredVectorField:
    """Build a catalogue field by name; `eps` wraps it in a mollification."""
    eps = params.pop("eps", None)
    try:
        builder = _FIELD_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}") from None
    fld = builder(**params)
    if eps is not None:
        fld = mollify_field(fld, float(eps))
    return fld


# =====================================================================
# kernels
# =====================================================================


@dataclass
class Kernel:
    """Finite-rank integral kernel on a one-dimensional fiber,

        gamma(r, r_tilde) = sum_l a_l(r) c_l(r_tilde),

    declared as `factors` = ((a_1, ..., a_L), (c_1, ..., c_L)), where
    each factor maps an array of scalar r values to an array of the same
    shape (a constant factor returns a read-only broadcast view).  The
    kernel depends on neither time nor x, so one evaluation of the
    factors on a set of fiber points serves every (t, x) at which the
    fiber sits there.  The solver applies it through the factors, never
    through a dense r x r_tilde operator.

    `triangular` declares the support r <= r_tilde: the kernel is the
    factored sum there and zero above.  Quadrature applies it on the
    node-aligned tails of `grid.suffix_integrals`, so the support jump
    never crosses a quadrature cell.

    `gamma(r, r_tilde)` evaluates the factored sum on broadcastable r and
    r_tilde arrays (trailing axis 1); the slab rate reads it.  For a
    triangular kernel it is the sum on the whole square, of which the
    kernel keeps the part on r <= r_tilde.
    """

    name: str
    factors: tuple[tuple[Callable, ...], tuple[Callable, ...]]
    triangular: bool = False

    def __post_init__(self) -> None:
        a_list, c_list = (tuple(fs) for fs in self.factors)
        if not a_list or len(a_list) != len(c_list):
            raise ValueError("factors need equally many a_l and c_l")
        self.factors = (a_list, c_list)

    def gamma(self, r: np.ndarray, rt: np.ndarray) -> np.ndarray:
        return sum(a(r[..., 0]) * c(rt[..., 0]) for a, c in zip(*self.factors))


def _const(value, v):
    return np.broadcast_to(np.float64(value), np.shape(v))


def constant_kernel(c: float = 1.0) -> Kernel:
    """gamma = c: rank 1, with a = c and c_1 = 1."""
    return Kernel(
        "constant", ((partial(_const, float(c)),), (partial(_const, 1.0),)),
    )


def _reciprocal(scale, v):
    return scale / np.asarray(v, dtype=float)


def fragmentation_kernel(scale: float = 1.0) -> Kernel:
    """kappa(r, r_tilde) = scale / r_tilde on 0 < r < r_tilde, else 0.

    Uniform-daughter fragmentation: a parent of size r_tilde spreads into
    sizes uniform on (0, r_tilde).  With scale=2 and b=0 the total mass
    grows exactly like e^{2t}.  The kernel is triangular and rank 1 on
    its support, with a = 1 and c = scale / r_tilde.
    """
    return Kernel(
        "fragmentation",
        ((partial(_const, 1.0),), (partial(_reciprocal, float(scale)),)),
        triangular=True,
    )


def separable_kernel(
    terms: tuple[tuple[float, float, float, float, float], ...] = (
        (0.5, 0.2, 0.6, 0.25, 1.0),
    ),
) -> Kernel:
    """Finite-rank kernel sum_i amp_i a_i(r) c_i(r_tilde) of Gaussian factors.

    Each term is (a_center, a_width, c_center, c_width, amp).  Finite-rank
    kernels reduce the b = 0 fixed point to a small linear ODE system that
    the oracle solves in closed form.
    """
    terms = tuple(tuple(float(v) for v in term) for term in terms)
    if not terms:
        raise ValueError("need at least one separable term")
    for term in terms:
        if len(term) != 5:
            raise ValueError("each term is (a_center, a_width, c_center, c_width, amp)")
        if term[1] <= 0 or term[3] <= 0:
            raise ValueError("Gaussian widths must be positive")
    factors = (
        tuple(partial(_gauss_amp, ca, wa, amp) for (ca, wa, _, _, amp) in terms),
        tuple(partial(_gauss_amp, cc, wc, 1.0) for (_, _, cc, wc, _) in terms),
    )
    return Kernel("separable", factors)


def _gauss_amp(center, width, amp, v):
    v = np.asarray(v, dtype=float)
    return amp * np.exp(-((v - center) ** 2) / (2.0 * width**2))


_KERNEL_BUILDERS = {
    "constant": constant_kernel,
    "fragmentation": fragmentation_kernel,
    "separable": separable_kernel,
}


def make_kernel(name: str, **params) -> Kernel:
    try:
        builder = _KERNEL_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}") from None
    return builder(**params)


# =====================================================================
# slab bound
# =====================================================================

_RATE_ROWS = 32  # kernel rows per block of the slab rate


def kernel_slab_rate(kernel: Kernel, grid: GridSpec, p: float) -> float:
    """The kernel's mixed norm on the grid's fiber,

        ( int_r ( int_rt |gamma(r, rt)|^{p'} dr_tilde )^{p/p'} dr )^{1/p}

    with p' the conjugate exponent, from gamma on the fiber nodes in blocks
    of rows that meet each (r, r~) node pair once, so no Nr x Nr array is
    built.  The norm depends on neither time nor x, so on any slab of length
    T the slab bound is rate * T, and the slab chooser tests its candidates
    without evaluating the kernel again.  Triangular kernels are integrated
    on node-aligned tails, so the support jump never crosses a quadrature
    cell: a block's tails are taken by `suffix_integrals`.
    """
    if not (1.0 < p < np.inf):
        raise ValueError("slab bound needs a finite exponent p > 1")
    if grid.j != 1:
        raise ValueError(f"kernels act on a j = 1 fiber, not j = {grid.j}")
    pp = p / (p - 1.0)
    r_nodes = grid.r_labels()  # (Nr, 1)
    w_r = grid.r_weights()
    r = grid.r_axes()[0]
    inner = np.empty(r.size)
    # no block of one row, whose product numpy would take by a dot, not gemv
    bounds = [*range(0, r.size - 1, _RATE_ROWS), r.size]
    for m0, m1 in zip(bounds, bounds[1:]):
        g = np.abs(kernel.gamma(r_nodes[m0:m1, None], r_nodes[None])) ** pp
        if kernel.triangular:
            # block row m's tail from node m0 + m is entry (m, m0 + m)
            m = np.arange(m1 - m0)
            inner[m0:m1] = suffix_integrals(r, g)[m, m0 + m]
        else:
            inner[m0:m1] = g @ w_r
    return float(np.sum(w_r * inner ** (p / pp)) ** (1.0 / p))
