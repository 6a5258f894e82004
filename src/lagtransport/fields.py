"""Structured vector fields b = (b1(t,x), b2(t,x,r)) and integral kernels.

The first block never sees r, so the x-part of the flow can be solved on
its own; everything downstream leans on that structure.  Divergences are
supplied analytically by each field definition and cross-checked against
central differences by `validate_field`.

Kernels gamma(t, x, r, r_tilde) drive the integral source term.  A kernel
may declare triangular support (zero unless r < r_tilde) together with its
smooth factor, which lets the solver place the support jump exactly on
quadrature nodes instead of smearing it across a cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable

import numpy as np

from .grid import GridSpec, axis_weights

__all__ = [
    "StructuredVectorField",
    "Kernel",
    "FieldValidationError",
    "zero_field",
    "linear_field",
    "oscillatory_field",
    "logistic_field",
    "swirl_field",
    "sobolev_field",
    "mollify_field",
    "make_field",
    "zero_kernel",
    "constant_kernel",
    "fragmentation_kernel",
    "separable_kernel",
    "make_kernel",
    "eval_divergence",
    "validate_field",
    "kernel_slab_bound",
    "kernel_slab_rate",
]


class FieldValidationError(Exception):
    """Analytic divergence disagrees with finite differences."""


@dataclass
class StructuredVectorField:
    """Vector field with the block structure b = (b1(t,x), b2(t,x,r)).

    b1 maps (t, x[..., n]) -> [..., n]; b2 maps (t, x[..., n], r[..., j])
    -> [..., j].  div_b1 and div_b2 return the spatial divergences of the
    respective blocks with matching batch shape.  All callables must be
    vectorized over leading axes.
    """

    name: str
    n: int
    j: int
    b1: Callable
    b2: Callable
    div_b1: Callable
    div_b2: Callable
    params: dict = dc_field(default_factory=dict)


def eval_divergence(
    fld: StructuredVectorField, t: float, x: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Full spatial divergence div_x b1 + div_r b2."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(fld.div_b1(t, x), dtype=float)
    if fld.j == 0:
        return d
    return d + np.asarray(fld.div_b2(t, x, np.asarray(r, dtype=float)), dtype=float)


# =====================================================================
# built-in catalogue
# =====================================================================
# Module-level evaluators (bound via functools.partial) keep field
# instances picklable for process-based maps.


def _zero_div(t: float, *pts: np.ndarray) -> np.ndarray:
    return np.zeros(pts[0].shape[:-1])


def _zero_b1(t: float, x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


def _zero_b2(t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.zeros_like(r)


def zero_field(n: int = 1, j: int = 0) -> StructuredVectorField:
    return StructuredVectorField(
        "zero", n, j, _zero_b1, _zero_b2, _zero_div,
        partial(_linear_div_b2, 0.0), {"n": n, "j": j},
    )


def _linear_b1(lam: float, t: float, x: np.ndarray) -> np.ndarray:
    return lam * x

def _linear_b2(mu: float, t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return mu * r

def _linear_div_b1(lam: float, n: int, t: float, x: np.ndarray) -> np.ndarray:
    return np.full(x.shape[:-1], lam * n)

def _linear_div_b2(mu: float, t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.full(r.shape[:-1], mu * r.shape[-1])


def linear_field(
    lam: float = 0.5, mu: float = 0.0, n: int = 1, j: int = 0
) -> StructuredVectorField:
    """b1 = lam*x, b2 = mu*r: closed-form flow X = (x e^{lam t}, r e^{mu t})."""
    return StructuredVectorField(
        "linear", n, j,
        partial(_linear_b1, lam), partial(_linear_b2, mu),
        partial(_linear_div_b1, lam, n), partial(_linear_div_b2, mu),
        {"lam": lam, "mu": mu, "n": n, "j": j},
    )


def _osc_b1(k: float, t: float, x: np.ndarray) -> np.ndarray:
    return np.sin(k * x) / k

def _osc_div(k: float, t: float, x: np.ndarray) -> np.ndarray:
    return np.cos(k * x[..., 0])


def oscillatory_field(k: int = 1, j: int = 0) -> StructuredVectorField:
    """b1(x) = sin(kx)/k on the line; divergence cos(kx) of unit size.

    The optional r block is inert (b2 = 0), so kernel-coupled runs can
    reuse the same x dynamics.
    """
    return StructuredVectorField(
        "oscillatory", 1, j,
        partial(_osc_b1, float(k)), _zero_b2,
        partial(_osc_div, float(k)), partial(_linear_div_b2, 0.0),
        {"k": int(k), "j": j},
    )


def _logistic_b2(mu: float, t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return mu * r * (1.0 - r)

def _logistic_div_b2(mu: float, t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    return mu * (1.0 - 2.0 * r[..., 0])


def logistic_field(k: int = 1, mu: float = 0.3) -> StructuredVectorField:
    """b1 = sin(kx)/k with a logistic fiber drift b2 = mu r(1 - r).

    The fiber block fixes r = 0 and r = 1, so the unit r-box is invariant
    and the fiber map is monotone; div_r b2 = mu(1 - 2r) makes the density
    ratio rho2 genuinely nonconstant.
    """
    return StructuredVectorField(
        "logistic", 1, 1,
        partial(_osc_b1, float(k)), partial(_logistic_b2, mu),
        partial(_osc_div, float(k)), partial(_logistic_div_b2, mu),
        {"k": int(k), "mu": mu},
    )


def _swirl_b1(omega: float, t: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    out[..., 0] = -omega * x[..., 1]
    out[..., 1] = omega * x[..., 0]
    return out


def swirl_field(omega: float = 1.0) -> StructuredVectorField:
    """Rigid rotation in the plane; divergence-free."""
    return StructuredVectorField(
        "swirl", 2, 0,
        partial(_swirl_b1, omega), _zero_b2,
        _zero_div, partial(_linear_div_b2, 0.0),
        {"omega": omega},
    )


def _sobolev_b1(alpha: float, t: float, x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** alpha

def _sobolev_div(alpha: float, t: float, x: np.ndarray) -> np.ndarray:
    ax = np.abs(x[..., 0])
    with np.errstate(divide="ignore"):
        return alpha * ax ** (alpha - 1.0)


def sobolev_field(alpha: float = 2.0 / 3.0, j: int = 0) -> StructuredVectorField:
    """b1(x) = |x|^alpha sign(x): W^{1,q}_loc but with divergence blowing
    up at the origin, so working windows must stay away from x = 0."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return StructuredVectorField(
        "sobolev", 1, j,
        partial(_sobolev_b1, alpha), _zero_b2,
        partial(_sobolev_div, alpha), partial(_linear_div_b2, 0.0),
        {"alpha": alpha, "j": j},
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


def _stencil(dim: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric unit-mass discretization of the bump on [-1, 1]^dim."""
    axis = np.linspace(-1.0, 1.0, npts)
    w1 = axis_weights(axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = w1
    for _ in range(dim - 1):
        w = np.multiply.outer(w, w1)
    w = w.ravel() * _bump(np.sum(pts**2, axis=-1))
    keep = w > 0.0
    pts, w = pts[keep], w[keep]
    w = w / np.sum(w)  # exact discrete unit mass
    return pts, w


class _Mollified:
    """Convolution of a field-block callable with the scaled bump stencil.

    The point arrays (x for b1-type callables, x and r for b2-type ones)
    are broadcast to a common batch shape, shifted by every stencil offset
    at once, and passed to the base callable in one call; the stencil axis
    is then contracted with the coefficients.  Offset columns are split
    across the arrays by their trailing widths.
    """

    def __init__(self, base: Callable, eps: float, offsets: np.ndarray,
                 coeffs: np.ndarray):
        self.base = base
        self.eps = eps
        self.offsets = offsets
        self.coeffs = coeffs

    def __call__(self, t: float, *pts: np.ndarray) -> np.ndarray:
        pts = [np.asarray(p, dtype=float) for p in pts]
        batch = np.broadcast_shapes(*(p.shape[:-1] for p in pts))
        lift = (slice(None),) + (None,) * len(batch)
        shifted, col = [], 0
        for p in pts:
            dz = self.offsets[lift + (slice(col, col + p.shape[-1]),)]
            shifted.append(np.broadcast_to(p, batch + p.shape[-1:]) - self.eps * dz)
            col += p.shape[-1]
        v = np.asarray(self.base(t, *shifted), dtype=float)
        return np.tensordot(self.coeffs, v, axes=(0, 0))


def mollify_field(
    fld: StructuredVectorField, eps: float, stencil_points: int = 17
) -> StructuredVectorField:
    """Mollify a field in its space variables with a unit-mass bump.

    Convolution acts on x for b1 and on (x, r) for b2, never on time, so
    the block structure survives.  Divergences are mollified with the same
    stencil, which keeps div(b_eps) = (div b)_eps exactly at the discrete
    level.  The symmetric normalized stencil reproduces constants (and any
    affine field) exactly.

    Cost: each evaluation makes one base call over all S stencil points
    (S = 15 for n = 1, 193 for n + j = 2 at the default 17 points per
    axis), holding a temporary of S times the batch size values.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts1, w1 = _stencil(fld.n, stencil_points)
    b1 = _Mollified(fld.b1, eps, pts1, w1)
    div_b1 = _Mollified(fld.div_b1, eps, pts1, w1)
    if fld.j > 0:
        pts2, w2 = _stencil(fld.n + fld.j, stencil_points)
        b2 = _Mollified(fld.b2, eps, pts2, w2)
        div_b2 = _Mollified(fld.div_b2, eps, pts2, w2)
    else:
        b2, div_b2 = fld.b2, fld.div_b2
    params = dict(fld.params)
    params["eps"] = eps
    return StructuredVectorField(
        fld.name + "_mollified", fld.n, fld.j, b1, b2, div_b1, div_b2, params
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
# divergence validation
# =====================================================================


def validate_field(
    fld: StructuredVectorField,
    points_x: np.ndarray,
    points_r: np.ndarray | None = None,
    t_samples: tuple[float, ...] = (0.0, 0.37, 1.0),
    h: float = 1e-5,
    tol: float = 1e-4,
    strict: bool = False,
) -> list[dict]:
    """Cross-check analytic divergences against central differences.

    Returns a list of mismatch records (empty when everything agrees
    within `tol`); with strict=True a non-empty report raises
    FieldValidationError instead.  The stencil is O(h^2), so `tol`
    should sit well above h^2 times the third-derivative scale.
    """
    points_x = np.atleast_2d(np.asarray(points_x, dtype=float))
    if fld.j > 0:
        if points_r is None:
            raise ValueError("points_r required for j > 0")
        points_r = np.atleast_2d(np.asarray(points_r, dtype=float))
    else:
        points_r = np.zeros((points_x.shape[0], 0))
    report = []
    for t in t_samples:
        num = np.zeros(points_x.shape[0])
        for axis in range(fld.n):
            dx = np.zeros(fld.n)
            dx[axis] = h
            num += (
                fld.b1(t, points_x + dx)[..., axis]
                - fld.b1(t, points_x - dx)[..., axis]
            ) / (2 * h)
        for axis in range(fld.j):
            dr = np.zeros(fld.j)
            dr[axis] = h
            num += (
                fld.b2(t, points_x, points_r + dr)[..., axis]
                - fld.b2(t, points_x, points_r - dr)[..., axis]
            ) / (2 * h)
        ana = eval_divergence(fld, t, points_x, points_r)
        bad = np.abs(num - ana) > tol
        for idx in np.nonzero(bad)[0]:
            report.append(
                {
                    "t": t,
                    "x": points_x[idx].tolist(),
                    "r": points_r[idx].tolist(),
                    "analytic": float(ana[idx]),
                    "numeric": float(num[idx]),
                    "error": float(abs(num[idx] - ana[idx])),
                }
            )
    if strict and report:
        worst = max(report, key=lambda rec: rec["error"])
        raise FieldValidationError(
            f"{len(report)} divergence mismatches for field "
            f"{fld.name!r}; worst {worst['error']:.3e} at t={worst['t']}"
        )
    return report


# =====================================================================
# kernels
# =====================================================================


@dataclass
class Kernel:
    """Integral kernel gamma(t, x, r, r_tilde).

    gamma is vectorized over broadcastable r / r_tilde arrays (trailing
    axis j) at a single (t, x).  `support` may declare "triangular"
    support (gamma = 0 unless r < r_tilde componentwise); then
    `smooth_part` must give the smooth factor valid on the closed region
    r <= r_tilde, which quadrature uses on node-aligned tails.
    `singular_at_zero` flags kernels requiring a positive r cutoff.
    """

    name: str
    j: int
    gamma: Callable
    support: str | None = None
    smooth_part: Callable | None = None
    singular_at_zero: bool = False
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.support not in (None, "triangular"):
            raise ValueError(f"unknown support hint {self.support!r}")
        if self.support == "triangular" and self.smooth_part is None:
            raise ValueError("triangular kernels must provide smooth_part")


def _zero_gamma(t, x, r, rt):
    return np.zeros(np.broadcast_shapes(r.shape[:-1], rt.shape[:-1]))


def zero_kernel(j: int = 1) -> Kernel:
    return Kernel("zero", j, _zero_gamma)


def _const_gamma(c, t, x, r, rt):
    return np.full(np.broadcast_shapes(r.shape[:-1], rt.shape[:-1]), c)


def constant_kernel(c: float = 1.0, j: int = 1) -> Kernel:
    return Kernel("constant", j, partial(_const_gamma, c), params={"c": c})


def _frag_gamma(scale, t, x, r, rt):
    rr = r[..., 0]
    tt = rt[..., 0]
    with np.errstate(divide="ignore"):
        val = np.where((rr < tt) & (tt > 0.0), scale / np.where(tt > 0, tt, 1.0), 0.0)
    return np.broadcast_to(val, np.broadcast_shapes(rr.shape, tt.shape)).copy()


def _frag_smooth(scale, t, x, r, rt):
    tt = rt[..., 0]
    val = scale / tt
    return np.broadcast_to(val, np.broadcast_shapes(r.shape[:-1], tt.shape)).copy()


def fragmentation_kernel(scale: float = 1.0) -> Kernel:
    """kappa(r, r_tilde) = scale / r_tilde on 0 < r < r_tilde, else 0.

    Uniform-daughter fragmentation: a parent of size r_tilde spreads into
    sizes uniform on (0, r_tilde).  With scale=2 and b=0 the total mass
    grows exactly like e^{2t}.
    """
    return Kernel(
        "fragmentation", 1, partial(_frag_gamma, scale),
        support="triangular", smooth_part=partial(_frag_smooth, scale),
        singular_at_zero=True, params={"scale": scale},
    )


def _gauss(center, width, v):
    return np.exp(-((v - center) ** 2) / (2.0 * width**2))


def _separable_gamma(terms, t, x, r, rt):
    rr = r[..., 0]
    tt = rt[..., 0]
    acc = 0.0
    for (ca, wa, cc, wc, amp) in terms:
        acc = acc + amp * _gauss(ca, wa, rr) * _gauss(cc, wc, tt)
    return np.broadcast_to(acc, np.broadcast_shapes(rr.shape, tt.shape)).copy()


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
    return Kernel(
        "separable", 1, partial(_separable_gamma, terms), params={"terms": terms}
    )


def separable_factors(kernel: Kernel) -> tuple[list[Callable], list[Callable]]:
    """The (a_i, c_i) factor callables of a separable kernel."""
    if kernel.name != "separable":
        raise ValueError("not a separable kernel")
    a_list, c_list = [], []
    for (ca, wa, cc, wc, amp) in kernel.params["terms"]:
        a_list.append(partial(_gauss_amp, ca, wa, amp))
        c_list.append(partial(_gauss_amp, cc, wc, 1.0))
    return a_list, c_list


def _gauss_amp(center, width, amp, v):
    return amp * _gauss(center, width, np.asarray(v, dtype=float))


_KERNEL_BUILDERS = {
    "zero": zero_kernel,
    "constant": constant_kernel,
    "fragmentation": fragmentation_kernel,
    "separable": separable_kernel,
}


def make_kernel(name: str, **params) -> Kernel:
    try:
        builder = _KERNEL_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}") from None
    if name == "separable" and "terms" in params:
        params["terms"] = tuple(tuple(t) for t in params["terms"])
    return builder(**params)


# =====================================================================
# slab bound
# =====================================================================


def _mixed_norm_matrix(
    kernel: Kernel, grid: GridSpec, p: float, ts: np.ndarray
) -> np.ndarray:
    """Per (time sample, x label) mixed norm of the kernel.

    Entry (s, i) is  ( int_r ( int_rt |gamma(s, x_i)|^{p'} dr_tilde
    )^{p/p'} dr )^{1/p}  with p' the conjugate exponent; for j = 0 the r
    integrals are empty products and the entry is just |gamma(s, x_i)|.
    Triangular kernels are integrated on node-aligned tails so the
    support jump never crosses a quadrature cell.
    """
    if not (1.0 < p < np.inf):
        raise ValueError("slab bound needs a finite exponent p > 1")
    if kernel.j != grid.j:
        raise ValueError("kernel and grid fiber dimensions disagree")
    xs = grid.x_labels()
    out = np.zeros((ts.size, xs.shape[0]))
    if grid.j == 0:
        r0 = np.zeros((1, 0))
        for si, s in enumerate(ts):
            for i, x in enumerate(xs):
                out[si, i] = float(np.max(np.abs(kernel.gamma(s, x, r0, r0))))
        return out
    if grid.j != 1:
        raise ValueError("slab bound implemented for j <= 1 kernels")
    pp = p / (p - 1.0)
    r_nodes = grid.r_labels()  # (Nr, 1)
    w_r = grid.r_weights()
    col = r_nodes
    for si, s in enumerate(ts):
        for i, x in enumerate(xs):
            if kernel.support == "triangular":
                g = kernel.smooth_part(s, x, col[:, None, :], r_nodes[None, :, :])
                inner = np.einsum(
                    "mq,mq->m", np.abs(g) ** pp, grid.r_suffix_weights()
                )
            else:
                g = kernel.gamma(s, x, col[:, None, :], r_nodes[None, :, :])
                inner = (np.abs(g) ** pp) @ w_r
            out[si, i] = float(np.sum(w_r * inner ** (p / pp)) ** (1.0 / p))
    return out


def kernel_slab_bound(
    kernel: Kernel,
    grid: GridSpec,
    p: float,
    t_lo: float,
    t_hi: float,
    time_samples: int = 9,
) -> float:
    """Mixed-norm budget of the kernel over a time slab.

    Computes  sup_x  int_{t_lo}^{t_hi} ( int_r ( int_rt |gamma|^{p'}
    dr_tilde )^{p/p'} dr )^{1/p} ds  on the grid, with p' the conjugate
    exponent.  Together with a bound on the flow density ratio this
    controls the Lipschitz constant of the source operator on the slab,
    which is what the slab chooser budgets against.
    """
    if t_hi <= t_lo:
        raise ValueError("need t_hi > t_lo")
    ts = np.linspace(t_lo, t_hi, time_samples)
    wt = axis_weights(ts)
    mat = _mixed_norm_matrix(kernel, grid, p, ts)
    return float(np.max(wt @ mat))


def kernel_slab_rate(
    kernel: Kernel,
    grid: GridSpec,
    p: float,
    t_lo: float,
    t_hi: float,
    time_samples: int = 9,
) -> float:
    """Sampled sup over (time, x) of the kernel's mixed norm.

    rate * T dominates `kernel_slab_bound` over any sub-slab of length T,
    so the slab chooser can test dyadic candidates without re-evaluating
    kernel quadratures per candidate.  For autonomous kernels the product
    is exact rather than conservative.
    """
    if t_hi <= t_lo:
        raise ValueError("need t_hi > t_lo")
    ts = np.linspace(t_lo, t_hi, time_samples)
    return float(np.max(_mixed_norm_matrix(kernel, grid, p, ts)))
