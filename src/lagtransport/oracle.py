"""Closed-form references the numerical paths are checked against.

Everything here is independent of the trajectory integrator and the
slab solver: explicit formulas for the oscillatory flow family,
a small hand-rolled matrix exponential, and the finite-rank
(separable) kernel solution.
"""

from __future__ import annotations

import numpy as np

from .fields import Kernel
from .grid import GridSpec

__all__ = [
    "oscillatory_position",
    "oscillatory_jacobian",
    "period_average",
    "strong_failure_floor",
    "expm_small",
    "integrated_expm",
    "separable_solve",
]


# --- oscillatory family b_k(x) = sin(kx)/k ---------------------------


def oscillatory_position(k: float, t: float, x) -> np.ndarray:
    """Exact flow of dx/dt = sin(kx)/k via tan(k X / 2) = e^t tan(k x / 2).

    The motion is confined between consecutive rest points m pi / k, so
    the formula is evaluated on the branch containing x.  Works for
    negative t as well, which gives the inverse flow.
    """
    x = np.asarray(x, dtype=float)
    k = float(k)
    kx = k * x
    m = np.round(kx / (2.0 * np.pi))
    theta = 0.5 * (kx - 2.0 * np.pi * m)  # in [-pi/2, pi/2]
    with np.errstate(over="ignore"):
        moved = np.arctan(np.exp(t) * np.tan(theta))
    # rest points theta = +-pi/2: tan overflows but arctan saturates there
    shift = np.where(np.abs(np.cos(theta)) < 1e-15, 0.0, moved - theta)
    return x + (2.0 / k) * shift


def oscillatory_jacobian(k: float, t: float, x) -> np.ndarray:
    """Exact label derivative dX/dx = e^t / (cos^2(kx/2) + e^{2t} sin^2(kx/2)),
    a pi-periodic function of kx."""
    half = 0.5 * float(k) * np.asarray(x, dtype=float)
    return np.exp(t) / (np.cos(half) ** 2 + np.exp(2.0 * t) * np.sin(half) ** 2)


def period_average(t: float) -> float:
    """Average of the Jacobian over one spatial period.

    The Jacobian depends on x only through w = kx, so the average is the
    same for every wavenumber.  Integrates F(t, w), the Jacobian at
    k = 2 and x = w, over a full period of w with the 4096-node
    trapezoid rule, which converges spectrally for smooth periodic
    integrands.  The exact value is 1 for every t: the flow fixes all
    rest points, so each period cell maps onto itself with unit average
    stretch.
    """
    w = np.linspace(0.0, np.pi, 4096, endpoint=False)
    return float(np.mean(oscillatory_jacobian(2.0, t, w)))


def strong_failure_floor(t: float = 1.0) -> float:
    """Trapezoid quadrature on 200001 nodes of |F(t, .) - 1| over (0, 2 pi).

    The pushforward density along the flow satisfies
    ||rho_k - 1||_{L^1(0, 2pi)} = 2 int_0^pi |F - 1| F dw, and since
    int |F - 1| (F - 1) = int (F - 1)^2 >= 0, the plain |F - 1| integral
    computed here is a rigorous positive lower bound for it, uniformly
    in k."""
    w = np.linspace(0.0, 2.0 * np.pi, 200001)
    return float(np.trapezoid(np.abs(oscillatory_jacobian(2.0, t, w) - 1.0), w))


# --- small dense matrix exponential -----------------------------------


def expm_small(mat: np.ndarray) -> np.ndarray:
    """exp(M) for small dense matrices by scaling-and-squaring the
    truncated Taylor series.  Fine for the handful-sized systems the
    finite-rank oracle produces."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("square matrix required")
    norm = float(np.max(np.sum(np.abs(mat), axis=1)))
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    scaled = mat / (2.0**squarings)
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for order in range(1, 40):
        term = term @ scaled / order
        out = out + term
        if float(np.max(np.abs(term))) < 1e-18 * max(1.0, float(np.max(np.abs(out)))):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def integrated_expm(mat: np.ndarray, t: float) -> np.ndarray:
    """Phi(t) = int_0^t exp(M s) ds via the augmented block exponential
    exp([[M, I], [0, 0]] t), whose top-right block is Phi."""
    mat = np.asarray(mat, dtype=float)
    m = mat.shape[0]
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = mat * t
    aug[:m, m:] = np.eye(m) * t
    return expm_small(aug)[:m, m:]


# --- finite-rank kernel reference -------------------------------------


def separable_solve(
    kernel: Kernel,
    u0_values: np.ndarray,
    grid: GridSpec,
    times: np.ndarray,
) -> np.ndarray:
    """Exact-in-time solution of the b = 0 fixed point for finite-rank kernels.

    For gamma(r, rt) = sum_i a_i(r) c_i(rt) the source closes on the
    moments m_i(t, x) = int c_i u(t, x, .) dr, which satisfy the linear
    system m' = alpha + B m with alpha_i = <c_i, u0>, B_ij = <c_i, a_j>.
    The solution m(t) = Phi(t) alpha uses the integrated exponential, and
    u(t) = u0 + sum_j a_j(r) m_j(t, x).  Inner products use the grid's
    own r quadrature, so the comparison with the slab solver isolates
    its time-integration error.  The factors are the kernel's
    declared `factors`, integrated over the whole square; a triangular
    kernel, whose support is r <= rt, raises ValueError.
    """
    if grid.j != 1:
        raise ValueError("finite-rank oracle needs j = 1")
    if kernel.triangular:
        raise ValueError(f"kernel {kernel.name!r} is triangular; the oracle "
                         "needs support on the whole square")
    a_list, c_list = kernel.factors
    r = grid.r_labels()[:, 0]
    wr = grid.r_weights()
    a_vals = np.stack([np.asarray(a(r), dtype=float) for a in a_list])  # (m, Nr)
    c_vals = np.stack([np.asarray(c(r), dtype=float) for c in c_list])
    u0_values = np.asarray(u0_values, dtype=float)
    if u0_values.shape != (grid.num_x, grid.num_r):
        raise ValueError("u0_values must have shape (num_x, num_r)")
    alpha = u0_values @ (c_vals * wr).T  # (Nx, m)
    bmat = (c_vals * wr) @ a_vals.T      # (m, m)
    times = np.asarray(times, dtype=float)
    t0 = times[0]
    out = np.empty((times.size, grid.num_x, grid.num_r))
    for idx, t in enumerate(times):
        phi = integrated_expm(bmat, t - t0)
        moments = alpha @ phi.T  # (Nx, m)
        out[idx] = u0_values + moments @ a_vals
    return out
