"""Closed-form references: the oscillatory flow family and the
matrix-exponential solution for finite-rank kernels."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from lagtransport.fields import separable_kernel
from lagtransport.flow import integrate_flow
from lagtransport.grid import GridSpec
from lagtransport.oracle import (
    expm_small,
    integrated_expm,
    oscillatory_jacobian,
    oscillatory_position,
    period_average,
    separable_solve,
    strong_failure_floor,
)

# t = 1 value of the L1(0, 2pi) distance between the transported density
# and 1.  Derived independently: the density at level k is periodic with
# the k = 1 profile, the profile crosses 1 where sin^2(w/2) = e/(e+1),
# and the primitive of the profile is 2 arctan(e^{-1} tan(w/2)), giving
# 8 (arcsin(sqrt(e/(e+1))) - arctan(e^{-1/2})).  Cross-checked against
# adaptive quadrature (agreeing to 3e-10) and a 2e6-point trapezoid.
L1_DISTANCE_T1 = 3.843048633069836


# ---------------------------------------------------------------------
# oscillatory flow family
# ---------------------------------------------------------------------


def test_position_satisfies_tangent_identity():
    # the flow of sin(kx)/k obeys tan(k X / 2) = e^t tan(k x / 2)
    for k in (1, 4, 16):
        x = np.linspace(0.05, np.pi / k - 0.05, 9)
        for t in (0.25, 0.5, 1.0):
            X = oscillatory_position(k, t, x)
            lhs = np.tan(k * X / 2.0)
            rhs = np.exp(t) * np.tan(k * x / 2.0)
            assert np.allclose(lhs, rhs, rtol=1e-10)


def test_position_matches_integrated_flow():
    from lagtransport.fields import oscillatory_field

    for k in (1, 4):
        field = oscillatory_field(k=k, j=0)
        for x0 in (0.2 / k, 1.8 / k):
            positions = integrate_flow(
                field, np.array([x0]), np.array([0.0, 0.7]), tol=1e-12
            )
            closed = oscillatory_position(k, 0.7, np.array([x0]))
            assert np.allclose(positions[-1, 0], closed, rtol=1e-9)


def test_position_handles_branches_and_rest_points():
    # rest points of sin(kx) stay put for all t
    k = 2
    rests = np.array([0.0, np.pi / k, 2 * np.pi / k])
    assert np.allclose(oscillatory_position(k, 3.0, rests), rests, atol=1e-12)
    # labels beyond the principal branch map consistently: shifting the
    # label by a period shifts the image by the same period
    x = np.array([0.3])
    shift = 2 * np.pi / k
    assert np.allclose(
        oscillatory_position(k, 0.5, x + shift),
        oscillatory_position(k, 0.5, x) + shift,
        rtol=1e-12,
    )


def test_jacobian_is_spatial_derivative_of_position():
    k, t = 4, 1.0
    xs = np.array([0.1, 0.35, 0.6]) / k * 2
    h = 1e-6
    fd = (
        oscillatory_position(k, t, xs + h) - oscillatory_position(k, t, xs - h)
    ) / (2 * h)
    assert np.allclose(fd, oscillatory_jacobian(k, t, xs), rtol=1e-7)


def test_inverse_undoes_position():
    k, t = 3, 0.8
    xs = np.linspace(0.05, 2.0, 11)
    ys = oscillatory_position(k, t, xs)
    assert np.allclose(oscillatory_position(k, -t, ys), xs, rtol=1e-11)


def test_period_average_equals_one():
    # the Jacobian factor integrates to exactly one over a full period,
    # which is the weak-limit identity behind the counterexample
    for t in (0.5, 1.0, 2.0):
        assert abs(period_average(t) - 1.0) < 1e-10


def test_strong_failure_floor_matches_closed_form():
    measured = strong_failure_floor(1.0)
    assert abs(measured - L1_DISTANCE_T1) / L1_DISTANCE_T1 < 1e-8
    # and the closed form itself, recomputed here from scratch
    e = np.e
    closed = 8.0 * (np.arcsin(np.sqrt(e / (e + 1.0))) - np.arctan(e**-0.5))
    assert abs(closed - L1_DISTANCE_T1) < 1e-14


def test_strong_failure_floor_is_positive_and_grows():
    vals = [strong_failure_floor(t) for t in (0.5, 1.0, 2.0)]
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------
# matrix exponentials
# ---------------------------------------------------------------------


def test_expm_small_agrees_with_scipy():
    rng = np.random.default_rng(17)
    for size in (1, 2, 4, 7):
        mat = rng.standard_normal((size, size)) * 3.0
        assert np.allclose(expm_small(mat), expm(mat), rtol=1e-12, atol=1e-12)


def test_integrated_expm_matches_quadrature():
    rng = np.random.default_rng(23)
    mat = rng.standard_normal((3, 3))
    t = 0.7
    ss = np.linspace(0.0, t, 20001)
    quad = np.trapezoid(
        np.stack([expm(mat * s) for s in ss]), ss, axis=0
    )
    assert np.allclose(integrated_expm(mat, t), quad, atol=1e-8)


def test_integrated_expm_singular_generator():
    # the identity int_0^t e^{Ms} ds = (e^{Mt} - I) M^{-1} fails for
    # singular M; the augmented-block route must still work
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = 2.0
    expected = np.array([[t, t**2 / 2.0], [0.0, t]])
    assert np.allclose(integrated_expm(mat, t), expected, atol=1e-12)


# ---------------------------------------------------------------------
# separable solve
# ---------------------------------------------------------------------


def _rank_grid(nr=65):
    return GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(2,),
        r_bounds=((0.0, 1.0),),
        r_counts=(nr,),
    )


def test_separable_solve_against_direct_ode():
    # brute-force reference: discretize the fiber and integrate the full
    # linear system du/dt = G u with G the quadrature kernel matrix
    grid = _rank_grid()
    kern = separable_kernel(
        terms=((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    )
    rs = grid.r_labels()
    wr = grid.r_weights()
    gmat = kern.gamma(rs[:, None, :], rs[None, :, :]) * wr[None, :]
    rng = np.random.default_rng(3)
    u0_fiber = rng.uniform(0.5, 1.5, size=grid.num_r)
    sol = solve_ivp(
        lambda t, u: gmat @ u,
        (0.0, 0.5),
        u0_fiber,
        t_eval=[0.0, 0.5],
        rtol=1e-12,
        atol=1e-14,
    )
    u0 = np.broadcast_to(u0_fiber[None, :], (grid.num_x, grid.num_r)).copy()
    out = separable_solve(kern, u0, grid, np.array([0.0, 0.5]))
    assert out.shape == (2, grid.num_x, grid.num_r)
    assert np.allclose(out[0], u0, atol=1e-14)
    assert np.allclose(out[-1], sol.y[:, -1][None, :], rtol=1e-9)


def test_separable_solve_single_term_scalarizes():
    # one separable term with constant factors reduces to the scalar ODE
    # m' = alpha + beta m for the moment m(t) = int c u dr
    grid = _rank_grid(nr=33)
    kern = separable_kernel(terms=((0.5, 5000.0, 0.5, 5000.0, 0.8),))
    # widths of 5000 make both Gaussian factors constant to 5e-9 on (0,1)
    u0 = np.ones((grid.num_x, grid.num_r))
    times = np.array([0.0, 0.25, 0.5])
    out = separable_solve(kern, u0, grid, times)
    wr = grid.r_weights()
    beta = 0.8 * np.sum(wr)  # kernel mass per unit value
    for k, t in enumerate(times):
        expected = np.exp(beta * t)
        assert np.allclose(out[k], expected, rtol=1e-6)
