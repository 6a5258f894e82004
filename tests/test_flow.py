"""Flow maps, log-Jacobians, inverse flows, and pushforward checks."""

import numpy as np
import pytest

from lagtransport.fields import (
    linear_field,
    logistic_field,
    oscillatory_field,
    sobolev_field,
    swirl_field,
    zero_field,
)
from lagtransport.flow import (
    PreconditionError,
    check_compressibility,
    density_rho2,
    flow_map,
    flow_map_to_csv,
    integrate_flow,
    inverse_flow_grid,
    verify_change_of_variables,
)
from lagtransport.grid import GridSpec

TOL = 1e-10


def _grid(nx=9, nr=5, x_bounds=((-1.0, 1.0),), r_bounds=((0.2, 0.8),), t_hi=0.5):
    return GridSpec(
        x_bounds=x_bounds,
        x_counts=(nx,),
        r_bounds=r_bounds,
        r_counts=(nr,),
        time_nodes=np.linspace(0.0, t_hi, 5),
    )


# ---------------------------------------------------------------------
# closed-form flows
# ---------------------------------------------------------------------


def test_zero_field_flow_is_identity():
    grid = _grid()
    fmap = flow_map(zero_field(1, 1), grid, tol=TOL)
    pos = fmap.positions()
    labels0 = pos[0]
    for k in range(fmap.times.size):
        assert np.allclose(pos[k], labels0, atol=1e-12)
    assert np.allclose(fmap.logj(), 0.0, atol=1e-12)


def test_linear_field_flow_and_jacobian_closed_form():
    # b = (lam x, mu r) has flow (x e^{lam t}, r e^{mu t}) and
    # logJ = (lam + mu) t independent of the label
    lam, mu = 0.4, 0.3
    grid = _grid()
    fmap = flow_map(linear_field(lam=lam, mu=mu, n=1, j=1), grid, tol=TOL)
    xs = grid.x_labels()
    rs = grid.r_labels()
    for k, t in enumerate(fmap.times):
        assert np.allclose(fmap.x1[k], xs * np.exp(lam * t), rtol=1e-8)
        assert np.allclose(
            fmap.x2[k], rs[None] * np.exp(mu * t), rtol=1e-8
        )
        assert np.allclose(fmap.logj1[k], lam * t, atol=1e-8)
        assert np.allclose(fmap.logj()[k], (lam + mu) * t, atol=1e-8)


def test_integrate_flow_single_label_matches_linear_solution():
    field = linear_field(lam=-0.2, mu=0.5, n=1, j=1)
    times = np.linspace(0.0, 1.0, 7)
    sample = integrate_flow(field, np.array([0.7, 0.4]), times, tol=TOL)
    assert np.allclose(
        sample.positions[:, 0], 0.7 * np.exp(-0.2 * times), rtol=1e-8
    )
    assert np.allclose(
        sample.positions[:, 1], 0.4 * np.exp(0.5 * times), rtol=1e-8
    )
    assert np.allclose(sample.logj, 0.3 * times, atol=1e-8)


def test_swirl_flow_preserves_radius_and_volume():
    field = swirl_field(omega=1.3)
    times = np.linspace(0.0, 2.0, 9)
    sample = integrate_flow(field, np.array([1.0, 0.5]), times, tol=TOL)
    radii = np.hypot(sample.positions[:, 0], sample.positions[:, 1])
    assert np.allclose(radii, radii[0], rtol=1e-9)
    assert np.allclose(sample.logj, 0.0, atol=1e-9)


# ---------------------------------------------------------------------
# structure invariant
# ---------------------------------------------------------------------


def test_x_block_shared_bitwise_across_fiber():
    # the x block is integrated once per x label; every r label on that
    # fiber must see the exact same x path, bit for bit
    grid = _grid(nx=5, nr=7)
    fmap = flow_map(logistic_field(k=2, mu=0.4), grid, tol=TOL)
    pos = fmap.positions()  # (K, Nx, Nr, n + j)
    x_part = pos[..., : grid.n]
    for q in range(1, grid.num_r):
        assert np.array_equal(x_part[:, :, q, :], x_part[:, :, 0, :])


# ---------------------------------------------------------------------
# semigroup and inverse
# ---------------------------------------------------------------------


def test_semigroup_restart_property():
    field = logistic_field(k=1, mu=0.3)
    label = np.array([0.6, 0.35])
    direct = integrate_flow(field, label, np.array([0.0, 0.4, 0.8]), tol=TOL)
    restart = integrate_flow(
        field, direct.positions[1], np.array([0.4, 0.8]), tol=TOL
    )
    assert np.allclose(
        restart.positions[-1], direct.positions[-1], atol=1e-9
    )


def test_inverse_flow_round_trip():
    field = logistic_field(k=2, mu=0.3)
    grid = _grid(nx=9, nr=5, x_bounds=((-2.0, 2.0),))
    xs = grid.x_labels()
    rs = grid.r_labels()
    lab_x, lj1, lab_r, lj2 = inverse_flow_grid(field, xs, rs, t=0.5, tol=TOL)
    # flowing the recovered labels forward must land on the grid points
    for i in range(xs.shape[0]):
        for q in range(rs.shape[0]):
            label = np.concatenate([lab_x[i], lab_r[i, q]])
            fwd = integrate_flow(field, label, np.array([0.0, 0.5]), tol=TOL)
            target = np.concatenate([xs[i], rs[q]])
            assert np.allclose(fwd.positions[-1], target, atol=1e-8)


def test_inverse_flow_at_base_time_is_identity():
    field = logistic_field(k=1, mu=0.3)
    grid = _grid()
    xs = grid.x_labels()
    rs = grid.r_labels()
    lab_x, lj1, lab_r, lj2 = inverse_flow_grid(field, xs, rs, t=0.0, tol=TOL)
    assert np.array_equal(lab_x, xs)
    assert np.all(lj1 == 0.0)
    assert np.all(lj2 == 0.0)


def test_inverse_logj_matches_forward_convention():
    # for the linear field the forward log-Jacobians pulled back to the
    # grid are constants lam*t and mu*t regardless of the point
    lam, mu = 0.4, 0.3
    field = linear_field(lam=lam, mu=mu, n=1, j=1)
    grid = _grid()
    lab_x, lj1, lab_r, lj2 = inverse_flow_grid(
        field, grid.x_labels(), grid.r_labels(), t=0.5, tol=TOL
    )
    assert np.allclose(lj1, lam * 0.5, atol=1e-8)
    assert np.allclose(lj2, mu * 0.5, atol=1e-8)


# ---------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------


def test_density_rho2_linear_field_closed_form():
    mu = 0.3
    grid = _grid()
    fmap = flow_map(linear_field(lam=0.1, mu=mu, n=1, j=1), grid, tol=TOL)
    rho2 = density_rho2(fmap)
    for k, t in enumerate(fmap.times):
        assert np.allclose(rho2[k], np.exp(mu * t), rtol=1e-8)


def test_compressibility_bounds_hold_for_catalogue():
    # the envelope integral is a trapezoid over the stored nodes, so the
    # stored flow needs enough of them: a label sitting exactly on the
    # envelope (rest point with extremal fiber) is compared at the
    # envelope's own quadrature accuracy
    times = np.linspace(0.0, 0.5, 17)
    cases = [
        (zero_field(1, 1), _grid()),
        (linear_field(lam=0.4, mu=0.3, n=1, j=1), _grid()),
        (oscillatory_field(k=2, j=1), _grid(x_bounds=((-np.pi, np.pi),))),
        (logistic_field(k=1, mu=0.3), _grid(x_bounds=((-np.pi, np.pi),))),
        (
            swirl_field(omega=0.7),
            GridSpec(
                x_bounds=((-1.0, 1.0), (-1.0, 1.0)),
                x_counts=(5, 5),
                time_nodes=times,
            ),
        ),
        (
            sobolev_field(alpha=2.0 / 3.0),
            GridSpec(
                x_bounds=((0.5, 2.0),),
                x_counts=(9,),
                time_nodes=times,
            ),
        ),
    ]
    for field, grid in cases:
        fmap = flow_map(field, grid, times=times, tol=TOL)
        report = check_compressibility(fmap, field)
        assert report.ok, f"{field.name}: {report.violations}"
        assert report.incompressibility_constant >= 1.0 - 1e-12


def test_compressibility_flags_forged_jacobian():
    grid = _grid()
    fmap = flow_map(zero_field(1, 1), grid, tol=TOL)
    fmap.logj1 = fmap.logj1 + 0.5  # exceeds the zero-divergence envelope
    report = check_compressibility(fmap, zero_field(1, 1))
    assert not report.ok
    assert report.violations


# ---------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------


def _gauss_x(center, width):
    def phi(pts):
        return np.exp(-np.sum((pts - center) ** 2, axis=-1) / width**2)

    return phi


def test_change_of_variables_linear_field():
    field = linear_field(lam=0.4, mu=0.3, n=1, j=1)
    grid = GridSpec(
        x_bounds=((-3.0, 3.0),),
        x_counts=(65,),
        r_bounds=((-3.0, 3.0),),
        r_counts=(65,),
        time_nodes=np.array([0.0, 0.5]),
    )

    def phi_joint(x, r):
        return _gauss_x(0.0, 0.25)(x) * _gauss_x(0.0, 0.25)(r)

    out = verify_change_of_variables(
        field, grid, 0.5, _gauss_x(0.0, 0.25), phi_joint, tol=TOL
    )
    assert out["residual_marginal"] < 1e-4
    assert out["residual_joint"] < 1e-4
    # the forward entry is the label-box integral of phi(x e^{lam t}),
    # which substitutes to e^{-lam t} times the Gaussian integral
    exact_marg = np.exp(-0.4 * 0.5) * 0.25 * np.sqrt(np.pi)
    assert abs(out["marginal_forward"] - exact_marg) < 1e-4


def test_change_of_variables_support_margin_guard():
    field = linear_field(lam=1.0, mu=0.0, n=1, j=0)
    grid = GridSpec(
        x_bounds=((-1.0, 1.0),),
        x_counts=(17,),
        time_nodes=np.array([0.0, 1.0]),
    )
    # displacement sup |b| * T = 1.0 exceeds the margin of this support box
    with pytest.raises(PreconditionError):
        verify_change_of_variables(
            field, grid, 1.0, _gauss_x(0.0, 0.3),
            support_x=((-0.9, 0.9),), tol=TOL,
        )


# ---------------------------------------------------------------------
# export
# ---------------------------------------------------------------------


def test_flow_map_csv_round_trip(tmp_path):
    grid = _grid(nx=3, nr=3)
    fmap = flow_map(linear_field(lam=0.2, mu=0.1, n=1, j=1), grid, tol=TOL)
    path = tmp_path / "flow.csv"
    flow_map_to_csv(fmap, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (grid.num_x * grid.num_r * fmap.times.size, 7)
    # 17 significant digits reproduce the doubles exactly
    logj = fmap.logj()
    k, i, q = 2, 1, 2
    row = rows[(i * grid.num_r + q) * fmap.times.size + k]
    assert row[2] == fmap.times[k]
    assert row[3] == fmap.x1[k, i, 0]
    assert row[6] == logj[k, i, q]
