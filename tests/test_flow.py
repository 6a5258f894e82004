"""Flow maps, log-Jacobians, inverse flows, and pushforward checks."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from lagtransport.fields import (
    linear_field,
    logistic_field,
    mollify_field,
    oscillatory_field,
    sobolev_field,
    swirl_field,
    zero_field,
)
from lagtransport.flow import (
    NumericalFailure,
    check_compressibility,
    flow_from,
    flow_map,
    flow_map_to_csv,
    integrate_flow,
    inverse_flow_grid,
    verify_change_of_variables,
    write_csv,
)
from lagtransport.grid import GridSpec
from lagtransport.ode import solve_ivp

from conftest import counting_field, modulated_logistic_field, same_bits

TOL = 1e-10
TIMES = np.linspace(0.0, 0.5, 5)


def _grid(nx=9, nr=5, x_bounds=((-1.0, 1.0),), r_bounds=((0.2, 0.8),)):
    return GridSpec(
        x_bounds=x_bounds,
        x_counts=(nx,),
        r_bounds=r_bounds,
        r_counts=(nr,),
    )


# ---------------------------------------------------------------------
# closed-form flows
# ---------------------------------------------------------------------


def test_zero_field_flow_is_identity():
    grid = _grid()
    fmap = flow_map(zero_field(1, 1), grid, times=TIMES, tol=TOL)
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
    fmap = flow_map(linear_field(lam=lam, mu=mu, n=1, j=1), grid, times=TIMES, tol=TOL)
    xs = grid.x_labels()
    rs = grid.r_labels()
    for k, t in enumerate(fmap.times):
        assert np.allclose(fmap.x1[k], xs * np.exp(lam * t), rtol=1e-8)
        assert np.allclose(
            fmap.x2[k], rs[None] * np.exp(mu * t), rtol=1e-8
        )
        assert np.allclose(fmap.logj1[k], lam * t, atol=1e-8)
        assert np.allclose(fmap.logj()[k], (lam + mu) * t, atol=1e-8)


def test_backward_flow_map_linear_field_closed_form():
    # the inverse of (x e^{lam t}, r e^{mu t}) takes the point (y, s) at
    # time t back to the label (y e^{-lam t}, s e^{-mu t}); the inverse
    # map has log-Jacobian -(lam + mu) t
    lam, mu = 0.4, 0.3
    grid = _grid()
    fmap = flow_map(
        linear_field(lam=lam, mu=mu, n=1, j=1), grid, times=TIMES, tol=TOL,
        direction="backward",
    )
    xs = grid.x_labels()
    rs = grid.r_labels()
    # row 0 is the grid itself, with zero log-Jacobian
    assert np.array_equal(fmap.x1[0], xs)
    assert np.array_equal(fmap.x2[0], np.broadcast_to(rs[None], fmap.x2[0].shape))
    assert np.all(fmap.logj()[0] == 0.0)
    for k, t in enumerate(TIMES):
        assert np.allclose(fmap.x1[k], xs * np.exp(-lam * t), rtol=1e-8)
        assert np.allclose(fmap.x2[k], rs[None] * np.exp(-mu * t), rtol=1e-8)
        assert np.allclose(fmap.logj()[k], -(lam + mu) * t, atol=1e-8)


@pytest.mark.parametrize(
    "field, grid",
    [
        (oscillatory_field(k=3, j=0),
         GridSpec(x_bounds=((0.0, 6.0),), x_counts=(9,))),
        (logistic_field(k=1, mu=0.3), _grid()),
    ],
    ids=["j0", "j1"],
)
def test_backward_map_node_zero_is_the_grid_with_positive_zero_logj(field, grid):
    # the CSV writes %.17g, which prints -0.0 as "-0": node 0 must hold +0.0
    fmap = flow_map(field, grid, times=TIMES, tol=TOL, direction="backward")
    assert np.array_equal(fmap.x1[0], grid.x_labels())
    x2 = np.broadcast_to(fmap.x2[0], (grid.num_x,) + fmap.x2.shape[2:])
    assert np.array_equal(x2, grid.joint_labels()[..., grid.n :])
    for logj in (fmap.logj1[0], fmap.logj2[0]):
        assert np.all(logj == 0.0)
        assert not np.any(np.signbit(logj))


def test_flow_map_rejects_decreasing_times():
    grid = _grid()
    for times in (
        np.array([0.0, -1.0]),
        np.array([0.0, 0.5, 0.5]),
        np.array([0.5]),
        np.zeros((2, 2)),
    ):
        with pytest.raises(ValueError):
            flow_map(zero_field(1, 1), grid, times=times, tol=TOL)


def _label_logj(field, label, times):
    """(logJ1, logJ) at `times` of one joint label's forward flow, from
    `flow_from`, the solve `integrate_flow` makes."""
    n = field.n
    _, logj1, _, logj2 = flow_from(
        field, label[None, :n], label[n:].reshape(1, 1, field.j),
        (times[0], times[-1]), times, tol=TOL,
    )
    return logj1[:, 0], logj1[:, 0] + logj2[:, 0, 0]


def test_integrate_flow_single_label_matches_linear_solution():
    field = linear_field(lam=-0.2, mu=0.5, n=1, j=1)
    times = np.linspace(0.0, 1.0, 7)
    label = np.array([0.7, 0.4])
    positions = integrate_flow(field, label, times, tol=TOL)
    assert positions.shape == (7, 2)
    assert np.allclose(positions[:, 0], 0.7 * np.exp(-0.2 * times), rtol=1e-8)
    assert np.allclose(positions[:, 1], 0.4 * np.exp(0.5 * times), rtol=1e-8)
    _, logj = _label_logj(field, label, times)
    assert np.allclose(logj, 0.3 * times, atol=1e-8)


def test_swirl_flow_preserves_radius_and_volume():
    field = swirl_field(omega=1.3)
    times = np.linspace(0.0, 2.0, 9)
    label = np.array([1.0, 0.5])
    positions = integrate_flow(field, label, times, tol=TOL)
    radii = np.hypot(positions[:, 0], positions[:, 1])
    assert np.allclose(radii, radii[0], rtol=1e-9)
    _, logj = _label_logj(field, label, times)
    assert np.allclose(logj, 0.0, atol=1e-9)


# ---------------------------------------------------------------------
# structure invariant
# ---------------------------------------------------------------------


def test_x_block_shared_bitwise_across_fiber():
    # the x block is integrated once per x label; every r label on that
    # fiber must see the exact same x path, bit for bit
    grid = _grid(nx=5, nr=7)
    fmap = flow_map(logistic_field(k=2, mu=0.4), grid, times=TIMES, tol=TOL)
    pos = fmap.positions()  # (K, Nx, Nr, n + j)
    x_part = pos[..., : grid.n]
    for q in range(1, grid.num_r):
        assert np.array_equal(x_part[:, :, q, :], x_part[:, :, 0, :])


@pytest.mark.parametrize(
    "field, shared",
    [
        # b2 depends on x: each stacked fiber must follow its own x path,
        # and the shared RMS error norm may move a fiber by up to flow_tol
        (modulated_logistic_field(mu=2.0, a=0.95), False),
        # b2 ignores x, as declared: the grid's fiber and a single label's
        # fiber are the same one-fiber solve
        (logistic_field(k=1, mu=0.3), True),
        # a declared zero x block: each stacked fiber reads its x label
        # from the identity block, not from a dense x path
        (dataclasses.replace(
            modulated_logistic_field(mu=2.0, a=0.95),
            b1=lambda x: np.zeros_like(x),
            div_b1=lambda x: np.zeros(x.shape[:-1]),
            zero_blocks={"x"},
        ), False),
    ],
    ids=["modulated_logistic", "logistic", "modulated_logistic_identity_x"],
)
def test_stacked_fibers_match_label_by_label(field, shared):
    def agree(a, b):
        return same_bits(a, b) if shared else np.max(np.abs(a - b)) <= TOL

    grid = _grid(nx=33, nr=129, x_bounds=((-np.pi, np.pi),), r_bounds=((0.0, 1.0),))
    xs = grid.x_labels()
    rs = grid.r_labels()
    times = np.linspace(0.0, 0.5, 5)
    fwd = flow_map(field, grid, times=times, tol=TOL)
    lab_x, _, lab_r, lj2 = inverse_flow_grid(field, xs, rs, t=0.5, tol=TOL)
    # a shared fiber is stored once: label i reads its row 0
    rows = 1 if shared else grid.num_x
    assert fwd.x2.shape[1] == fwd.logj2.shape[1] == lab_r.shape[0] == rows
    for i in range(grid.num_x):
        f = 0 if shared else i
        x1, _, x2, logj2 = flow_from(
            field, xs[i : i + 1], rs[None], (0.0, 0.5), times, tol=TOL
        )
        # one x label alone takes its own steps in the x block
        assert np.max(np.abs(fwd.x1[:, i] - x1[:, 0])) <= TOL
        assert agree(fwd.x2[:, f], x2[:, 0])
        assert agree(fwd.logj2[:, f], logj2[:, 0])
        bx1, _, bx2, blj2 = flow_from(
            field, xs[i : i + 1], rs[None], (0.5, 0.0), np.array([0.0]), tol=TOL
        )
        assert np.max(np.abs(lab_x[i] - bx1[-1, 0])) <= TOL
        assert agree(lab_r[f], bx2[-1, 0])
        assert agree(lj2[f], -blj2[-1, 0])
    # a single (x, r) label through integrate_flow: a one-state fiber
    i, q = 7, 40
    label = np.concatenate([xs[i], rs[q]])
    positions = integrate_flow(field, label, times, tol=TOL)
    _, logj = _label_logj(field, label, times)
    f = 0 if shared else i
    assert np.max(np.abs(positions[:, 1] - fwd.x2[:, f, q, 0])) <= TOL
    assert np.max(np.abs(logj - fwd.logj()[:, i, q])) <= TOL


def test_flow_maps_make_one_x_solve_and_one_fiber_solve(monkeypatch):
    import lagtransport.flow

    assert lagtransport.flow.solve_ivp is solve_ivp
    calls = []

    def counting(fun, t_span, y0, **kwargs):
        calls.append(y0.size)
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr("lagtransport.flow.solve_ivp", counting)
    grid = _grid(nx=9, nr=5)
    # x block: 9 positions + 9 logJ1; fibers: 45 positions + 45 logJ2, or
    # one fiber of 5 positions + 5 logJ2 when b2 is declared to ignore x
    for field, sizes in (
        (modulated_logistic_field(), [18, 90]),
        (logistic_field(k=1, mu=0.3), [18, 10]),
        (mollify_field(logistic_field(k=1, mu=0.3), 0.1), [18, 10]),
    ):
        calls.clear()
        flow_map(field, grid, times=TIMES, tol=TOL)
        assert calls == sizes
        calls.clear()
        inverse_flow_grid(field, grid.x_labels(), grid.r_labels(), t=0.5, tol=TOL)
        assert calls == sizes
        calls.clear()
        flow_map(field, grid, times=TIMES, tol=TOL, direction="backward")
        assert calls == sizes * (TIMES.size - 1)


_IGNORING_X = [
    logistic_field(k=2, mu=0.4),
    linear_field(lam=0.3, mu=-0.2, n=1, j=1),
    mollify_field(logistic_field(k=2, mu=0.4), 0.1),
    mollify_field(linear_field(lam=0.3, mu=-0.2, n=1, j=1), 0.1),
]
_IGNORING_X_IDS = ["logistic", "linear", "mollified_logistic", "mollified_linear"]


@pytest.mark.parametrize("field", _IGNORING_X, ids=_IGNORING_X_IDS)
def test_declared_fiber_drift_gives_the_same_bits_at_every_x(field):
    # the declaration is a claim about bits: the same r at another x gives
    # the same drift and divergence, in every way the flow asks for them
    assert field.fiber_ignores_x
    r = np.linspace(-0.1, 1.1, 100)[:, None]
    r[0] = -0.0
    at = {}
    for x in (-2.7, 0.0, 1.3, 40.0):
        xs = np.full((r.shape[0], 1), x)
        at[x] = (field.b2(xs, r), field.div_b2(xs, r), *field.b2_and_div(xs, r))
    for x in at:
        for a, b in zip(at[x], at[0.0]):
            assert same_bits(a, b)


def test_fields_with_an_x_dependent_fiber_drift_do_not_declare_it():
    # the default is the stacked path; the modulated fiber rate really
    # reads x, so declaring it would be false
    field = modulated_logistic_field()
    assert not field.fiber_ignores_x
    assert not mollify_field(field, 0.1).fiber_ignores_x
    r = np.full((1, 1), 0.4)
    assert field.b2(np.full((1, 1), 0.0), r) != field.b2(np.full((1, 1), 1.0), r)


@pytest.mark.parametrize("field", _IGNORING_X, ids=_IGNORING_X_IDS)
def test_one_shared_fiber_matches_the_stacked_fibers(field):
    # the same field without the declaration solves every x label's copy
    # of the fiber as one stacked system: the maps agree to rounding, and
    # the declared fiber is stored once, as one row on the x label axis
    plain = dataclasses.replace(field, fiber_ignores_x=False)
    grid = _grid(nx=7, nr=6, r_bounds=((0.05, 0.95),))
    times = np.linspace(0.1, 0.6, 4)
    maps, fibers = {}, {}
    for name, fld in (("declared", field), ("plain", plain)):
        fwd = flow_map(fld, grid, times=times, tol=TOL)
        bwd = flow_map(fld, grid, times=times, tol=TOL, direction="backward")
        inv = inverse_flow_grid(fld, grid.x_labels(), grid.r_labels(), 0.6, 0.1, TOL)
        maps[name] = [fwd.x1, fwd.logj1, bwd.x1, bwd.logj1, inv[0], inv[1]]
        fibers[name] = [fwd.x2, fwd.logj2, bwd.x2, bwd.logj2, inv[2][None],
                        inv[3][None]]
    for a, b in zip(maps["declared"] + fibers["declared"],
                    maps["plain"] + fibers["plain"]):
        assert a.flags.c_contiguous and a.flags.writeable
        assert np.max(np.abs(a - b)) <= 1e-14
    for a, b in zip(maps["declared"], maps["plain"]):
        assert a.shape == b.shape
    for a, b in zip(fibers["declared"], fibers["plain"]):
        assert a.shape == b.shape[:1] + (1,) + b.shape[2:]
        assert b.shape[1] == grid.num_x


def test_per_label_fiber_starts_take_the_stacked_path(monkeypatch):
    # one row of r0 is one fiber that every label starts, solved and
    # returned once; M rows are per-label starts, and they stack even
    # when they are equal
    calls = []

    def counting(fun, t_span, y0, **kwargs):
        calls.append(y0.size)
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr("lagtransport.flow.solve_ivp", counting)
    field = logistic_field(k=1, mu=0.3)
    x0 = np.linspace(-1.0, 1.0, 3)[:, None]
    row = np.linspace(0.0, 0.6, 4)[None, :, None]
    equal = np.broadcast_to(row, (3, 4, 1))
    shifted = equal + np.array([0.0, 0.1, 0.2])[:, None, None]
    out = {}
    for name, r0, sizes in (("row", row, [6, 8]), ("equal", equal, [6, 24]),
                            ("shifted", shifted, [6, 24])):
        calls.clear()
        out[name] = flow_from(field, x0, r0, (0.0, 0.5), TIMES[1:], TOL)
        assert calls == sizes
    assert out["row"][2].shape == (TIMES.size - 1, 1, 4, 1)
    assert out["row"][3].shape == (TIMES.size - 1, 1, 4)
    assert out["equal"][2].shape == (TIMES.size - 1, 3, 4, 1)
    # stacked or not, each label's fiber is the one it starts
    assert np.max(np.abs(out["equal"][2] - out["row"][2])) <= TOL
    for k in range(3):
        one = flow_from(field, x0[k : k + 1], shifted[k : k + 1], (0.0, 0.5),
                        TIMES[1:], TOL)
        assert np.max(np.abs(out["shifted"][2][:, k] - one[2][:, 0])) <= TOL


@pytest.mark.parametrize(
    "field, grid",
    [
        (zero_field(1, 0), GridSpec(x_bounds=((-1.0, 1.0),), x_counts=(9,))),
        (zero_field(1, 1), _grid()),
        (oscillatory_field(k=2, j=1), _grid()),
        (sobolev_field(j=1), _grid(x_bounds=((0.5, 1.5),))),
        (mollify_field(zero_field(1, 1), 0.1), _grid(nx=5, nr=4)),
        (mollify_field(oscillatory_field(k=2, j=1), 0.1), _grid(nx=5, nr=4)),
    ],
    ids=["zero_j0", "zero_j1", "oscillatory", "sobolev", "mollified_zero",
         "mollified_oscillatory"],
)
def test_declared_zero_blocks_match_the_integrator_bit_for_bit(
    field, grid, monkeypatch
):
    # skipping the integrator for a declared block must not move a bit,
    # signed zeros included: the same field without the declaration
    # integrates every block
    plain = dataclasses.replace(field, zero_blocks=frozenset())
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr("lagtransport.flow.solve_ivp", counting)
    # a -0.0 label, where the declared block is at rest, keeps its sign
    # only on backward paths, as under the integrator
    xs = grid.x_labels()
    if "x" in field.zero_blocks:
        xs = np.vstack([xs, np.full((1, field.n), -0.0)])
    rs = np.vstack([grid.r_labels(), np.full((1, field.j), -0.0)])
    label = np.concatenate([xs[-1], rs[-1]])
    times = np.linspace(0.1, 0.6, 5)
    out, solves = {}, {}
    for name, fld in (("declared", field), ("plain", plain)):
        calls.clear()
        fwd = flow_map(fld, grid, times=times, tol=TOL)
        bwd = flow_map(fld, grid, times=times, tol=TOL, direction="backward")
        inv = inverse_flow_grid(fld, xs, rs, 0.5, 0.1, TOL)
        one = integrate_flow(fld, label, times, tol=TOL)
        out[name] = [fwd.x1, fwd.logj1, fwd.x2, fwd.logj2,
                     bwd.x1, bwd.logj1, bwd.x2, bwd.logj2,
                     *inv, one, *_label_logj(fld, label, times)]
        solves[name] = len(calls)
    # a declared zero r block keeps the one fiber its flow starts; the
    # plain field stacks a copy per x label
    for a, b in zip(out["declared"], out["plain"]):
        assert same_bits(np.broadcast_to(a, b.shape), b)
    # one integrator call per flow and block, none for a declared block
    blocks = {"x", "r"} if field.j else {"x"}
    undeclared = blocks - field.zero_blocks
    assert solves["declared"] * len(blocks) == solves["plain"] * len(undeclared)


def _stacked_system(field, M, Q):
    """x block and r fibers of M x labels in one state, (X1, X2, logJ2,
    logJ1), with the same right side layout as the flow solver's."""
    size = M * Q

    def rhs(t, y):
        x = y[:M].reshape(M, 1)
        r = y[M : M + size].reshape(M, Q, 1)
        out = np.empty_like(y)
        out[:M] = field.b1(x).reshape(-1)
        out[M : M + size] = field.b2(x[:, None, :], r).reshape(-1)
        out[M + size : M + 2 * size] = field.div_b2(x[:, None, :], r).reshape(-1)
        out[M + 2 * size :] = field.div_b1(x)
        return out

    rng = np.random.default_rng(7)
    y0 = np.concatenate([
        rng.uniform(-np.pi, np.pi, M), rng.uniform(0.05, 0.95, size),
        np.zeros(size + M),
    ])
    return rhs, y0


# the ode module reproduces scipy's RK45 step for step; if a scipy release
# changes its RK45, these comparisons are what report it
@pytest.mark.parametrize("tol", [1e-4, 1e-7, TOL])
def test_ode_matches_scipy_rk45_forward(tol):
    rhs, y0 = _stacked_system(modulated_logistic_field(mu=2.0, a=0.95), 7, 5)
    t_eval = np.linspace(0.0, 1.5, 7)
    kwargs = dict(t_eval=t_eval, rtol=tol, atol=tol * 1e-3)
    ref = scipy_solve_ivp(rhs, (0.0, 1.5), y0, method="RK45", **kwargs)
    sol = solve_ivp(rhs, (0.0, 1.5), y0, **kwargs)
    assert ref.success and sol.success
    assert np.array_equal(sol.y, ref.y)
    assert sol.nfev == ref.nfev == 2 + 6 * (sol.nsteps + sol.nrejected)
    assert sol.sol is None
    if tol == TOL:
        # the controller rejects steps here, so that branch is compared too
        assert sol.nrejected > 0


@pytest.mark.parametrize("tol", [1e-4, TOL])
def test_ode_matches_scipy_rk45_backward_with_dense_output(tol):
    rhs, y0 = _stacked_system(modulated_logistic_field(mu=2.0, a=0.95), 6, 4)
    t_span = (1.2, -0.3)
    t_eval = np.array([1.2, 0.7, 0.0, -0.3])
    kwargs = dict(t_eval=t_eval, dense_output=True, rtol=tol, atol=tol * 1e-3)
    ref = scipy_solve_ivp(rhs, t_span, y0, method="RK45", **kwargs)
    sol = solve_ivp(rhs, t_span, y0, **kwargs)
    assert ref.success and sol.success
    assert np.array_equal(sol.y, ref.y)
    assert sol.nfev == ref.nfev
    # step boundaries, the span's ends, interior points and repeats
    ts = ref.sol.ts
    probes = np.concatenate([ts, ts[:-1] + 0.3 * np.diff(ts), [1.2, -0.3, 0.25, 0.25]])
    for t in probes:
        assert np.array_equal(sol.sol(t), ref.sol(t))
    with pytest.raises(ValueError):
        sol.sol(probes)


def test_ode_reports_a_step_size_underflow_like_scipy():
    # y' = y^2 from y = 1 blows up at t = 1
    def rhs(t, y):
        return y * y

    kwargs = dict(t_eval=np.array([2.0]), rtol=1e-6, atol=1e-9)
    ref = scipy_solve_ivp(rhs, (0.0, 2.0), np.ones(3), method="RK45", **kwargs)
    sol = solve_ivp(rhs, (0.0, 2.0), np.ones(3), **kwargs)
    assert not ref.success and not sol.success
    assert sol.message == ref.message
    assert sol.nfev == ref.nfev
    assert sol.y.shape == (3, 0)


def test_ode_rejects_bad_spans_and_nodes():
    def rhs(t, y):
        return -y

    with pytest.raises(ValueError):
        solve_ivp(rhs, (1.0, 1.0), np.ones(2), t_eval=np.array([1.0]))
    with pytest.raises(ValueError):
        solve_ivp(rhs, (0.0, 1.0), np.ones(2), t_eval=np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        solve_ivp(rhs, (1.0, 0.0), np.ones(2), t_eval=np.array([0.0, 1.0]))


def test_ode_fails_without_stepping_on_a_non_finite_initial_slope():
    # a NaN slope gives a NaN first step, which no step-size test catches
    sol = solve_ivp(lambda t, y: np.full_like(y, np.nan), (0.0, 1.0),
                    np.ones(3), t_eval=np.array([1.0]))
    assert not sol.success
    assert "not finite" in sol.message
    assert sol.y.shape == (3, 0) and sol.nsteps == 0


def test_flow_from_raises_on_a_non_finite_field():
    field = dataclasses.replace(
        logistic_field(k=1, mu=0.3), b1=lambda x: np.full_like(x, np.nan)
    )
    with pytest.raises(NumericalFailure, match="x-block"):
        flow_from(field, np.zeros((3, 1)), np.zeros((3, 4, 1)), (0.0, 1.0),
                  np.array([1.0]))


def test_mollified_flow_runs_the_fused_pairs_however_the_callables_are_bound(
    monkeypatch,
):
    # a tracer rebinds b1, b2, div_b1 and div_b2; the flow of a mollified
    # field must run the same code either way, calling each base once per
    # right-hand side and block, and never the rebound attributes
    calls = {"b1": 0, "div_b1": 0, "b2": 0, "div_b2": 0, "rebound": 0}

    def counting(name, fn):
        def call(*pts):
            calls[name] += 1
            return fn(*pts)
        return call

    base = logistic_field(k=1, mu=0.3)
    smooth = mollify_field(dataclasses.replace(
        base, **{name: counting(name, getattr(base, name))
                 for name in ("b1", "div_b1", "b2", "div_b2")},
    ), eps=0.1)
    rebound = dataclasses.replace(
        smooth, **{name: counting("rebound", getattr(smooth, name))
                   for name in ("b1", "div_b1", "b2", "div_b2")},
    )
    nfev = []

    def recording(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr("lagtransport.flow.solve_ivp", recording)
    # 3 x 60 fiber points span three blocks of the 193-point stencil; each
    # label starts its own fiber, so the fibers stack rather than share
    x0 = np.linspace(-1.0, 1.0, 3)[:, None]
    r0 = (np.linspace(0.2, 0.8, 60)[None, :, None]
          + np.array([0.0, 0.01, 0.02])[:, None, None])
    out = {}
    for name, fld in (("bound", smooth), ("rebound", rebound)):
        for key in calls:
            calls[key] = 0
        nfev.clear()
        out[name] = flow_from(fld, x0, r0, (0.0, 0.3), np.array([0.1, 0.3]), TOL)
        nfev_x, nfev_r = nfev
        assert calls["b1"] == calls["div_b1"] == nfev_x
        assert calls["b2"] == calls["div_b2"] == 3 * nfev_r
        assert calls["rebound"] == 0
    for a, b in zip(out["bound"], out["rebound"]):
        assert same_bits(a, b)


def test_flow_from_rejects_mismatched_shapes():
    field = logistic_field(k=1, mu=0.3)
    with pytest.raises(ValueError):
        flow_from(field, np.zeros((3, 1)), np.zeros((2, 4, 1)), (0.0, 1.0),
                  np.array([1.0]))
    with pytest.raises(ValueError):
        flow_from(field, np.zeros((3, 1)), np.zeros((3, 4)), (0.0, 1.0),
                  np.array([1.0]))


# ---------------------------------------------------------------------
# semigroup and inverse
# ---------------------------------------------------------------------


def test_semigroup_restart_property():
    field = logistic_field(k=1, mu=0.3)
    label = np.array([0.6, 0.35])
    direct = integrate_flow(field, label, np.array([0.0, 0.4, 0.8]), tol=TOL)
    restart = integrate_flow(field, direct[1], np.array([0.4, 0.8]), tol=TOL)
    assert np.allclose(restart[-1], direct[-1], atol=1e-9)


def test_inverse_flow_round_trip():
    field = logistic_field(k=2, mu=0.3)
    grid = _grid(nx=9, nr=5, x_bounds=((-2.0, 2.0),))
    xs = grid.x_labels()
    rs = grid.r_labels()
    lab_x, lj1, lab_r, lj2 = inverse_flow_grid(field, xs, rs, t=0.5, tol=TOL)
    # the fiber ignores x: every x point shares one fiber of labels
    assert lab_r.shape == (1, rs.shape[0], 1) and lj2.shape == (1, rs.shape[0])
    # flowing the recovered labels forward must land on the grid points
    for i in range(xs.shape[0]):
        for q in range(rs.shape[0]):
            label = np.concatenate([lab_x[i], lab_r[0, q]])
            fwd = integrate_flow(field, label, np.array([0.0, 0.5]), tol=TOL)
            target = np.concatenate([xs[i], rs[q]])
            assert np.allclose(fwd[-1], target, atol=1e-8)


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


def test_fiber_density_ratio_linear_field_closed_form():
    # rho2 = rho1(t, X1) / rho(t, X) = exp(logJ - logJ1), the weight the
    # source operator carries in label coordinates
    mu = 0.3
    grid = _grid()
    fmap = flow_map(linear_field(lam=0.1, mu=mu, n=1, j=1), grid, times=TIMES, tol=TOL)
    rho2 = np.exp(fmap.logj2)
    for k, t in enumerate(fmap.times):
        assert np.allclose(rho2[k], np.exp(mu * t), rtol=1e-8)


def test_compressibility_bounds_hold_for_catalogue():
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
            ),
        ),
        (
            sobolev_field(alpha=2.0 / 3.0),
            GridSpec(
                x_bounds=((0.5, 2.0),),
                x_counts=(9,),
            ),
        ),
    ]
    for field, grid in cases:
        fmap = flow_map(field, grid, times=times, tol=TOL)
        report = check_compressibility(fmap, field)
        assert report.ok, f"{field.name}: {report.violations}"
        assert report.incompressibility_constant >= 1.0 - 1e-12


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_compressibility_bounds_hold_on_few_nodes(direction):
    # at each node the divergence sup covers the positions of every node,
    # so a coarse node set cannot cut the envelope below a label that
    # sits on it (a rest point with an extremal fiber)
    field = logistic_field(k=1, mu=0.3)
    grid = _grid(nr=9, x_bounds=((-np.pi, np.pi),), r_bounds=((0.1, 0.9),))
    fmap = flow_map(
        field, grid, times=np.linspace(0.0, 0.5, 4), tol=TOL,
        direction=direction,
    )
    report = check_compressibility(fmap, field)
    assert report.ok, report.violations


def test_compressibility_flags_forged_jacobian():
    grid = _grid()
    fmap = flow_map(zero_field(1, 1), grid, times=TIMES, tol=TOL)
    fmap.logj1 = fmap.logj1 + 0.5  # exceeds the zero-divergence envelope
    report = check_compressibility(fmap, zero_field(1, 1))
    assert not report.ok
    assert report.violations


def _per_node_report(fmap, field, slack=1e-6):
    """Reference: the envelope as a loop over the nodes, each evaluating
    the divergences at every node's positions; returns (bound_total,
    violations)."""
    times = fmap.times
    K = times.size
    sup_tot = np.zeros(K)
    sup_x = np.zeros(K)
    for k in range(K):
        dx = np.abs(np.asarray(field.div_b1(fmap.x1), dtype=float))
        sup_x[k] = float(np.max(dx))
        if field.j > 0:
            dr = np.abs(np.asarray(
                field.div_b2(fmap.x1[:, :, None, :], fmap.x2), dtype=float
            ))
            dr = np.broadcast_to(dr, fmap.logj2.shape)
            sup_tot[k] = float(np.max(dx[..., None] + dr))
        else:
            sup_tot[k] = sup_x[k]
    dt = np.diff(times)
    bound_tot = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (sup_tot[:-1] + sup_tot[1:]))]
    )
    bound_x = np.concatenate([[0.0], np.cumsum(0.5 * dt * (sup_x[:-1] + sup_x[1:]))])
    logj = fmap.logj()
    violations = []
    for k in range(K):
        lo, hi = logj[k].min(), logj[k].max()
        if hi > bound_tot[k] + slack or lo < -bound_tot[k] - slack:
            violations.append(("logJ", float(times[k]), float(lo), float(hi),
                               float(bound_tot[k])))
        lo1, hi1 = fmap.logj1[k].min(), fmap.logj1[k].max()
        if hi1 > bound_x[k] + slack or lo1 < -bound_x[k] - slack:
            violations.append(("logJ1", float(times[k]), float(lo1), float(hi1),
                               float(bound_x[k])))
    return bound_tot, violations


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("num", [4, 17])
@pytest.mark.parametrize(
    "field", [logistic_field(k=1, mu=0.3), oscillatory_field(k=2, j=0)],
    ids=["logistic", "oscillatory"],
)
def test_check_compressibility_evaluates_each_divergence_once(
    field, num, direction,
):
    # a field does not depend on time, so the sup over the stored
    # positions is one evaluation of each divergence, and the envelope
    # keeps every bit of the per-node loop
    grid = _grid(nr=5, x_bounds=((-np.pi, np.pi),), r_bounds=((0.1, 0.9),))
    if field.j == 0:
        grid = GridSpec(x_bounds=((-np.pi, np.pi),), x_counts=(9,))
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, num), tol=TOL,
                    direction=direction)
    # a forged log-Jacobian adds violations at some nodes and not others
    forged = dataclasses.replace(fmap, logj1=fmap.logj1 + 0.02 * fmap.times[:, None])
    for fm in (fmap, forged):
        counted, calls = counting_field(field, ("div_b1", "div_b2"))
        report = check_compressibility(fm, counted)
        assert calls == {"div_b1": 1, "div_b2": 1 if field.j else 0}
        bound, violations = _per_node_report(fm, field)
        assert same_bits(report.bound_total, bound)
        assert report.violations == violations
        assert report.ok == (not violations)
    assert report.violations


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_check_compressibility_reads_a_shared_fiber_at_one_x_label(direction):
    # a fiber stored once is not broadcast to every x label before its
    # divergence is taken: one row of points, for the same report
    field = logistic_field(k=1, mu=0.3)
    seen = []

    def div_b2(x, r):
        seen.append(np.broadcast_shapes(x.shape[:-1], r.shape[:-1]))
        return field.div_b2(x, r)

    grid = _grid(nr=5, x_bounds=((-np.pi, np.pi),), r_bounds=((0.1, 0.9),))
    fmap = flow_map(field, grid, times=TIMES, tol=TOL, direction=direction)
    report = check_compressibility(fmap, dataclasses.replace(field, div_b2=div_b2))
    assert seen == [(TIMES.size, 1, grid.num_r)]
    bound, violations = _per_node_report(fmap, field)
    assert same_bits(report.bound_total, bound) and report.violations == violations


# ---------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------


def _gauss_x(center, width):
    def phi(pts):
        return np.exp(-np.sum((pts - center) ** 2, axis=-1) / width**2)

    return phi


def _maps(field, grid, t, t0=0.0):
    """The forward and backward maps of `grid` from t0 to t."""
    times = [t0, t]
    return (
        flow_map(field, grid, times=times, tol=TOL),
        flow_map(field, grid, times=times, tol=TOL, direction="backward"),
    )


def test_change_of_variables_linear_field():
    field = linear_field(lam=0.4, mu=0.3, n=1, j=1)
    grid = GridSpec(
        x_bounds=((-3.0, 3.0),),
        x_counts=(65,),
        r_bounds=((-3.0, 3.0),),
        r_counts=(65,),
    )

    def phi_joint(x, r):
        return _gauss_x(0.0, 0.25)(x) * _gauss_x(0.0, 0.25)(r)

    out = verify_change_of_variables(
        *_maps(field, grid, 0.5), _gauss_x(0.0, 0.25), phi_joint
    )
    assert out["residual_marginal"] < 1e-4
    assert out["residual_joint"] < 1e-4
    # the forward entry is the label-box integral of phi(x e^{lam t}),
    # which substitutes to e^{-lam t} times the Gaussian integral
    exact_marg = np.exp(-0.4 * 0.5) * 0.25 * np.sqrt(np.pi)
    assert abs(out["marginal_forward"] - exact_marg) < 1e-4


def test_change_of_variables_from_a_later_base_time():
    # the linear field is autonomous, so the entries over [0.2, 0.7]
    # equal those over [0, 0.5]; a flow started at 0 would not match
    field = linear_field(lam=0.4, mu=0.3, n=1, j=1)
    grid = GridSpec(
        x_bounds=((-3.0, 3.0),), x_counts=(33,),
        r_bounds=((-3.0, 3.0),), r_counts=(9,),
    )
    phi = _gauss_x(0.0, 0.25)
    ref = verify_change_of_variables(*_maps(field, grid, 0.5), phi)
    out = verify_change_of_variables(*_maps(field, grid, 0.7, t0=0.2), phi)
    for key in ("marginal_forward", "marginal_eulerian"):
        assert abs(out[key] - ref[key]) < 1e-9


def test_change_of_variables_reads_the_last_nodes_of_the_maps():
    # a forward map with more nodes ends on the same positions, so the
    # entries keep their bits; the Eulerian entries are those of the
    # inverse flow's labels and log-Jacobians, whose signs the backward
    # map flips
    field = logistic_field(k=2, mu=0.3)
    grid = _grid(nx=17, nr=9, x_bounds=((-np.pi, np.pi),), r_bounds=((0.05, 0.95),))
    phi_x, phi_r = _gauss_x(0.3, 0.6), _gauss_x(0.5, 0.15)

    def phi_joint(x, r):
        return phi_x(x) * phi_r(r)

    fwd, bwd = _maps(field, grid, 0.5)
    many = flow_map(field, grid, times=np.linspace(0.0, 0.5, 9), tol=TOL)
    out = verify_change_of_variables(fwd, bwd, phi_x, phi_joint)
    assert out == verify_change_of_variables(many, bwd, phi_x, phi_joint)
    lab_x, lj1, lab_r, lj2 = inverse_flow_grid(
        field, grid.x_labels(), grid.r_labels(), 0.5, 0.0, TOL
    )
    # a label pulled back out of the box carries no density
    inside = (np.abs(lab_x[:, 0]) <= np.pi)[:, None] & (
        (lab_r[..., 0] >= 0.05) & (lab_r[..., 0] <= 0.95)
    )
    assert inside.any() and not inside.all()
    wx, wr = grid.x_weights(), grid.r_weights()
    labels = grid.joint_labels()
    marg = float(np.sum(wx * phi_x(grid.x_labels()) * np.exp(-lj1)))
    joint = float(np.sum(
        wx[:, None] * wr[None, :] * phi_joint(labels[..., :1], labels[..., 1:])
        * np.where(inside, np.exp(-(lj1[:, None] + lj2)), 0.0)
    ))
    assert out["marginal_eulerian"] == marg
    assert out["joint_eulerian"] == joint


def test_change_of_variables_rejects_maps_that_do_not_match():
    field = linear_field(lam=0.4, mu=0.3, n=1, j=1)
    grid = _grid()
    fwd, bwd = _maps(field, grid, 0.5)
    for pair in [
        (fwd, _maps(field, _grid(nx=5), 0.5)[1]),  # another grid
        (fwd, _maps(field, grid, 0.4)[1]),  # another last node
        (_maps(field, grid, 0.5, t0=0.1)[0], bwd),  # another first node
    ]:
        with pytest.raises(ValueError, match="one grid and the same first and last"):
            verify_change_of_variables(*pair, _gauss_x(0.0, 0.25))


# ---------------------------------------------------------------------
# export
# ---------------------------------------------------------------------


def _flow_map_csv_by_rows(fmap):
    """Reference: the row-at-a-time writer flow_map_to_csv used to be."""
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
    xs = fmap.grid.x_labels()
    rs = fmap.grid.r_labels()
    logj = fmap.logj()
    # a shared fiber's one row stands for every x label
    x2 = np.broadcast_to(fmap.x2, logj.shape + (j,))
    lines = [",".join(cols)]
    for i_x in range(fmap.num_x):
        for i_r in range(fmap.num_r):
            lab = np.concatenate([xs[i_x], rs[i_r]])
            for k, t in enumerate(fmap.times):
                pos = np.concatenate([fmap.x1[k, i_x], x2[k, i_x, i_r]])
                row = (
                    [f"{v:.17g}" for v in lab]
                    + [f"{t:.17g}"]
                    + [f"{v:.17g}" for v in pos]
                    + [
                        f"{fmap.logj1[k, i_x]:.17g}",
                        f"{logj[k, i_x, i_r]:.17g}",
                    ]
                )
                lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _subnormal(k):
    return np.nextafter(0.0, 1.0) * k


@pytest.mark.parametrize(
    "table",
    [
        np.array([[0.0, -0.0, np.inf, -np.inf, np.nan]]),
        np.array([[_subnormal(1), -_subnormal(3)], [2.2250738585072014e-308 / 3,
                   1e-300], [1.0 / 3.0, -2.5e17], [np.pi, 0.1]]),
        np.arange(30.0).reshape(10, 3) / 7.0 - 1.0,
        np.zeros((0, 4)),
    ],
    ids=["specials", "subnormals", "blocks", "no_rows"],
)
def test_write_csv_matches_savetxt_byte_for_byte(table, tmp_path, monkeypatch):
    # four-row blocks make the ten-row table cross block edges
    monkeypatch.setattr("lagtransport.flow._CSV_BLOCK_ROWS", 4)
    cols = [f"c{i}" for i in range(table.shape[1])]
    path, ref = tmp_path / "table.csv", tmp_path / "ref.csv"
    write_csv(path, cols, table)
    np.savetxt(ref, table, fmt="%.17g", delimiter=",", header=",".join(cols),
               comments="")
    assert path.read_bytes() == ref.read_bytes()


def test_flow_map_csv_round_trip(tmp_path):
    grid = _grid(nx=3, nr=3)
    fmap = flow_map(linear_field(lam=0.2, mu=0.1, n=1, j=1), grid, times=TIMES, tol=TOL)
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
    # the table writer emits the same bytes as a row-by-row f-string
    # writer, on this fiber grid, for a backward map, and on a j = 0 grid
    assert path.read_text() == _flow_map_csv_by_rows(fmap)
    back = flow_map(
        logistic_field(k=1, mu=0.3), grid, times=TIMES, tol=TOL,
        direction="backward",
    )
    flow_map_to_csv(back, path)
    assert path.read_text() == _flow_map_csv_by_rows(back)
    grid0 = GridSpec(x_bounds=((-1.0, 1.0), (0.5, 2.0)), x_counts=(4, 3))
    fmap0 = flow_map(swirl_field(omega=0.7), grid0, times=TIMES, tol=TOL)
    flow_map_to_csv(fmap0, path)
    assert path.read_text() == _flow_map_csv_by_rows(fmap0)
