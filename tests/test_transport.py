"""Source operator, Picard iteration, slab selection, and continuation."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import RegularGridInterpolator

from lagtransport import transport
from lagtransport.fields import (
    Kernel,
    constant_kernel,
    fragmentation_kernel,
    kernel_slab_rate,
    linear_field,
    logistic_field,
    mollify_field,
    separable_kernel,
    zero_field,
)
from lagtransport.flow import NumericalFailure, flow_map
from lagtransport.grid import (
    GridSpec,
    suffix_integrals,
    suffix_weight_matrix,
    sup_in_time,
)
from lagtransport.oracle import separable_solve
from lagtransport.transport import (
    _cumulative_trapezoid,
    _kernel_matrices,
    _multilinear,
    EulerianSlice,
    PicardConvergenceError,
    SolverConfig,
    apply_A,
    check_horizon,
    choose_slab,
    continue_solution,
    eulerian_reconstruct,
    fixed_point_residual,
    make_initial,
    picard_solve,
    slice_to_csv,
)

from conftest import Counting, counting_field, modulated_logistic_field

SEPARABLE_TERMS = ((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))


def _fiber_grid(nr=33, nx=2):
    return GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(nx,),
        r_bounds=((0.0, 1.0),),
        r_counts=(nr,),
    )


def _slab(field, grid, duration, nodes):
    """The flow map of the slab [0, duration] on `nodes` equal steps."""
    return flow_map(field, grid, np.linspace(0.0, duration, nodes))


def _fiber_datum(grid, datum):
    xs = grid.x_labels()
    rs = grid.r_labels()
    return datum(
        np.repeat(xs[:, None, :], grid.num_r, axis=1),
        np.broadcast_to(rs[None], (grid.num_x, grid.num_r, grid.j)),
    )


# ---------------------------------------------------------------------
# the source operator A
# ---------------------------------------------------------------------


def test_apply_A_zero_kernel_returns_datum():
    grid = _fiber_grid()
    fmap = flow_map(
        zero_field(1, 1), grid, times=np.array([0.0, 0.5]), tol=1e-10
    )
    rng = np.random.default_rng(1)
    u0 = rng.uniform(0.0, 1.0, size=(grid.num_x, grid.num_r))
    values = rng.standard_normal((fmap.times.size, grid.num_x, grid.num_r))
    out = apply_A(values, fmap, None, u0)
    for k in range(fmap.times.size):
        assert np.array_equal(out[k], u0)


def test_apply_A_is_affine_in_the_state():
    # A(u) - u0 is linear: A(u + v) - u0 = (A(u) - u0) + (A(v) - u0)
    grid = _fiber_grid(nr=17)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    fmap = flow_map(
        logistic_field(k=1, mu=0.3), grid,
        times=np.linspace(0.0, 0.5, 9), tol=1e-10,
    )
    rng = np.random.default_rng(2)
    shape = (fmap.times.size, grid.num_x, grid.num_r)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    u0 = np.zeros((grid.num_x, grid.num_r))
    a_u = apply_A(u, fmap, kern, u0)
    a_v = apply_A(v, fmap, kern, u0)
    a_uv = apply_A(u + v, fmap, kern, u0)
    assert np.allclose(a_uv, a_u + a_v, atol=1e-12)


def test_apply_A_constant_kernel_quadrature():
    # with b = 0, gamma = c, and a state constant in time, the operator
    # is u0 + c t int u dr_tilde, exactly representable by the quadrature
    grid = _fiber_grid(nr=33)
    kern = constant_kernel(c=0.7)
    times = np.linspace(0.0, 0.5, 5)
    fmap = flow_map(zero_field(1, 1), grid, times=times, tol=1e-10)
    rng = np.random.default_rng(5)
    u_slice = rng.uniform(0.5, 1.5, size=(grid.num_x, grid.num_r))
    values = np.broadcast_to(u_slice[None], (times.size,) + u_slice.shape)
    u0 = np.zeros((grid.num_x, grid.num_r))
    out = apply_A(values, fmap, kern, u0)
    wr = grid.r_weights()
    fiber_integral = np.sum(u_slice * wr[None, :], axis=1)  # (Nx,)
    for k, t in enumerate(times):
        expected = 0.7 * t * fiber_integral[:, None]
        assert np.allclose(out[k], expected, atol=1e-13)


def test_apply_A_rejects_a_kernel_on_a_grid_without_a_fiber():
    grid = GridSpec(x_bounds=((0.0, 1.0),), x_counts=(3,))  # j = 0
    fmap = flow_map(zero_field(1, 0), grid, times=np.array([0.0, 0.5]))
    values = np.ones((2, grid.num_x, grid.num_r))
    u0 = np.ones((grid.num_x, grid.num_r))
    for kern in (constant_kernel(), separable_kernel(), fragmentation_kernel()):
        with pytest.raises(ValueError, match="j = 1"):
            apply_A(values, fmap, kern, u0)


def _triangular_grid():
    # the geometric fiber keeps the fragmentation kernel's 1/r~ finite
    return GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(3,),
        r_bounds=((1e-3, 1.0),), r_counts=(33,), r_spacing="geometric",
    )


def _dense_apply_A(values, fmap, kern, u0):
    """apply_A from a dense reference operator: on each node, gamma on
    the moved fiber times the tail weights of `suffix_weight_matrix`
    (triangular) or the fiber weights."""
    grid = fmap.grid
    if kern.triangular:
        weights = suffix_weight_matrix(grid.r_axes()[0])
    else:
        weights = grid.r_weights()
    weighted = np.exp(fmap.logj2) * values
    inner = np.empty_like(weighted)
    for k, pos in enumerate(fmap.x2):
        dense = kern.gamma(pos[:, :, None, :], pos[:, None, :, :]) * weights
        inner[k] = (dense @ weighted[k][:, :, None])[:, :, 0]
    return u0[None] + cumulative_trapezoid(inner, fmap.times, axis=0, initial=0.0)


# "dense" names a kernel supported on the whole square, "triangular" one
# supported on r <= r~; every kernel is applied through its factors
@pytest.mark.parametrize(
    "field, kern, slices",
    [
        (zero_field(1, 1), fragmentation_kernel(scale=2.0), 1),
        (logistic_field(k=1, mu=0.3), constant_kernel(c=0.7), 9),
        (zero_field(1, 1), separable_kernel(terms=SEPARABLE_TERMS), 1),
        (logistic_field(k=1, mu=0.3), separable_kernel(terms=SEPARABLE_TERMS), 9),
    ],
    ids=["static_dense", "time_dependent_dense", "static_factored",
         "time_dependent_factored"],
)
def test_apply_A_is_bit_identical_to_per_node_operators(field, kern, slices):
    # a static operator stores one slice, a moving flow one per node, and
    # broadcasting the stored slices must round every entry as the same
    # contraction of per-node copies did; both match a dense reference
    grid = _triangular_grid()
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, 9), tol=1e-10)
    ops = _kernel_matrices(fmap, kern)
    assert ops.shape[:2] == (2, slices)
    rng = np.random.default_rng(13)
    values = rng.standard_normal((fmap.times.size, grid.num_x, grid.num_r))
    u0 = rng.standard_normal((grid.num_x, grid.num_r))
    weighted = np.exp(fmap.logj2) * values
    per_node = np.arange(fmap.times.size) % slices
    a, c = ops[:, per_node]
    if kern.triangular:
        rows = c * weighted[:, :, None, :]
        tails = suffix_integrals(grid.r_axes()[0], rows)
        inner = np.einsum("kilm,kilm->kim", a, tails)
    else:
        mom = np.einsum("kilq,kiq->kil", c, weighted)
        inner = np.einsum("kilm,kil->kim", a, mom)
    expected = u0[None] + _cumulative_trapezoid(
        inner, fmap.times, np.empty(inner.shape))
    assert np.array_equal(apply_A(values, fmap, kern, u0), expected)
    work = transport._Workspace(fmap, kern)
    assert np.array_equal(apply_A(values, fmap, kern, u0, _work=work), expected)
    ref = _dense_apply_A(values, fmap, kern, u0)
    assert np.max(np.abs(expected - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "field", [zero_field(1, 1), logistic_field(k=1, mu=0.3)],
    ids=["static", "moving"],
)
def test_triangular_operator_is_gamma_times_suffix_weights(field):
    # each stored slice, expanded, is the kernel on the moved fiber times
    # the node-aligned tail weights, which are zero below the diagonal:
    # the kernel vanishes wherever r > r~
    grid = _triangular_grid()
    kern = fragmentation_kernel(scale=2.0)
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, 9), tol=1e-10)
    ops = _kernel_matrices(fmap, kern)
    suffix = suffix_weight_matrix(grid.r_axes()[0])
    assert kern.triangular
    assert np.all(np.tril(suffix, -1) == 0.0)
    for k, (a, c) in enumerate(ops.swapaxes(0, 1)):
        pos = fmap.x2[k]
        expected = kern.gamma(pos[:, :, None, :], pos[:, None, :, :]) * suffix
        rebuilt = np.einsum("ilm,ilq->imq", a, c) * suffix
        assert np.array_equal(rebuilt, expected)


def _triangular_gauss_kernel():
    # rank 2 and finite at r = 0, so it runs on a uniform fiber from 0
    return Kernel("triangular_gauss", separable_kernel(SEPARABLE_TERMS).factors,
                  triangular=True)


@pytest.mark.parametrize("nr", [2, 3, 8, 9, 33, 34])
@pytest.mark.parametrize(
    "spacing, kern",
    [("geometric", fragmentation_kernel(scale=2.0)),
     ("geometric", _triangular_gauss_kernel()),
     ("uniform", _triangular_gauss_kernel())],
    ids=["geometric-fragmentation", "geometric-gauss", "uniform-gauss"],
)
@pytest.mark.parametrize(
    "field", [zero_field(1, 1), logistic_field(k=1, mu=0.3)],
    ids=["static", "moving"],
)
def test_triangular_apply_A_matches_dense_suffix_reference(field, spacing, kern, nr):
    # the tails of 2 and 3 points, and the trapezoid patch of an even
    # count, are the quadrature's special cases
    lo = 1e-3 if spacing == "geometric" else 0.0
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(3,),
        r_bounds=((lo, 1.0),), r_counts=(nr,), r_spacing=spacing,
    )
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, 9), tol=1e-10)
    rng = np.random.default_rng(nr)
    values = rng.standard_normal((fmap.times.size, grid.num_x, grid.num_r))
    u0 = rng.standard_normal((grid.num_x, grid.num_r))
    ref = _dense_apply_A(values, fmap, kern, u0)
    out = apply_A(values, fmap, kern, u0)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class _CountingKernel:
    """A kernel whose gamma and factors count their calls."""

    def __init__(self, kern):
        self.gamma = Counting(kern.gamma)
        self.factors = tuple(tuple(Counting(f) for f in fs) for fs in kern.factors)
        self.triangular = kern.triangular

    def factor_calls(self):
        return [f.calls for fs in self.factors for f in fs]


@pytest.mark.parametrize(
    "field, slices",
    [(zero_field(1, 1), 1), (logistic_field(k=1, mu=0.3), 9)],
    ids=["static", "moving"],
)
@pytest.mark.parametrize(
    "kern", [constant_kernel(c=0.7), fragmentation_kernel(scale=2.0)],
    ids=["dense", "triangular"],
)
def test_operator_evaluates_gamma_once_per_stored_slice(field, slices, kern):
    # the kernel depends on neither t nor x: one call of each factor
    # covers every x label of a slice, a static flow stores a single
    # slice, and gamma itself is never called
    grid = _triangular_grid()
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, 9), tol=1e-10)
    counting = _CountingKernel(kern)
    work = transport._Workspace(fmap, counting)
    ops = work.ops
    assert ops.shape[:2] == (2, slices)
    assert counting.factor_calls() == [slices, slices]
    assert counting.gamma.calls == 0
    plain = _kernel_matrices(fmap, kern)
    assert np.array_equal(ops, plain)
    rng = np.random.default_rng(17)
    values = rng.standard_normal((fmap.times.size, grid.num_x, grid.num_r))
    u0 = np.zeros((grid.num_x, grid.num_r))
    ref = _dense_apply_A(values, fmap, kern, u0)
    out = apply_A(values, fmap, counting, u0, _work=work)
    assert counting.factor_calls() == [slices, slices]
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "kern", [constant_kernel(c=0.7), fragmentation_kernel(scale=2.0)],
    ids=["dense", "triangular"],
)
def test_operator_builds_on_a_moving_flow_without_slice_temporaries(kern):
    # the operator is its factors on the moved fibers, evaluated one
    # stored slice at a time: the whole build, operator included, holds
    # less than one Nr x Nr slice, which a dense operator would need per
    # stored (t, x) fiber.  The fiber drift reads x, so every x label
    # has a fiber of its own
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(16,),
        r_bounds=((1e-3, 1.0),), r_counts=(129,), r_spacing="geometric",
    )
    fmap = flow_map(modulated_logistic_field(mu=0.3), grid,
                    times=np.linspace(0.0, 0.5, 3), tol=1e-10)
    grid.r_weights()  # cached on the grid before the trace
    tracemalloc.start()
    try:
        ops = _kernel_matrices(fmap, kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 129 * 129 * 8
    assert ops.shape == (2, 3, 16, 1, 129)
    # the a and c tables, 8 bytes an entry: what the benchmark reports
    assert ops.nbytes == 2 * (3 * 16 * 1 * 129) * 8


@pytest.mark.parametrize(
    "field, rows",
    [
        (logistic_field(k=1, mu=0.3), 1),
        (zero_field(1, 1), 1),
        # b2 reads x: every x label moves a fiber of its own
        (modulated_logistic_field(mu=0.3), 33),
    ],
    ids=["logistic", "zero", "modulated_logistic"],
)
def test_a_shared_fiber_is_stored_once(field, rows):
    # X(t, x, r) = (X1(t, x), X2(t, r)) when b2 ignores x: the flow map,
    # rho2 and the operator each hold that one fiber row, and together
    # take fewer bytes than one (K, Nx, Nr) array
    grid = GridSpec(x_bounds=((-np.pi, np.pi),), x_counts=(33,),
                    r_bounds=((0.0, 1.0),), r_counts=(257,))
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, 17), tol=1e-10)
    work = transport._Workspace(fmap, separable_kernel(terms=SEPARABLE_TERMS))
    fiber = [fmap.x2, fmap.logj2, work.rho2, *work.ops]
    assert [a.shape[1] for a in fiber] == [rows] * 5
    assert work.u.shape == (17, 33, 257)
    if rows == 1:
        assert sum(a.nbytes for a in fiber) < work.u.nbytes


class _Planned(Exception):
    """Raised by a spy on `choose_slab` to stop a run once it is planned."""


@pytest.mark.parametrize(
    "field, points",
    [
        (logistic_field(k=1, mu=0.3), 7),
        (mollify_field(logistic_field(k=1, mu=0.3), 0.05), 7),
        # b2 reads x: every x label's fiber counts
        (modulated_logistic_field(mu=0.3), 9 * 7),
    ],
    ids=["logistic", "mollified_logistic", "modulated_logistic"],
)
def test_the_slab_budget_reads_a_shared_fiber_once(monkeypatch, field, points):
    # the sup of |div_r b2| over one fiber row is the sup over the label
    # grid, bit for bit, when b2 ignores x: the plan does not change
    grid = GridSpec(x_bounds=((-np.pi, np.pi),), x_counts=(9,),
                    r_bounds=((0.0, 1.0),), r_counts=(7,))
    labels = grid.joint_labels()
    full = np.max(np.abs(field.div_b2(labels[..., :1], labels[..., 1:])))
    seen, plans = [], []

    def div_b2(x, r, _real=field.div_b2):
        seen.append(np.broadcast_shapes(x.shape[:-1], r.shape[:-1]))
        return _real(x, r)

    def planning(*args, _real=transport.choose_slab):
        plans.append((args, _real(*args)))
        raise _Planned

    monkeypatch.setattr(transport, "choose_slab", planning)
    kern = separable_kernel()
    with pytest.raises(_Planned):
        continue_solution(
            make_initial("gaussian"), dataclasses.replace(field, div_b2=div_b2),
            kern, SolverConfig(), grid, 1.6,
        )
    assert [int(np.prod(shape)) for shape in seen] == [points]
    ((_, div_sup, _), plan), = plans
    assert div_sup.hex() == float(full).hex() and div_sup > 0
    assert plan == choose_slab(kernel_slab_rate(kern, grid, 2.0), float(full), 1.6)


def _raising_gamma(r, rt):
    raise AssertionError("gamma evaluated on the factored path")


@pytest.mark.parametrize(
    "field",
    [logistic_field(k=1, mu=0.3), zero_field(1, 1)],
    ids=["logistic", "zero_drift"],
)
def test_factored_operator_matches_dense(field):
    # the logistic flow moves the fibers in time (one operator slice per
    # node); the zero drift keeps them fixed (a single stored slice)
    grid = _fiber_grid(nr=33, nx=3)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    fmap = flow_map(field, grid, times=np.linspace(0.0, 0.5, 9), tol=1e-10)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((fmap.times.size, grid.num_x, grid.num_r))
    u0 = rng.standard_normal((grid.num_x, grid.num_r))
    ref = _dense_apply_A(values, fmap, kern, u0)
    out = apply_A(values, fmap, kern, u0)
    assert np.max(np.abs(out - ref)) < 1e-12
    # the factored path never evaluates gamma
    blind = Kernel("separable", kern.factors)
    blind.gamma = _raising_gamma
    assert np.array_equal(apply_A(values, fmap, blind, u0), out)


@pytest.mark.parametrize(
    "field",
    [logistic_field(k=1, mu=0.3), zero_field(1, 1)],
    ids=["logistic", "zero_drift"],
)
@pytest.mark.parametrize("factored", [True, False], ids=["factored", "dense"])
def test_picard_residual_matches_fixed_point_residual(field, factored):
    # the summary's residual is the library's fixed-point residual, and
    # within 1e-14 of one taken against a dense reference operator
    grid = _fiber_grid(nr=33, nx=3)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.5, x_width=0.4))
    config = SolverConfig(picard_tol=1e-10, nodes_per_slab=9)
    state, summary = picard_solve(u0, _slab(field, grid, 0.25, 9), kern, config)
    if factored:
        residual = fixed_point_residual(state, kern, config)
    else:
        image = _dense_apply_A(state.values, state.fmap, kern, state.u0)
        residual = sup_in_time(state.values - image, grid, config.norm_spec())
    assert abs(summary["residual"] - residual) < 1e-14


def test_separable_solve_requires_declared_factors():
    # the oracle integrates the declared factors over the whole square,
    # so a triangular kernel, factored on its support only, is refused
    grid = _fiber_grid(nr=9)
    u0 = np.ones((grid.num_x, grid.num_r))
    times = np.array([0.0, 0.1])
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    assert len(kern.factors[0]) == len(kern.factors[1]) == 2
    assert separable_solve(kern, u0, grid, times).shape == (2,) + u0.shape
    for triangular in (fragmentation_kernel(scale=2.0), _triangular_gauss_kernel()):
        with pytest.raises(ValueError, match="is triangular"):
            separable_solve(triangular, u0, grid, times)


def test_separable_solve_matches_a_constant_kernel_solve():
    # the constant kernel is rank 1 (a = c, c_1 = 1), so the oracle
    # accepts it; with b = 0 both slabs of the chained solve match it at
    # criterion 7's tolerance (the trapezoid error grows as dt^2 and
    # carries over the slab boundary)
    grid = _fiber_grid(nr=33, nx=3)
    kern = constant_kernel(c=0.7)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.5, x_width=0.3))
    args = (
        u0, zero_field(1, 1), kern,
        SolverConfig(picard_tol=1e-10, nodes_per_slab=129), grid, 1.0,
    )
    times = continue_solution(*args).mass_times
    # under the zero field a slice is u~ at its node, so slices at every
    # node compare every slab node with the oracle
    sol = continue_solution(*args, slice_times=times)
    assert len(sol.summaries) == 2
    assert times.size == 2 * 129 - 1
    ref = separable_solve(kern, u0, grid, times)
    for t, ref_t in zip(times, ref):
        assert np.max(np.abs(sol.slices[t].values - ref_t)) < 1e-6


def test_fixed_point_residual_vanishes_for_true_fixed_point():
    grid = _fiber_grid(nr=33)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.5, x_width=0.4))
    config = SolverConfig(picard_tol=1e-12, nodes_per_slab=17)
    state, _ = picard_solve(u0, _slab(zero_field(1, 1), grid, 0.5, 17), kern, config)
    assert fixed_point_residual(state, kern, config) < 1e-11


# ---------------------------------------------------------------------
# slab selection
# ---------------------------------------------------------------------


def test_choose_slab_without_kernel_takes_everything():
    assert choose_slab(None, 0.0, 3.0) == (3.0, 1)


def _slab_budget(rate, div_sup, length):
    return rate * length * np.exp(div_sup * length)


@pytest.mark.parametrize(
    "div_sup, horizon, count", [(0.0, 1.0, 2), (1.0, 3.0, 7), (0.0, 0.7, 1)],
)
def test_choose_slab_cuts_the_horizon_into_equal_slabs(div_sup, horizon, count):
    # constant kernel on the unit fiber has rate c; the budget of a slab
    # of length T is c T exp(div_sup T).  c = 0.7 over T = 1 needs two
    # slabs of 0.5 for a 0.5 target; one slab fewer breaks the budget
    rate = kernel_slab_rate(constant_kernel(c=0.7), _fiber_grid(), 2.0)
    assert abs(rate - 0.7) < 1e-10
    length, got = choose_slab(rate, div_sup, horizon)
    assert got == count
    assert length == horizon / count
    assert _slab_budget(rate, div_sup, length) <= 0.5
    if count > 1:
        assert _slab_budget(rate, div_sup, horizon / (count - 1)) > 0.5


def test_choose_slab_raises_when_budget_unreachable():
    # rate 1e13 over T = 1 needs 1e13 slabs, more than 2**16; a NaN rate
    # or divergence sup meets no budget at any slab length
    rate = kernel_slab_rate(constant_kernel(c=1e13), _fiber_grid(), 2.0)
    for args, shown in (((rate, 0.0), "rate 1e+13, divergence sup 0"),
                        ((np.nan, 0.0), "rate nan, divergence sup 0"),
                        ((0.7, np.nan), "rate 0.7, divergence sup nan")):
        with pytest.raises(NumericalFailure) as err:
            choose_slab(*args, 1.0)
        assert f"kernel budget ({shown}) exceeds 0.5" in str(err.value)
        assert "more than 2**16 slabs" in str(err.value)


# ---------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------


def test_picard_matches_separable_oracle():
    grid = _fiber_grid(nr=33, nx=3)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.5, x_width=0.3))
    state, summary = picard_solve(
        u0, _slab(zero_field(1, 1), grid, 0.25, 33), kern,
        SolverConfig(picard_tol=1e-10),
    )
    ref = separable_solve(kern, state.u0, grid, state.times)
    assert np.max(np.abs(state.values - ref)) < 1e-6
    assert summary["residual"] <= 2e-10
    assert all(r < 0.6 for r in summary["contraction_ratios"])


def test_picard_diverges_gracefully_when_budget_too_small():
    # c T = 100 on a unit slab: the Picard differences (c T)^n / n! still
    # grow after the 80-iteration cap, yet stay finite
    grid = _fiber_grid(nr=17)
    kern = constant_kernel(c=100.0)
    u0 = np.ones((grid.num_x, grid.num_r))
    with pytest.raises(PicardConvergenceError, match="in 80 iterations") as err:
        picard_solve(
            u0, _slab(zero_field(1, 1), grid, 1.0, 17), kern,
            SolverConfig(picard_tol=1e-8),
        )
    assert len(err.value.diffs) == 80
    assert np.all(np.isfinite(err.value.diffs))


def test_picard_stops_at_first_non_finite_difference():
    grid = _fiber_grid(nr=17)
    u0 = np.ones((grid.num_x, grid.num_r))
    u0[0, 3] = np.nan
    with pytest.raises(PicardConvergenceError) as err:
        picard_solve(
            u0, _slab(zero_field(1, 1), grid, 0.5, 17), separable_kernel(),
            SolverConfig(),
        )
    assert len(err.value.diffs) == 1
    assert not np.isfinite(err.value.diffs[0])


@pytest.mark.parametrize(
    "settings",
    [
        {"max_iters": 0},
        {"max_iters": 2.5},
        {"nodes_per_slab": 1},
        {"slab_time_samples": 1},
        {"max_halvings": -1},
        {"picard_tol": -1.0},
        {"picard_tol": float("nan")},
        {"flow_tol": 0.0},
        {"slab_target": 0.0},
        {"p": 0.5},
        {"picard_tol": float("inf")},
        {"flow_tol": float("inf")},
        {"slab_target": float("inf")},
        {"exit_fraction_limit": -1.0},
        {"exit_fraction_limit": 1.5},
        {"exit_fraction_limit": float("nan")},
    ],
)
def test_solver_config_rejects_invalid_settings(settings):
    # the single-valued settings are constants in transport now, so
    # SolverConfig rejects them as unknown fields, whatever their value
    constants = {
        "slab_target", "max_iters", "flow_tol", "exit_fraction_limit",
        "max_halvings",
    }
    with pytest.raises(TypeError if constants & set(settings) else ValueError):
        SolverConfig(**settings)


def _picard_on_fresh_arrays(u0, fmap, kern, config):
    """Reference: Picard iteration whose every A(u) and u_next - u is a
    new array; returns the last iterate, differences, ratios, residual."""
    spec = config.norm_spec()
    u = np.repeat(u0[None], fmap.times.size, axis=0)
    diffs = []
    for _ in range(80):
        u_next = apply_A(u, fmap, kern, u0)
        diffs.append(sup_in_time(u_next - u, fmap.grid, spec))
        u = u_next
        if diffs[-1] < config.picard_tol:
            break
    ratios = [
        diffs[i + 1] / diffs[i]
        for i in range(len(diffs) - 1)
        if diffs[i] > max(config.picard_tol * 1e-3, 1e-15)
    ]
    residual = sup_in_time(u - apply_A(u, fmap, kern, u0), fmap.grid, spec)
    return u, diffs, ratios, residual


@pytest.mark.parametrize(
    "field, kern, grid, settings",
    [
        (zero_field(1, 1), fragmentation_kernel(scale=2.0), _triangular_grid(), {}),
        (logistic_field(k=1, mu=0.3), separable_kernel(terms=SEPARABLE_TERMS),
         _fiber_grid(nr=33, nx=5), {}),
        (modulated_logistic_field(), separable_kernel(terms=SEPARABLE_TERMS),
         _fiber_grid(nr=33, nx=5), {}),
        (logistic_field(k=1, mu=0.3), separable_kernel(terms=SEPARABLE_TERMS),
         _fiber_grid(nr=33, nx=5), {"p": 3.0, "window": ((0.2, 0.8), (0.1, 0.9))}),
        (logistic_field(k=1, mu=0.3), None, _fiber_grid(nr=33, nx=5),
         {"p": np.inf}),
    ],
    ids=["fragmentation_zero_field", "separable_logistic",
         "separable_modulated_logistic", "window_p3", "no_kernel_p_inf"],
)
def test_picard_in_a_workspace_is_bit_identical_to_fresh_arrays(
    field, kern, grid, settings,
):
    # the workspace loop makes the same numpy operations in the same
    # order, and a reused workspace carries nothing from one solve over
    fmap = _slab(field, grid, 0.4, 9)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.4, r_center=0.45))
    config = SolverConfig(picard_tol=1e-11, nodes_per_slab=9, **settings)
    values, diffs, ratios, residual = _picard_on_fresh_arrays(u0, fmap, kern, config)
    assert len(diffs) >= (1 if kern is None else 5)
    work = transport._Workspace(fmap, kern)
    for _ in range(2):
        state, summary = picard_solve(u0, fmap, kern, config, _work=work)
        assert state.values is work.u
        assert np.array_equal(state.values, values)
        assert summary["differences"] == diffs
        assert summary["contraction_ratios"] == ratios
        assert summary["residual"] == residual
    assert fixed_point_residual(state, kern, config) == residual
    _, summary = picard_solve(u0, fmap, kern, config)
    assert summary["residual"] == residual


def test_picard_allocates_no_slab_sized_array_per_iteration():
    # with the operator and the workspace built, a solve's traced peak is
    # below one (K, Nx, Nr) array at any iteration count: a temporary of
    # that size, even one freed within its iteration, would exceed it
    grid = _fiber_grid(nr=129, nx=16)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    fmap = _slab(logistic_field(k=1, mu=0.3), grid, 0.4, 17)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.4))
    work = transport._Workspace(fmap, kern)
    for p in (2.0, np.inf):  # the sup norm's window max is taken in place too
        configs = [SolverConfig(p=p, picard_tol=tol, nodes_per_slab=17)
                   for tol in (1e-6, 1e-12)]
        picard_solve(u0, fmap, kern, configs[0], _work=work)  # warm caches
        peaks, iterations = [], []
        for config in configs:
            tracemalloc.start()
            try:
                _, summary = picard_solve(u0, fmap, kern, config, _work=work)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            iterations.append(summary["iterations"])
        assert iterations[1] > iterations[0]
        assert abs(peaks[1] - peaks[0]) < work.u.nbytes
        assert max(peaks) < work.u.nbytes


def test_picard_stops_on_a_nan_past_the_first_node():
    # A(u) is u0 at the first node whatever the kernel, so a NaN kernel
    # shows at the later nodes only, and must still stop the iteration
    grid = _fiber_grid(nr=9, nx=3)
    nan = Kernel("nan", ((lambda r: np.full(r.shape, np.nan),), (np.ones_like,)))
    with pytest.raises(PicardConvergenceError,
                       match="non-finite difference at iteration 1"):
        picard_solve(np.ones((grid.num_x, grid.num_r)),
                     _slab(zero_field(1, 1), grid, 0.2, 5), nan, SolverConfig())


def test_picard_rejects_wrong_datum_shape():
    grid = _fiber_grid()
    with pytest.raises(ValueError):
        picard_solve(
            np.ones((3, 3)), _slab(zero_field(1, 1), grid, 0.5, 17), None,
            SolverConfig(),
        )


# ---------------------------------------------------------------------
# Eulerian reconstruction
# ---------------------------------------------------------------------


def test_reconstruct_zero_field_returns_lagrangian_slice():
    grid = _fiber_grid(nr=17)
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.5, x_width=0.4))
    config = SolverConfig(picard_tol=1e-10, nodes_per_slab=9)
    state, _ = picard_solve(u0, _slab(zero_field(1, 1), grid, 0.5, 9), kern, config)
    slc = eulerian_reconstruct(state, zero_field(1, 1), 0.5)
    assert slc.exit_fraction == 0.0
    assert np.allclose(slc.values, state.values[-1], atol=1e-12)


def test_reconstruct_linear_field_matches_transport():
    # u0 transported without source along b = (lam x, mu r):
    # u(t, y, s) = u0(y e^{-lam t}, s e^{-mu t})
    lam, mu = 0.4, 0.3
    field = linear_field(lam=lam, mu=mu, n=1, j=1)
    grid = GridSpec(
        x_bounds=((-2.0, 2.0),),
        x_counts=(65,),
        r_bounds=((0.1, 0.9),),
        r_counts=(33,),
    )
    datum = make_initial(
        "gaussian", x_center=0.0, x_width=0.5, r_center=0.5, r_width=0.1
    )
    u0 = _fiber_datum(grid, datum)
    config = SolverConfig(picard_tol=1e-10, nodes_per_slab=9)
    state, _ = picard_solve(u0, _slab(field, grid, 0.3, 9), None, config)
    slc = eulerian_reconstruct(state, field, 0.3)
    xs = grid.x_labels()
    rs = grid.r_labels()
    back_x = np.repeat(xs[:, None, :], grid.num_r, axis=1) * np.exp(-lam * 0.3)
    back_r = (
        np.broadcast_to(rs[None], (grid.num_x, grid.num_r, 1))
        * np.exp(-mu * 0.3)
    )
    expected = datum(back_x, back_r)
    inside = (
        (back_x[..., 0] >= -2.0) & (back_x[..., 0] <= 2.0)
        & (back_r[..., 0] >= 0.1) & (back_r[..., 0] <= 0.9)
    )
    err = np.max(np.abs((slc.values - expected) * inside))
    # the reconstruction interpolates linearly between labels, so the
    # error scale is h^2 |u''| ~ 4e-3 at this resolution
    assert err < 5e-3



@pytest.mark.parametrize("j", [0, 2])
def test_log_gaussian_datum_reads_a_j1_fiber_only(j):
    # it reads r[..., 0] alone, so a second fiber axis would be ignored
    datum = make_initial("log_gaussian")
    with pytest.raises(ValueError, match=f"log-Gaussian reads j = 1, not j = {j}"):
        datum(np.zeros((3, 1)), np.full((3, j), 0.5))
    assert datum(np.zeros((3, 1)), np.full((3, 1), 0.25)).tolist() == [1.0] * 3


def _rebasing_grid():
    return GridSpec(x_bounds=((-1.0, 1.0),), x_counts=(9,),
                    r_bounds=((0.0, 1.0),), r_counts=(17,))


def test_rebasing_reads_labels_within_the_pad_on_the_box_face():
    # b1 = -1e-13 x pulls the outer x labels back about 1e-13 beyond the
    # box, inside its 1e-12 pad: they are the box face up to the rounding
    # of the pull-back, so the boundary datum keeps their values
    grid = _rebasing_grid()
    sol, ref = (
        continue_solution(make_initial("constant"),
                          linear_field(lam=lam, mu=0.0, n=1, j=1),
                          separable_kernel(), SolverConfig(), grid, 3.0)
        for lam in (-1e-13, 0.0)
    )
    assert len(sol.boundaries) == 4  # two re-basings
    assert abs(sol.masses[-1] - ref.masses[-1]) <= 1e-9 * ref.masses[-1]
    assert not np.any(sol.final.values == 0.0)
    assert [s["exit_fraction"] for s in sol.summaries[:-1]] == [0.0, 0.0]


def test_rebasing_zero_fills_exactly_the_labels_it_counts():
    # b1 = -x pulls the labels with |x| > e^-0.5 back well beyond the box
    field = linear_field(lam=-1.0, mu=0.0, n=1, j=1)
    grid = _rebasing_grid()
    u0 = np.ones((grid.num_x, grid.num_r))
    config = SolverConfig(nodes_per_slab=9)
    state, _ = picard_solve(u0, _slab(field, grid, 0.5, 9), None, config)
    slc = eulerian_reconstruct(state, field, 0.5)
    assert slc.exit_fraction == np.mean(slc.values == 0.0) == 4 / 9

def _random_axes(rng, dims):
    """Uniform, geometric and irregular axes of 2 to 7 nodes."""
    axes = []
    for d in range(dims):
        count = int(rng.integers(2, 8))
        kind = (d + int(rng.integers(3))) % 3
        if kind == 0:
            axes.append(np.linspace(-1.5, 2.0, count))
        elif kind == 1:
            axes.append(np.geomspace(1e-3, 1.0, count))
        else:
            axes.append(np.sort(rng.uniform(-3.0, 3.0, count)))
    return tuple(axes)


# both helpers reproduce scipy's operation order, so the comparisons are
# exact; scipy stays the reference in the tests only
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_multilinear_matches_scipy_regular_grid_interpolator(dims):
    rng = np.random.default_rng(dims)
    for _ in range(10):
        axes = _random_axes(rng, dims)
        values = rng.normal(size=tuple(a.size for a in axes))
        lo = np.array([a[0] for a in axes])
        hi = np.array([a[-1] for a in axes])
        inside = rng.uniform(lo, hi, (200, dims))
        outside = rng.uniform(lo - 1.0, hi + 1.0, (200, dims))
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dims)
        faces = []
        for d in range(dims):
            for edge in (lo[d], hi[d]):
                face = inside[:20].copy()
                face[:, d] = edge
                faces.append(face)
        pts = np.vstack([inside, outside, nodes, *faces])
        ref = RegularGridInterpolator(
            axes, values, method="linear", bounds_error=False, fill_value=-2.5
        )(pts)
        out = _multilinear(axes, values, pts, -2.5)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        assert np.array_equal(out[200 + 200 : 200 + 200 + nodes.shape[0]],
                              values.reshape(-1))


@pytest.mark.parametrize(
    "shape", [(9, 17), (5, 3, 33), (17, 2, 65), (2, 5), (2, 3, 4)]
)
def test_cumulative_trapezoid_matches_scipy(shape):
    # two nodes take one trapezoid step and no running sum
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape)
    for times in (np.linspace(0.1, 0.6, shape[0]),
                  np.sort(rng.uniform(0.0, 1.0, shape[0]))):
        ref = cumulative_trapezoid(values, times, axis=0, initial=0.0)
        out = _cumulative_trapezoid(values, times, np.empty(shape))
        assert np.array_equal(out, ref)


def test_reconstruct_requires_solved_time_node():
    grid = _fiber_grid()
    config = SolverConfig(picard_tol=1e-10, nodes_per_slab=9)
    u0 = np.ones((grid.num_x, grid.num_r))
    state, _ = picard_solve(u0, _slab(zero_field(1, 1), grid, 0.5, 9), None, config)
    with pytest.raises(ValueError):
        eulerian_reconstruct(state, zero_field(1, 1), 0.123)


# ---------------------------------------------------------------------
# continuation across slabs
# ---------------------------------------------------------------------


def test_continue_solution_fragmentation_mass_law():
    # uniform-daughter fragmentation with scale 2 grows total mass like
    # e^{2t}; the run crosses several automatically chosen slabs
    grid = GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(2,),
        r_bounds=((1e-10, 1.0),),
        r_counts=(129,),
        r_spacing="geometric",
    )
    sol = continue_solution(
        make_initial("log_gaussian"),
        zero_field(1, 1),
        fragmentation_kernel(scale=2.0),
        SolverConfig(picard_tol=1e-9, nodes_per_slab=17, slab_time_samples=3),
        grid,
        0.5,
    )
    assert len(sol.summaries) >= 2
    ms = sol.masses
    rel = abs(ms[-1] - np.exp(2.0 * 0.5) * ms[0]) / (np.exp(1.0) * ms[0])
    assert rel < 5e-4
    # mass history is strictly increasing for a positive kernel
    assert np.all(np.diff(ms) > 0)
    # ratios stayed within the contraction budget on every slab
    for s in sol.summaries:
        assert all(r <= 0.6 for r in s["contraction_ratios"])


@pytest.mark.parametrize("mu", [0.05, -0.05])
def test_fragmentation_on_a_moving_fiber_follows_its_mass_law(mu):
    # an exact reference where the fiber moves: fragmentation grows the
    # mass at rate 2 and the fiber drift b2 = mu r adds int u div_r b2 =
    # mu int u, so the mass is e^{(2 + mu) t} times its start
    grid = GridSpec(x_bounds=((0.0, 1.0),), x_counts=(3,),
                    r_bounds=((1e-8, 1.0),), r_counts=(1025,),
                    r_spacing="geometric")
    sol = continue_solution(
        make_initial("log_gaussian"), linear_field(lam=0.0, mu=mu, n=1, j=1),
        fragmentation_kernel(scale=2.0), SolverConfig(picard_tol=1e-9), grid, 1.0,
    )
    drift = np.abs(sol.masses / (sol.masses[0] * np.exp((2.0 + mu) * sol.mass_times))
                   - 1.0)
    at = [int(np.argmin(np.abs(sol.mass_times - b))) for b in sol.boundaries[1:]]
    # the drift each re-basing adds, for the record of the boundary error
    print(f"mu={mu}: drift at each slab end", [f"{drift[k]:.1e}" for k in at])
    assert len(at) > 1
    assert np.max(drift[: at[0] + 1]) < 1e-6  # within the first slab
    assert drift[-1] < 1e-3


def test_run_summary_slabs_are_the_slab_records():
    # each slab's record is built once, with the result JSON's keys, and
    # the run summary hands the records over as they are
    sol = continue_solution(
        make_initial("constant"), zero_field(1, 1), constant_kernel(c=0.7),
        SolverConfig(nodes_per_slab=9), _fiber_grid(nr=17), 3.0,
    )
    slabs = sol.run_summary()["slabs"]
    assert len(slabs) >= 2
    assert slabs == sol.summaries
    for s, start, end in zip(slabs, sol.boundaries, sol.boundaries[1:]):
        assert set(s) == {"t_start", "t_end", "iterations", "contraction_ratios",
                          "differences", "residual", "exit_fraction"}
        assert (s["t_start"], s["t_end"]) == (start, end)
        assert s["exit_fraction"] == 0.0  # the zero field moves no label
        assert s["iterations"] == len(s["differences"])


def test_continue_solution_time_nodes_chain():
    grid = _fiber_grid()
    kern = constant_kernel(c=0.7)
    args = (
        make_initial("constant", value=1.0),
        zero_field(1, 1), kern,
        SolverConfig(picard_tol=1e-9, nodes_per_slab=9),
        grid, 1.0,
    )
    sol = continue_solution(*args)
    assert sol.boundaries[0] == 0.0
    assert abs(sol.boundaries[-1] - 1.0) < 1e-12
    assert len(sol.summaries) >= 2
    times = sol.mass_times
    assert np.all(np.diff(times) > 0)
    assert times.size == 8 * len(sol.summaries) + 1
    # every slab runs on the caller's grid, cached weights included: a
    # slice at each boundary reads the slab that ends there, and a slice
    # at an interior node is found too
    inner = times[(times > sol.boundaries[1]) & (times < sol.boundaries[2])]
    sol = continue_solution(*args, slice_times=(*sol.boundaries[1:], inner[0]))
    assert all(s.grid is grid for s in (*sol.slices.values(), sol.final))
    assert sol.slices[inner[0]].t == inner[0]


def test_continue_solution_starts_at_t0():
    # the start time comes from the caller; zero drift and a constant
    # kernel are autonomous, so a run over [0.3, 1.3] repeats the run
    # over [0, 1] shifted in time
    args = (
        make_initial("constant", value=1.0), zero_field(1, 1),
        constant_kernel(c=0.7),
        SolverConfig(picard_tol=1e-9, nodes_per_slab=9), _fiber_grid(),
    )
    ref = continue_solution(*args, 1.0)
    sol = continue_solution(*args, 1.3, t0=0.3)
    assert sol.boundaries[0] == 0.3
    assert abs(sol.boundaries[-1] - 1.3) < 1e-12
    assert len(sol.summaries) == len(ref.summaries) >= 2
    assert np.allclose(sol.masses, ref.masses, rtol=1e-9)
    with pytest.raises(ValueError):
        continue_solution(*args, 0.3, t0=0.3)


@pytest.mark.parametrize(
    "t0, t_end",
    [(0.0, 1e-13), (0.0, 5e-13), (0.0, 1e-12), (1e6, 1e6 + 1e-7),
     (0.0, np.inf), (0.0, np.nan)],
    ids=["1e-13", "5e-13", "1e-12", "1e-7_past_1e6", "inf", "nan"],
)
def test_continue_solution_rejects_a_horizon_no_slab_covers(t0, t_end):
    # a horizon inside the slab loop's end tolerance would give a
    # solution with no slab; it is rejected before any work
    args = (
        make_initial("constant", value=1.0), zero_field(1, 1),
        constant_kernel(c=0.7), SolverConfig(picard_tol=1e-9), _fiber_grid(),
    )
    with pytest.raises(ValueError, match="must be finite and exceed t0"):
        check_horizon(t0, t_end)
    with pytest.raises(ValueError, match="must be finite and exceed t0"):
        continue_solution(*args, t_end, t0=t0)


def test_continue_solution_covers_a_horizon_just_past_the_tolerance():
    sol = continue_solution(
        make_initial("constant", value=1.0), zero_field(1, 1),
        constant_kernel(c=0.7), SolverConfig(picard_tol=1e-9), _fiber_grid(),
        2e-12,
    )
    assert len(sol.summaries) == 1
    assert sol.boundaries == [0.0, 2e-12]


def test_continue_solution_evaluates_the_divergence_budget_once():
    # a field does not depend on time, so the sup of |div_r b2| over the
    # run is one evaluation on the label grid; the zero field makes no
    # call while flowing, so every call counted is the budget's
    field, calls = counting_field(zero_field(1, 1), ("div_b2",))
    sol = continue_solution(
        make_initial("constant", value=1.0), field, constant_kernel(c=0.7),
        SolverConfig(picard_tol=1e-9, nodes_per_slab=9), _fiber_grid(), 1.0,
    )
    assert len(sol.summaries) >= 2
    assert calls == {"div_b2": 1}


def _growth_run_args(grid):
    return (
        make_initial("constant", value=1.0), zero_field(1, 1),
        constant_kernel(c=0.7), SolverConfig(picard_tol=1e-9, nodes_per_slab=9),
        grid,
    )


def test_a_run_holds_at_most_one_slab_state(monkeypatch):
    # a slab's masses and slices are read off and its state dropped, so a
    # run with ten times the slabs peaks within one slab's state (values
    # plus flow map) of the small run
    grid = _fiber_grid(nr=65, nx=8)
    args = _growth_run_args(grid)
    state, _ = picard_solve(
        np.ones((grid.num_x, grid.num_r)), _slab(args[1], grid, 0.5, 9),
        *args[2:4],
    )
    fmap = state.fmap
    one_state = state.values.nbytes + sum(
        a.nbytes for a in (fmap.x1, fmap.logj1, fmap.x2, fmap.logj2)
    )
    del state, fmap
    continue_solution(*args, 1.0)  # caches the grid's weights and labels
    peaks, slabs = [], []
    for t_end in (1.0, 14.5):
        tracemalloc.start()
        try:
            slabs.append(len(continue_solution(*args, t_end).summaries))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert slabs[1] >= 10 * slabs[0]
    assert peaks[1] - peaks[0] < one_state
    # no earlier state is alive when the next slab is solved
    states = []

    def solve(*solve_args, **solve_kwargs):
        assert all(ref() is None for ref in states)
        out = picard_solve(*solve_args, **solve_kwargs)
        states.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(transport, "picard_solve", solve)
    assert len(continue_solution(*args, 14.5).summaries) == len(states) == slabs[1]


def test_slices_on_the_boundaries_reuse_the_re_basing_slices(monkeypatch):
    # each (slab, node) is reconstructed once: slices asked at every
    # boundary are the re-basing slices and the final one
    args = (*_growth_run_args(_fiber_grid()), 1.0)
    boundaries = continue_solution(*args).boundaries
    counted = Counting(transport.eulerian_reconstruct)
    monkeypatch.setattr(transport, "eulerian_reconstruct", counted)
    sol = continue_solution(*args, slice_times=boundaries[1:])
    assert counted.calls == len(sol.summaries) >= 2
    assert sol.slices[boundaries[-1]] is sol.final
    assert [sol.slices[b].t for b in boundaries[1:]] == boundaries[1:]


class _Spy:
    """A callable that records the arguments and results of its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.args, self.results = [], []

    def __call__(self, *args, **kwargs):
        self.args.append(args)
        self.results.append(self.fn(*args, **kwargs))
        return self.results[-1]


@pytest.mark.parametrize("t_end", [2.3, 5.3], ids=["3_slabs", "7_slabs"])
def test_a_run_plans_once_and_builds_one_slab_template(monkeypatch, t_end):
    # neither the kernel nor the drift depends on time: a run is one plan
    # of equal slabs, and one flow map, one operator and one pull-back per
    # node it reads serve every slab, whatever the slab count
    field = logistic_field(k=1, mu=0.3)
    args = (
        make_initial("gaussian", x_center=0.5), field,
        separable_kernel(terms=SEPARABLE_TERMS),
        SolverConfig(picard_tol=1e-10, nodes_per_slab=9), _fiber_grid(nr=17, nx=5),
        t_end,
    )
    ref = continue_solution(*args, t0=0.3)
    # a boundary and an interior node of the third slab: two nodes read
    slice_times = (ref.boundaries[1], ref.mass_times[2 * 8 + 3])
    spies = {
        name: _Spy(getattr(transport, name))
        for name in ("choose_slab", "flow_map", "_kernel_matrices",
                     "inverse_flow_grid", "picard_solve", "eulerian_reconstruct")
    }
    for name, spy in spies.items():
        monkeypatch.setattr(transport, name, spy)
    sol = continue_solution(*args, t0=0.3, slice_times=slice_times)
    (rate, div_sup, horizon), = spies["choose_slab"].args
    (length, count), = spies["choose_slab"].results
    assert count == len(sol.summaries) >= 3
    assert rate * (horizon / (count - 1)) * np.exp(div_sup * horizon / (count - 1)) > 0.5
    calls = {name: len(spy.args) for name, spy in spies.items()}
    # one read of each slab's last node, which the boundary slice shares
    # with the re-basing, and one of the interior slice
    assert calls == {"choose_slab": 1, "flow_map": 1, "_kernel_matrices": 1,
                     "inverse_flow_grid": 2, "picard_solve": count,
                     "eulerian_reconstruct": count + 1}
    # every slab iterates on the one template, built on local nodes and
    # shifted to the slab's start
    fmap, = spies["flow_map"].results
    assert fmap.times[0] == 0.0 and fmap.times[-1] == length
    for i, start in enumerate(sol.boundaries[:-1]):
        slab = spies["picard_solve"].args[i][1]
        assert all(getattr(slab, a) is getattr(fmap, a)
                   for a in ("grid", "x1", "logj1", "x2", "logj2"))
        assert np.array_equal(slab.times, start + fmap.times)
        assert np.array_equal(sol.mass_times[8 * i + 1 : 8 * i + 9], slab.times[1:])
    assert [sol.slices[t].t for t in slice_times] == list(slice_times)
    assert np.array_equal(sol.masses, ref.masses)


@pytest.mark.parametrize(
    "field", [modulated_logistic_field(), logistic_field(k=1, mu=0.3)],
    ids=["modulated_logistic", "logistic"],
)
def test_the_slab_template_is_each_slab_on_its_own_nodes(field):
    # slab k's flow on the local nodes tau is its flow on t_start + tau to
    # rounding, so chaining per-slab flows on absolute nodes, on the same
    # plan, gives the template run's masses and final slice
    grid = GridSpec(x_bounds=((-np.pi, np.pi),), x_counts=(17,),
                    r_bounds=((0.0, 1.0),), r_counts=(65,))
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    config = SolverConfig(picard_tol=1e-10, nodes_per_slab=9)
    datum = make_initial("gaussian", x_center=0.3)
    sol = continue_solution(datum, field, kern, config, grid, 3.3, t0=0.3)
    assert len(sol.summaries) >= 4
    tau = np.linspace(0.0, sol.boundaries[1] - sol.boundaries[0], 9)
    local = flow_map(field, grid, tau)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    u = _fiber_datum(grid, datum)
    w = grid.x_weights()[:, None] * grid.r_weights()[None, :]
    masses = []
    for start in sol.boundaries[:-1]:
        fmap = flow_map(field, grid, start + tau)
        for a, b in ((local.x1, fmap.x1), (local.x2, fmap.x2),
                     (local.logj(), fmap.logj())):
            assert rel(a, b) < 1e-14
        state, _ = picard_solve(u, fmap, kern, config)
        dens = (w * state.values * np.exp(fmap.logj())).reshape(9, -1)
        masses.extend(dens.sum(axis=1)[1 if masses else 0 :])
        u = eulerian_reconstruct(state, field, state.times[-1]).values
    assert rel(np.array(masses), sol.masses) < 1e-14
    assert rel(u, sol.final.values) < 1e-14


@pytest.mark.parametrize(
    "t, message",
    [(0.123, "is not one of the state's time nodes"),
     (1.5, "outside the solved horizon")],
    ids=["off_the_nodes", "past_the_horizon"],
)
def test_a_bad_slice_time_is_rejected_before_any_solve(monkeypatch, t, message):
    counted = Counting(transport.picard_solve)
    monkeypatch.setattr(transport, "picard_solve", counted)
    with pytest.raises(ValueError, match=message):
        continue_solution(
            *_growth_run_args(_fiber_grid()), 1.0, slice_times=(0.5, t)
        )
    assert counted.calls == 0


def test_nan_divergence_budget_raises_slab_selection_error():
    # a NaN in the divergence sup is kept, not dropped, so the budget
    # rate * T * exp(NaN) meets no slab target
    field = dataclasses.replace(
        zero_field(1, 1),
        div_b2=lambda x, r: np.where(r[..., 0] > 0.9, np.nan, 0.0),
    )
    with pytest.raises(NumericalFailure, match="kernel budget"):
        continue_solution(
            make_initial("constant", value=1.0), field, constant_kernel(c=0.7),
            SolverConfig(picard_tol=1e-9, nodes_per_slab=9), _fiber_grid(),
            1.0,
        )


def test_continue_solution_aborts_on_label_exit(monkeypatch):
    # strong inward drift makes the backward labels land outside the box
    # at the first re-basing, which must abort rather than zero-fill a
    # large fraction of the new datum; every re-basing shares one
    # pull-back, so the run aborts before it solves a slab
    solved = Counting(transport.picard_solve)
    monkeypatch.setattr(transport, "picard_solve", solved)
    field = linear_field(lam=-2.0, mu=0.0, n=1, j=1)
    grid = GridSpec(
        x_bounds=((-1.0, 1.0),),
        x_counts=(17,),
        r_bounds=((0.0, 1.0),),
        r_counts=(9,),
    )
    kern = constant_kernel(c=0.4)
    with pytest.raises(NumericalFailure, match=r"lost 82.35% of labels \(limit 0.10%\)"):
        continue_solution(
            make_initial("constant", value=1.0),
            field, kern,
            SolverConfig(picard_tol=1e-8, nodes_per_slab=9),
            grid, 2.0,
        )
    assert solved.calls == 0


# ---------------------------------------------------------------------
# initial data and export
# ---------------------------------------------------------------------


def test_make_initial_catalogue():
    gauss = make_initial("gaussian", x_center=0.1, x_width=0.5)
    x = np.array([[0.1]])
    r = np.array([[0.5]])
    assert np.allclose(gauss(x, r), 1.0)
    loggauss = make_initial("log_gaussian", r_center=0.25)
    assert np.allclose(loggauss(x, np.array([[0.25]])), 1.0)
    const = make_initial("constant", value=2.5)
    assert np.allclose(const(x, r), 2.5)
    with pytest.raises(ValueError):
        make_initial("no_such_datum")
    with pytest.raises(ValueError):
        make_initial("gaussian", bogus=1.0)


def _slice_csv_by_rows(slc):
    """Reference: the row-at-a-time writer slice_to_csv used to be."""
    n, j = slc.grid.n, slc.grid.j
    xs = slc.grid.x_labels()
    rs = slc.grid.r_labels()
    cols = (
        ["t"]
        + [f"y_x{i + 1}" for i in range(n)]
        + [f"y_r{i + 1}" for i in range(j)]
        + ["u"]
    )
    lines = [",".join(cols)]
    for i_x in range(slc.grid.num_x):
        for i_r in range(slc.grid.num_r):
            lab = np.concatenate([xs[i_x], rs[i_r]])
            row = (
                [f"{slc.t:.17g}"]
                + [f"{v:.17g}" for v in lab]
                + [f"{slc.values[i_x, i_r]:.17g}"]
            )
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_state_and_slice_csv_round_trip(tmp_path):
    grid = _fiber_grid(nr=5)
    config = SolverConfig(picard_tol=1e-10, nodes_per_slab=5)
    u0 = _fiber_datum(grid, make_initial("gaussian"))
    state, _ = picard_solve(u0, _slab(zero_field(1, 1), grid, 0.5, 5), None, config)
    slc = eulerian_reconstruct(state, zero_field(1, 1), 0.5)
    path = tmp_path / "slice.csv"
    slice_to_csv(slc, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[0] == grid.num_x * grid.num_r
    # 17 significant digits reproduce the stored doubles exactly
    assert rows[0, -1] == slc.values[0, 0]

    # the table writer emits the same bytes as a row-by-row f-string
    # writer, on a fiber grid and on a j = 0 grid with a moving field
    assert path.read_text() == _slice_csv_by_rows(slc)
    grid0 = GridSpec(x_bounds=((-1.0, 2.0), (0.0, 1.0)), x_counts=(5, 4))
    field0 = linear_field(lam=-0.7, mu=0.0, n=2, j=0)
    u00 = _fiber_datum(grid0, make_initial("gaussian", x_center=0.3))
    state0, _ = picard_solve(u00, _slab(field0, grid0, 0.5, 5), None, config)
    slc0 = eulerian_reconstruct(state0, field0, 0.5)
    slice_to_csv(slc0, path)
    assert path.read_text() == _slice_csv_by_rows(slc0)


@pytest.mark.parametrize(
    "grid, header",
    [
        (_fiber_grid(nr=5, nx=3), "t,y_x1,y_r1,u"),
        (GridSpec(x_bounds=((-1.0, 2.0), (0.0, 1.0)), x_counts=(3, 4)),
         "t,y_x1,y_x2,u"),
    ],
    ids=["n1_j1", "n2_j0"],
)
def test_slice_csv_is_the_bytes_of_savetxt(tmp_path, grid, header):
    # t and every label column are formatted once, u once per row; the
    # bytes are savetxt's, on -0.0, a subnormal and 17 significant digits
    rng = np.random.default_rng(23)
    values = rng.standard_normal((grid.num_x, grid.num_r))
    values.reshape(-1)[:4] = (-0.0, 5e-324, 0.1 + 0.2, -2.2250738585072014e-308)
    slc = EulerianSlice(grid=grid, t=0.1 + 0.2, values=values, exit_fraction=0.0)
    slice_to_csv(slc, tmp_path / "slice.csv")
    labels = grid.joint_labels().reshape(-1, grid.n + grid.j)
    table = np.column_stack(
        [np.full(labels.shape[0], slc.t), labels, values.reshape(-1)]
    )
    np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",",
               header=header, comments="")
    text = (tmp_path / "slice.csv").read_bytes()
    assert text == (tmp_path / "ref.csv").read_bytes()
    for formatted in (b",-0\n", b",4.9406564584124654e-324\n",
                      b"\n0.30000000000000004,"):
        assert formatted in text
