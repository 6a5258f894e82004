"""Grid axes, quadrature weights, and windowed norms."""

import dataclasses

import numpy as np
import pytest

import lagtransport.grid as grid_module
from lagtransport.grid import (
    GridSpec,
    NormSpec,
    axis_weights,
    lp_norm,
    sup_in_time,
    suffix_factors,
    suffix_integrals,
    suffix_weight_matrix,
)


def _grid_2d(nx=17, nr=9):
    return GridSpec(
        x_bounds=((-1.0, 1.0),),
        x_counts=(nx,),
        r_bounds=((0.0, 2.0),),
        r_counts=(nr,),
    )


# ---------------------------------------------------------------------
# axis weights
# ---------------------------------------------------------------------


def test_uniform_weights_sum_to_length():
    coords = np.linspace(-1.5, 2.5, 21)
    w = axis_weights(coords)
    assert w.shape == coords.shape
    assert np.all(w > 0)
    assert abs(np.sum(w) - 4.0) < 1e-13


def test_uniform_weights_integrate_cubics_exactly():
    # composite Simpson on an odd uniform axis is exact for cubics
    coords = np.linspace(0.0, 1.0, 33)
    w = axis_weights(coords)
    for m in range(4):
        exact = 1.0 / (m + 1)
        assert abs(np.sum(w * coords**m) - exact) < 1e-13


def test_even_count_weights_integrate_quadratics():
    # an even node count gets a Simpson body plus one trapezoid panel;
    # the panel is second order so quadratics are no longer exact, but
    # linears are, and the error for quadratics is one panel's worth
    coords = np.linspace(0.0, 1.0, 32)
    w = axis_weights(coords)
    assert abs(np.sum(w * coords) - 0.5) < 1e-13
    h = coords[1] - coords[0]
    assert abs(np.sum(w * coords**2) - 1.0 / 3.0) < h**3


def test_geometric_weights_integrate_log_polynomials():
    # on a geometric axis the rule is Simpson in v = ln(r), so functions
    # (ln r)^m / r (polynomials after substitution) integrate exactly
    coords = np.geomspace(1e-4, 1.0, 41)
    w = axis_weights(coords)
    assert np.all(w > 0)
    for m in range(4):
        vals = np.log(coords) ** m / coords
        exact = -((np.log(1e-4)) ** (m + 1)) / (m + 1)
        rel = abs(np.sum(w * vals) - exact) / abs(exact)
        assert rel < 1e-13


def test_geometric_weights_sum_close_to_length():
    coords = np.geomspace(1e-3, 1.0, 257)
    w = axis_weights(coords)
    # sum of weights is the quadrature of 1, exact only up to O(h^4) in
    # log coordinates; at this resolution that is far below one percent
    assert abs(np.sum(w) - (1.0 - 1e-3)) < 1e-5


def test_irregular_axis_falls_back_to_trapezoid():
    rng = np.random.default_rng(7)
    coords = np.sort(rng.uniform(0.0, 1.0, 15))
    w = axis_weights(coords)
    vals = 2.0 * coords + 1.0
    exact = np.trapezoid(vals, coords)
    assert abs(np.sum(w * vals) - exact) < 1e-14


def test_suffix_weight_matrix_rows_integrate_tails():
    coords = np.linspace(0.0, 1.0, 17)
    mat = suffix_weight_matrix(coords)
    assert mat.shape == (17, 17)
    # row m integrates over (coords[m], 1): check against linear tails
    for m in (0, 3, 8, 15):
        exact = 0.5 * (1.0 - coords[m] ** 2)
        assert abs(np.sum(mat[m] * coords) - exact) < 1e-13
    assert np.all(mat[-1] == 0.0)
    # strictly lower-triangular part vanishes
    for m in range(17):
        assert np.all(mat[m, :m] == 0.0)


@pytest.mark.parametrize("npts", [2, 3, 4, 5, 8, 9, 33, 34])
@pytest.mark.parametrize(
    "coords",
    [lambda n: np.linspace(-2.0, 3.0, n), lambda n: np.geomspace(1e-8, 5.0, n)],
    ids=["uniform", "geometric"],
)
def test_suffix_integrals_match_suffix_weight_matrix(coords, npts):
    # odd and even tails, the trapezoid patch of an even tail, and the
    # 2-point tail, which is the linear trapezoid even on a geometric axis
    c = coords(npts)
    values = np.random.default_rng(npts).standard_normal((3, 2, npts))
    ref = values @ suffix_weight_matrix(c).T
    out = suffix_integrals(c, values)
    assert out.shape == values.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(out[..., -1] == 0.0)


def _index_array_suffix_integrals(coords, values):
    # the parity tails with index arrays and the axis work redone per call:
    # the formula the cached tail plan replaced, kept as its bit reference
    s, g = coords, values
    if grid_module._uniform_spacing(s) is None and np.all(coords > 0.0):
        s, g = np.log(coords), values * coords
    h = np.diff(s)
    panels = g[..., :-2] + 4.0 * g[..., 1:-1] + g[..., 2:]
    odd, even = np.arange(s.size - 3, -1, -2), np.arange(s.size - 4, -1, -2)
    out = np.zeros(values.shape)
    out[..., odd] = h[odd] / 3.0 * np.cumsum(panels[..., odd], axis=-1)
    out[..., even] = (h[even] / 3.0 * np.cumsum(panels[..., even], axis=-1)
                      + 0.5 * h[even] * (g[..., -2] + g[..., -1])[..., None])
    out[..., -2] = 0.5 * (coords[-1] - coords[-2]) * (values[..., -2] + values[..., -1])
    return out


@pytest.mark.parametrize("npts", [2, 3, 4, 5, 8, 9, 33, 34])
@pytest.mark.parametrize(
    "coords",
    [lambda n: np.linspace(-2.0, 3.0, n), lambda n: np.geomspace(1e-8, 5.0, n)],
    ids=["uniform", "geometric"],
)
def test_tail_plan_keeps_the_bits_of_the_index_array_formula(coords, npts):
    # the strided parity slices select the nodes the index arrays did, and
    # a 2- or 3-node axis selects nothing where a negative start would wrap
    c = coords(npts)
    values = np.random.default_rng(npts).standard_normal((3, 2, npts))
    ref = _index_array_suffix_integrals(c, values)
    for _ in range(2):  # a first call and one that reuses the plan
        assert np.array_equal(suffix_integrals(c, values), ref)


def test_tail_plan_tests_each_axis_once(monkeypatch):
    calls = []

    def counting(coords):
        calls.append(coords.size)
        return uniform_spacing(coords)

    uniform_spacing = grid_module._uniform_spacing
    monkeypatch.setattr(grid_module, "_uniform_spacing", counting)
    values = np.ones((2, 21))
    for axis in (np.geomspace(0.37, 2.9, 21), np.linspace(-0.37, 2.9, 21)):
        suffix_integrals(axis, values)
        assert len(calls) > 0
        calls.clear()
        suffix_integrals(axis.copy(), 2.0 * values)
        assert calls == []
    # an axis of the same size with other nodes is planned on its own
    suffix_integrals(np.geomspace(0.38, 2.9, 21), values)
    assert len(calls) == 2
    # the weights and the tails of a new axis come from one plan: a
    # geometric axis is tested once on its nodes and once in log
    calls.clear()
    axis = np.geomspace(0.39, 2.9, 21)
    axis_weights(axis)
    suffix_integrals(axis, values)
    assert calls == [21, 21]


def test_suffix_weight_matrix_leaves_the_plan_cache_alone():
    # a row per tail of the axis: planned through the cache, one call on
    # 257 nodes would make 256 misses and evict every cached plan
    planned = np.geomspace(0.41, 2.9, 33)
    axis_weights(planned)
    plan = grid_module._axis_plan
    before = plan.cache_info()
    coords = np.geomspace(1e-8, 1.0, 257)
    mat = suffix_weight_matrix(coords)
    after = plan.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    axis_weights(planned)
    assert plan.cache_info().hits == after.hits + 1
    # each row keeps the bits of its subgrid's axis_weights
    for m in (0, 1, 100, 254, 255):
        assert np.array_equal(mat[m, m:], axis_weights(coords[m:]))
        assert not mat[m, :m].any()
    assert not mat[-1].any()


def test_suffix_integrals_reject_other_axes():
    with pytest.raises(ValueError, match="uniform or geometric"):
        suffix_integrals(np.array([0.0, 0.1, 0.5, 1.0]), np.ones(4))
    with pytest.raises(ValueError, match="uniform or geometric"):
        suffix_factors(np.array([0.0, 0.1, 0.5, 1.0]))


@pytest.mark.parametrize("npts", [2, 3, 4, 5, 10, 64, 65, 257])
@pytest.mark.parametrize(
    "coords",
    [lambda n: np.linspace(-2.0, 3.0, n), lambda n: np.linspace(0.0, 1.0, n),
     lambda n: np.geomspace(1e-8, 5.0, n), lambda n: np.geomspace(1e-3, 1.0, n)],
    ids=["uniform", "uniform_unit", "geometric", "geometric_unit"],
)
def test_suffix_factors_rebuild_suffix_weight_matrix(coords, npts):
    # row m is diag[m] on the diagonal and scale[m] times the parity
    # column past it: every tail's Simpson panels, the trapezoid patch
    # of an even tail, the 2-node tail and the empty last row
    c = coords(npts)
    diag, scale, parity, columns = suffix_factors(c)
    assert parity.tolist() == [(npts - m) % 2 for m in range(npts)]
    rebuilt = np.diag(diag) + np.triu(scale[:, None] * columns[parity], 1)
    ref = suffix_weight_matrix(c)
    assert np.max(np.abs(rebuilt - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert diag[-1] == scale[-1] == 0.0


# ---------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------


def test_grid_shapes_and_labels():
    grid = _grid_2d(nx=17, nr=9)
    assert grid.n == 1 and grid.j == 1
    assert grid.num_x == 17 and grid.num_r == 9
    assert grid.x_labels().shape == (17, 1)
    assert grid.r_labels().shape == (9, 1)
    assert grid.x_weights().shape == (17,)
    assert grid.r_weights().shape == (9,)


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(x_bounds=((0.0, 1.0),), x_counts=(5,)),
        GridSpec(x_bounds=((-1.0, 1.0),), x_counts=(4,),
                 r_bounds=((0.2, 0.8),), r_counts=(3,)),
        GridSpec(x_bounds=((0.0, 1.0), (0.0, 2.0)), x_counts=(3, 4),
                 r_bounds=((1e-3, 1.0),), r_counts=(5,), r_spacing="geometric"),
    ],
    ids=["n1_j0", "n1_j1", "n2_j1"],
)
def test_joint_labels_are_the_x_slow_r_fast_layout(grid):
    xs, rs = grid.x_labels(), grid.r_labels()
    labels = grid.joint_labels()
    assert labels.shape == (grid.num_x, grid.num_r, grid.n + grid.j)
    assert np.array_equal(labels[..., : grid.n],
                          np.repeat(xs[:, None, :], grid.num_r, axis=1))
    assert np.array_equal(labels[..., grid.n :],
                          np.broadcast_to(rs[None], (grid.num_x,) + rs.shape))
    # one row per label, as the CSV writers lay them out
    table = np.concatenate(
        [np.repeat(xs, grid.num_r, axis=0), np.tile(rs, (grid.num_x, 1))], axis=1
    )
    assert np.array_equal(labels.reshape(-1, grid.n + grid.j), table)
    assert grid.joint_labels() is labels


def test_grid_is_an_immutable_value():
    # a grid built from lists holds tuples, and no field can be assigned:
    # its derived arrays would otherwise describe the grid it used to be
    grid = GridSpec(x_bounds=[[-1, 1]], x_counts=[5], r_bounds=[[0, 1]], r_counts=[3])
    assert grid == GridSpec(x_bounds=((-1.0, 1.0),), x_counts=(5,),
                            r_bounds=((0.0, 1.0),), r_counts=(3,))
    for name, value in (("x_bounds", ((0.0, 2.0),)), ("x_counts", (9,)),
                        ("r_bounds", ()), ("r_counts", ()),
                        ("r_spacing", "geometric")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, name, value)
    assert grid.x_labels().shape == (5, 1)


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(x_bounds=((0.0, 1.0),), x_counts=(5,)),
        GridSpec(x_bounds=((0.0, 1.0), (0.0, 2.0)), x_counts=(3, 4),
                 r_bounds=((1e-3, 1.0),), r_counts=(5,), r_spacing="geometric"),
    ],
    ids=["n1_j0", "n2_j1"],
)
def test_derived_arrays_are_built_once_and_read_only(grid):
    window = tuple((float(a[0]), float(a[-1])) for a in grid.axes())
    made = {
        name: (lambda name=name: getattr(grid, name)())
        for name in ("x_axes", "r_axes", "x_labels", "r_labels",
                     "joint_labels", "x_weights", "r_weights")
    }
    made["whole_window"] = lambda: grid.window_weights(None)
    made["window"] = lambda: grid.window_weights(NormSpec(window=window).window)
    for name, make in made.items():
        out = make()
        assert make() is out, name
        for arr in out if isinstance(out, tuple) else (out,):
            assert not arr.flags.writeable, name
            if arr.size:
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 99.0
    # the whole-grid window is the product of the axis weights
    assert np.array_equal(grid.window_weights(None).ravel(), np.multiply.outer(
        grid.x_weights(), grid.r_weights()).ravel())
    assert not axis_weights(grid.x_axes()[0]).flags.writeable


def test_grid_without_fiber():
    grid = GridSpec(
        x_bounds=((0.0, 1.0), (0.0, 2.0)),
        x_counts=(5, 7),
    )
    assert grid.n == 2 and grid.j == 0
    assert grid.num_x == 35 and grid.num_r == 1
    assert grid.r_labels().shape == (1, 0)
    assert grid.r_weights().shape == (1,)
    assert grid.r_weights()[0] == 1.0


@pytest.mark.parametrize(
    "counts",
    [
        {"x_counts": (3.7,)},
        {"x_counts": (3.0,)},
        {"x_counts": (True,)},
        {"x_counts": ("3",)},
        {"r_counts": (4.5,)},
    ],
    ids=["fraction", "integral_float", "bool", "string", "r_fraction"],
)
def test_grid_counts_must_be_integers(counts):
    spec = dict(x_bounds=((0.0, 1.0),), x_counts=(3,),
                r_bounds=((0.0, 1.0),), r_counts=(4,))
    spec.update(counts)
    with pytest.raises(ValueError, match="must be integers"):
        GridSpec(**spec)


def test_grid_accepts_numpy_integer_counts():
    grid = GridSpec(x_bounds=((0.0, 1.0),), x_counts=(np.int64(3),))
    assert grid.x_counts == (3,) and type(grid.x_counts[0]) is int


def test_geometric_spacing_requires_positive_bounds():
    with pytest.raises(ValueError):
        GridSpec(
            x_bounds=((0.0, 1.0),),
            x_counts=(3,),
            r_bounds=((0.0, 1.0),),
            r_counts=(5,),
            r_spacing="geometric",
        )


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------


def test_lp_norm_of_constant():
    grid = _grid_2d()
    vals = np.full((grid.num_x, grid.num_r), 3.0)
    spec = NormSpec(p=2.0)
    measure = 2.0 * 2.0
    assert abs(lp_norm(vals, grid, spec) - 3.0 * np.sqrt(measure)) < 1e-12
    assert abs(lp_norm(vals, grid, NormSpec(p=np.inf)) - 3.0) < 1e-14


def test_lp_norm_window_restricts_support():
    grid = _grid_2d(nx=33, nr=17)
    xs = grid.x_labels()[:, 0]
    vals = np.where(xs > 0.5, 1.0, 0.0)[:, None] * np.ones((1, grid.num_r))
    spec = NormSpec(p=np.inf, window=((-0.4, 0.4), (0.0, 2.0)))
    assert lp_norm(vals, grid, spec) == 0.0
    spec_full = NormSpec(p=np.inf)
    assert lp_norm(vals, grid, spec_full) == 1.0


def test_window_weights_are_built_once_per_window(monkeypatch):
    import lagtransport.grid as grid_mod

    rng = np.random.default_rng(5)
    vals = rng.standard_normal((33, 17))
    windows = (None, ((-0.4, 0.4), (0.0, 2.0)), ((-1.0, 0.0), (0.5, 1.5)))
    fresh = [lp_norm(vals, _grid_2d(33, 17), NormSpec(window=w)) for w in windows]
    calls = []
    real = grid_mod.axis_weights
    monkeypatch.setattr(
        grid_mod, "axis_weights", lambda a: calls.append(1) or real(a)
    )
    grid = _grid_2d(33, 17)
    for _ in range(3):
        for w, ref in zip(windows, fresh):
            assert lp_norm(vals, grid, NormSpec(window=w)) == ref
    assert len(calls) == 2 * len(windows)
    # a window given as lists hits the same cache entry as the tuple form
    as_lists = [list(iv) for iv in windows[1]]
    assert lp_norm(vals, grid, NormSpec(window=as_lists)) == fresh[1]
    assert len(calls) == 2 * len(windows)


def test_lp_norm_p1_matches_integral_of_abs():
    rng = np.random.default_rng(3)
    grid = _grid_2d()
    vals = rng.standard_normal((grid.num_x, grid.num_r))
    spec = NormSpec(p=1.0)
    w = grid.x_weights()[:, None] * grid.r_weights()[None, :]
    assert abs(lp_norm(vals, grid, spec) - np.sum(w * np.abs(vals))) < 1e-12


def test_sup_in_time_is_max_over_slices():
    rng = np.random.default_rng(11)
    grid = _grid_2d()
    vals = rng.standard_normal((4, grid.num_x, grid.num_r))
    spec = NormSpec(p=2.0)
    per_slice = [lp_norm(vals[k], grid, spec) for k in range(4)]
    assert abs(sup_in_time(vals, grid, spec) - max(per_slice)) < 1e-14


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
@pytest.mark.parametrize(
    "window", [None, ((-0.5, 0.75), (0.2, 1.0), (0.5, 1.5))],
    ids=["whole", "window"],
)
@pytest.mark.parametrize("joint", [False, True], ids=["flat", "joint"])
def test_sup_in_time_is_bit_identical_to_max_of_lp_norms(p, window, joint):
    # one row sum per node and one root of the largest sum must round as
    # the one-node formula does, for every exponent and either accepted
    # value shape; lp_norm is the one-node case
    rng = np.random.default_rng(17)
    grid = GridSpec(
        x_bounds=((-1.0, 1.0), (0.0, 1.0)), x_counts=(9, 6),
        r_bounds=((0.0, 2.0),), r_counts=(11,),
    )
    spec = NormSpec(p=p, window=window)
    w = grid.window_weights(spec.window)
    shape = grid.shape if joint else (grid.num_x, grid.num_r)

    def one_node(v):
        v = np.abs(v.reshape(grid.shape))
        if np.isinf(p):
            return float(np.max(v[w > 0]))
        return float(np.sum(w * v**p) ** (1.0 / p))

    for scale in (1e-9, 1.0, 1e7):
        vals = scale * rng.standard_normal((17,) + shape)
        ref = [one_node(v) for v in vals]
        assert sup_in_time(vals, grid, spec) == max(ref)
        assert [lp_norm(v, grid, spec) for v in vals] == ref


def test_sup_in_time_propagates_a_nan_at_any_node():
    # a NaN must reach the caller wherever it sits: a slab's residual
    # that is NaN must fail its bound, and its first node is always 0
    grid = GridSpec(x_bounds=((0.0, 1.0),), x_counts=(5,),
                    r_bounds=((0.0, 1.0),), r_counts=(5,))
    vals = np.zeros((3, grid.num_x, grid.num_r))
    vals[2, 1, 1] = np.nan
    for p in (1.0, 2.0, np.inf):
        assert np.isnan(sup_in_time(vals, grid, NormSpec(p=p)))


def test_norm_spec_rejects_bad_exponent():
    with pytest.raises(ValueError):
        NormSpec(p=0.5)
