"""Field catalogue, mollification, kernels, and slab bounds."""

import dataclasses
import functools
import pickle
import tracemalloc

import numpy as np
import pytest

from lagtransport.fields import (
    Kernel,
    constant_kernel,
    fragmentation_kernel,
    kernel_slab_rate,
    linear_field,
    logistic_field,
    make_field,
    make_kernel,
    mollify_field,
    oscillatory_field,
    separable_kernel,
    sobolev_field,
    swirl_field,
    zero_field,
)
import lagtransport.fields as fields_module
from lagtransport.grid import GridSpec, axis_weights, suffix_weight_matrix

from conftest import (
    PairCounting, counting_field, modulated_logistic_field, same_bits,
)


ALL_FIELDS = [
    zero_field(1, 1),
    linear_field(lam=0.4, mu=0.3, n=1, j=1),
    oscillatory_field(k=2, j=1),
    logistic_field(k=1, mu=0.3),
    swirl_field(omega=0.7),
    sobolev_field(alpha=2.0 / 3.0, j=0),
    modulated_logistic_field(),
]


def _validate_field(fld, points_x, points_r) -> list[dict]:
    """Cross-check analytic divergences against central differences.

    Compares with step h = 1e-5.  Returns a list of mismatch records,
    empty when everything agrees within 1e-4.
    """
    h, tol = 1e-5, 1e-4
    points_x = np.atleast_2d(np.asarray(points_x, dtype=float))
    if fld.j > 0:
        points_r = np.atleast_2d(np.asarray(points_r, dtype=float))
    else:
        points_r = np.zeros((points_x.shape[0], 0))
    report = []
    num = np.zeros(points_x.shape[0])
    for axis in range(fld.n):
        dx = np.zeros(fld.n)
        dx[axis] = h
        num += (
            fld.b1_and_div(points_x + dx)[0][..., axis]
            - fld.b1_and_div(points_x - dx)[0][..., axis]
        ) / (2 * h)
    for axis in range(fld.j):
        dr = np.zeros(fld.j)
        dr[axis] = h
        num += (
            fld.b2_and_div(points_x, points_r + dr)[0][..., axis]
            - fld.b2_and_div(points_x, points_r - dr)[0][..., axis]
        ) / (2 * h)
    # the full spatial divergence div_x b1 + div_r b2
    ana = np.asarray(fld.b1_and_div(points_x)[1], dtype=float)
    if fld.j > 0:
        ana = ana + np.asarray(fld.b2_and_div(points_x, points_r)[1], dtype=float)
    bad = np.abs(num - ana) > tol
    for idx in np.nonzero(bad)[0]:
        report.append(
            {
                "x": points_x[idx].tolist(),
                "r": points_r[idx].tolist(),
                "analytic": float(ana[idx]),
                "numeric": float(num[idx]),
                "error": float(abs(num[idx] - ana[idx])),
            }
        )
    return report


def _validation_points(field, rng, count=40):
    pts_x = rng.uniform(0.3, 1.0, size=(count, field.n))
    pts_r = rng.uniform(0.1, 0.9, size=(count, field.j)) if field.j else None
    return pts_x, pts_r


# ---------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------


def test_divergences_match_finite_differences():
    # _validate_field central-differences the drift of each block's pair
    # against the pair's divergence at sampled points and reports every
    # mismatch
    rng = np.random.default_rng(42)
    for field in ALL_FIELDS:
        pts_x, pts_r = _validation_points(field, rng)
        assert _validate_field(field, pts_x, pts_r) == []


def test_validate_field_catches_wrong_divergence():
    field = linear_field(lam=0.4, mu=0.0, n=1, j=0)
    broken = dataclasses.replace(
        field, b1_and_div=lambda x: (field.b1_and_div(x)[0],
                                     np.full(x.shape[:-1], -1.23)),
    )
    rng = np.random.default_rng(0)
    pts_x, pts_r = _validation_points(broken, rng)
    assert _validate_field(broken, pts_x, pts_r) != []


def test_structured_split_b1_ignores_fiber():
    # the x block of every built-in field is a function of x alone:
    # evaluating b1 never receives r, so two fibers see identical drift
    field = logistic_field(k=2, mu=0.4)
    xs = np.array([[0.3], [1.2]])
    v, div = field.b1_and_div(xs)
    assert v.shape == xs.shape and div.shape == xs.shape[:-1]
    assert np.array_equal(v, field.b1_and_div(xs)[0])


# every catalogue field that declares a zero block, bare and mollified
DECLARED_FIELDS = [
    zero_field(1, 0), zero_field(1, 1), zero_field(2, 1),
    oscillatory_field(k=2, j=0), oscillatory_field(k=2, j=1),
    sobolev_field(j=0), sobolev_field(j=1),
]


@pytest.mark.parametrize(
    "field", DECLARED_FIELDS + [mollify_field(f, 0.1) for f in DECLARED_FIELDS],
    ids=lambda f: f"{f.name}_n{f.n}_j{f.j}",
)
def test_declared_zero_blocks_are_exactly_zero(field):
    expected = {"x", "r"} if field.name.startswith("zero") else {"r"}
    assert field.zero_blocks == expected
    rng = np.random.default_rng(23)
    x = rng.uniform(0.3, 2.0, size=(6, 5, field.n))
    r = rng.uniform(0.0, 1.0, size=(6, 5, field.j))
    values = []
    if "x" in field.zero_blocks:
        values += field.b1_and_div(x)
    if "r" in field.zero_blocks:
        values += field.b2_and_div(x, r)
    for v in values:
        v = np.asarray(v)
        assert np.array_equal(v, np.zeros(v.shape))
        assert not np.any(np.signbit(v))


def test_undeclared_fields_and_bad_declarations():
    for field in (linear_field(lam=0.0, mu=0.0, n=1, j=1), logistic_field(),
                  swirl_field(), modulated_logistic_field()):
        assert field.zero_blocks == frozenset()
    assert make_field("zero", n=1, j=1, eps=0.1).zero_blocks == {"x", "r"}
    with pytest.raises(ValueError, match="zero_blocks"):
        dataclasses.replace(zero_field(1, 1), zero_blocks={"x", "t"})


def test_make_field_catalogue_and_unknown_name():
    for name, params in [
        ("zero", {"n": 1, "j": 1}),
        ("linear", {"lam": 0.1, "mu": 0.2, "n": 1, "j": 1}),
        ("oscillatory", {"k": 3, "j": 1}),
        ("logistic", {"k": 1, "mu": 0.2}),
        ("swirl", {"omega": 2.0}),
        ("sobolev", {"alpha": 0.5}),
    ]:
        field = make_field(name, **params)
        assert field.name == name
    with pytest.raises(ValueError):
        make_field("no_such_field")


@pytest.mark.parametrize(
    "name, params",
    [
        ("linear", {"lam": [0.4]}),
        ("linear", {"mu": [0.3]}),
        ("oscillatory", {"k": [2]}),
        ("logistic", {"mu": [0.3]}),
        ("logistic", {"k": [1]}),
        ("swirl", {"omega": [1.0]}),
        ("sobolev", {"alpha": [0.5]}),
    ],
)
def test_catalogue_fields_read_scalar_params_as_floats(name, params):
    # a list is not a rate: the builder converts with float() and fails
    with pytest.raises(TypeError):
        make_field(name, **params)


@pytest.mark.parametrize("name", ["oscillatory", "logistic"])
def test_sine_fields_reject_zero_wavenumber(name):
    # b1 = sin(kx)/k is 0/0 at k = 0
    with pytest.raises(ValueError, match="k must be nonzero"):
        make_field(name, k=0)


def test_make_field_mollification_wrapper():
    field = make_field("oscillatory", k=2, j=1, eps=0.1)
    assert "mollified" in field.name
    with pytest.raises(ValueError):
        make_field("oscillatory", k=2, eps=-0.5)


# ---------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------


def test_mollified_affine_field_is_reproduced_exactly():
    # convolving an affine function with a symmetric normalized stencil
    # returns the function itself, so the smoothed field coincides with
    # the original wherever the stencil fits
    field = linear_field(lam=0.5, mu=0.25, n=1, j=1)
    smooth = mollify_field(field, eps=0.2)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.0, 1.0, size=(25, 1))
    rs = rng.uniform(0.2, 0.8, size=(25, 1))
    for a, b in zip(smooth.b1_and_div(xs) + smooth.b2_and_div(xs[0], rs),
                    field.b1_and_div(xs) + field.b2_and_div(xs[0], rs)):
        assert np.allclose(a, b, atol=1e-12)


def test_mollified_oscillatory_field_converges_second_order():
    field = oscillatory_field(k=2, j=0)
    xs = np.linspace(-2.0, 2.0, 101)[:, None]
    errs = []
    for eps in (0.2, 0.1, 0.05):
        smooth = mollify_field(field, eps=eps)
        errs.append(float(np.max(np.abs(
            smooth.b1_and_div(xs)[0] - field.b1_and_div(xs)[0]))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) > 1.8


def test_mollified_field_passes_divergence_validation():
    rng = np.random.default_rng(9)
    for field in (logistic_field(k=1, mu=0.3), modulated_logistic_field()):
        smooth = mollify_field(field, eps=0.1)
        pts_x, pts_r = _validation_points(smooth, rng)
        assert _validate_field(smooth, pts_x, pts_r) == []


def _per_offset_mollified(moll, *pts):
    """Reference: accumulate one shifted base call per stencil offset,
    for the drift and the divergence the base returns."""
    pts = [np.asarray(p, dtype=float) for p in pts]
    edges = np.cumsum([0] + [p.shape[-1] for p in pts])
    acc = None
    for dz, c in zip(moll.offsets, moll.coeffs):
        shifted = [
            p - moll.eps * dz[lo:hi]
            for p, lo, hi in zip(pts, edges[:-1], edges[1:])
        ]
        vs = [c * np.asarray(v, dtype=float) for v in moll.base(*shifted)]
        acc = vs if acc is None else [a + v for a, v in zip(acc, vs)]
    return acc


@pytest.mark.parametrize(
    "field", [logistic_field(k=1, mu=0.3), modulated_logistic_field()],
    ids=["logistic", "modulated_logistic"],
)
def test_broadcast_mollifier_matches_per_offset_sum(field):
    # one broadcast base call over the whole stencil must agree with the
    # per-offset accumulation for every batch shape the solver passes in
    smooth = mollify_field(field, eps=0.1)
    rng = np.random.default_rng(17)
    x_pts = rng.uniform(-2.0, 2.0, size=(11, 1))
    r_pts = rng.uniform(0.1, 0.9, size=(11, 1))
    x_block, r_block = smooth.b1_and_div, smooth.b2_and_div
    calls = [
        ("x", x_block, (x_pts,)),
        ("r", r_block, (x_pts, r_pts)),
        ("r", r_block, (np.array([0.7]), rng.uniform(0.1, 0.9, size=(9, 1)))),
        ("r", r_block, (
            rng.uniform(-2.0, 2.0, size=(4, 6, 1)),
            rng.uniform(0.1, 0.9, size=(4, 6, 1)),
        )),
        # the stacked-fiber layout: 1225 points span several blocks of
        # the 193-point stencil and end in a partial one
        ("r", r_block, (
            rng.uniform(-2.0, 2.0, size=(49, 1, 1)),
            rng.uniform(0.1, 0.9, size=(49, 25, 1)),
        )),
        ("r", r_block, (np.zeros((0, 1)), np.zeros((0, 1)))),
        ("x", x_block, (rng.uniform(-2.0, 2.0, size=(49, 25, 1)),)),
        ("x", x_block, (np.zeros((0, 1)),)),
    ]
    for name, moll, pts in calls:
        outs = moll(*pts)
        refs = _per_offset_mollified(moll, *pts)
        assert len(outs) == len(refs) == 2, name
        for got, ref in zip(outs, refs):
            assert got.shape == ref.shape, name
            err = np.max(np.abs(got - ref), initial=0.0)
            assert err <= 1e-13 * np.max(np.abs(ref), initial=0.0), name


def test_mollified_field_survives_pickling():
    smooth = mollify_field(logistic_field(k=1, mu=0.3), eps=0.1)
    clone = pickle.loads(pickle.dumps(smooth))
    x = np.array([[0.3], [1.1]])
    r = np.array([[0.2], [0.6]])
    for a, b in zip(clone.b1_and_div(x) + clone.b2_and_div(x, r),
                    smooth.b1_and_div(x) + smooth.b2_and_div(x, r)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencil_is_the_bits_of_the_meshgrid_formula(dim):
    # the stencil's nodes and weights are a GridSpec's; the meshgrid and
    # outer-product formula they replaced is kept here as the bit reference
    axis = np.linspace(-1.0, 1.0, 17)
    w1 = axis_weights(axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = w1
    for _ in range(dim - 1):
        w = np.multiply.outer(w, w1)
    w = w.ravel() * fields_module._bump(np.sum(pts**2, axis=-1))
    keep = w > 0.0
    pts, w = pts[keep], w[keep]
    got_pts, got_w = fields_module._stencil(dim)
    assert np.array_equal(got_pts, pts)
    assert np.array_equal(got_w, w / np.sum(w))


def _block_step(moll):
    return max(1, fields_module._MOLLIFY_BLOCK // moll.coeffs.size)


def _stencil_sum(moll, *pts):
    """Reference for a mollified block's bits: each block of batch
    points is shifted by every stencil offset in turn, the base is called
    once on the stacked shifts, and the stencil axis of each output it
    returns is contracted with the coefficients, as one matrix-vector
    product.  A sum taken offset by offset in order rounds differently
    from that product, so it is no bit reference."""
    pts = [np.asarray(p, dtype=float) for p in pts]
    batch = np.broadcast_shapes(*(p.shape[:-1] for p in pts))
    step, size = _block_step(moll), int(np.prod(batch))
    flat = [np.broadcast_to(p, batch + p.shape[-1:]).reshape(size, p.shape[-1])
            for p in pts]
    edges = np.cumsum([0] + [p.shape[-1] for p in pts])
    parts = ([], [])
    for lo in range(0, max(size, 1), step):
        stacked = [
            np.stack([f[lo : lo + step] - moll.eps * dz[a:b] for dz in moll.offsets])
            for f, a, b in zip(flat, edges[:-1], edges[1:])
        ]
        for part, v in zip(parts, moll.base(*stacked)):
            part.append((moll.coeffs @ v.reshape(len(moll.coeffs), -1))
                        .reshape(v.shape[1:]))
    return [np.concatenate(part).reshape(batch + part[0].shape[1:])
            for part in parts]


@pytest.mark.parametrize(
    "field",
    [logistic_field(k=1, mu=0.3), swirl_field(omega=0.7),
     oscillatory_field(k=2, j=1), sobolev_field(j=1)],
    ids=["logistic", "swirl", "oscillatory_j1", "sobolev_j1"],
)
def test_fused_pair_is_bit_identical_to_separate_calls(field):
    # a mollified block gives the drift and the divergence from one base
    # call per block of shifts; each must keep every bit, signed zeros
    # included, of the explicit stencil sum of that base output, for
    # batches that are empty, one point, and around one and two blocks
    smooth = mollify_field(field, eps=0.1)
    rng = np.random.default_rng(31)
    x_lo = 0.5 if field.name == "sobolev" else -2.0
    for block, pair in (("x", smooth.b1_and_div), ("r", smooth.b2_and_div)):
        step = _block_step(pair)
        shapes = [((size,), (size,)) for size in
                  (0, 1, step - 1, step, step + 1, 2 * step + 3)]
        # the fiber right-hand side's broadcast: (M, 1, n) x (M, Q, j)
        shapes.append(((5, 1), (5, step // 2 + 1)))
        for x_batch, r_batch in shapes:
            pts = (rng.uniform(x_lo, 2.0, size=x_batch + (field.n,)),)
            if block == "r":
                pts += (rng.uniform(0.1, 0.9, size=r_batch + (field.j,)),)
            got = pair(*pts)
            assert len(got) == 2
            for fused, ref in zip(got, _stencil_sum(pair, *pts)):
                assert same_bits(fused, ref), (block, x_batch)


def test_fused_pair_shifts_each_block_once():
    # a right-hand side calls its block's base, which gives the drift and
    # the divergence together, once per block of shifted points
    base, calls = counting_field(logistic_field(k=1, mu=0.3),
                                 ("b1_and_div", "b2_and_div"))
    smooth = mollify_field(base, eps=0.1)
    step = _block_step(smooth.b2_and_div)
    x = np.linspace(-1.0, 1.0, 3)[:, None, None]
    r = np.broadcast_to(np.linspace(0.2, 0.8, step)[:, None], (3, step, 1))
    smooth.b2_and_div(x, r)
    assert calls == {"b1_and_div": 0, "b2_and_div": 3}
    step = _block_step(smooth.b1_and_div)
    smooth.b1_and_div(np.linspace(-1.0, 1.0, 2 * step)[:, None])
    assert calls == {"b1_and_div": 2, "b2_and_div": 3}


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_mollify_field_rejects_non_positive_or_non_finite_eps(eps):
    # a NaN or infinite radius would give a field that is NaN everywhere
    with pytest.raises(ValueError, match="eps"):
        mollify_field(logistic_field(k=1, mu=0.3), eps)


# ---------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------


def test_fragmentation_kernel_triangular_structure():
    # the kernel is scale / rt on r < rt; it declares the triangle and its
    # rank-1 factors a = 1, c = scale / rt, and gamma is their product
    # (the operator tests check the support)
    kern = fragmentation_kernel(scale=2.0)
    assert kern.triangular
    (a,), (c,) = kern.factors
    v = np.array([1e-3, 0.3, 0.6, 1.0])
    assert np.array_equal(a(v), np.ones(4))
    assert np.array_equal(c(v), 2.0 / v)
    r = np.array([[0.3]])
    rt = np.array([[0.6]])
    assert kern.gamma(r, rt) == 2.0 / 0.6
    assert not constant_kernel(c=0.7).triangular
    assert constant_kernel(c=0.7).gamma(r, rt) == 0.7


def test_separable_kernel_factors_rebuild_gamma():
    kern = separable_kernel(
        terms=((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    )
    a_list, c_list = kern.factors
    rng = np.random.default_rng(21)
    r = rng.uniform(0.0, 1.0, size=(7, 1))
    rt = rng.uniform(0.0, 1.0, size=(7, 1))
    direct = kern.gamma(r, rt)
    rebuilt = sum(
        a(r[..., 0]) * c(rt[..., 0]) for a, c in zip(a_list, c_list)
    )
    assert np.array_equal(direct, rebuilt)
    # the factors are the Gaussians amp_i a_i(r) c_i(rt) of the terms
    closed = (
        np.exp(-((r[..., 0] - 0.5) ** 2) / 0.08)
        * np.exp(-((rt[..., 0] - 0.6) ** 2) / 0.125)
        + 0.6 * np.exp(-((r[..., 0] - 0.3) ** 2) / 0.045)
        * np.exp(-((rt[..., 0] - 0.35) ** 2) / 0.08)
    )
    assert np.allclose(direct, closed, rtol=1e-14, atol=0.0)


def test_kernel_factors_are_validated_and_picklable():
    kern = separable_kernel()
    a_list, c_list = kern.factors
    for bad in ((a_list, ()), ((), ()), (a_list, c_list + c_list)):
        with pytest.raises(ValueError, match="equally many"):
            Kernel("bad", bad)
    # factors declared as lists are kept as tuples, and a triangular
    # kernel declares its factors too
    listed = Kernel("listed", [list(a_list), list(c_list)], triangular=True)
    assert listed.factors == (a_list, c_list) and listed.triangular
    for kern in (separable_kernel(), constant_kernel(0.7),
                 fragmentation_kernel(2.0)):
        clone = pickle.loads(pickle.dumps(kern))
        v = np.linspace(0.1, 1.0, 5)
        for fs, clone_fs in zip(kern.factors, clone.factors):
            for f, g in zip(fs, clone_fs):
                assert np.array_equal(g(v), f(v))
        assert clone.triangular == kern.triangular


def test_make_kernel_and_zero_kernel():
    kern = make_kernel("fragmentation", scale=1.5)
    assert kern.gamma(np.array([[0.3]]), np.array([[0.6]])) == 1.5 / 0.6
    # no source term means no kernel: there is no "zero" catalogue entry
    with pytest.raises(ValueError, match="unknown kernel 'zero'"):
        make_kernel("zero")
    with pytest.raises(TypeError):
        make_kernel("constant", j=1)
    with pytest.raises(ValueError):
        make_kernel("unknown")
    with pytest.raises(ValueError):
        separable_kernel(terms=((0.5, -0.2, 0.6, 0.25, 1.0),))


def test_separable_kernel_from_json_lists_is_bit_equal():
    # config params arrive as nested lists; separable_kernel normalises them
    terms = ((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    from_lists = make_kernel("separable", terms=[list(t) for t in terms])
    from_tuples = separable_kernel(terms=terms)
    r = np.linspace(0.0, 1.0, 17)[:, None, None]
    rt = np.linspace(0.0, 1.0, 17)[None, :, None]
    assert np.array_equal(from_lists.gamma(r, rt), from_tuples.gamma(r, rt))


# ---------------------------------------------------------------------
# slab bounds
# ---------------------------------------------------------------------


def _unit_r_grid(nr=65):
    return GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(2,),
        r_bounds=((0.0, 1.0),),
        r_counts=(nr,),
    )


def test_slab_bound_constant_kernel_closed_form():
    # gamma = c on the unit fiber with p = 2: the mixed norm is c, so the
    # rate is c
    grid = _unit_r_grid()
    kern = make_kernel("constant", c=0.7)
    rate = kernel_slab_rate(kern, grid, 2.0)
    assert abs(rate - 0.7) < 1e-10


@pytest.mark.parametrize(
    "kern",
    [constant_kernel(c=0.7), fragmentation_kernel(scale=2.0),
     separable_kernel()],
    ids=["dense", "triangular", "factored"],
)
def test_slab_rate_evaluates_gamma_once(kern):
    # the kernel depends on neither t nor x, so evaluating gamma once at
    # each pair of fiber nodes gives the rate, however many x labels the
    # grid has: 257 nodes are 8 blocks of rows, the last of 33 rows
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(5,),
        r_bounds=((1e-3, 1.0),), r_counts=(257,), r_spacing="geometric",
    )
    counting = dataclasses.replace(kern)
    counting.gamma = PairCounting(kern.gamma)
    assert kernel_slab_rate(counting, grid, 2.0) == kernel_slab_rate(kern, grid, 2.0)
    assert counting.gamma.calls == 8
    assert np.all(counting.gamma.times_per_pair(grid.r_axes()[0]) == 1)


def _dense_separable_gamma(terms, r, rt):
    # the Gaussian sum evaluated term by term on the square
    acc = np.zeros(np.broadcast_shapes(r.shape[:-1], rt.shape[:-1]))
    for (ca, wa, cc, wc, amp) in terms:
        acc += (amp * np.exp(-((r[..., 0] - ca) ** 2) / (2.0 * wa**2))
                * np.exp(-((rt[..., 0] - cc) ** 2) / (2.0 * wc**2)))
    return acc


def test_factored_slab_rate_is_bit_identical_to_dense():
    # the rate reads gamma, the sum of the declared factors, which keeps
    # the bits of the Gaussian sum evaluated on the square
    grid = GridSpec(
        x_bounds=((-3.0, 3.0),), x_counts=(5,),
        r_bounds=((0.0, 1.0),), r_counts=(33,),
    )
    terms = ((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    kern = separable_kernel(terms=terms)
    dense = dataclasses.replace(kern)
    dense.gamma = functools.partial(_dense_separable_gamma, terms)
    rs = grid.r_labels()
    assert np.array_equal(kern.gamma(rs[:, None], rs[None]),
                          dense.gamma(rs[:, None], rs[None]))
    for p in (1.5, 2.0, 3.0):
        assert kernel_slab_rate(kern, grid, p) == kernel_slab_rate(dense, grid, p)


def _suffix_matrix_rate(kern, grid, p):
    # the rate with every row's tail weights read off the whole matrix
    pp = p / (p - 1.0)
    rs = grid.r_labels()
    g = np.abs(kern.gamma(rs[:, None], rs[None])) ** pp
    inner = np.einsum("mq,mq->m", g, suffix_weight_matrix(grid.r_axes()[0]))
    return float(np.sum(grid.r_weights() * inner ** (p / pp)) ** (1.0 / p))


@pytest.mark.parametrize("nr", [2, 3, 32, 33, 65, 100])
@pytest.mark.parametrize("spacing", ["uniform", "geometric"])
@pytest.mark.parametrize(
    "kern",
    [fragmentation_kernel(scale=2.0),
     Kernel("triangular_gauss",
            separable_kernel(((0.5, 0.2, 0.6, 0.25, 1.0),
                              (0.3, 0.15, 0.35, 0.2, 0.6))).factors,
            triangular=True)],
    ids=["fragmentation", "gauss_rank_2"],
)
def test_triangular_slab_rate_matches_the_suffix_weight_matrix(kern, spacing, nr):
    # row blocks of 32 kernel rows: fewer rows than a block, exactly one
    # block, and blocks with a short last one
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((0.05, 1.0),), r_counts=(nr,), r_spacing=spacing,
    )
    for p in (1.5, 2.0, 3.0):
        ref = _suffix_matrix_rate(kern, grid, p)
        assert abs(kernel_slab_rate(kern, grid, p) - ref) <= 1e-14 * ref


def test_triangular_slab_rate_builds_no_whole_matrix_of_tails():
    # frag_cascade's fiber.  |gamma|^p' on the square and one temporary of
    # its evaluation are two Nr x Nr arrays (1.06 MB); the diagonal of the
    # suffix integrals of the whole square peaked at 2.89 MB
    nr = 257
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((1e-8, 1.0),), r_counts=(nr,), r_spacing="geometric",
    )
    kern = fragmentation_kernel(scale=2.0)
    kernel_slab_rate(kern, grid, 2.0)  # the grid's weights and tail plan
    tracemalloc.start()
    try:
        kernel_slab_rate(kern, grid, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * nr * nr * 8


def test_separable_slab_rate_builds_no_whole_matrix():
    # dense_logistic's fiber size: gamma is evaluated on blocks of rows,
    # so no Nr x Nr array (528 KB) is held; gamma on the whole square
    # peaked above one
    nr = 257
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((0.0, 1.0),), r_counts=(nr,),
    )
    kern = separable_kernel(
        terms=((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    )
    kernel_slab_rate(kern, grid, 2.0)  # the grid's weights
    tracemalloc.start()
    try:
        kernel_slab_rate(kern, grid, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nr * nr * 8


def test_slab_bound_rejects_bad_exponent():
    grid = _unit_r_grid()
    kern = separable_kernel()
    with pytest.raises(ValueError):
        kernel_slab_rate(kern, grid, 1.0)


def test_slab_rate_rejects_a_grid_without_a_single_fiber_axis():
    grid = GridSpec(x_bounds=((0.0, 1.0),), x_counts=(3,))  # j = 0
    for kern in (constant_kernel(), separable_kernel(), fragmentation_kernel()):
        with pytest.raises(ValueError, match="j = 1"):
            kernel_slab_rate(kern, grid, 2.0)


def test_fragmentation_slab_bound_is_finite_on_geometric_grid():
    grid = GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(2,),
        r_bounds=((1e-8, 1.0),),
        r_counts=(129,),
        r_spacing="geometric",
    )
    kern = fragmentation_kernel(scale=2.0)
    rate = kernel_slab_rate(kern, grid, 2.0)
    assert np.isfinite(rate)
    assert rate > 0.0
