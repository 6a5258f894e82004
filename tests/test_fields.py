"""Field catalogue, mollification, kernels, and slab bounds."""

import pickle

import numpy as np
import pytest

from lagtransport.fields import (
    FieldValidationError,
    StructuredVectorField,
    fragmentation_kernel,
    kernel_slab_bound,
    kernel_slab_rate,
    linear_field,
    logistic_field,
    make_field,
    make_kernel,
    mollify_field,
    oscillatory_field,
    separable_factors,
    separable_kernel,
    sobolev_field,
    swirl_field,
    validate_field,
    zero_field,
    zero_kernel,
)
from lagtransport.grid import GridSpec


def _modulated_logistic_field(mu=0.3):
    """b1 = sin x with a fiber drift whose rate depends on x:
    b2 = mu (1 + 0.5 sin x) r (1 - r), div_r b2 = mu (1 + 0.5 sin x)(1 - 2r)."""

    def rate(x):
        return mu * (1.0 + 0.5 * np.sin(x[..., 0]))

    return StructuredVectorField(
        "modulated_logistic", 1, 1,
        b1=lambda t, x: np.sin(x),
        b2=lambda t, x, r: rate(x)[..., None] * r * (1.0 - r),
        div_b1=lambda t, x: np.cos(x[..., 0]),
        div_b2=lambda t, x, r: rate(x) * (1.0 - 2.0 * r[..., 0]),
    )


ALL_FIELDS = [
    zero_field(1, 1),
    linear_field(lam=0.4, mu=0.3, n=1, j=1),
    oscillatory_field(k=2, j=1),
    logistic_field(k=1, mu=0.3),
    swirl_field(omega=0.7),
    sobolev_field(alpha=2.0 / 3.0, j=0),
    _modulated_logistic_field(),
]


def _validation_points(field, rng, count=40):
    pts_x = rng.uniform(0.3, 1.0, size=(count, field.n))
    pts_r = rng.uniform(0.1, 0.9, size=(count, field.j)) if field.j else None
    return pts_x, pts_r


# ---------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------


def test_divergences_match_finite_differences():
    # validate_field central-differences b1 and b2 against the declared
    # divergences at sampled points and reports every mismatch
    rng = np.random.default_rng(42)
    for field in ALL_FIELDS:
        pts_x, pts_r = _validation_points(field, rng)
        report = validate_field(field, pts_x, pts_r, strict=True)
        assert report == []


def test_validate_field_catches_wrong_divergence():
    field = linear_field(lam=0.4, mu=0.0, n=1, j=0)
    broken = type(field)(
        name=field.name, n=field.n, j=field.j, b1=field.b1, b2=field.b2,
        div_b1=lambda t, x: np.full(x.shape[:-1], -1.23),
        div_b2=field.div_b2, params=field.params,
    )
    rng = np.random.default_rng(0)
    pts_x, pts_r = _validation_points(broken, rng)
    assert validate_field(broken, pts_x, pts_r) != []
    with pytest.raises(FieldValidationError):
        validate_field(broken, pts_x, pts_r, strict=True)


def test_structured_split_b1_ignores_fiber():
    # the x block of every built-in field is a function of (t, x) alone:
    # evaluating b1 never receives r, so two fibers see identical drift
    field = logistic_field(k=2, mu=0.4)
    xs = np.array([[0.3], [1.2]])
    v = field.b1(0.2, xs)
    assert v.shape == xs.shape
    assert np.array_equal(v, field.b1(0.2, xs))


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
    assert np.allclose(smooth.b1(0.3, xs), field.b1(0.3, xs), atol=1e-12)
    assert np.allclose(
        smooth.b2(0.3, xs[0], rs), field.b2(0.3, xs[0], rs), atol=1e-12
    )


def test_mollified_oscillatory_field_converges_second_order():
    field = oscillatory_field(k=2, j=0)
    xs = np.linspace(-2.0, 2.0, 101)[:, None]
    errs = []
    for eps in (0.2, 0.1, 0.05):
        smooth = mollify_field(field, eps=eps)
        errs.append(float(np.max(np.abs(smooth.b1(0.0, xs) - field.b1(0.0, xs)))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) > 1.8


def test_mollified_field_passes_divergence_validation():
    rng = np.random.default_rng(9)
    for field in (logistic_field(k=1, mu=0.3), _modulated_logistic_field()):
        smooth = mollify_field(field, eps=0.1)
        pts_x, pts_r = _validation_points(smooth, rng)
        assert validate_field(smooth, pts_x, pts_r) == []


def _per_offset_mollified(moll, t, *pts):
    """Reference: accumulate one shifted base call per stencil offset."""
    pts = [np.asarray(p, dtype=float) for p in pts]
    edges = np.cumsum([0] + [p.shape[-1] for p in pts])
    acc = None
    for dz, c in zip(moll.offsets, moll.coeffs):
        shifted = [
            p - moll.eps * dz[lo:hi]
            for p, lo, hi in zip(pts, edges[:-1], edges[1:])
        ]
        v = c * np.asarray(moll.base(t, *shifted), dtype=float)
        acc = v if acc is None else acc + v
    return acc


@pytest.mark.parametrize(
    "field", [logistic_field(k=1, mu=0.3), _modulated_logistic_field()],
    ids=["logistic", "modulated_logistic"],
)
def test_broadcast_mollifier_matches_per_offset_sum(field):
    # one broadcast base call over the whole stencil must agree with the
    # per-offset accumulation for every batch shape the solver passes in
    smooth = mollify_field(field, eps=0.1)
    rng = np.random.default_rng(17)
    x_pts = rng.uniform(-2.0, 2.0, size=(11, 1))
    r_pts = rng.uniform(0.1, 0.9, size=(11, 1))
    calls = [
        ("b1", smooth.b1, (x_pts,)),
        ("div_b1", smooth.div_b1, (x_pts,)),
    ]
    for name in ("b2", "div_b2"):
        moll = getattr(smooth, name)
        calls += [
            (name, moll, (x_pts, r_pts)),
            (name, moll, (np.array([0.7]), rng.uniform(0.1, 0.9, size=(9, 1)))),
            (name, moll, (
                rng.uniform(-2.0, 2.0, size=(4, 6, 1)),
                rng.uniform(0.1, 0.9, size=(4, 6, 1)),
            )),
        ]
    for name, moll, pts in calls:
        got = moll(0.37, *pts)
        ref = _per_offset_mollified(moll, 0.37, *pts)
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


def test_mollified_field_survives_pickling():
    smooth = mollify_field(logistic_field(k=1, mu=0.3), eps=0.1)
    clone = pickle.loads(pickle.dumps(smooth))
    x = np.array([[0.3], [1.1]])
    r = np.array([[0.2], [0.6]])
    for name in ("b1", "div_b1", "b2", "div_b2"):
        pts = (x,) if name.endswith("b1") else (x, r)
        assert np.array_equal(
            getattr(clone, name)(0.2, *pts), getattr(smooth, name)(0.2, *pts)
        )


# ---------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------


def test_fragmentation_kernel_triangular_structure():
    kern = fragmentation_kernel(scale=2.0)
    assert kern.support == "triangular"
    r = np.array([[0.3]])
    rt = np.array([[0.6]])
    # gamma(r, rt) = scale / rt on r < rt, zero above the diagonal
    assert np.allclose(kern.gamma(0.0, None, r, rt), 2.0 / 0.6)
    assert np.allclose(kern.gamma(0.0, None, rt, r), 0.0)
    assert np.allclose(kern.smooth_part(0.0, None, r, rt), 2.0 / 0.6)


def test_separable_kernel_factors_rebuild_gamma():
    kern = separable_kernel(
        terms=((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    )
    a_list, c_list = separable_factors(kern)
    rng = np.random.default_rng(21)
    r = rng.uniform(0.0, 1.0, size=(7, 1))
    rt = rng.uniform(0.0, 1.0, size=(7, 1))
    direct = kern.gamma(0.0, None, r, rt)
    rebuilt = sum(
        a(r[..., 0]) * c(rt[..., 0]) for a, c in zip(a_list, c_list)
    )
    assert np.allclose(direct, rebuilt, atol=1e-14)


def test_make_kernel_and_zero_kernel():
    assert make_kernel("fragmentation", scale=1.5).params["scale"] == 1.5
    kern = zero_kernel()
    r = np.zeros((3, 1))
    assert np.all(kern.gamma(0.0, None, r, r) == 0.0)
    with pytest.raises(ValueError):
        make_kernel("unknown")
    with pytest.raises(ValueError):
        separable_kernel(terms=((0.5, -0.2, 0.6, 0.25, 1.0),))


# ---------------------------------------------------------------------
# slab bounds
# ---------------------------------------------------------------------


def _unit_r_grid(nr=65, t_hi=0.5):
    return GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(2,),
        r_bounds=((0.0, 1.0),),
        r_counts=(nr,),
        time_nodes=np.array([0.0, t_hi]),
    )


def test_slab_bound_constant_kernel_closed_form():
    # gamma = c on the unit fiber with p = 2: the mixed norm per time is
    # c, so the slab bound is c * T and the rate is c
    grid = _unit_r_grid()
    kern = make_kernel("constant", c=0.7)
    bound = kernel_slab_bound(kern, grid, 2.0, 0.0, 0.5)
    rate = kernel_slab_rate(kern, grid, 2.0, 0.0, 0.5)
    assert abs(bound - 0.35) < 1e-10
    assert abs(rate - 0.7) < 1e-10


def test_slab_rate_dominates_bound_on_subslabs():
    grid = _unit_r_grid()
    kern = separable_kernel()
    rate = kernel_slab_rate(kern, grid, 2.0, 0.0, 0.5)
    for t_hi in (0.1, 0.25, 0.5):
        bound = kernel_slab_bound(kern, grid, 2.0, 0.0, t_hi)
        assert bound <= rate * t_hi + 1e-12


def test_slab_bound_rejects_bad_exponent():
    grid = _unit_r_grid()
    kern = separable_kernel()
    with pytest.raises(ValueError):
        kernel_slab_bound(kern, grid, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        kernel_slab_bound(kern, grid, 2.0, 0.5, 0.5)


def test_fragmentation_slab_bound_is_finite_on_geometric_grid():
    grid = GridSpec(
        x_bounds=((0.0, 1.0),),
        x_counts=(2,),
        r_bounds=((1e-8, 1.0),),
        r_counts=(129,),
        time_nodes=np.array([0.0, 1.0]),
        r_spacing="geometric",
    )
    kern = fragmentation_kernel(scale=2.0)
    bound = kernel_slab_bound(kern, grid, 2.0, 0.0, 1.0)
    assert np.isfinite(bound)
    assert bound > 0.0
