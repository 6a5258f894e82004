"""Property tests of the paper's statements over random catalogue
parameters.  Examples are derandomized and bounded, so every run checks
the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from lagtransport.fields import (
    constant_kernel,
    fragmentation_kernel,
    linear_field,
    logistic_field,
    oscillatory_field,
    separable_kernel,
    swirl_field,
    zero_field,
)
from lagtransport.flow import check_compressibility, flow_map, integrate_flow
from lagtransport.grid import GridSpec
from lagtransport.transport import (
    SolverConfig,
    apply_A,
    continue_solution,
    make_initial,
    picard_solve,
)

PROPERTY_SETTINGS = settings(
    max_examples=25, derandomize=True, deadline=None, database=None,
)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(["logistic", "oscillatory"]),
    k=st.integers(1, 4),
    mu=st.floats(-1.0, 1.0),
    j=st.integers(0, 1),
    num=st.integers(2, 9),
    t_end=st.floats(0.05, 1.0),
    direction=st.sampled_from(["forward", "backward"]),
)
def test_density_bounds_hold_in_both_directions(
    name, k, mu, j, num, t_end, direction,
):
    # exp(-int ||div b||) <= exp(logJ) <= exp(int ||div b||) along every
    # stored trajectory, for the whole field and for its x block
    if name == "logistic":
        field, j = logistic_field(k=k, mu=mu), 1
    else:
        field = oscillatory_field(k=k, j=j)
    grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(9,),
        r_bounds=((0.05, 0.95),) if j else (), r_counts=(5,) if j else (),
    )
    fmap = flow_map(field, grid, times=np.linspace(0.0, t_end, num),
                    direction=direction)
    report = check_compressibility(fmap, field)
    assert report.ok, report.violations


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(["linear", "oscillatory", "logistic", "swirl"]),
    k=st.integers(1, 4),
    rate=st.floats(-1.0, 1.0),
    second_rate=st.floats(-1.0, 1.0),
    label=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    s=st.floats(0.05, 1.0),
    tau=st.floats(0.05, 1.0),
)
def test_semigroup_law_holds_to_the_flow_tolerance(
    name, k, rate, second_rate, label, s, tau,
):
    # X(s + tau, a) = X(tau, X(s, a)): the fields are autonomous, so the
    # flow restarted at X(s, a) from time 0 lands where the direct one does
    if name == "linear":
        field = linear_field(lam=rate, mu=second_rate, n=1, j=1)
    elif name == "oscillatory":
        field = oscillatory_field(k=k, j=1)
    elif name == "logistic":
        field = logistic_field(k=k, mu=rate)
        label = [np.pi * label[0], 0.5 * (label[1] + 1.0)]  # r in [0, 1]
    else:
        field = swirl_field(omega=2.0 * rate)
    tol = 1e-10
    direct = integrate_flow(field, np.array(label), np.array([0.0, s, s + tau]), tol=tol)
    restart = integrate_flow(field, direct[1], np.array([0.0, tau]), tol=tol)
    scale = np.maximum(1.0, np.abs(direct[-1]))
    assert np.all(np.abs(restart[-1] - direct[-1]) <= 10 * tol * scale)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(["zero", "linear", "logistic"]),
    mu=st.floats(-1.0, 1.0),
    kernel_name=st.sampled_from(["constant", "separable"]),
    amp=st.floats(0.1, 3.0),
    centers=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    duration=st.floats(0.05, 0.25),
    seed=st.integers(0, 2**16),
)
def test_picard_from_any_start_reaches_the_one_fixed_point(
    name, mu, kernel_name, amp, centers, duration, seed,
):
    # uniqueness: Picard from u0 and A iterated from a perturbed start
    # reach the same fixed point of A on a contraction slab
    field = {
        "zero": zero_field(1, 1),
        "linear": linear_field(lam=0.5 * mu, mu=mu, n=1, j=1),
        "logistic": logistic_field(k=1, mu=mu),
    }[name]
    if kernel_name == "constant":
        kernel = constant_kernel(c=amp)
    else:
        kernel = separable_kernel(terms=((centers[0], 0.2, centers[1], 0.25, amp),))
    grid = GridSpec(x_bounds=((-np.pi, np.pi),), x_counts=(5,),
                    r_bounds=((0.0, 1.0),), r_counts=(33,))
    fmap = flow_map(field, grid, np.linspace(0.0, duration, 9))
    labels = grid.joint_labels()
    u0 = make_initial("gaussian")(labels[..., :1], labels[..., 1:])
    state, _ = picard_solve(u0, fmap, kernel, SolverConfig(picard_tol=1e-12))
    u = state.values + np.random.default_rng(seed).normal(size=state.values.shape)
    for _ in range(200):
        nxt = apply_A(u, fmap, kernel, u0)
        step = float(np.max(np.abs(nxt - u)))
        u = nxt
        if step < 1e-13:
            break
    assert step < 1e-13
    assert np.max(np.abs(u - state.values)) <= 1e-9 * np.max(np.abs(state.values))


@PROPERTY_SETTINGS
@given(
    mu=st.floats(-0.1, 0.1),
    scale=st.floats(0.5, 2.0),
    t_end=st.floats(0.02, 0.06),
)
def test_fragmentation_on_a_moving_fiber_follows_its_mass_law_over_a_slab(
    mu, scale, t_end,
):
    # d/dt int u = int u div_r b2 + int K u: with b2 = mu r and
    # fragmentation at `scale` the mass is e^{(scale + mu) t} times its
    # start; the first slab has no re-basing, and the measured worst
    # drift over it is about 3e-7
    grid = GridSpec(x_bounds=((0.0, 1.0),), x_counts=(3,),
                    r_bounds=((1e-8, 1.0),), r_counts=(1025,),
                    r_spacing="geometric")
    sol = continue_solution(
        make_initial("log_gaussian"), linear_field(lam=0.0, mu=mu, n=1, j=1),
        fragmentation_kernel(scale=scale), SolverConfig(picard_tol=1e-9),
        grid, t_end,
    )
    first = sol.mass_times <= sol.boundaries[1]
    law = sol.masses[0] * np.exp((scale + mu) * sol.mass_times[first])
    assert np.max(np.abs(sol.masses[first] / law - 1.0)) < 1e-6


@PROPERTY_SETTINGS
@given(
    k=st.integers(1, 4),
    mu=st.floats(-2.0, 2.0),
    c=st.floats(2.0, 6.0),
    t_end=st.floats(0.3, 1.0),
)
def test_the_logistic_box_loses_no_label(k, mu, c, t_end):
    # x = +-pi and r = 0, 1 are rest points of the plain logistic field,
    # so the box [-pi, pi] x [0, 1] is invariant and no re-basing, nor
    # the final slice, pulls a label out of it; a kernel of rate c >= 2
    # cuts a horizon of 0.3 or more into at least two slabs
    grid = GridSpec(x_bounds=((-np.pi, np.pi),), x_counts=(9,),
                    r_bounds=((0.0, 1.0),), r_counts=(33,))
    sol = continue_solution(
        make_initial("gaussian"), logistic_field(k=k, mu=mu),
        constant_kernel(c=c), SolverConfig(nodes_per_slab=5), grid, t_end,
    )
    assert len(sol.summaries) >= 2
    assert [s["exit_fraction"] for s in sol.summaries] == [0.0] * len(sol.summaries)
    assert sol.final.exit_fraction == 0.0
