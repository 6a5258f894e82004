"""Acceptance battery: the library's nine advertised guarantees.

Each criterion is one test, so a verbose pytest run prints one pass/fail
line per criterion.  Tolerances are fixed here and are not derived from
the code under test; closed-form constants carry their own derivations.
"""

import numpy as np

from lagtransport.experiments import (
    counterexample_experiment,
    stability_experiment,
)
from lagtransport.fields import (
    fragmentation_kernel,
    linear_field,
    logistic_field,
    oscillatory_field,
    separable_kernel,
    sobolev_field,
    swirl_field,
    zero_field,
)
from lagtransport.flow import (
    check_compressibility,
    flow_map,
    integrate_flow,
    verify_change_of_variables,
)
from lagtransport.grid import GridSpec
from lagtransport.oracle import (
    oscillatory_jacobian,
    period_average,
    separable_solve,
    strong_failure_floor,
)
from lagtransport.transport import (
    SolverConfig,
    continue_solution,
    make_initial,
    picard_solve,
)

# the m = 2 finite-rank benchmark kernel shared by criteria 6 and 7
SEPARABLE_TERMS = ((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))

FLOW_TOL = 1e-10


def _fiber_datum(grid, datum):
    xs = grid.x_labels()
    rs = grid.r_labels()
    return datum(
        np.repeat(xs[:, None, :], grid.num_r, axis=1),
        np.broadcast_to(rs[None], (grid.num_x, grid.num_r, grid.j)),
    )


def test_criterion_1_closed_form_flow():
    # trajectories of sin(kx)/k satisfy tan(kX/2) = e^t tan(kx/2)
    # with relative error < 1e-6 for k in {1, 4, 16}, x in (0, pi/k),
    # t in {0.25, 0.5, 1}
    times = np.array([0.0, 0.25, 0.5, 1.0])
    worst = 0.0
    for k in (1, 4, 16):
        field = oscillatory_field(k=k, j=0)
        for frac in np.linspace(0.05, 0.95, 7):
            x0 = frac * np.pi / k
            sample = integrate_flow(field, np.array([x0]), times, tol=FLOW_TOL)
            lhs = np.tan(k * sample.positions[1:, 0] / 2.0)
            rhs = np.exp(times[1:]) * np.tan(k * x0 / 2.0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    assert worst < 1e-6, f"tangent identity rel err {worst:.3e}"
    print(f"criterion 1 (closed-form flow): PASS  rel err {worst:.3e}")


def test_criterion_2_closed_form_jacobian():
    # central differences of the integrated flow at label spacing 1e-3/k
    # match the closed-form Jacobian factor within 1e-4 relative
    t = 1.0
    worst = 0.0
    for k in (1, 4, 16):
        field = oscillatory_field(k=k, j=0)
        h = 1e-3 / k
        for frac in (0.15, 0.4, 0.65, 0.9):
            x0 = frac * np.pi / k
            plus = integrate_flow(
                field, np.array([x0 + h]), np.array([0.0, t]), tol=FLOW_TOL
            ).positions[-1, 0]
            minus = integrate_flow(
                field, np.array([x0 - h]), np.array([0.0, t]), tol=FLOW_TOL
            ).positions[-1, 0]
            num = (plus - minus) / (2.0 * h)
            exact = float(oscillatory_jacobian(k, t, x0))
            worst = max(worst, abs(num - exact) / abs(exact))
    assert worst < 1e-4, f"jacobian rel err {worst:.3e}"
    print(f"criterion 2 (closed-form jacobian): PASS  rel err {worst:.3e}")


def test_criterion_3_weak_limit_and_strong_failure():
    # period averages of the Jacobian factor equal 1 within 1e-8; the
    # L1(0, 2pi) distance of the density from 1 at t = 1 is k-independent
    # within 1% and stays above the high-resolution oracle floor
    for t in (0.5, 1.0, 2.0):
        assert abs(period_average(t) - 1.0) < 1e-8
    report = counterexample_experiment(k_values=(2, 4, 8, 16))
    l1_vals = [row["l1_distance"] for row in report.rows]
    spread = (max(l1_vals) - min(l1_vals)) / float(np.mean(l1_vals))
    assert spread < 0.01, f"L1 spread {spread:.3e}"
    floor = strong_failure_floor(1.0)
    assert floor > 0
    assert min(l1_vals) >= 0.99 * floor, (
        f"min L1 {min(l1_vals):.6f} below floor {floor:.6f}"
    )
    assert report.criteria["weak_convergence"]["passed"]
    print(
        "criterion 3 (weak limit, strong failure): PASS  "
        f"spread {spread:.2e}, min L1 {min(l1_vals):.6f} vs floor {floor:.6f}"
    )


def test_criterion_4_density_bounds():
    # for every built-in field the observed log-Jacobians respect the
    # divergence-sup envelopes with 1e-6 slack
    times = np.linspace(0.0, 0.5, 17)
    box = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(9,),
        r_bounds=((0.1, 0.9),), r_counts=(5,),
    )
    cases = [
        (zero_field(1, 1), box),
        (linear_field(lam=0.4, mu=0.3, n=1, j=1), box),
        (oscillatory_field(k=2, j=1), box),
        (logistic_field(k=1, mu=0.3), box),
        (
            swirl_field(omega=0.7),
            GridSpec(
                x_bounds=((-1.0, 1.0), (-1.0, 1.0)), x_counts=(5, 5),
            ),
        ),
        (
            sobolev_field(alpha=2.0 / 3.0),
            GridSpec(x_bounds=((0.5, 2.0),), x_counts=(9,)),
        ),
    ]
    for field, grid in cases:
        fmap = flow_map(field, grid, times=times, tol=FLOW_TOL)
        report = check_compressibility(fmap, field)
        assert report.ok, f"{field.name}: {report.violations}"
    print(f"criterion 4 (density bounds): PASS  {len(cases)} fields")


def test_criterion_5_change_of_variables():
    # both pushforward identity residuals stay below 1e-4 at the default
    # resolution for the linear and oscillatory fields with Gaussian test
    # functions, and shrink at least 4x when the resolution doubles
    def gauss_x(center, width):
        def phi(pts):
            return np.exp(-np.sum((pts - center) ** 2, axis=-1) / width**2)

        return phi

    def gauss_joint(cx, wx, cr, wr):
        def phi(x, r):
            return gauss_x(cx, wx)(x) * np.exp(
                -np.sum((r - cr) ** 2, axis=-1) / wr**2
            )

        return phi

    cases = [
        (
            "linear",
            linear_field(lam=0.4, mu=0.3, n=1, j=1),
            ((-3.0, 3.0),), ((-3.0, 3.0),),
            gauss_x(0.0, 0.25), gauss_joint(0.0, 0.25, 0.0, 0.25),
            ((65, 65), (129, 129)),
        ),
        (
            "oscillatory",
            oscillatory_field(k=2, j=1),
            ((-np.pi, np.pi),), ((0.05, 0.95),),
            gauss_x(0.3, 0.4), gauss_joint(0.3, 0.4, 0.5, 0.12),
            ((65, 17), (129, 33)),
        ),
    ]
    summary = []
    for name, field, xb, rb, phi_x, phi_joint, (coarse, fine) in cases:
        residuals = {}
        for counts in (coarse, fine):
            grid = GridSpec(
                x_bounds=xb, x_counts=(counts[0],),
                r_bounds=rb, r_counts=(counts[1],),
            )
            fwd, bwd = (
                flow_map(field, grid, times=[0.0, 0.5], tol=FLOW_TOL,
                         direction=direction)
                for direction in ("forward", "backward")
            )
            out = verify_change_of_variables(fwd, bwd, phi_x, phi_joint)
            residuals[counts] = (
                out["residual_marginal"], out["residual_joint"]
            )
        marg0, joint0 = residuals[coarse]
        marg1, joint1 = residuals[fine]
        assert marg0 < 1e-4, f"{name} marginal residual {marg0:.3e}"
        assert joint0 < 1e-4, f"{name} joint residual {joint0:.3e}"
        assert marg0 / marg1 >= 4.0, f"{name} marginal shrink {marg0 / marg1:.2f}"
        assert joint0 / joint1 >= 4.0, f"{name} joint shrink {joint0 / joint1:.2f}"
        summary.append(f"{name} {marg0:.1e}/{joint0:.1e}")
    print(f"criterion 5 (change of variables): PASS  {'; '.join(summary)}")


def test_criterion_6_contraction_and_fixed_point():
    # on every automatically chosen slab the measured Picard ratios stay
    # at or below 0.6, and the final residual is at most 2 picard_tol at
    # picard_tol = 1e-8 on the b = 0 separable benchmark
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((0.0, 1.0),), r_counts=(65,),
    )
    sol = continue_solution(
        make_initial("gaussian", x_center=0.5, x_width=0.4),
        zero_field(1, 1),
        separable_kernel(terms=SEPARABLE_TERMS),
        SolverConfig(picard_tol=1e-8),
        grid,
        1.0,
    )
    assert len(sol.summaries) >= 2, "benchmark must cross a slab boundary"
    worst_ratio = max(r for s in sol.summaries for r in s["contraction_ratios"])
    assert worst_ratio <= 0.6, f"Picard ratio {worst_ratio:.3f}"
    final_residual = sol.summaries[-1]["residual"]
    assert final_residual <= 2e-8, f"residual {final_residual:.3e}"
    print(
        "criterion 6 (contraction): PASS  "
        f"worst ratio {worst_ratio:.3f}, residual {final_residual:.2e}"
    )


def test_criterion_7_oracle_equivalence_and_mass_law():
    # the separable fixed point matches the matrix-exponential solution
    # within 1e-6 on an m = 2 kernel, and fragmentation mass follows
    # e^{2t} within 1e-4 relative at t = 1 across slab boundaries
    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(3,),
        r_bounds=((0.0, 1.0),), r_counts=(33,),
    )
    kern = separable_kernel(terms=SEPARABLE_TERMS)
    u0 = _fiber_datum(grid, make_initial("gaussian", x_center=0.5, x_width=0.3))
    state, _ = picard_solve(
        u0, flow_map(zero_field(1, 1), grid, np.linspace(0.0, 0.25, 33)), kern,
        SolverConfig(picard_tol=1e-10),
    )
    ref = separable_solve(kern, state.u0, grid, state.times)
    gap = float(np.max(np.abs(state.values - ref)))
    assert gap < 1e-6, f"oracle gap {gap:.3e}"

    mass_grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((1e-10, 1.0),), r_counts=(513,),
        r_spacing="geometric",
    )
    sol = continue_solution(
        make_initial("log_gaussian"),
        zero_field(1, 1),
        fragmentation_kernel(scale=2.0),
        SolverConfig(picard_tol=1e-9, nodes_per_slab=17, slab_time_samples=3),
        mass_grid,
        1.0,
    )
    assert len(sol.summaries) >= 2, "mass run must cross slab boundaries"
    masses = sol.masses
    rel = abs(masses[-1] - np.exp(2.0) * masses[0]) / (np.exp(2.0) * masses[0])
    assert rel < 1e-4, f"mass law rel err {rel:.3e}"
    print(
        "criterion 7 (oracle equivalence): PASS  "
        f"separable gap {gap:.2e}, mass rel err {rel:.2e} "
        f"over {len(sol.summaries)} slabs"
    )


def test_criterion_8_stability_under_mollification():
    # windowed sup-in-time L^2 errors of the solved fixed points fall
    # below 1e-3 at the finest regularization, with the last three values
    # monotone within 10% slack; no rate is asserted
    report = stability_experiment(
        eps_values=(0.2, 0.1, 0.05, 0.025),
        final_threshold=1e-3,
        monotone_slack=1.1,
    )
    assert report.passed, report.criteria
    dists = [row["distance"] for row in report.rows]
    print(
        "criterion 8 (stability): PASS  distances "
        + " -> ".join(f"{d:.2e}" for d in dists)
    )


def test_criterion_9_shared_x_block():
    # the x component of the flow never depends on the fiber coordinate:
    # fully independent integrations of (x0, r) and (x0, r') agree on the
    # x path bit for bit, and the batched map stores one x block
    times = np.linspace(0.0, 0.5, 5)
    fiber_values = (0.15, 0.4, 0.65, 0.9)
    cases = [
        (zero_field(1, 1), 0.7),
        (linear_field(lam=0.4, mu=0.3, n=1, j=1), 0.7),
        (oscillatory_field(k=2, j=1), 0.7),
        (logistic_field(k=1, mu=0.3), 0.7),
        (sobolev_field(alpha=2.0 / 3.0, j=1), 1.3),
    ]
    for field, x0 in cases:
        paths = []
        for r0 in fiber_values:
            sample = integrate_flow(
                field, np.array([x0, r0]), times, tol=FLOW_TOL
            )
            paths.append(sample.positions[:, : field.n].copy())
        for path in paths[1:]:
            assert np.array_equal(path, paths[0]), (
                f"{field.name}: x paths differ across the fiber"
            )
    grid = GridSpec(
        x_bounds=((0.1, 2.0),), x_counts=(7,),
        r_bounds=((0.1, 0.9),), r_counts=(6,),
    )
    fmap = flow_map(logistic_field(k=1, mu=0.3), grid, times=times, tol=FLOW_TOL)
    x_part = fmap.positions()[..., : grid.n]
    for q in range(1, grid.num_r):
        assert np.array_equal(x_part[:, :, q, :], x_part[:, :, 0, :])
    print(f"criterion 9 (shared x block): PASS  {len(cases)} fields")
