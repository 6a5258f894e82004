"""Transport equations with integral source terms along Lagrangian flows.

The library integrates structured vector fields b = (b1(x), b2(x, r)),
functions of space alone, together with their log-Jacobians: each block
is one callable that gives its drift and its divergence at the same
points.  It builds the compressibility densities carried by the flow,
and solves

    du/dt along the flow = integral of gamma(r, r~) u(t, x, r~) dr~

on equal contraction slabs of one template: each slab's discrete fixed
point is marched node by node, one small solve per node and fiber row,
with a back-substitution along the fiber for a triangular kernel.  The
kernel is finite rank, gamma = sum_l a_l(r) c_l(r~),
and the integral runs over its declared support: all r~, or r <= r~ for
a triangular kernel.  A kernel depends on neither t nor x, so the solver evaluates
its factors once per operator slice, gamma once per node pair for the slab rate.
Closed form references (an oscillatory one-dimensional flow,
matrix-exponential solutions for finite-rank kernels) back every
numerical claim, and two experiment harnesses package the
mollification-stability and the weak-but-not-strong density convergence
studies.
"""

from .fields import (
    Kernel,
    StructuredVectorField,
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
from .flow import (
    CompressibilityReport,
    FlowMap,
    NumericalFailure,
    check_compressibility,
    flow_from,
    flow_map,
    flow_map_to_csv,
    integrate_flow,
    inverse_flow_grid,
    verify_change_of_variables,
)
from .grid import GridSpec, NormSpec, lp_norm, sup_in_time
from .oracle import (
    integrated_expm,
    oscillatory_jacobian,
    oscillatory_position,
    period_average,
    separable_solve,
    strong_failure_floor,
)
from .transport import (
    ContinuedSolution,
    EulerianSlice,
    SolverConfig,
    apply_A,
    choose_slab,
    continue_solution,
    eulerian_reconstruct,
    fixed_point_residual,
    make_initial,
    picard_solve,
    slice_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CompressibilityReport",
    "ContinuedSolution",
    "EulerianSlice",
    "FlowMap",
    "GridSpec",
    "Kernel",
    "NormSpec",
    "NumericalFailure",
    "SolverConfig",
    "StructuredVectorField",
    "apply_A",
    "check_compressibility",
    "choose_slab",
    "constant_kernel",
    "continue_solution",
    "eulerian_reconstruct",
    "fixed_point_residual",
    "flow_from",
    "flow_map",
    "flow_map_to_csv",
    "fragmentation_kernel",
    "integrate_flow",
    "integrated_expm",
    "inverse_flow_grid",
    "kernel_slab_rate",
    "linear_field",
    "logistic_field",
    "lp_norm",
    "make_field",
    "make_initial",
    "make_kernel",
    "mollify_field",
    "oscillatory_field",
    "oscillatory_jacobian",
    "oscillatory_position",
    "period_average",
    "picard_solve",
    "separable_kernel",
    "separable_solve",
    "slice_to_csv",
    "sobolev_field",
    "strong_failure_floor",
    "sup_in_time",
    "swirl_field",
    "verify_change_of_variables",
    "zero_field",
    "__version__",
]
