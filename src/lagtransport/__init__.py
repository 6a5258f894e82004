"""Transport equations with integral source terms along Lagrangian flows.

The library integrates structured vector fields b = (b1(t, x), b2(t, x, r))
together with their log-Jacobians, builds the compressibility densities
carried by the flow, and solves

    du/dt along the flow = integral of gamma(t, x, r, r~) u(t, x, r~) dr~

by Picard iteration on automatically chosen contraction slabs.  Closed
form references (an oscillatory one-dimensional flow, matrix-exponential
solutions for finite-rank kernels) back every numerical claim, and two
experiment harnesses package the mollification-stability and the
weak-but-not-strong density convergence studies.
"""

from .fields import (
    FieldValidationError,
    Kernel,
    StructuredVectorField,
    constant_kernel,
    fragmentation_kernel,
    kernel_slab_bound,
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
    validate_field,
    zero_field,
    zero_kernel,
)
from .flow import (
    CompressibilityReport,
    FlowIntegrationError,
    FlowMap,
    FlowSample,
    PreconditionError,
    check_compressibility,
    density_rho2,
    flow_map,
    flow_map_to_csv,
    integrate_flow,
    inverse_flow_grid,
    verify_change_of_variables,
)
from .grid import GridSpec, NormSpec, integrate_full, integrate_r, lp_norm, sup_in_time
from .oracle import (
    integrated_expm,
    oscillatory_inverse,
    oscillatory_jacobian,
    oscillatory_position,
    period_average,
    separable_solve,
    strong_failure_floor,
    transport_solution,
)
from .transport import (
    ContinuedSolution,
    EulerianSlice,
    LagrangianState,
    PicardConvergenceError,
    SlabSelectionError,
    SolverConfig,
    apply_A,
    choose_slab,
    continue_solution,
    eulerian_reconstruct,
    fixed_point_residual,
    make_initial,
    picard_solve,
    slice_to_csv,
    state_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CompressibilityReport",
    "ContinuedSolution",
    "EulerianSlice",
    "FieldValidationError",
    "FlowIntegrationError",
    "FlowMap",
    "FlowSample",
    "GridSpec",
    "Kernel",
    "LagrangianState",
    "NormSpec",
    "PicardConvergenceError",
    "PreconditionError",
    "SlabSelectionError",
    "SolverConfig",
    "StructuredVectorField",
    "apply_A",
    "check_compressibility",
    "choose_slab",
    "constant_kernel",
    "continue_solution",
    "density_rho2",
    "eulerian_reconstruct",
    "fixed_point_residual",
    "flow_map",
    "flow_map_to_csv",
    "fragmentation_kernel",
    "integrate_flow",
    "integrate_full",
    "integrate_r",
    "integrated_expm",
    "inverse_flow_grid",
    "kernel_slab_bound",
    "kernel_slab_rate",
    "linear_field",
    "logistic_field",
    "lp_norm",
    "make_field",
    "make_initial",
    "make_kernel",
    "mollify_field",
    "oscillatory_field",
    "oscillatory_inverse",
    "oscillatory_jacobian",
    "oscillatory_position",
    "period_average",
    "picard_solve",
    "separable_kernel",
    "separable_solve",
    "slice_to_csv",
    "sobolev_field",
    "state_to_csv",
    "strong_failure_floor",
    "sup_in_time",
    "swirl_field",
    "transport_solution",
    "validate_field",
    "verify_change_of_variables",
    "zero_field",
    "zero_kernel",
    "__version__",
]
