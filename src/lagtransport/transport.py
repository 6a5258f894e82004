"""Fixed-point solution of the transported integral equation.

In label coordinates the problem is a Volterra-type equation

    u~(t, x, r) = u0(x, r) + int_0^t int gamma(s, X1(s,x), X2(s,x,r),
                  X2(s,x,rt)) rho2(s,x,rt) u~(s, x, rt) drt ds,

whose right side defines the affine operator A.  On a short enough time
slab A is a contraction in the sup-in-time windowed L^p norm, so Picard
iteration from u0 converges geometrically; longer horizons are covered by
chaining slabs, re-basing the initial datum at each boundary through an
Eulerian reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import RegularGridInterpolator

from .fields import Kernel, StructuredVectorField, kernel_slab_rate
from .flow import FlowMap, PreconditionError, flow_map, inverse_flow_grid
from .grid import GridSpec, NormSpec, lp_norm

__all__ = [
    "SolverConfig",
    "LagrangianState",
    "EulerianSlice",
    "ContinuedSolution",
    "PicardConvergenceError",
    "SlabSelectionError",
    "apply_A",
    "fixed_point_residual",
    "choose_slab",
    "picard_solve",
    "eulerian_reconstruct",
    "continue_solution",
    "make_initial",
    "state_to_csv",
    "slice_to_csv",
]


class PicardConvergenceError(Exception):
    """Iteration exhausted its budget; carries the difference history."""

    def __init__(self, message: str, diffs: list[float]):
        super().__init__(message)
        self.diffs = diffs


class SlabSelectionError(Exception):
    """No admissible slab length found (kernel budget never satisfied)."""


@dataclass
class SolverConfig:
    """Knobs for the slab/Picard machinery.

    p and window define the norm used for contraction measurements;
    slab_target is the Lipschitz budget per slab (1/2 gives the classic
    geometric tail); nodes_per_slab fixes the trapezoid resolution of the
    time integral inside each slab.
    """

    p: float = 2.0
    window: tuple | None = None
    slab_target: float = 0.5
    picard_tol: float = 1e-8
    max_iters: int = 80
    nodes_per_slab: int = 17
    flow_tol: float = 1e-10
    exterior_value: float = 0.0
    exit_fraction_limit: float = 1e-3
    slab_time_samples: int = 9
    max_halvings: int = 40

    def norm_spec(self) -> NormSpec:
        return NormSpec(p=self.p, window=self.window)


@dataclass
class LagrangianState:
    """u~ sampled on (time nodes) x (label grid), with its flow attached."""

    grid: GridSpec
    times: np.ndarray          # (K,)
    values: np.ndarray         # (K, Nx, Nr)
    fmap: FlowMap
    u0: np.ndarray             # (Nx, Nr)


@dataclass
class EulerianSlice:
    """u(t, .) on an Eulerian grid, plus the fraction of points whose
    backward label left the state's label box (filled with the exterior
    value)."""

    grid: GridSpec
    t: float
    values: np.ndarray         # (Nx, Nr)
    exit_fraction: float


def _kernel_matrices(fmap: FlowMap, kernel: Kernel, grid: GridSpec):
    """Quadrature matrices G[k, i][m, q] ~ gamma(moved coords) * weight(q).

    Returns (mats, k_index) with mats shaped (K_eff, Nx, Nr, Nr); when the
    moved coordinates are time-independent (b = 0 in the relevant blocks)
    a single time slice is stored and k_index collapses to zero.
    Triangular kernels use node-aligned tail weights via smooth_part, so
    the support jump never crosses a quadrature cell (the fiber map is
    monotone, hence label order and moved order agree).
    """
    K = fmap.times.size
    Nx, Nr = fmap.num_x, fmap.num_r
    static = bool(
        np.array_equal(fmap.x1[1:], np.broadcast_to(fmap.x1[:1], fmap.x1[1:].shape))
        and np.array_equal(
            fmap.x2[1:], np.broadcast_to(fmap.x2[:1], fmap.x2[1:].shape)
        )
    ) and K > 1
    k_list = [0] if static else list(range(K))
    if grid.j == 1 and kernel.support == "triangular":
        wmat = grid.r_suffix_weights()
    else:
        wmat = None
    wr = grid.r_weights()
    mats = np.empty((len(k_list), Nx, Nr, Nr))
    for out_k, k in enumerate(k_list):
        t = fmap.times[k]
        for i in range(Nx):
            x = fmap.x1[k, i]
            pos2 = fmap.x2[k, i]  # (Nr, j)
            col = pos2[:, None, :]
            row = pos2[None, :, :]
            if wmat is not None:
                g = np.asarray(kernel.smooth_part(t, x, col, row), dtype=float)
                mats[out_k, i] = g * wmat
            else:
                g = np.asarray(kernel.gamma(t, x, col, row), dtype=float)
                mats[out_k, i] = g * wr[None, :]
    k_index = np.zeros(K, dtype=int) if static else np.arange(K)
    return mats, k_index


def apply_A(
    values: np.ndarray,
    fmap: FlowMap,
    kernel: Kernel | None,
    grid: GridSpec,
    u0: np.ndarray,
    _mats=None,
) -> np.ndarray:
    """One application of the affine Volterra operator.

    `values` is u~ on (K, Nx, Nr); the r~ integral runs over each label's
    r fiber with the density ratio rho2 = exp(logJ - logJ1) as weight,
    and the time integral is the trapezoid rule on the stored nodes.
    """
    values = np.asarray(values, dtype=float)
    K, Nx, Nr = values.shape
    if kernel is None:
        return np.broadcast_to(u0[None], (K, Nx, Nr)).copy()
    mats, k_index = _mats if _mats is not None else _kernel_matrices(
        fmap, kernel, grid
    )
    rho2 = np.exp(fmap.logj2)
    inner = np.empty((K, Nx, Nr))
    for k in range(K):
        weighted = (rho2[k] * values[k])[:, :, None]  # (Nx, Nr, 1)
        inner[k] = (mats[k_index[k]] @ weighted)[:, :, 0]
    integral = cumulative_trapezoid(inner, fmap.times, axis=0, initial=0.0)
    return u0[None] + integral


def fixed_point_residual(
    state: LagrangianState, kernel: Kernel | None, config: SolverConfig
) -> float:
    """sup-in-time windowed L^p norm of u~ - A(u~)."""
    image = apply_A(state.values, state.fmap, kernel, state.grid, state.u0)
    spec = config.norm_spec()
    return max(
        lp_norm(state.values[k] - image[k], state.grid, spec)
        for k in range(state.times.size)
    )


def _div_r_sup(
    field: StructuredVectorField, grid: GridSpec, t_lo: float, t_hi: float,
    samples: int = 5,
) -> float:
    """Sampled sup of |div_r b2| over the grid and the time window."""
    if field.j == 0:
        return 0.0
    xs = grid.x_labels()
    rs = grid.r_labels()
    sup = 0.0
    for s in np.linspace(t_lo, t_hi, samples):
        xrep = np.repeat(xs[:, None, :], rs.shape[0], axis=1)
        rrep = np.broadcast_to(rs[None], (xs.shape[0],) + rs.shape)
        d = np.abs(np.asarray(field.div_b2(s, xrep, rrep), dtype=float))
        sup = max(sup, float(np.max(d)))
    return sup


def choose_slab(
    kernel: Kernel | None,
    field: StructuredVectorField,
    config: SolverConfig,
    grid: GridSpec,
    t_start: float,
    t_end: float,
) -> tuple[float, dict]:
    """Longest dyadic fraction of the remaining time whose kernel budget
    stays within slab_target.

    A candidate of length T is budgeted at rate * T * exp(d * T), where
    rate is the sampled sup of the kernel's mixed norm and d the sampled
    sup of |div_r b2| over the whole remaining window.  That product
    dominates kernel_slab_bound times the density-ratio envelope on every
    sub-slab, so any accepted candidate honors the contraction budget;
    the measured Picard ratios are the binding check downstream.
    """
    remaining = t_end - t_start
    if remaining <= 0:
        raise ValueError("t_end must exceed t_start")
    if kernel is None or kernel.name == "zero":
        return remaining, {"bound": 0.0, "rho2_max": 1.0, "halvings": 0}
    rate = kernel_slab_rate(
        kernel, grid, config.p, t_start, t_end, config.slab_time_samples
    )
    div_sup = _div_r_sup(field, grid, t_start, t_end)
    for m in range(config.max_halvings + 1):
        t0_len = remaining / 2**m
        bound = rate * t0_len
        rho2_max = float(np.exp(div_sup * t0_len))
        if bound * rho2_max <= config.slab_target:
            return t0_len, {
                "rate": rate, "bound": bound, "rho2_max": rho2_max,
                "halvings": m,
            }
    raise SlabSelectionError(
        f"kernel budget exceeds {config.slab_target} even after "
        f"{config.max_halvings} halvings"
    )


def picard_solve(
    u0_values: np.ndarray,
    field: StructuredVectorField,
    kernel: Kernel | None,
    config: SolverConfig,
    grid: GridSpec,
    t_start: float,
    duration: float,
    fmap: FlowMap | None = None,
) -> tuple[LagrangianState, dict]:
    """Fixed point of A on one slab by Picard iteration from u0.

    Stops when consecutive iterates differ by less than picard_tol in the
    sup-in-time windowed L^p norm; raises PicardConvergenceError when the
    budget runs out.  The summary records differences and their ratios
    (the measured contraction rate, meaningful from the second ratio on).
    """
    u0_values = np.asarray(u0_values, dtype=float)
    if u0_values.shape != (grid.num_x, grid.num_r):
        raise ValueError("u0_values must have shape (num_x, num_r)")
    times = np.linspace(t_start, t_start + duration, config.nodes_per_slab)
    if fmap is None:
        fmap = flow_map(field, grid, times=times, tol=config.flow_tol)
    mats = None if kernel is None else _kernel_matrices(fmap, kernel, grid)
    spec = config.norm_spec()
    u = np.broadcast_to(u0_values[None], (times.size,) + u0_values.shape).copy()
    diffs: list[float] = []
    for _ in range(config.max_iters):
        u_next = apply_A(u, fmap, kernel, grid, u0_values, _mats=mats)
        diff = max(
            lp_norm(u_next[k] - u[k], grid, spec) for k in range(times.size)
        )
        diffs.append(diff)
        u = u_next
        if diff < config.picard_tol:
            state = LagrangianState(
                grid=grid, times=times, values=u, fmap=fmap, u0=u0_values
            )
            ratios = [
                diffs[i + 1] / diffs[i]
                for i in range(len(diffs) - 1)
                if diffs[i] > max(config.picard_tol * 1e-3, 1e-15)
            ]
            summary = {
                "t_start": float(t_start),
                "t_end": float(t_start + duration),
                "iterations": len(diffs),
                "differences": diffs,
                "ratios": ratios,
                "residual": fixed_point_residual(state, kernel, config),
            }
            return state, summary
    raise PicardConvergenceError(
        f"no convergence in {config.max_iters} iterations "
        f"(last difference {diffs[-1]:.3e})",
        diffs,
    )


def eulerian_reconstruct(
    state: LagrangianState,
    field: StructuredVectorField,
    t: float,
    grid_out: GridSpec | None = None,
    config: SolverConfig | None = None,
) -> EulerianSlice:
    """u(t, .) on an Eulerian grid from the Lagrangian state.

    Each Eulerian node is pulled back along the field to the state's base
    time and u~(t) is interpolated multilinearly at that label; labels
    leaving the label box get the exterior value.  `t` must be one of the
    state's time nodes.
    """
    config = config or SolverConfig()
    grid_out = grid_out or state.grid
    k = int(np.argmin(np.abs(state.times - t)))
    if not np.isclose(state.times[k], t, rtol=0.0, atol=1e-12 * max(1.0, abs(t))):
        raise ValueError(f"t={t} is not one of the state's time nodes")
    t0 = float(state.times[0])
    xs = grid_out.x_labels()
    rs = grid_out.r_labels() if grid_out.j else None
    lab_x, _, lab_r, _ = inverse_flow_grid(
        field, xs, rs, float(state.times[k]), t0, config.flow_tol
    )
    n, j = state.grid.n, state.grid.j
    Nx_out = xs.shape[0]
    Nr_out = grid_out.num_r
    pts = np.empty((Nx_out, Nr_out, n + j))
    pts[..., :n] = lab_x[:, None, :]
    if j:
        pts[..., n:] = lab_r
    interp = RegularGridInterpolator(
        state.grid.axes(),
        state.values[k].reshape(state.grid.shape),
        method="linear",
        bounds_error=False,
        fill_value=config.exterior_value,
    )
    flat = pts.reshape(-1, n + j)
    vals = interp(flat).reshape(Nx_out, Nr_out)
    outside = np.zeros(flat.shape[0], dtype=bool)
    for axis, a in enumerate(state.grid.axes()):
        pad = 1e-12 * max(1.0, abs(a[-1]) + abs(a[0]))
        outside |= (flat[:, axis] < a[0] - pad) | (flat[:, axis] > a[-1] + pad)
    return EulerianSlice(
        grid=grid_out,
        t=float(state.times[k]),
        values=vals,
        exit_fraction=float(np.mean(outside)),
    )


@dataclass
class ContinuedSolution:
    """Solution on [t0, T] assembled from contraction slabs.

    Each slab is a Lagrangian state on its own flow, launched from the
    Eulerian reconstruction of the previous slab's endpoint.  Quantities
    of interest are read off per slab (mass history, Eulerian slices);
    boundaries and per-slab Picard summaries document the run.
    """

    grid: GridSpec
    config: SolverConfig
    field_name: str
    kernel_name: str
    slabs: list = dc_field(default_factory=list)
    summaries: list = dc_field(default_factory=list)
    boundaries: list = dc_field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        """All time nodes, slab boundaries listed once."""
        pieces = [self.slabs[0].times]
        pieces += [s.times[1:] for s in self.slabs[1:]]
        return np.concatenate(pieces)

    def slab_containing(self, t: float):
        for s in self.slabs:
            if s.times[0] - 1e-12 <= t <= s.times[-1] + 1e-12:
                return s
        raise ValueError(f"t={t} outside the solved horizon")

    def eulerian_slice(
        self, field: StructuredVectorField, t: float,
        grid_out: GridSpec | None = None,
    ) -> EulerianSlice:
        return eulerian_reconstruct(
            self.slab_containing(t), field, t, grid_out, self.config
        )

    def mass_history(self) -> tuple[np.ndarray, np.ndarray]:
        """Total Eulerian mass int u dy dr at every node, evaluated as the
        label-grid quadrature of u~ exp(logJ) (pushforward change of
        variables)."""
        wx = self.grid.x_weights()
        wr = self.grid.r_weights()
        w = wx[:, None] * wr[None, :]
        ts, ms = [], []
        for s_idx, s in enumerate(self.slabs):
            logj = s.fmap.logj()
            start = 0 if s_idx == 0 else 1
            for k in range(start, s.times.size):
                ts.append(float(s.times[k]))
                ms.append(float(np.sum(w * s.values[k] * np.exp(logj[k]))))
        return np.asarray(ts), np.asarray(ms)

    def run_summary(self) -> dict:
        return {
            "field": self.field_name,
            "kernel": self.kernel_name,
            "slab_boundaries": [float(b) for b in self.boundaries],
            "slabs": [
                {
                    "t_start": s["t_start"],
                    "t_end": s["t_end"],
                    "iterations": s["iterations"],
                    "contraction_ratios": s["ratios"],
                    "differences": s["differences"],
                    "residual": s["residual"],
                    "exit_fraction": s.get("exit_fraction", 0.0),
                }
                for s in self.summaries
            ],
        }


def continue_solution(
    u0,
    field: StructuredVectorField,
    kernel: Kernel | None,
    config: SolverConfig,
    grid: GridSpec,
    t_end: float,
) -> ContinuedSolution:
    """Solve on [t0, t_end] by chaining automatically chosen slabs.

    `u0` is either nodal values (Nx, Nr) or a callable u0(x, r) sampled on
    the label grid.  At each slab boundary the state is reconstructed on
    the label grid (fresh Eulerian datum) and a new flow is launched; the
    run aborts if more than exit_fraction_limit of the labels pull back
    outside the label box, since the lost values would silently float the
    boundary datum.
    """
    t0 = float(grid.time_nodes[0])
    if t_end <= t0:
        raise ValueError("t_end must exceed the grid's base time")
    u_cur = _sample_initial(u0, grid)
    sol = ContinuedSolution(
        grid=grid, config=config, field_name=field.name,
        kernel_name=kernel.name if kernel is not None else "none",
        boundaries=[t0],
    )
    t_cur = t0
    while t_cur < t_end - 1e-12 * max(1.0, abs(t_end)):
        t0_len, diag = choose_slab(kernel, field, config, grid, t_cur, t_end)
        state, summary = picard_solve(
            u_cur, field, kernel, config, grid, t_cur, t0_len
        )
        t_cur = t_cur + t0_len
        slab_grid_base = _rebase_grid(grid, t_cur)
        if t_cur < t_end - 1e-12 * max(1.0, abs(t_end)):
            slc = eulerian_reconstruct(state, field, state.times[-1], None, config)
            if slc.exit_fraction > config.exit_fraction_limit:
                raise PreconditionError(
                    f"re-basing at t={t_cur:.6g} lost "
                    f"{slc.exit_fraction:.2%} of labels "
                    f"(limit {config.exit_fraction_limit:.2%})"
                )
            u_cur = slc.values
            summary["exit_fraction"] = slc.exit_fraction
        summary["slab_budget"] = diag
        sol.slabs.append(state)
        sol.summaries.append(summary)
        sol.boundaries.append(float(t_cur))
        grid = slab_grid_base
    return sol


def _sample_initial(u0, grid: GridSpec) -> np.ndarray:
    if callable(u0):
        xs = grid.x_labels()
        rs = grid.r_labels()
        xrep = np.repeat(xs[:, None, :], rs.shape[0], axis=1)
        rrep = np.broadcast_to(rs[None], (xs.shape[0],) + rs.shape)
        vals = np.asarray(u0(xrep, rrep), dtype=float)
        return np.broadcast_to(vals, (grid.num_x, grid.num_r)).copy()
    vals = np.asarray(u0, dtype=float)
    if vals.shape == grid.shape:
        vals = vals.reshape(grid.num_x, grid.num_r)
    if vals.shape != (grid.num_x, grid.num_r):
        raise ValueError("u0 must match the label grid")
    return vals.copy()


def _rebase_grid(grid: GridSpec, t_new: float) -> GridSpec:
    """Same spatial grid with the time base moved to t_new (slab chaining)."""
    return GridSpec(
        x_bounds=grid.x_bounds,
        x_counts=grid.x_counts,
        r_bounds=grid.r_bounds,
        r_counts=grid.r_counts,
        time_nodes=np.array([t_new, t_new + 1.0]),
        r_spacing=grid.r_spacing,
    )


# --- initial datum catalogue -----------------------------------------


class _GaussianDatum:
    """amp * exp(-|x - cx|^2 / wx) * exp(-|r - cr|^2 / wr)."""

    def __init__(self, x_center, x_width, r_center, r_width, amplitude):
        self.x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
        self.x_width = float(x_width)
        self.r_center = np.atleast_1d(np.asarray(r_center, dtype=float))
        self.r_width = float(r_width)
        self.amplitude = float(amplitude)

    def __call__(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        out = self.amplitude * np.exp(
            -np.sum((x - self.x_center) ** 2, axis=-1) / self.x_width
        )
        if r.shape[-1]:
            out = out * np.exp(
                -np.sum((r - self.r_center) ** 2, axis=-1) / self.r_width
            )
        return out


class _LogGaussianDatum:
    """amp * exp(-(ln r - ln c)^2 / (2 sigma^2)), x-independent.

    The natural shape for fragmentation cascades, which spread mass over
    decades of r: smooth and well resolved on geometric r grids.
    """

    def __init__(self, r_center, r_sigma, amplitude):
        self.r_center = float(r_center)
        self.r_sigma = float(r_sigma)
        self.amplitude = float(amplitude)
        if self.r_center <= 0 or self.r_sigma <= 0:
            raise ValueError("log-Gaussian needs positive center and sigma")

    def __call__(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        v = np.log(r[..., 0])
        out = self.amplitude * np.exp(
            -((v - np.log(self.r_center)) ** 2) / (2.0 * self.r_sigma**2)
        )
        return out + 0.0 * x[..., 0]


class _ConstantDatum:
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.full(x.shape[:-1], self.value)


_INITIAL_BUILDERS = {
    "gaussian": _GaussianDatum,
    "log_gaussian": _LogGaussianDatum,
    "constant": _ConstantDatum,
}


def make_initial(name: str, **params):
    """Catalogue initial data: gaussian, log_gaussian, constant."""
    defaults = {
        "gaussian": {
            "x_center": 0.0, "x_width": 0.8,
            "r_center": 0.5, "r_width": 0.08, "amplitude": 1.0,
        },
        "log_gaussian": {"r_center": 0.25, "r_sigma": 0.2, "amplitude": 1.0},
        "constant": {"value": 1.0},
    }
    try:
        builder = _INITIAL_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown initial datum {name!r}") from None
    kwargs = dict(defaults[name])
    for key, val in params.items():
        if key not in kwargs:
            raise ValueError(f"unknown parameter {key!r} for datum {name!r}")
        kwargs[key] = val
    return builder(**kwargs)


def state_to_csv(state: LagrangianState, path) -> None:
    """Rows (t, label coords..., u~) with 17 significant digits."""
    n, j = state.grid.n, state.grid.j
    xs = state.grid.x_labels()
    rs = state.grid.r_labels()
    cols = (
        ["t"]
        + [f"label_x{i + 1}" for i in range(n)]
        + [f"label_r{i + 1}" for i in range(j)]
        + ["u"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(state.times):
            for i_x in range(state.grid.num_x):
                for i_r in range(state.grid.num_r):
                    lab = np.concatenate([xs[i_x], rs[i_r]])
                    row = (
                        [f"{t:.17g}"]
                        + [f"{v:.17g}" for v in lab]
                        + [f"{state.values[k, i_x, i_r]:.17g}"]
                    )
                    fh.write(",".join(row) + "\n")


def slice_to_csv(slc: EulerianSlice, path) -> None:
    """Rows (t, point coords..., u) with 17 significant digits."""
    n, j = slc.grid.n, slc.grid.j
    xs = slc.grid.x_labels()
    rs = slc.grid.r_labels()
    cols = (
        ["t"]
        + [f"y_x{i + 1}" for i in range(n)]
        + [f"y_r{i + 1}" for i in range(j)]
        + ["u"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i_x in range(slc.grid.num_x):
            for i_r in range(slc.grid.num_r):
                lab = np.concatenate([xs[i_x], rs[i_r]])
                row = (
                    [f"{slc.t:.17g}"]
                    + [f"{v:.17g}" for v in lab]
                    + [f"{slc.values[i_x, i_r]:.17g}"]
                )
                fh.write(",".join(row) + "\n")
