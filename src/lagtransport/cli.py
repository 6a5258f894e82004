"""Command line front end.

Subcommands: flow, solve, stability, counterexample, verify.  Each takes
a JSON config (--config), writes a CSV and a JSON result whose names are
derived from a hash of the config, and signals its verdict through the
exit code:

    0  success, all criteria met
    1  computation finished but a criterion or check failed
    2  configuration rejected (bad JSON, unknown keys, invalid values)
    3  numerical failure (integration, contraction, or precondition)

Configs declare schema_version 1 and are validated against a strict
whitelist; unknown keys anywhere are rejected before anything runs, and
no output files are written unless the computation finishes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    counterexample_experiment,
    stability_experiment,
)
from .fields import (
    FieldValidationError,
    fragmentation_kernel,
    make_field,
    make_kernel,
    separable_kernel,
    zero_field,
)
from .flow import (
    FlowIntegrationError,
    PreconditionError,
    check_compressibility,
    flow_map,
    flow_map_to_csv,
    integrate_flow,
    inverse_flow_grid,
    verify_change_of_variables,
    _solve_r_fiber,
    _solve_x_block,
)
from .grid import GridSpec
from .oracle import separable_solve
from .transport import (
    PicardConvergenceError,
    SlabSelectionError,
    SolverConfig,
    continue_solution,
    make_initial,
    picard_solve,
    slice_to_csv,
)

__all__ = ["main", "ConfigError"]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """The configuration file cannot be accepted."""


# =====================================================================
# config loading and validation
# =====================================================================

_REQUIRED = "required"
_OPTIONAL = "optional"
_OPEN = "open"          # free-form dict, validated by the builder it feeds

_FIELD_SCHEMA = {"name": (_REQUIRED, str), "params": (_OPTIONAL, _OPEN)}
_KERNEL_SCHEMA = {"name": (_REQUIRED, str), "params": (_OPTIONAL, _OPEN)}
_INITIAL_SCHEMA = {"name": (_REQUIRED, str), "params": (_OPTIONAL, _OPEN)}
_GRID_SCHEMA = {
    "x_bounds": (_REQUIRED, list),
    "x_counts": (_REQUIRED, list),
    "r_bounds": (_OPTIONAL, list),
    "r_counts": (_OPTIONAL, list),
    "time_nodes": (_OPTIONAL, (list, dict)),
    "r_spacing": (_OPTIONAL, str),
}
_SOLVER_SCHEMA = {
    "p": (_OPTIONAL, (int, float)),
    "window": (_OPTIONAL, list),
    "slab_target": (_OPTIONAL, (int, float)),
    "picard_tol": (_OPTIONAL, (int, float)),
    "max_iters": (_OPTIONAL, int),
    "nodes_per_slab": (_OPTIONAL, int),
    "flow_tol": (_OPTIONAL, (int, float)),
    "exterior_value": (_OPTIONAL, (int, float)),
    "exit_fraction_limit": (_OPTIONAL, (int, float)),
    "slab_time_samples": (_OPTIONAL, int),
    "max_halvings": (_OPTIONAL, int),
}

_SCHEMAS = {
    "flow": {
        "schema_version": (_REQUIRED, int),
        "field": (_REQUIRED, _FIELD_SCHEMA),
        "grid": (_REQUIRED, _GRID_SCHEMA),
        "direction": (_OPTIONAL, str),
        "tol": (_OPTIONAL, (int, float)),
    },
    "solve": {
        "schema_version": (_REQUIRED, int),
        "field": (_REQUIRED, _FIELD_SCHEMA),
        "kernel": (_OPTIONAL, _KERNEL_SCHEMA),
        "grid": (_REQUIRED, _GRID_SCHEMA),
        "initial": (_REQUIRED, _INITIAL_SCHEMA),
        "t_end": (_REQUIRED, (int, float)),
        "solver": (_OPTIONAL, _SOLVER_SCHEMA),
    },
    "stability": {
        "schema_version": (_REQUIRED, int),
        "eps_values": (_OPTIONAL, list),
        "k": (_OPTIONAL, int),
        "mu": (_OPTIONAL, (int, float)),
        "t_end": (_OPTIONAL, (int, float)),
        "checkpoints": (_OPTIONAL, list),
        "final_threshold": (_OPTIONAL, (int, float)),
        "monotone_slack": (_OPTIONAL, (int, float)),
    },
    "counterexample": {
        "schema_version": (_REQUIRED, int),
        "k_values": (_OPTIONAL, list),
        "t": (_OPTIONAL, (int, float)),
        "line_nodes": (_OPTIONAL, int),
        "window": (_OPTIONAL, list),
        "weak_constant": (_OPTIONAL, (int, float)),
        "floor_fraction": (_OPTIONAL, (int, float)),
        "spread_tol": (_OPTIONAL, (int, float)),
    },
    "verify": {
        "schema_version": (_REQUIRED, int),
        "field": (_REQUIRED, _FIELD_SCHEMA),
        "grid": (_REQUIRED, _GRID_SCHEMA),
        "t": (_OPTIONAL, (int, float)),
        "flow_tol": (_OPTIONAL, (int, float)),
        "tolerance_scale": (_OPTIONAL, (int, float)),
    },
}


def _check_schema(obj, schema, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in obj:
        if key not in schema:
            raise ConfigError(f"unknown key {path}{key!r}")
        rule = schema[key]
        if rule is _OPEN:
            continue
        _, expect = rule if isinstance(rule, tuple) else (None, rule)
        if expect is _OPEN:
            if not isinstance(obj[key], dict):
                raise ConfigError(f"{path}{key!r} must be an object")
            continue
        if isinstance(expect, dict):
            _check_schema(obj[key], expect, f"{path}{key}.")
        elif not isinstance(obj[key], expect):
            names = (
                expect.__name__
                if isinstance(expect, type)
                else "/".join(t.__name__ for t in expect)
            )
            raise ConfigError(f"{path}{key!r} must be {names}")
    for key, rule in schema.items():
        status = rule[0] if isinstance(rule, tuple) else _OPTIONAL
        if status == _REQUIRED and key not in obj:
            raise ConfigError(f"missing required key {path}{key!r}")


def load_config(path, command: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    _check_schema(cfg, _SCHEMAS[command], "")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {cfg.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return cfg


def _config_stem(command: str, cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
    return f"{command}_{digest}"


def _build_grid(spec: dict) -> GridSpec:
    nodes = spec.get("time_nodes", [0.0, 1.0])
    if isinstance(nodes, dict):
        extra = set(nodes) - {"start", "stop", "num"}
        if extra:
            raise ConfigError(f"unknown time_nodes keys {sorted(extra)}")
        try:
            nodes = np.linspace(
                float(nodes["start"]), float(nodes["stop"]), int(nodes["num"])
            )
        except KeyError as exc:
            raise ConfigError(f"time_nodes missing {exc}") from exc
    try:
        return GridSpec(
            x_bounds=tuple(tuple(b) for b in spec["x_bounds"]),
            x_counts=tuple(spec["x_counts"]),
            r_bounds=tuple(tuple(b) for b in spec.get("r_bounds", ())),
            r_counts=tuple(spec.get("r_counts", ())),
            time_nodes=np.asarray(nodes, dtype=float),
            r_spacing=spec.get("r_spacing", "uniform"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _build_field(spec: dict):
    try:
        return make_field(spec["name"], **spec.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid field: {exc}") from exc


def _build_kernel(spec: dict | None):
    if spec is None:
        return None
    try:
        return make_kernel(spec["name"], **spec.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid kernel: {exc}") from exc


def _build_initial(spec: dict):
    try:
        return make_initial(spec["name"], **spec.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid initial datum: {exc}") from exc


def _build_solver(spec: dict | None) -> SolverConfig:
    spec = dict(spec or {})
    if "window" in spec and spec["window"] is not None:
        spec["window"] = tuple(tuple(w) for w in spec["window"])
    try:
        return SolverConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc


# =====================================================================
# subcommands
# =====================================================================


def _cmd_flow(cfg: dict, stem: str, out_dir: Path):
    field = _build_field(cfg["field"])
    grid = _build_grid(cfg["grid"])
    direction = cfg.get("direction", "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError(f"unknown direction {direction!r}")
    tol = float(cfg.get("tol", 1e-10))
    fmap = flow_map(field, grid, tol=tol, direction=direction)
    report = check_compressibility(fmap, field)
    payload = {
        "command": "flow",
        "field": field.name,
        "direction": direction,
        "times": [float(t) for t in fmap.times],
        "incompressibility_constant": report.incompressibility_constant,
        "density_bounds_ok": report.ok,
        "violations": report.violations,
    }
    flow_map_to_csv(fmap, out_dir / f"{stem}.csv")
    return payload, report.ok


def _cmd_solve(cfg: dict, stem: str, out_dir: Path):
    field = _build_field(cfg["field"])
    grid = _build_grid(cfg["grid"])
    kernel = _build_kernel(cfg.get("kernel"))
    datum = _build_initial(cfg["initial"])
    config = _build_solver(cfg.get("solver"))
    t_end = float(cfg["t_end"])
    sol = continue_solution(datum, field, kernel, config, grid, t_end)
    times, masses = sol.mass_history()
    final = sol.eulerian_slice(field, sol.boundaries[-1])
    payload = {
        "command": "solve",
        "t_end": t_end,
        "run": sol.run_summary(),
        "mass_times": [float(t) for t in times],
        "masses": [float(m) for m in masses],
        "final_exit_fraction": final.exit_fraction,
    }
    slice_to_csv(final, out_dir / f"{stem}.csv")
    return payload, True


def _cmd_stability(cfg: dict, stem: str, out_dir: Path):
    kwargs = {}
    for key in (
        "k", "mu", "t_end", "final_threshold", "monotone_slack",
    ):
        if key in cfg:
            kwargs[key] = cfg[key]
    if "eps_values" in cfg:
        kwargs["eps_values"] = tuple(float(e) for e in cfg["eps_values"])
    if "checkpoints" in cfg:
        kwargs["checkpoints"] = tuple(float(c) for c in cfg["checkpoints"])
    try:
        report = stability_experiment(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report.to_csv(out_dir / f"{stem}.csv")
    payload = {
        "command": "stability",
        "name": report.name,
        "params": report.params,
        "rows": report.rows,
        "criteria": report.criteria,
        "passed": report.passed,
    }
    return payload, report.passed


def _cmd_counterexample(cfg: dict, stem: str, out_dir: Path):
    kwargs = {}
    for key in (
        "t", "line_nodes", "weak_constant", "floor_fraction", "spread_tol",
    ):
        if key in cfg:
            kwargs[key] = cfg[key]
    if "k_values" in cfg:
        kwargs["k_values"] = tuple(int(k) for k in cfg["k_values"])
    if "window" in cfg:
        kwargs["window"] = tuple(float(w) for w in cfg["window"])
    try:
        report = counterexample_experiment(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report.to_csv(out_dir / f"{stem}.csv")
    payload = {
        "command": "counterexample",
        "name": report.name,
        "params": report.params,
        "rows": report.rows,
        "criteria": report.criteria,
        "passed": report.passed,
    }
    return payload, report.passed


# --- verify battery ---------------------------------------------------


def _verify_battery(
    field, grid: GridSpec, t: float, flow_tol: float, scale: float,
) -> dict:
    """Named self-checks with scaled tolerances.

    Checks the config's field/grid for flow consistency (semigroup law,
    inverse round trip, density bounds, change of variables) and runs two
    canned solver probes (finite-rank oracle equivalence, fragmentation
    mass law) whose expected accuracy is known a priori.  `scale`
    multiplies every numeric tolerance; scaling down exposes how much
    margin each check carries.
    """
    checks: dict[str, dict] = {}

    def record(name, measured, tol):
        checks[name] = {
            "measured": float(measured),
            "tolerance": float(tol),
            "passed": bool(measured <= tol),
        }

    t0 = float(grid.time_nodes[0])
    xs = grid.x_labels()
    rs = grid.r_labels()

    # semigroup: stopping halfway and restarting lands at the same point
    probes = sorted({0, grid.num_x // 2, grid.num_x - 1})
    err = 0.0
    for i in probes:
        lab = np.concatenate([xs[i], rs[rs.shape[0] // 2]])
        direct = integrate_flow(
            field, lab, np.array([t0, t0 + 0.5 * t, t0 + t]), tol=flow_tol
        )
        restart = integrate_flow(
            field, direct.positions[1], np.array([t0 + 0.5 * t, t0 + t]),
            tol=flow_tol,
        )
        err = max(err, float(np.max(np.abs(
            restart.positions[-1] - direct.positions[-1]
        ))))
    record("semigroup", err, 1e-8 * scale)

    # inverse round trip: backward labels flowed forward return to the grid
    lab_x, _, lab_r, _ = inverse_flow_grid(
        field, xs, rs if grid.j else None, t0 + t, t0, flow_tol
    )
    xpos, _, dense = _solve_x_block(
        field, lab_x, (t0, t0 + t), np.array([t0 + t]), flow_tol
    )
    err = float(np.max(np.abs(xpos[-1] - xs)))
    if grid.j:
        n = grid.n
        for i in range(xs.shape[0]):
            x_of_t = (lambda dn, ii: lambda s: dn(s)[ii * n:(ii + 1) * n])(
                dense, i
            )
            rpos, _ = _solve_r_fiber(
                field, x_of_t, lab_r[i], (t0, t0 + t), np.array([t0 + t]),
                flow_tol,
            )
            err = max(err, float(np.max(np.abs(rpos[-1] - rs))))
    record("inverse_round_trip", err, 1e-7 * scale)

    # density bounds along stored trajectories
    fmap = flow_map(field, grid, times=np.linspace(t0, t0 + t, 9), tol=flow_tol)
    rep = check_compressibility(fmap, field)
    checks["density_bounds"] = {
        "measured": float(len(rep.violations)),
        "tolerance": 0.0,
        "passed": rep.ok,
    }

    # change of variables, marginal (and joint when there is a fiber)
    box = grid.x_bounds
    center = np.array([0.5 * (lo + hi) for lo, hi in box])
    width = min(hi - lo for lo, hi in box)

    def phi_x(pts):
        return np.exp(-np.sum((pts - center) ** 2, axis=-1) / (width / 6.0) ** 2)

    phi_joint = None
    if grid.j:
        r_box = grid.r_bounds
        r_center = np.array([0.5 * (lo + hi) for lo, hi in r_box])
        r_width = min(hi - lo for lo, hi in r_box)

        def phi_joint(x, r):
            return phi_x(x) * np.exp(
                -np.sum((r - r_center) ** 2, axis=-1) / (r_width / 6.0) ** 2
            )

    cov = verify_change_of_variables(
        field, grid, t0 + t, phi_x, phi_joint, tol=flow_tol
    )
    record("change_of_variables_marginal", cov["residual_marginal"], 2e-3 * scale)
    if "residual_joint" in cov:
        record("change_of_variables_joint", cov["residual_joint"], 2e-3 * scale)

    # canned probe: finite-rank kernel vs the matrix-exponential reference
    probe_grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(3,),
        r_bounds=((0.0, 1.0),), r_counts=(33,),
        time_nodes=np.array([0.0, 0.25]),
    )
    probe_kernel = separable_kernel(
        terms=((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    )
    datum = make_initial("gaussian", x_center=0.5, x_width=0.3)
    xs_p = probe_grid.x_labels()
    rs_p = probe_grid.r_labels()
    u0 = datum(
        np.repeat(xs_p[:, None, :], probe_grid.num_r, axis=1),
        np.broadcast_to(
            rs_p[None], (probe_grid.num_x, probe_grid.num_r, 1)
        ),
    )
    state, _ = picard_solve(
        u0, zero_field(1, 1), probe_kernel,
        SolverConfig(picard_tol=1e-12, nodes_per_slab=17),
        probe_grid, 0.0, 0.25,
    )
    ref = separable_solve(probe_kernel, state.u0, probe_grid, state.times)
    record(
        "oracle_equivalence",
        float(np.max(np.abs(state.values - ref))), 4e-6 * scale,
    )

    # canned probe: fragmentation cascade mass law over many slabs
    mass_grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((1e-8, 1.0),), r_counts=(257,),
        time_nodes=np.array([0.0, 1.0]), r_spacing="geometric",
    )
    sol = continue_solution(
        make_initial("log_gaussian"), zero_field(1, 1),
        fragmentation_kernel(scale=2.0),
        SolverConfig(picard_tol=1e-9, nodes_per_slab=17, slab_time_samples=3),
        mass_grid, 1.0,
    )
    _, masses = sol.mass_history()
    rel = abs(masses[-1] - np.exp(2.0) * masses[0]) / (np.exp(2.0) * masses[0])
    record("mass_law", rel, 1e-3 * scale)

    return checks


def _cmd_verify(cfg: dict, stem: str, out_dir: Path):
    field = _build_field(cfg["field"])
    grid = _build_grid(cfg["grid"])
    t = float(cfg.get("t", 0.5))
    flow_tol = float(cfg.get("flow_tol", 1e-10))
    scale = float(cfg.get("tolerance_scale", 1.0))
    if t <= 0:
        raise ConfigError("t must be positive")
    if scale <= 0:
        raise ConfigError("tolerance_scale must be positive")
    checks = _verify_battery(field, grid, t, flow_tol, scale)
    passed = all(c["passed"] for c in checks.values())
    payload = {
        "command": "verify",
        "field": field.name,
        "t": t,
        "tolerance_scale": scale,
        "checks": checks,
        "passed": passed,
    }
    with open(out_dir / f"{stem}.csv", "w", encoding="utf-8") as fh:
        fh.write("check,measured,tolerance,passed\n")
        for name, c in checks.items():
            fh.write(
                f"{name},{c['measured']:.17g},{c['tolerance']:.17g},"
                f"{c['passed']}\n"
            )
    return payload, passed


_COMMANDS = {
    "flow": _cmd_flow,
    "solve": _cmd_solve,
    "stability": _cmd_stability,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}

_HELP = {
    "flow": "integrate a label grid along a field and export trajectories",
    "solve": "run the slab/Picard solver for a field-kernel pair",
    "stability": "mollified-field convergence study",
    "counterexample": "weak-but-not-strong density convergence study",
    "verify": "self-check battery on a field/grid configuration",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagtransport",
        description="Transport equations with integral source terms "
        "along regular Lagrangian flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2

    stem = _config_stem(args.command, cfg)
    try:
        payload, verdict = _COMMANDS[args.command](cfg, stem, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        FlowIntegrationError,
        PreconditionError,
        PicardConvergenceError,
        SlabSelectionError,
        FieldValidationError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = "ok" if verdict else "FAILED"
    print(f"{args.command}: {status}  ->  {out_dir / stem}.json")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
