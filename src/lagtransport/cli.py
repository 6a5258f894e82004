"""Command line front end.

Subcommands: flow, solve, stability, counterexample, verify.  Each takes
a JSON config (--config), writes a CSV and a JSON result whose names are
derived from a hash of the config, and signals its verdict through the
exit code:

    0  success, all criteria met
    1  computation finished but a criterion or check failed
    2  configuration rejected (bad JSON, unknown keys, invalid values)
    3  numerical failure (integration, contraction, precondition, non-finite result)

Configs declare schema_version 1 and are validated against a strict
whitelist; unknown keys anywhere are rejected before anything runs, and
no output files are written unless the computation finishes with a
finite result.  A run that exits 2 or 3 removes the output directories
it created, while they are empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .experiments import (
    counterexample_experiment,
    rows_to_csv,
    stability_experiment,
)
from .fields import (
    fragmentation_kernel,
    make_field,
    make_kernel,
    separable_kernel,
    zero_field,
)
from .flow import (
    NumericalFailure,
    check_compressibility,
    flow_from,
    flow_map,
    flow_map_to_csv,
    integrate_flow,
    verify_change_of_variables,
)
from .grid import GridSpec
from .oracle import separable_solve
from .transport import (
    SolverConfig,
    check_horizon,
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

# a catalogue entry: a field, kernel or initial datum
_NAMED_SCHEMA = {"name": (_REQUIRED, str), "params": (_OPTIONAL, _OPEN)}
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
    "picard_tol": (_OPTIONAL, (int, float)),
    "nodes_per_slab": (_OPTIONAL, int),
    "slab_time_samples": (_OPTIONAL, int),
}

# command -> {key: (status, expected type)}; a study argument that the
# experiment takes as a tuple adds its element parser as a third entry
_SCHEMAS = {
    "flow": {
        "schema_version": (_REQUIRED, int),
        "field": (_REQUIRED, _NAMED_SCHEMA),
        "grid": (_REQUIRED, _GRID_SCHEMA),
        "direction": (_OPTIONAL, str),
        "tol": (_OPTIONAL, (int, float)),
    },
    "solve": {
        "schema_version": (_REQUIRED, int),
        "field": (_REQUIRED, _NAMED_SCHEMA),
        "kernel": (_OPTIONAL, _NAMED_SCHEMA),
        "grid": (_REQUIRED, _GRID_SCHEMA),
        "initial": (_REQUIRED, _NAMED_SCHEMA),
        "t_end": (_REQUIRED, (int, float)),
        "solver": (_OPTIONAL, _SOLVER_SCHEMA),
    },
    "stability": {
        "schema_version": (_REQUIRED, int),
        "eps_values": (_OPTIONAL, list, float),
        "k": (_OPTIONAL, int),
        "mu": (_OPTIONAL, (int, float)),
        "t_end": (_OPTIONAL, (int, float)),
        "checkpoints": (_OPTIONAL, list, float),
        "final_threshold": (_OPTIONAL, (int, float)),
        "monotone_slack": (_OPTIONAL, (int, float)),
    },
    "counterexample": {
        "schema_version": (_REQUIRED, int),
        "k_values": (_OPTIONAL, list),
        "t": (_OPTIONAL, (int, float)),
        "line_nodes": (_OPTIONAL, int),
        "window": (_OPTIONAL, list, float),
        "weak_constant": (_OPTIONAL, (int, float)),
        "floor_fraction": (_OPTIONAL, (int, float)),
        "spread_tol": (_OPTIONAL, (int, float)),
    },
    "verify": {
        "schema_version": (_REQUIRED, int),
        "field": (_REQUIRED, _NAMED_SCHEMA),
        "grid": (_REQUIRED, _GRID_SCHEMA),
        "t": (_OPTIONAL, (int, float)),
        "flow_tol": (_OPTIONAL, (int, float)),
        "tolerance_scale": (_OPTIONAL, (int, float)),
    },
}


def _check_numbers(value, path: str) -> None:
    """Reject any leaf of `value` that is not a number: null, true,
    false and strings are not numbers."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_numbers(item, f"{path}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, not {json.dumps(value)}")


def _check_schema(obj, schema, path: str) -> None:
    """Check `obj` against a schema of key -> (status, expected type, ...).

    Outside the keys typed `str`, a config holds only numbers, lists and
    objects, so null, true, false and strings never stand for a number."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in obj:
        if key not in schema:
            raise ConfigError(f"unknown key {path}{key!r}")
        expect = schema[key][1]
        if isinstance(expect, dict):
            _check_schema(obj[key], expect, f"{path}{key}.")
            continue
        if expect is _OPEN:
            if not isinstance(obj[key], dict):
                raise ConfigError(f"{path}{key!r} must be an object")
        elif not isinstance(obj[key], expect):
            names = (
                expect.__name__
                if isinstance(expect, type)
                else "/".join(t.__name__ for t in expect)
            )
            raise ConfigError(f"{path}{key!r} must be {names}")
        if expect is not str:
            _check_numbers(obj[key], f"{path}{key}")
    for key, (status, *_) in schema.items():
        if status == _REQUIRED and key not in obj:
            raise ConfigError(f"missing required key {path}{key!r}")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number")


def _in_float_range(parse):
    """`parse` for the text of a JSON number, rejecting a number beyond
    the range of a float."""
    def hook(text: str):
        if not np.isfinite(float(text)):
            short = text if len(text) <= 20 else f"{text[:12]}..."
            raise ValueError(f"{short} is beyond the range of a float")
        return parse(text)
    return hook


def load_config(path, command: str) -> dict:
    """The config at `path`, checked against the command's schema.
    NaN, Infinity and numbers beyond the range of a float are rejected;
    other numbers parse as by default."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(raw, parse_constant=_reject_constant,
                         parse_float=_in_float_range(float),
                         parse_int=_in_float_range(int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except ValueError as exc:  # from the number hooks
        raise ConfigError(f"invalid number in {path}: {exc}") from exc
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


def _time_nodes(spec: dict) -> np.ndarray:
    """The grid config's time nodes: a list, or {start, stop, num} spaced
    as by np.linspace; [0, 1] when absent."""
    nodes = spec.get("time_nodes", [0.0, 1.0])
    try:
        if isinstance(nodes, dict):
            if set(nodes) != {"start", "stop", "num"}:
                raise ValueError("need exactly the keys start, stop and num")
            if type(nodes["num"]) is not int or nodes["num"] < 0:
                raise ValueError("num must be a non-negative integer")
            nodes = np.linspace(
                float(nodes["start"]), float(nodes["stop"]), nodes["num"]
            )
        nodes = np.asarray(nodes, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid time_nodes: {exc}") from exc
    if (nodes.ndim != 1 or nodes.size < 2 or not np.all(np.isfinite(nodes))
            or np.any(np.diff(nodes) <= 0)):
        raise ConfigError(
            "time_nodes must be a flat list of >= 2 finite, strictly "
            "increasing times"
        )
    return nodes


def _build_grid(spec: dict) -> GridSpec:
    try:
        return GridSpec(
            x_bounds=spec["x_bounds"],
            x_counts=tuple(spec["x_counts"]),
            r_bounds=spec.get("r_bounds", ()),
            r_counts=tuple(spec.get("r_counts", ())),
            r_spacing=spec.get("r_spacing", "uniform"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _build_named(kind: str, spec: dict | None):
    """The catalogue entry a {name, params} spec names, or None without a
    spec.  `kind` is "field", "kernel" or "initial datum".

    The builders are looked up when called, not held in a module-level
    table, so a rebound `make_field` or `make_kernel` takes effect.
    """
    if spec is None:
        return None
    builder = {
        "field": make_field, "kernel": make_kernel, "initial datum": make_initial,
    }[kind]
    try:
        return builder(spec["name"], **spec.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind}: {exc}") from exc


def _check_dimensions(field, grid: GridSpec) -> None:
    if field.n != grid.n or field.j != grid.j:
        raise ConfigError(
            f"field {field.name!r} has n = {field.n}, j = {field.j} but the "
            f"grid has n = {grid.n}, j = {grid.j}"
        )


def _build_solver(spec: dict | None, grid: GridSpec) -> SolverConfig:
    """The solver settings; the norm's window must fit `grid`."""
    try:
        config = SolverConfig(**(spec or {}))
        config.norm_spec().weights(grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc
    return config


def _finite_positive(cfg: dict, key: str, default: float) -> float:
    value = float(cfg.get(key, default))
    if not 0.0 < value < np.inf:  # also rejects NaN
        raise ConfigError(f"{key} must be finite and positive, got {value!r}")
    return value


# =====================================================================
# subcommands
# =====================================================================


def _cmd_flow(cfg: dict, stem: str, out_dir: Path):
    field = _build_named("field", cfg["field"])
    grid = _build_grid(cfg["grid"])
    _check_dimensions(field, grid)
    times = _time_nodes(cfg["grid"])
    direction = cfg.get("direction", "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError(f"unknown direction {direction!r}")
    tol = _finite_positive(cfg, "tol", 1e-10)
    fmap = flow_map(field, grid, times, tol=tol, direction=direction)
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
    field = _build_named("field", cfg["field"])
    grid = _build_grid(cfg["grid"])
    _check_dimensions(field, grid)
    t0 = float(_time_nodes(cfg["grid"])[0])
    kernel = _build_named("kernel", cfg.get("kernel"))
    datum = _build_named("initial datum", cfg["initial"])
    config = _build_solver(cfg.get("solver"), grid)
    if kernel is not None and grid.j != 1:
        raise ConfigError(f"a kernel needs a grid with j = 1, not j = {grid.j}")
    if kernel is not None and not 1.0 < config.p < np.inf:
        raise ConfigError(
            f"invalid solver settings: p = {config.p} with a kernel; "
            "the slab bound needs a finite p > 1"
        )
    labels = grid.joint_labels()
    try:
        u0 = datum(labels[..., : grid.n], labels[..., grid.n :])
    except ValueError as exc:
        raise ConfigError(f"invalid initial datum: {exc}") from exc
    t_end = float(cfg["t_end"])
    try:
        check_horizon(t0, t_end)
    except ValueError as exc:
        raise ConfigError(f"{exc} (t0 is the first time node)") from exc
    sol = continue_solution(u0, field, kernel, config, grid, t_end, t0=t0)
    payload = {
        "command": "solve",
        "t_end": t_end,
        "run": sol.run_summary(),
        "mass_times": [float(t) for t in sol.mass_times],
        "masses": [float(m) for m in sol.masses],
        "final_exit_fraction": sol.final.exit_fraction,
    }
    slice_to_csv(sol.final, out_dir / f"{stem}.csv")
    return payload, True


def _cmd_study(command: str, cfg: dict, stem: str, out_dir: Path):
    """The stability and counterexample commands: run the experiment on
    the config's arguments (every schema key but schema_version, parsed
    into a tuple where the schema gives an element parser) and write its
    report."""
    experiment = {
        "stability": stability_experiment,
        "counterexample": counterexample_experiment,
    }[command]
    kwargs = {}
    for key, (_, _, *parse) in _SCHEMAS[command].items():
        if key in cfg and key != "schema_version":
            try:
                kwargs[key] = tuple(map(parse[0], cfg[key])) if parse else cfg[key]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid {command} argument {key!r}: {exc}") from exc
    try:
        report = experiment(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows_to_csv(report.rows, out_dir / f"{stem}.csv")
    payload = {
        "command": command,
        "name": report.name,
        "params": report.params,
        "rows": report.rows,
        "criteria": report.criteria,
        "passed": report.passed,
    }
    return payload, report.passed


# --- verify battery ---------------------------------------------------


def _verify_battery(
    field, grid: GridSpec, t0: float, t: float, flow_tol: float, scale: float,
) -> dict:
    """Named self-checks with scaled tolerances.

    Checks the config's field/grid over [t0, t0 + t] for flow consistency
    (semigroup law, inverse round trip, density bounds, change of
    variables) and runs two canned solver probes (finite-rank oracle
    equivalence, fragmentation mass law) whose expected accuracy is known
    a priori.  `scale`
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
            field, direct[1], np.array([t0 + 0.5 * t, t0 + t]), tol=flow_tol,
        )
        err = max(err, float(np.max(np.abs(restart[-1] - direct[-1]))))
    record("semigroup", err, 1e-8 * scale)

    # one forward and one backward map of the grid for every flow check
    fmap = flow_map(field, grid, times=np.linspace(t0, t0 + t, 9), tol=flow_tol)
    bwd = flow_map(field, grid, [t0, t0 + t], tol=flow_tol, direction="backward")

    # inverse round trip: backward labels flowed forward return to the grid
    xpos, _, rpos, _ = flow_from(
        field, bwd.x1[-1], bwd.x2[-1], (t0, t0 + t), np.array([t0 + t]), flow_tol
    )
    err = float(np.max(np.abs(xpos[-1] - xs)))
    if grid.j:
        err = max(err, float(np.max(np.abs(rpos[-1] - rs))))
    record("inverse_round_trip", err, 1e-7 * scale)

    # density bounds along stored trajectories
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

    cov = verify_change_of_variables(fmap, bwd, phi_x, phi_joint)
    record("change_of_variables_marginal", cov["residual_marginal"], 2e-3 * scale)
    if "residual_joint" in cov:
        record("change_of_variables_joint", cov["residual_joint"], 2e-3 * scale)

    # canned probe: finite-rank kernel vs the matrix-exponential reference
    probe_grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(3,),
        r_bounds=((0.0, 1.0),), r_counts=(33,),
    )
    probe_kernel = separable_kernel(
        terms=((0.5, 0.2, 0.6, 0.25, 1.0), (0.3, 0.15, 0.35, 0.2, 0.6))
    )
    datum = make_initial("gaussian", x_center=0.5, x_width=0.3)
    labels = probe_grid.joint_labels()
    u0 = datum(labels[..., :1], labels[..., 1:])
    probe_flow = flow_map(zero_field(1, 1), probe_grid, np.linspace(0.0, 0.25, 17))
    state, _ = picard_solve(
        u0, probe_flow, probe_kernel, SolverConfig(picard_tol=1e-12)
    )
    ref = separable_solve(probe_kernel, state.u0, probe_grid, state.times)
    record(
        "oracle_equivalence",
        float(np.max(np.abs(state.values - ref))), 4e-6 * scale,
    )

    # canned probe: fragmentation cascade mass law over many slabs
    mass_grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((1e-8, 1.0),), r_counts=(257,), r_spacing="geometric",
    )
    masses = continue_solution(
        make_initial("log_gaussian"), zero_field(1, 1),
        fragmentation_kernel(scale=2.0),
        SolverConfig(picard_tol=1e-9, nodes_per_slab=17),
        mass_grid, 1.0,
    ).masses
    rel = abs(masses[-1] - np.exp(2.0) * masses[0]) / (np.exp(2.0) * masses[0])
    record("mass_law", rel, 1e-3 * scale)

    return checks


def _cmd_verify(cfg: dict, stem: str, out_dir: Path):
    field = _build_named("field", cfg["field"])
    grid = _build_grid(cfg["grid"])
    _check_dimensions(field, grid)
    t0 = float(_time_nodes(cfg["grid"])[0])
    t = _finite_positive(cfg, "t", 0.5)
    flow_tol = _finite_positive(cfg, "flow_tol", 1e-10)
    scale = _finite_positive(cfg, "tolerance_scale", 1.0)
    checks = _verify_battery(field, grid, t0, t, flow_tol, scale)
    passed = all(c["passed"] for c in checks.values())
    payload = {
        "command": "verify",
        "field": field.name,
        "t": t,
        "tolerance_scale": scale,
        "checks": checks,
        "passed": passed,
    }
    rows_to_csv(
        [{"check": name, **c} for name, c in checks.items()],
        out_dir / f"{stem}.csv",
    )
    return payload, passed


_COMMANDS = {
    "flow": _cmd_flow,
    "solve": _cmd_solve,
    "stability": partial(_cmd_study, "stability"),
    "counterexample": partial(_cmd_study, "counterexample"),
    "verify": _cmd_verify,
}

_HELP = {
    "flow": "integrate a label grid along a field and export trajectories",
    "solve": "run the slab/Picard solver for a field-kernel pair",
    "stability": "mollified-field convergence study",
    "counterexample": "weak-but-not-strong density convergence study",
    "verify": "self-check battery on a field/grid configuration",
}


def _remove_empty(dirs: list[Path]) -> None:
    """Remove `dirs` in order, stopping at the first that is not empty
    (or cannot be removed)."""
    for d in dirs:
        try:
            d.rmdir()
        except OSError:
            return


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
    # the directories this run makes, deepest first: a rejected run
    # removes those that are still empty
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out_dir}: {exc}", file=sys.stderr)
        _remove_empty(created)
        return 2

    stem = _config_stem(args.command, cfg)
    try:
        payload, verdict = _COMMANDS[args.command](cfg, stem, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _remove_empty(created)
        return 2
    except MemoryError as exc:
        # a size numpy refuses to allocate: the config asks for more than
        # the machine has
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        _remove_empty(created)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _remove_empty(created)
        return 3

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # NaN and Infinity are not JSON: a number the run could not compute
        print(f"numerical failure: the result is not finite: {exc}", file=sys.stderr)
        (out_dir / f"{stem}.csv").unlink(missing_ok=True)
        _remove_empty(created)
        return 3
    (out_dir / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
    status = "ok" if verdict else "FAILED"
    print(f"{args.command}: {status}  ->  {out_dir / stem}.json")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
