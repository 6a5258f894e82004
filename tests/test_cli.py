"""Command line interface: config validation, outputs, exit codes."""

import copy
import dataclasses
import json
import random
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import Counting

PI = 3.141592653589793
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lagtransport.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,  # a config that integrates toward t = inf must not hang
    )


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def flow_config():
    return {
        "schema_version": 1,
        "field": {"name": "logistic", "params": {"k": 1, "mu": 0.3}},
        "grid": {
            "x_bounds": [[-PI, PI]],
            "x_counts": [9],
            "r_bounds": [[0.1, 0.9]],
            "r_counts": [5],
            "time_nodes": {"start": 0.0, "stop": 0.3, "num": 4},
        },
    }


def solve_config():
    return {
        "schema_version": 1,
        "field": {"name": "zero", "params": {"n": 1, "j": 1}},
        "kernel": {"name": "separable"},
        "grid": {
            "x_bounds": [[0.0, 1.0]],
            "x_counts": [2],
            "r_bounds": [[0.0, 1.0]],
            "r_counts": [17],
            "time_nodes": [0.0, 0.5],
        },
        "initial": {"name": "gaussian", "params": {"x_center": 0.5}},
        "t_end": 0.5,
        "solver": {"picard_tol": 1e-9, "nodes_per_slab": 9},
    }


def verify_config():
    return {
        "schema_version": 1,
        "field": {"name": "logistic", "params": {"k": 2, "mu": 0.3}},
        "grid": {
            "x_bounds": [[-PI, PI]],
            "x_counts": [33],
            "r_bounds": [[0.05, 0.95]],
            "r_counts": [17],
            "time_nodes": [0.0, 0.5],
        },
        "t": 0.5,
    }


# ---------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------


def test_flow_writes_hashed_outputs(tmp_path):
    cfg = write_config(tmp_path / "flow.json", flow_config())
    res = run_cli("flow", "--config", cfg, "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    csvs = list((tmp_path / "out").glob("flow_*.csv"))
    jsons = list((tmp_path / "out").glob("flow_*.json"))
    assert len(csvs) == 1 and len(jsons) == 1
    assert csvs[0].stem == jsons[0].stem
    payload = json.loads(jsons[0].read_text())
    assert payload["density_bounds_ok"] is True
    assert payload["command"] == "flow"
    rows = np.loadtxt(csvs[0], delimiter=",", skiprows=1)
    assert rows.shape[1] == 7  # label, t, position, logJ1, logJ


def test_backward_flow_on_few_nodes_keeps_density_bounds(tmp_path):
    payload = flow_config()
    payload["grid"]["time_nodes"]["stop"] = 0.5
    payload["direction"] = "backward"
    cfg = write_config(tmp_path / "flow.json", payload)
    res = run_cli("flow", "--config", cfg, "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stdout + res.stderr
    payload = json.loads(next((tmp_path / "out").glob("flow_*.json")).read_text())
    assert payload["density_bounds_ok"] is True
    assert payload["violations"] == []


def test_flow_output_name_depends_on_config(tmp_path):
    cfg_a = write_config(tmp_path / "a.json", flow_config())
    payload = flow_config()
    payload["grid"]["x_counts"] = [11]
    cfg_b = write_config(tmp_path / "b.json", payload)
    out = str(tmp_path / "out")
    assert run_cli("flow", "--config", cfg_a, "--out", out).returncode == 0
    assert run_cli("flow", "--config", cfg_b, "--out", out).returncode == 0
    assert len(list((tmp_path / "out").glob("flow_*.json"))) == 2


def test_solve_reports_mass_history(tmp_path):
    cfg = write_config(tmp_path / "solve.json", solve_config())
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    payload = json.loads(next(tmp_path.glob("solve_*.json")).read_text())
    assert payload["run"]["kernel"] == "separable"
    masses = payload["masses"]
    assert len(masses) == len(payload["mass_times"])
    # positive separable kernel grows the total mass
    assert masses[-1] > masses[0]
    for slab in payload["run"]["slabs"]:
        assert slab["residual"] <= 2e-9


def test_counterexample_subcommand(tmp_path):
    cfg = write_config(
        tmp_path / "ce.json",
        {"schema_version": 1, "k_values": [2, 4], "line_nodes": 1025},
    )
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        res = run_cli("counterexample", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
    payload = json.loads(next(outs[0].glob("counterexample_*.json")).read_text())
    assert payload["passed"] is True
    # reports carry no timing data: a rerun writes identical bytes
    for pattern in ("counterexample_*.json", "counterexample_*.csv"):
        (first,), (second,) = (list(out.glob(pattern)) for out in outs)
        assert first.name == second.name
        assert first.read_bytes() == second.read_bytes()


def test_verify_battery_passes_at_default_scale(tmp_path):
    cfg = write_config(tmp_path / "verify.json", verify_config())
    res = run_cli("verify", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    payload = json.loads(next(tmp_path.glob("verify_*.json")).read_text())
    assert payload["passed"] is True
    names = set(payload["checks"])
    assert {
        "semigroup", "inverse_round_trip", "density_bounds",
        "change_of_variables_marginal", "change_of_variables_joint",
        "oracle_equivalence", "mass_law",
    } <= names


def test_verify_flow_checks_share_one_forward_and_one_backward_map(
    tmp_path, monkeypatch,
):
    # the round trip, the density bounds and the change of variables read
    # the same two maps: 18 integrator calls, of which the forward and
    # backward maps of the config's grid make 2 each
    from lagtransport import cli, flow

    maps, calls = [], []

    def recording(*args, _real=flow.flow_map, **kwargs):
        maps.append(_real(*args, **kwargs))
        return maps[-1]

    def counting(*args, _real=flow.solve_ivp, **kwargs):
        calls.append(args[1])
        return _real(*args, **kwargs)

    monkeypatch.setattr(cli, "flow_map", recording)
    monkeypatch.setattr(flow, "solve_ivp", counting)
    cfg = str(CONFIGS / "verify_logistic.json")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 18
    fwd, bwd, _ = maps  # the third is the oracle probe's
    assert fwd.times.size == 9 and list(bwd.times) == [0.0, 0.5]
    assert fwd.grid == bwd.grid and fwd.x2.shape[1] == bwd.x2.shape[1] == 1


# ---------------------------------------------------------------------
# verdict failures (exit 1)
# ---------------------------------------------------------------------


def test_verify_fails_when_tolerances_scaled_down(tmp_path):
    payload = verify_config()
    payload["tolerance_scale"] = 0.1
    cfg = write_config(tmp_path / "verify.json", payload)
    res = run_cli("verify", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1
    out = json.loads(next(tmp_path.glob("verify_*.json")).read_text())
    assert out["passed"] is False
    failing = [n for n, c in out["checks"].items() if not c["passed"]]
    assert failing  # the scaled-down windows expose the real margins


def _verify_csv_by_hand(checks):
    """Reference: the rows the verify command used to write itself."""
    text = "check,measured,tolerance,passed\n"
    for name, c in checks.items():
        text += (f"{name},{c['measured']:.17g},{c['tolerance']:.17g},"
                 f"{c['passed']}\n")
    return text.encode("utf-8")


@pytest.mark.parametrize("scale", [1.0, 0.1], ids=["passing", "failing"])
def test_verify_csv_keeps_its_bytes(tmp_path, scale, monkeypatch):
    # the verify CSV goes through the experiment reports' row writer and
    # keeps the bytes of the rows written by hand, failing checks included
    from lagtransport import cli

    batteries = []

    def recording(*args, _real=cli._verify_battery):
        batteries.append(_real(*args))
        return batteries[-1]

    monkeypatch.setattr(cli, "_verify_battery", recording)
    payload = verify_config()
    payload["tolerance_scale"] = scale
    cfg = write_config(tmp_path / "verify.json", payload)
    code = cli.main(["verify", "--config", cfg, "--out", str(tmp_path)])
    (checks,) = batteries
    assert code == (0 if scale == 1.0 else 1)
    assert any(not c["passed"] for c in checks.values()) == (code == 1)
    csv = next(tmp_path.glob("verify_*.csv")).read_bytes()
    assert csv == _verify_csv_by_hand(checks)


def test_counterexample_fails_with_impossible_floor(tmp_path):
    cfg = write_config(
        tmp_path / "ce.json",
        {
            "schema_version": 1,
            "k_values": [2, 4],
            "line_nodes": 1025,
            "floor_fraction": 1.5,
        },
    )
    res = run_cli("counterexample", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 1


def test_cli_runtime_does_not_import_scipy(tmp_path):
    cfg = write_config(tmp_path / "s.json", solve_config())
    script = (
        "import sys\n"
        "import lagtransport.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by lagtransport.cli'\n"
        f"code = lagtransport.cli.main(['solve', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by a solve'\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert list(tmp_path.glob("solve_*.json"))


# ---------------------------------------------------------------------
# config rejection (exit 2)
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update({"bogus": 1}),
        lambda c: c["grid"].update({"extra_key": True}),
        lambda c: c.update({"schema_version": 99}),
        lambda c: c.pop("field"),
        lambda c: c["grid"].update({"x_bounds": [[1.0, -1.0]]}),
        lambda c: c["field"].update({"name": "no_such_field"}),
        lambda c: c.update({"tol": 0}),
        lambda c: c.update({"tol": -1}),
        lambda c: c["grid"].update({"time_nodes": [0.0, 0.3, 0.2]}),
        lambda c: c["grid"]["time_nodes"].update({"num": -1}),
        lambda c: c["grid"]["time_nodes"].update({"num": "x"}),
        lambda c: c["grid"]["time_nodes"].update({"num": 2.5}),
        lambda c: c["grid"]["time_nodes"].pop("stop"),
        lambda c: c["grid"].update({"time_nodes": [0.5]}),
        lambda c: c["grid"].update({"time_nodes": [[0.0, 0.1], [0.2, 0.3]]}),
        lambda c: c["grid"].update({"time_nodes": [0.0, float("inf")]}),
        # an n = 1, j = 0 field on the j = 1 grid
        lambda c: c.update({"field": {"name": "linear"}}),
        # integrating at an infinite tolerance never ends
        lambda c: c.update({"tol": float("inf")}),
        # b1 = sin(kx)/k is NaN everywhere at k = 0
        lambda c: c["field"]["params"].update({"k": 0}),
    ],
)
def test_bad_configs_exit_2(tmp_path, mutate):
    payload = flow_config()
    mutate(payload)
    cfg = write_config(tmp_path / "bad.json", payload)
    res = run_cli("flow", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr
    # nothing may be written for a rejected config
    assert not list(tmp_path.glob("flow_*.json"))


# Gaussian data the solve grid (n = j = 1) cannot take
_BAD_GAUSSIANS = (
    {"x_center": [[0.5, 0.5], [0.5, 0.5]]},
    {"r_center": [[0.5, 0.5], [0.5, 0.5]]},
    {"x_center": [0.5, 0.2]},
    {"r_center": [0.5, 0.4]},
    {"x_width": 0},
    {"r_width": 0},
    {"x_width": -1},
)


# the message a rejected config prints, where the test pins it
_PAIRS = " must hold one (lo, hi) pair of numbers per axis"
_BAD_CONFIG_MESSAGES = {
    "solve-x_bound_of_one": "x_bounds" + _PAIRS,
    "solve-x_bounds_flat": "x_bounds" + _PAIRS,
    "solve-r_bound_of_three": "r_bounds" + _PAIRS,
    "solve-window_flat": "window" + _PAIRS,
}


def _set_datum(params, cfg):
    cfg["initial"] = {"name": "gaussian", "params": params}


@pytest.mark.parametrize(
    "command, mutate",
    [
        ("solve", lambda c: c.update(
            {"kernel": {"name": "constant", "params": {"j": 2}}})),
        ("solve", lambda c: c.update(
            {"kernel": {"name": "fragmentation", "params": {"scale": "two"}}})),
        ("solve", lambda c: c.update(
            {"kernel": {"name": "constant", "params": {"c": "x"}}})),
        ("solve", lambda c: c["grid"].update(
            {"time_nodes": {"start": 0.0, "stop": 0.5, "num": -1}})),
        ("solve", lambda c: c["grid"].update({"time_nodes": [0.5, 0.0]})),
        ("solve", lambda c: c.update({"t_end": 0.0})),
        ("verify", lambda c: c.update({"flow_tol": 0})),
        ("verify", lambda c: c.update({"flow_tol": -1e-10})),
        ("verify", lambda c: c["grid"].update(
            {"time_nodes": {"start": 0.0, "num": 3}})),
        ("solve", lambda c: c.update(
            {"field": {"name": "zero", "params": {"n": 2, "j": 1}}})),
        ("verify", lambda c: c.update({"field": {"name": "linear"}})),
        # kernels take no j: they act on the grid's one fiber axis
        ("solve", lambda c: c.update(
            {"kernel": {"name": "constant", "params": {"j": 1}}})),
        ("solve", lambda c: c.update({
            "field": {"name": "zero", "params": {"n": 1, "j": 0}},
            "grid": {"x_bounds": [[0.0, 1.0]], "x_counts": [3]},
        })),
        # the norm window must fit the grid
        ("solve", lambda c: c["solver"].update({"window": [[0.0, 1.0]]})),
        ("solve", lambda c: c["solver"].update({"window": [0.0, 1.0]})),
        ("solve", lambda c: c["solver"].update(
            {"window": [[0.0, 1.0], [0.5, 0.51]]})),
        ("solve", lambda c: c["solver"].update(
            {"window": [[2.0, 3.0], [0.0, 1.0]]})),
        # non-finite times and tolerances
        ("solve", lambda c: c.update({"t_end": float("inf")})),
        ("verify", lambda c: c.update({"t": float("inf")})),
        ("verify", lambda c: c.update({"flow_tol": float("inf")})),
        ("verify", lambda c: c.update({"tolerance_scale": float("inf")})),
        # NaN, Infinity and integers beyond float range are not numbers
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": float("nan")}}})),
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": float("inf")}}})),
        ("solve", lambda c: c.update({"t_end": 10**400})),
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 0, "mu": 0.3}}})),
        # counts are integers and true is not a number
        ("solve", lambda c: c["grid"].update({"x_counts": [3.7]})),
        ("solve", lambda c: c.update({"t_end": True})),
        # outside the keys typed str, a config holds only numbers, lists
        # and objects: null, true, false and strings are not numbers
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": "0.3"}}})),
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": None}}})),
        ("solve", lambda c: c["initial"]["params"].update({"x_center": None})),
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": True}}})),
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": True, "mu": 0.3}}})),
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": 0.3, "eps": "0.05"}}})),
        ("solve", lambda c: c.update(
            {"kernel": {"name": "constant", "params": {"c": "0.5"}}})),
        ("solve", lambda c: c.update({"kernel": {
            "name": "separable",
            "params": {"terms": [[0.5, 0.2, 0.6, 0.25, True]]}}})),
        ("solve", lambda c: c["solver"].update(
            {"window": [[0.0, True], [0.0, 1.0]]})),
        ("solve", lambda c: c["solver"].update(
            {"window": [["0.0", 1.0], [0.0, 1.0]]})),
        ("solve", lambda c: c["grid"].update({"x_bounds": [["0", 1.0]]})),
        ("solve", lambda c: c["grid"].update({"x_bounds": [[0.0, True]]})),
        # a bound is a (lo, hi) pair
        ("solve", lambda c: c["grid"].update({"x_bounds": [[0.5]]})),
        ("solve", lambda c: c["grid"].update({"x_bounds": [3, 1e-9]})),
        ("solve", lambda c: c["grid"].update({"r_bounds": [[0.0, 0.5, 1.0]]})),
        ("solve", lambda c: c["grid"].update({"time_nodes": ["0", 0.5]})),
        ("solve", lambda c: c["grid"].update({"time_nodes": [False, 0.5]})),
        ("solve", lambda c: c["grid"].update(
            {"time_nodes": {"start": False, "stop": 0.5, "num": 3}})),
        # a list is not a rate: the catalogue builders convert with float()
        ("solve", lambda c: c.update({"field": {
            "name": "logistic", "params": {"k": 1, "mu": [0.3]}}})),
        # a horizon inside the slab loop's end tolerance has no slab
        ("solve", lambda c: c.update({"t_end": 1e-13})),
        ("solve", lambda c: c.update({"t_end": 5e-13})),
        ("solve", lambda c: c.update({"t_end": 1e-12})),
        ("solve", lambda c: (c["grid"].update({"time_nodes": [1e6, 1e6 + 0.5]}),
                             c.update({"t_end": 1e6 + 1e-7}))),
        # a log-Gaussian reads a j = 1 fiber, and a j = 0 grid has none
        ("solve", lambda c: (c.pop("kernel"), c.update({
            "field": {"name": "zero", "params": {"n": 1, "j": 0}},
            "grid": {"x_bounds": [[0.0, 1.0]], "x_counts": [3],
                     "time_nodes": [0.0, 0.5]},
            "initial": {"name": "log_gaussian"},
        }))),
        # a Gaussian center is a number or a flat list of one value or one
        # per axis of its block, and a width is finite and positive
        *(("solve", partial(_set_datum, params)) for params in _BAD_GAUSSIANS),
    ],
    ids=[
        "solve-kernel_j", "solve-string_scale", "solve-string_c",
        "solve-time_num", "solve-decreasing_times", "solve-t_end_at_t0",
        "verify-flow_tol=0", "verify-flow_tol<0", "verify-time_missing_stop",
        "solve-field_n2_on_n1_grid", "verify-field_j0_on_j1_grid",
        "solve-kernel_j1", "solve-kernel_on_j0_grid",
        "solve-window_one_interval", "solve-window_flat",
        "solve-window_under_2_nodes", "solve-window_outside_box",
        "solve-t_end=inf", "verify-t=inf", "verify-flow_tol=inf",
        "verify-tolerance_scale=inf", "solve-mu=NaN", "solve-mu=Infinity",
        "solve-t_end=10**400", "solve-k=0", "solve-x_counts=3.7",
        "solve-t_end=true", "solve-string_mu", "solve-null_mu",
        "solve-null_x_center", "solve-bool_mu", "solve-bool_k",
        "solve-string_eps", "solve-numeric_string_c", "solve-bool_in_terms",
        "solve-bool_in_window", "solve-string_in_window",
        "solve-string_x_bound", "solve-bool_x_bound", "solve-x_bound_of_one",
        "solve-x_bounds_flat", "solve-r_bound_of_three", "solve-string_time_node",
        "solve-bool_time_node", "solve-bool_time_start", "solve-list_mu",
        "solve-t_end=1e-13", "solve-t_end=5e-13", "solve-t_end=1e-12",
        "solve-t_end_1e-7_past_1e6", "solve-log_gaussian_on_j0_grid",
        *(f"solve-{'-'.join(f'{k}={v}' for k, v in params.items())}"
          for params in _BAD_GAUSSIANS),
    ],
)
def test_bad_solve_and_verify_configs_exit_2(tmp_path, request, command, mutate):
    payload = {"solve": solve_config, "verify": verify_config}[command]()
    mutate(payload)
    cfg = write_config(tmp_path / "bad.json", payload)
    out = tmp_path / "out"
    res = run_cli(command, "--config", cfg, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    message = _BAD_CONFIG_MESSAGES.get(request.node.callspec.id)
    assert message is None or message in res.stderr, res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("params", _BAD_GAUSSIANS)
def test_bad_gaussian_datum_is_rejected_before_any_work(
    tmp_path, monkeypatch, capsys, params
):
    from lagtransport import cli, transport

    solved = Counting(transport.continue_solution)
    monkeypatch.setattr(cli, "continue_solution", solved)
    cfg = solve_config()
    _set_datum(params, cfg)
    out = tmp_path / "out"
    path = write_config(tmp_path / "bad.json", cfg)
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "config error: invalid initial datum: " in capsys.readouterr().err
    assert solved.calls == 0
    assert not out.exists()


@pytest.mark.parametrize(
    "key, text",
    [("mu", "1e400"), ("t_end", "1" + "0" * 4999)],
    ids=["mu=1e400", "t_end=5000_digits"],
)
def test_numbers_beyond_float_range_exit_2(tmp_path, key, text):
    # json.dumps cannot write these numbers, so they replace a placeholder
    payload = solve_config()
    payload["field"] = {"name": "logistic", "params": {"k": 1, "mu": 0.3}}
    (payload["field"]["params"] if key == "mu" else payload)[key] = "NUMBER"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload).replace('"NUMBER"', text), encoding="utf-8")
    res = run_cli("solve", "--config", str(path), "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("solve_*.json"))


def test_accepted_numbers_parse_as_by_default(tmp_path):
    # the number hooks leave every accepted number, and so the config
    # hash, as default parsing gives it
    from lagtransport import cli

    payload = flow_config()
    payload["field"]["params"] = {
        "k": 12345678901234567890, "mu": 1e308, "a": -0.0, "b": 2.5e-300,
    }
    paths = [Path(write_config(tmp_path / "flow_numbers.json", payload))]
    paths += sorted((Path(__file__).parents[1] / "demos" / "configs").glob("*.json"))
    for path in paths:
        command = path.name.split("_")[0]
        loaded = cli.load_config(path, command)
        default = json.loads(path.read_text(encoding="utf-8"))
        assert json.dumps(loaded) == json.dumps(default)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    res = run_cli("flow", "--config", str(bad), "--out", str(tmp_path))
    assert res.returncode == 2


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("flow", "--config", str(tmp_path / "nope.json"))
    assert res.returncode == 2


def test_unknown_kernel_param_exits_2(tmp_path):
    payload = solve_config()
    payload["kernel"] = {"name": "fragmentation", "params": {"scale": 2.0, "x": 1}}
    cfg = write_config(tmp_path / "s.json", payload)
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2


@pytest.mark.parametrize(
    "settings",
    [
        {"max_iters": 0},
        {"nodes_per_slab": 1},
        {"slab_time_samples": 1},
        {"picard_tol": -1},
        {"flow_tol": 0},
        {"slab_target": -0.5},
        {"p": 0.5},
        # the kernel's slab bound needs 1 < p < inf
        {"p": 1},
        {"p": float("inf")},
        # the exterior fill is always 0; the setting no longer exists
        {"exterior_value": 0.0},
        {"picard_tol": float("inf")},
        {"flow_tol": float("inf")},
        {"slab_target": float("inf")},
        {"exit_fraction_limit": -1},
    ],
    ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()),
)
def test_invalid_solver_settings_exit_2(tmp_path, settings):
    payload = solve_config()
    payload["solver"].update(settings)
    cfg = write_config(tmp_path / "s.json", payload)
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("solve_*.json"))


def test_zero_kernel_is_rejected_naming_the_entry(tmp_path):
    # with no source term a config has no kernel key
    payload = solve_config()
    payload["kernel"] = {"name": "zero"}
    cfg = write_config(tmp_path / "s.json", payload)
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "invalid kernel:" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob("solve_*.json"))


@pytest.mark.parametrize(
    "entry, prefix",
    [
        ("field", "invalid field:"),
        ("kernel", "invalid kernel:"),
        ("initial", "invalid initial datum:"),
    ],
)
def test_unknown_catalogue_name_exits_2_naming_the_entry(tmp_path, entry, prefix):
    payload = solve_config()
    payload[entry] = {"name": "no_such_entry"}
    cfg = write_config(tmp_path / "s.json", payload)
    res = run_cli("solve", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert prefix in res.stderr
    assert "Traceback" not in res.stderr


# the message a rejected study prints, where the test pins it
_BAD_STUDY_MESSAGES = {
    "window_without_nodes":
        "window [0.3, 0.31] holds 0 of the 65 line_nodes; "
        "the window average needs at least 2",
    "window_between_nodes": "window [0.3, 0.35] holds 0 of the 65 line_nodes",
    "window_of_one_node": "window [0.3, 0.4] holds 1 of the 65 line_nodes",
    "one_line_node": "line_nodes must be at least 2, got 1",
    "negative_line_nodes": "line_nodes must be at least 2, got -1",
}


@pytest.mark.parametrize(
    "command, settings",
    [
        ("stability", {"eps_values": [0.2, 0.1]}),
        ("stability", {"eps_values": ["x", 0.1, 0.05]}),
        ("stability", {"checkpoints": [None]}),
        ("stability", {"checkpoints": []}),
        ("stability", {"checkpoints": [0]}),
        ("counterexample", {"k_values": [[2]]}),
        ("counterexample", {"window": ["a", "b"]}),
        ("stability", {"eps_values": [0.2, 0.1, 0.0]}),
        ("counterexample", {"k_values": [0, 2]}),
        ("counterexample", {"k_values": [-2, 4]}),
        ("counterexample", {"k_values": [float("inf")]}),
        # a wavenumber is an integer, not a fraction or a bool
        ("counterexample", {"k_values": [2.5, 4]}),
        ("counterexample", {"k_values": [True, 4]}),
        ("stability", {"k": 0}),
        ("stability", {"t_end": True}),
        # list elements are numbers, not bools or numeric strings
        ("stability", {"eps_values": [True, 0.1, 0.05]}),
        ("stability", {"eps_values": ["0.3", 0.1, 0.05]}),
        ("stability", {"checkpoints": [True]}),
        ("stability", {"checkpoints": ["0.3"]}),
        ("counterexample", {"window": [True, 2.3]}),
        ("counterexample", {"window": ["0.3", 2.3]}),
        # a window is two numbers, lo below hi
        ("counterexample", {"window": [1]}),
        ("counterexample", {"window": []}),
        ("counterexample", {"window": [0.3, 2.3, 5]}),
        ("counterexample", {"window": [2.3, 0.3]}),
        # the window average needs two line nodes inside the window
        ("counterexample", {"k_values": [2], "line_nodes": 65,
                            "window": [0.3, 0.31]}),
        ("counterexample", {"k_values": [2], "line_nodes": 65,
                            "window": [0.3, 0.35]}),
        ("counterexample", {"k_values": [2], "line_nodes": 65,
                            "window": [0.3, 0.4]}),
        ("counterexample", {"k_values": [2], "line_nodes": 1}),
        ("counterexample", {"k_values": [2], "line_nodes": -1}),
    ],
    ids=["too_few_eps", "string_eps", "null_checkpoint", "no_checkpoints",
         "checkpoint_at_start", "nested_k", "string_window", "zero_eps", "zero_k", "negative_k", "infinite_k", "fractional_k",
         "bool_k", "stability_zero_k", "stability_bool_t_end",
         "bool_eps", "numeric_string_eps", "bool_checkpoint",
         "numeric_string_checkpoint", "bool_window", "numeric_string_window",
         "one_number_window", "empty_window", "three_number_window",
         "reversed_window", "window_without_nodes", "window_between_nodes",
         "window_of_one_node", "one_line_node", "negative_line_nodes"],
)
def test_bad_study_arguments_exit_2(tmp_path, request, command, settings):
    cfg = write_config(tmp_path / "s.json", {"schema_version": 1, **settings})
    res = run_cli(command, "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    message = _BAD_STUDY_MESSAGES.get(request.node.callspec.id)
    assert message is None or message in res.stderr, res.stderr
    assert "Traceback" not in res.stderr
    assert not list(tmp_path.glob(f"{command}_*"))


def test_a_study_argument_that_does_not_parse_is_named(tmp_path, capsys):
    from lagtransport import cli

    cfg = write_config(tmp_path / "s.json",
                       {"schema_version": 1, "window": [[0.3, 2.3]]})
    assert cli.main(["counterexample", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid counterexample argument 'window'" in capsys.readouterr().err


def test_a_stability_run_whose_re_basing_loses_labels_exits_3(tmp_path, capsys):
    # the abort that exits 3 in a solve is no config error in a study
    from lagtransport import cli

    cfg = write_config(tmp_path / "s.json", {
        "schema_version": 1, "eps_values": [0.2, 0.1, 0.05], "mu": 40.0,
        "t_end": 0.1, "checkpoints": [0.1],
    })
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure: re-basing at" in capsys.readouterr().err
    assert not out.exists()


def test_stability_checkpoint_off_the_slab_nodes_exits_2(tmp_path):
    # a checkpoint that is no slab node is a config error, raised before
    # any solve
    payload = json.loads((CONFIGS / "stability_default.json").read_text())
    payload["checkpoints"] = [0.13, 0.4]
    cfg = write_config(tmp_path / "s.json", payload)
    out = tmp_path / "out"
    res = run_cli("stability", "--config", cfg, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "t=0.13 is not one of the state's time nodes" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def _fragmentation_config_on_a_2d_field():
    payload = json.loads((CONFIGS / "solve_fragmentation.json").read_text())
    payload["field"]["params"]["n"] = 2
    return payload


@pytest.mark.parametrize(
    "command, payload",
    [
        ("solve", _fragmentation_config_on_a_2d_field()),
        ("counterexample", {"schema_version": 1, "k_values": [2], "line_nodes": 65,
                            "window": ["0.3", 2.3]}),
    ],
    ids=["field_grid_mismatch", "bad_study_list"],
)
def test_rejected_run_removes_the_directories_it_created(tmp_path, command, payload):
    cfg = write_config(tmp_path / "c.json", payload)
    (tmp_path / "kept").mkdir()
    res = run_cli(command, "--config", cfg, "--out", str(tmp_path / "kept/new/deep"))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    # the directories the run made are gone; the one that was there stays
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "kept"]
    assert not any((tmp_path / "kept").iterdir())


def test_numerical_failure_removes_the_directories_it_created(tmp_path, monkeypatch):
    from lagtransport import cli, transport

    monkeypatch.setattr(transport, "_MAX_ITERS", 1)
    cfg = write_config(tmp_path / "s.json", solve_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a/b")]) == 3
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        # the backward density exp(-logJ) overflows: an infinite constant
        ("flow", {
            "schema_version": 1,
            "field": {"name": "linear", "params": {"lam": 1000, "n": 1, "j": 0}},
            "grid": {"x_bounds": [[-1, 1]], "x_counts": [4], "time_nodes": [0, 10]},
            "direction": "backward",
        }),
    ],
    ids=["infinite_flow_constant"],
)
def test_a_result_that_is_not_finite_exits_3_and_writes_nothing(
    tmp_path, command, payload,
):
    cfg = write_config(tmp_path / "c.json", payload)
    res = run_cli(command, "--config", cfg, "--out", str(tmp_path / "a/b"))
    assert res.returncode == 3, res.stderr
    assert "numerical failure: the result is not finite" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("t", [355, 400, 1000])
def test_counterexample_time_past_its_floor_exits_2_before_any_flow(
    tmp_path, monkeypatch, capsys, t,
):
    # exp(2 t) overflows from t = 355, so the L1 floor is NaN: the study
    # is rejected before its first flow solve
    from lagtransport import cli, experiments

    spy = Counting(experiments.integrate_flow)
    monkeypatch.setattr(experiments, "integrate_flow", spy)
    cfg = write_config(tmp_path / "c.json", {
        "schema_version": 1, "k_values": [2], "t": t, "line_nodes": 65,
    })
    out = tmp_path / "a" / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is no warning either
        code = cli.main(["counterexample", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert f"config error: t = {t} is too large" in capsys.readouterr().err
    assert spy.calls == 0
    assert not (tmp_path / "a").exists()


def test_fragmentation_solve_flows_nothing_and_budgets_once(tmp_path, monkeypatch):
    # b = 0 is declared, so no flow integrates; the slab budget is
    # measured once for the run, not at each of its slab boundaries.
    # gamma is evaluated once, for the slab rate: each of the 17 equal
    # slabs applies the kernel through its factors
    from lagtransport import cli, flow, transport

    calls = []
    kernels = []

    def counting_kernel(*args, _real=cli.make_kernel, **kwargs):
        kern = _real(*args, **kwargs)
        kern.gamma = Counting(kern.gamma)
        kernels.append(kern)
        return kern

    monkeypatch.setattr(cli, "make_kernel", counting_kernel)

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(flow, "solve_ivp")
    counted(transport, "kernel_slab_rate")
    cfg = str(CONFIGS / "solve_fragmentation.json")
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == ["kernel_slab_rate"]
    payload = json.loads(next(tmp_path.glob("solve_*.json")).read_text())
    assert len(payload["run"]["slabs"]) == 17
    assert [k.gamma.calls for k in kernels] == [1]


def test_mollified_solve_flows_one_fiber_per_solve(tmp_path, monkeypatch):
    # the logistic fiber drift ignores x, and the mollified field says so:
    # the forward map and the Eulerian re-basing of a solve integrate one
    # fiber of Nr points, never the Nx x Nr labels as a stacked system
    from lagtransport import cli, flow

    sizes = []

    def counting(fun, t_span, y0, *, _real=flow.solve_ivp, **kwargs):
        sizes.append(y0.size)
        return _real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", counting)
    nx, nr = 9, 7
    cfg = solve_config()
    cfg.update({
        "field": {"name": "logistic", "params": {"k": 1, "mu": 0.3, "eps": 0.05}},
        "grid": {
            "x_bounds": [[-PI, PI]], "x_counts": [nx],
            "r_bounds": [[0.0, 0.9]], "r_counts": [nr],
        },
        "initial": {"name": "gaussian", "params": {"x_center": 0.0, "r_center": 0.5}},
        "t_end": 1.6,
        "solver": {"p": 2, "picard_tol": 1e-10, "nodes_per_slab": 9},
    })
    path = write_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("solve_*.json")).read_text())
    # the two slabs share one forward flow of the labels and one inverse
    # flow of their end for the re-basing: each an x block and one fiber
    assert len(payload["run"]["slabs"]) == 2
    assert sizes == [2 * nx, 2 * nr] * 2


def test_catalogue_builders_are_looked_up_when_called(tmp_path, monkeypatch):
    # a tracing harness (benchmark/layers.py) rebinds cli.make_field and
    # cli.make_kernel to wrap every field and kernel a run builds
    from lagtransport import cli

    built = []
    for name in ("make_field", "make_kernel"):
        def record(*args, _real=getattr(cli, name), **kwargs):
            built.append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, record)
    cfg = write_config(tmp_path / "s.json", solve_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert built == ["zero", "separable"]


def test_unknown_subcommand_exits_2(tmp_path):
    res = run_cli("explode", "--config", "x.json")
    assert res.returncode == 2


# ---------------------------------------------------------------------
# numerical failure (exit 3)
# ---------------------------------------------------------------------


def test_unreachable_slab_budget_exits_3(tmp_path):
    # rate 1e13 over 0.5 needs about 1e13 slabs, more than 2**16
    payload = solve_config()
    payload["kernel"] = {"name": "constant", "params": {"c": 1e13}}
    del payload["solver"]
    cfg = write_config(tmp_path / "s.json", payload)
    out = tmp_path / "out"
    res = run_cli("solve", "--config", cfg, "--out", str(out))
    assert res.returncode == 3
    assert "numerical failure" in res.stderr
    assert ("kernel budget (rate 1e+13, divergence sup 0) exceeds 0.5 unless "
            "the horizon 0.5 is cut into more than 2**16 slabs") in res.stderr
    assert not out.exists()


def test_a_slab_plan_too_large_to_hold_exits_3_at_once(tmp_path):
    # the fragmentation demo on a 2-node fiber has slab rate 1e8, so its
    # budget needs about 2e8 slabs: more than a run can plan and record
    payload = json.loads(
        (CONFIGS / "solve_fragmentation.json").read_text(encoding="utf-8"))
    payload["grid"]["r_counts"] = [2]
    cfg = write_config(tmp_path / "s.json", payload)
    out = tmp_path / "out"
    start = time.perf_counter()
    res = run_cli("solve", "--config", cfg, "--out", str(out))
    assert time.perf_counter() - start < 20.0
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("numerical failure: kernel budget (rate 1e+08")
    assert "more than 2**16 slabs" in res.stderr
    assert not out.exists()


def test_an_impossible_array_size_exits_2(tmp_path):
    # 10**15 time nodes are 8 PB, more than any address space, so numpy
    # refuses them at once: a config error, not a traceback
    payload = solve_config()
    payload["solver"]["nodes_per_slab"] = 10**15
    cfg = write_config(tmp_path / "s.json", payload)
    out = tmp_path / "a" / "out"
    res = run_cli("solve", "--config", cfg, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("config error: out of memory: ")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("poisoned", ["rate", "div_sup"])
def test_nan_slab_budget_exits_3(tmp_path, monkeypatch, capsys, poisoned):
    # a NaN kernel rate or divergence sup meets no slab budget
    from lagtransport import cli, transport

    if poisoned == "rate":
        monkeypatch.setattr(transport, "kernel_slab_rate", lambda *args: np.nan)
    else:
        def nan_divergence(*args, _real=cli.make_field, **kwargs):
            return dataclasses.replace(
                _real(*args, **kwargs),
                div_b2=lambda x, r: np.full(r.shape[:-1], np.nan),
            )

        monkeypatch.setattr(cli, "make_field", nan_divergence)
    cfg = write_config(tmp_path / "s.json", solve_config())
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure: kernel budget (rate " in (err := capsys.readouterr().err)
    assert "nan" in err
    assert not out.exists()


def test_picard_budget_exhaustion_exits_3(tmp_path, monkeypatch, capsys):
    # Picard contracts on every slab choose_slab accepts, so no config
    # exhausts 80 iterations; a cap of 1 stands in for a slow slab
    from lagtransport import cli, transport

    monkeypatch.setattr(transport, "_MAX_ITERS", 1)
    cfg = write_config(tmp_path / "s.json", solve_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.glob("solve_*.json"))


# ---------------------------------------------------------------------
# the exit-code contract under config mutations
# ---------------------------------------------------------------------

# each demo config shrunk to a grid or a study of a few points
_TINY = {
    "counterexample_default": {("k_values",): [2, 4], ("line_nodes",): 65},
    "flow_logistic": {("grid", "x_counts"): [5], ("grid", "r_counts"): [3],
                      ("grid", "time_nodes", "num"): 3},
    "solve_fragmentation": {("grid", "r_counts"): [33], ("t_end",): 0.25},
    "solve_separable": {("grid", "r_counts"): [9], ("t_end",): 0.25},
    "stability_default": {("eps_values",): [0.2, 0.1, 0.05], ("t_end",): 0.1,
                          ("checkpoints",): [0.1]},
    "verify_logistic": {("grid", "x_counts"): [5], ("grid", "r_counts"): [5]},
}
_DELETE = object()
# values of an entry's own kind, and values of no kind that fits it
_KINDS = {
    (int, float): [0, -1, 0.5, 3, 1e-9, 40.0],
    str: ["", "zero", "linear", "logistic", "oscillatory", "swirl",
          "separable", "fragmentation", "geometric", "backward"],
    list: [[], [0.5], [3, 1e-9], [[0, 1]]],
    dict: [{}],
}
_ODD = [_DELETE, None, True, "x", [], {}]


def _entries(obj, path=()):
    """(path, value) of every key and list element under `obj`."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _entries(value, path + (key,))


def _set(cfg, path, value):
    for key in path[:-1]:
        cfg = cfg[key]
    if value is _DELETE:
        del cfg[path[-1]]
    else:
        cfg[path[-1]] = copy.deepcopy(value)


def _tiny(name):
    """The demo config `name` shrunk as `_TINY` says."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    for path, value in _TINY[name].items():
        _set(cfg, path, value)
    return cfg


def _mutants(name, count):
    """`count` copies of a tiny demo config, each with one or two entries
    replaced or deleted; the draws are seeded by the config's name."""
    base = _tiny(name)
    rng = random.Random(name)
    for _ in range(count):
        cfg = copy.deepcopy(base)
        for _ in range(rng.choice((1, 2))):
            path, value = rng.choice(list(_entries(cfg)))
            pool = next((
                pool for kinds, pool in _KINDS.items()
                if isinstance(value, kinds) and not isinstance(value, bool)
            ), _ODD)
            new = rng.choice(_ODD if rng.random() < 0.2 else pool)
            if new is _DELETE and isinstance(path[-1], int):
                new = None  # a list element is replaced, not removed
            _set(cfg, path, new)
        yield cfg


# values drawn for a schema key: by its name, else by the type it expects
_KEY_POOLS = {
    "r_spacing": ["uniform", "geometric", "log"],
    "direction": ["forward", "backward", "sideways"],
    "time_nodes": [[0.0, 0.25], [0.25, 0.0], {"start": 0.0, "stop": 0.5, "num": 3},
                   {"start": 0.0, "stop": 0.5, "num": 1}, {"start": 0.0, "num": 3}],
    "window": [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.2, 0.8]], [0.3, 2.3],
               [0.5, 0.4], [[0.0, 1.0]]],
    "p": [1, 1.5, 3, 0.5],
    "nodes_per_slab": [2, 5, 1],
    "slab_time_samples": [2, 9, 1],
    "params": [{}, {"k": 2}, {"scale": 3.0}, {"c": 0.5}, {"n": 1, "j": 1}],
    "x_bounds": [[[0.0, 1.0]], [[-1.0, 1.0]], [[0.5]]],
    "r_bounds": [[[1e-3, 1.0]], [[0.0, 1.0]], [[0.1, 0.9]], []],
    "x_counts": [[2], [3], [3, 3]],
    "r_counts": [[3], [9], []],
    "k_values": [[2], [1, 3], [0]],
    "line_nodes": [33, 65, 1],
    "eps_values": [[0.2, 0.1, 0.05], [0.1]],
    "checkpoints": [[0.05], [0.05, 0.1], [0]],
}
_TYPE_POOLS = {
    int: [0, 1, 3, -1],
    (int, float): _KINDS[(int, float)],
    str: _KINDS[str],
    list: _KINDS[list],
}
# a catalogue entry, or an object no nested schema accepts
_OBJECTS = [{}, {"name": "zero"}, {"name": "constant"}, {"name": "logistic"},
            {"name": "gaussian"}, {"name": "separable", "params": {}}]


def _schema_entries(schema, cfg, path=()):
    """(path, expected type, whether set) of every key but the version
    that `schema` allows in `cfg`, and of the keys of each nested object
    `cfg` holds."""
    for key, (_, expect, *_) in schema.items():
        if key != "schema_version":
            yield path + (key,), expect, key in cfg
        if isinstance(expect, dict) and isinstance(cfg.get(key), dict):
            yield from _schema_entries(expect, cfg[key], path + (key,))


def _schema_mutants(name, count):
    """`count` copies of a tiny demo config, each with one or two keys of
    its command's schema set to a drawn value, half the time a key the
    config leaves out, so the optional keys the demo configs never set
    are drawn too; seeded by the config's name."""
    from lagtransport import cli

    schema = cli._SCHEMAS[name.split("_")[0]]
    base = _tiny(name)
    rng = random.Random(f"schema {name}")
    for _ in range(count):
        cfg = copy.deepcopy(base)
        for _ in range(rng.choice((1, 2))):
            entries = list(_schema_entries(schema, cfg))
            unset = [entry for entry in entries if not entry[2]]
            path, expect, _ = rng.choice(
                unset if unset and rng.random() < 0.5 else entries)
            pool = _KEY_POOLS.get(path[-1]) or (
                _OBJECTS if isinstance(expect, dict) else _TYPE_POOLS[expect])
            _set(cfg, path, rng.choice(pool))
        yield cfg


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_exit_code_contract(tmp_path, capsys, command, configs):
    # whatever a config holds, a run exits 0-3 without an exception; 1
    # only with a failed verdict, 2 and 3 leaving no output, and every
    # result it writes is JSON
    from lagtransport import cli

    for i, cfg in enumerate(configs):
        path = write_config(tmp_path / f"{i}.json", cfg)
        out = tmp_path / f"out{i}" / "deep"
        try:
            with np.errstate(all="ignore"):
                code = cli.main([command, "--config", path, "--out", str(out)])
        except Exception as exc:
            raise AssertionError(f"cli.main raised on {cfg}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (cfg, err)
        if code in (2, 3):
            assert not out.parent.exists(), (cfg, err)
            continue
        (result,) = out.glob(f"{command}_*.json")
        payload = json.loads(result.read_text(), parse_constant=_reject_constant)
        verdict = payload.get("passed", payload.get("density_bounds_ok", True))
        assert verdict is (code == 0), (cfg, payload)


@pytest.mark.parametrize("name", sorted(_TINY))
def test_config_mutations_keep_the_exit_code_contract(tmp_path, capsys, name):
    _check_exit_code_contract(tmp_path, capsys, name.split("_")[0], _mutants(name, 40))


@pytest.mark.parametrize("name", sorted(_TINY))
def test_schema_key_mutations_keep_the_exit_code_contract(tmp_path, capsys, name):
    _check_exit_code_contract(
        tmp_path, capsys, name.split("_")[0], _schema_mutants(name, 30))
