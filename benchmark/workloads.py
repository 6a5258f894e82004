"""Workload configs for the benchmark and the checks on their outputs.

Each workload is one `lagtransport solve` config.  The seed only jitters
the centre of the initial datum, so the solver's cost and the checks hold
for any seed.  Configs leave out `grid.time_nodes` (the base time defaults
to 0) and the run never passes `--workers`.

`make_config` is stdlib only, so run.py can call it without
importing numpy; `check` runs in the worker process after the timed call.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

MASS_LAW_TOL = 1e-3          # tolerance of the verify battery's mass-law probe
STABILITY_THRESHOLD = 1e-3   # the stability study's final_threshold
RESIDUAL_TOL = 1e-8

_WINDOW = [[-2.4, 2.4], [0.15, 0.85]]


def _jitter(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    return round(rng.uniform(-0.2, 0.2), 6), round(rng.uniform(-0.02, 0.02), 6)


def make_config(name: str, seed: int) -> dict:
    """The solve config of workload `name` for `seed`."""
    dx, dr = _jitter(seed)
    if name == "frag_cascade":
        # demos/configs/solve_fragmentation.json, datum centre jittered in log r
        return {
            "schema_version": 1,
            "field": {"name": "zero", "params": {"n": 1, "j": 1}},
            "kernel": {"name": "fragmentation", "params": {"scale": 2.0}},
            "grid": {
                "x_bounds": [[0.0, 1.0]], "x_counts": [2],
                "r_bounds": [[1e-08, 1.0]], "r_counts": [257],
                "r_spacing": "geometric",
            },
            "initial": {
                "name": "log_gaussian",
                "params": {"r_center": round(0.25 * math.exp(dx / 2), 6)},
            },
            "t_end": 1.0,
            "solver": {
                "picard_tol": 1e-9, "nodes_per_slab": 17, "slab_time_samples": 3,
            },
        }
    datum = {
        "name": "gaussian",
        "params": {"x_center": dx, "r_center": round(0.5 + dr, 6)},
    }
    if name == "dense_logistic":
        return {
            "schema_version": 1,
            "field": {"name": "logistic", "params": {"k": 1, "mu": 0.3}},
            "kernel": {"name": "separable"},
            "grid": {
                "x_bounds": [[-math.pi, math.pi]], "x_counts": [33],
                "r_bounds": [[0.0, 1.0]], "r_counts": [257],
            },
            "initial": datum,
            "t_end": 1.6,
            "solver": {"picard_tol": 1e-10},
        }
    if name == "mollified_solve":
        # one radius of the stability study (experiments.stability_experiment)
        return {
            "schema_version": 1,
            "field": {"name": "logistic", "params": {"k": 1, "mu": 0.3, "eps": 0.05}},
            "kernel": {"name": "separable"},
            "grid": {
                "x_bounds": [[-math.pi, math.pi]], "x_counts": [49],
                "r_bounds": [[0.0, 1.0]], "r_counts": [25],
            },
            "initial": datum,
            "t_end": 0.4,
            "solver": {
                "p": 2, "window": _WINDOW, "picard_tol": 1e-10,
                "nodes_per_slab": 17,
            },
        }
    raise ValueError(f"unknown workload {name!r}")


def reference_config(name: str, seed: int) -> dict | None:
    """Config of the untimed reference solve, or None if there is none."""
    if name != "mollified_solve":
        return None
    cfg = make_config(name, seed)
    del cfg["field"]["params"]["eps"]
    return cfg


def _output(out_dir: Path, suffix: str) -> Path:
    found = sorted(Path(out_dir).glob(f"solve_*{suffix}"))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one solve_*{suffix} in {out_dir}")
    return found[0]


def read_payload(out_dir: Path) -> dict:
    return json.loads(_output(out_dir, ".json").read_text(encoding="utf-8"))


def _final_slice(out_dir: Path, cfg: dict):
    import numpy as np

    data = np.loadtxt(_output(out_dir, ".csv"), delimiter=",", skiprows=1)
    shape = tuple(cfg["grid"]["x_counts"]) + tuple(cfg["grid"]["r_counts"])
    return data[:, -1].reshape(shape)


def check(name: str, cfg: dict, payload: dict, out_dir: Path,
          reference_dir: Path | None) -> dict:
    """Correctness gate of one finished run.

    Returns {"passed": bool, "ref_err": float | None, ...details}.
    """
    if name == "frag_cascade":
        times, masses = payload["mass_times"], payload["masses"]
        scale = cfg["kernel"]["params"]["scale"]
        exact = math.exp(scale * (times[-1] - times[0])) * masses[0]
        err = abs(masses[-1] - exact) / exact
        return {"passed": err <= MASS_LAW_TOL, "ref_err": err}
    if name == "dense_logistic":
        slabs = payload["run"]["slabs"]
        target = cfg.get("solver", {}).get("slab_target", 0.5)
        worst_residual = max(s["residual"] for s in slabs)
        worst_ratio = max(
            (r for s in slabs for r in s["contraction_ratios"]), default=0.0
        )
        return {
            "passed": worst_residual <= RESIDUAL_TOL and worst_ratio <= target,
            "ref_err": None,
            "worst_residual": worst_residual,
            "worst_ratio": worst_ratio,
        }
    if name == "mollified_solve":
        from lagtransport.grid import GridSpec, NormSpec, lp_norm

        grid_cfg = cfg["grid"]
        grid = GridSpec(
            x_bounds=[tuple(b) for b in grid_cfg["x_bounds"]],
            x_counts=grid_cfg["x_counts"],
            r_bounds=[tuple(b) for b in grid_cfg["r_bounds"]],
            r_counts=grid_cfg["r_counts"],
        )
        window = tuple(tuple(w) for w in cfg["solver"]["window"])
        diff = _final_slice(out_dir, cfg) - _final_slice(reference_dir, cfg)
        dist = lp_norm(diff, grid, NormSpec(p=2.0, window=window))
        return {"passed": dist < STABILITY_THRESHOLD, "ref_err": dist}
    raise ValueError(f"unknown workload {name!r}")
