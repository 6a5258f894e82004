"""Assemble a committed benchmark record, BENCH_<n>.json, from benchmark runs.

    python3 benchmark/run.py --trace 0
    python3 benchmark/run.py --trace 1
    python3 tools/bench_record.py .bench_out "$(git rev-parse HEAD)" BENCH_<n>.json

RESULTS is a `.bench_out` directory holding one `--trace 0` and one
`--trace 1` run, `<workload>-seed<s>-trace<t>/result.json`, of every
workload at one seed.  For each workload the record keeps:

- from the `--trace 0` run: the median and the quartiles
  (`statistics.quantiles`, inclusive method) of `wall_s` and
  `peak_rss_mb` over its untraced operations and of `setup_s` over all
  its processes, the same samples whose medians the run reports, with
  their counts; `ref_err`; and the attempted and failed operations;
- from the `--trace 1` run: the layer counts `transport.picard_iters`,
  `transport.slabs` and `transport.apply_A.calls`.

The machine, seed and run length are kept once; a result's `why` text is
left out.  Nothing under `benchmark/` is read but the result files.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
LAYER_COUNTS = ("transport.picard_iters", "transport.slabs", "transport.apply_A.calls")


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _end_to_end(result: dict) -> dict:
    """The spread of each end-to-end metric over the samples run.py takes
    its median from; the median must be the one it reported."""
    procs = result["processes"]
    plain = [p for p in procs if p["role"] == "sample" and not p["traced"]]
    samples = {
        "wall_s": [p["wall_s"] for p in plain if p.get("wall_s") is not None],
        "setup_s": [p["setup_s"] for p in procs if p.get("setup_s") is not None],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain
                        if p.get("peak_rss_mb") is not None],
    }
    out = {}
    for name in END_TO_END:
        out[name] = _spread(samples[name])
        reported = result["metrics"][name]
        if out[name]["median"] != reported:
            raise ValueError(f"{result['workload']} {name}: median "
                             f"{out[name]['median']} is not the reported {reported}")
    return out


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    results, commit, target = Path(argv[0]), argv[1], Path(argv[2])
    runs = {}
    for path in sorted(results.glob("*-seed*-trace*/result.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(result["workload"], {})[result["trace"]] = result
    if not runs or any(set(r) != {0, 1} for r in runs.values()):
        print(f"error: {results} needs one --trace 0 and one --trace 1 run "
              "of each workload", file=sys.stderr)
        return 2
    first = next(iter(runs.values()))[0]
    record = {
        "commit": commit,
        "seed": first["seed"],
        "seconds": first["seconds"],
        "machine": first["machine"],
        "workloads": {},
    }
    for name, by_trace in runs.items():
        plain, traced = by_trace[0], by_trace[1]
        entry = _end_to_end(plain)
        entry["ref_err"] = plain["metrics"].get("ref_err")
        entry["attempted"], entry["failed"] = plain["attempted"], plain["failed"]
        entry.update((key, traced["metrics"][key]) for key in LAYER_COUNTS)
        record["workloads"][name] = entry
    target.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}: {', '.join(record['workloads'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
