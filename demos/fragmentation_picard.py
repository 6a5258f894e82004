"""
Fragmentation source solved on contraction slabs
================================================

With kernel gamma = c / r~ on r < r~ the total mass obeys an exact law:
d/dt (mass) = c * mass, so mass(t) = e^{ct} mass(0).  The solver knows
nothing about this.  It picks contraction slabs automatically, marches
the Volterra fixed point of each node by node (the kernel is
triangular, so each node system is a back-substitution along r), and
restarts from the previous slab's endpoint.  This script runs the
solver on a geometric r-grid and prints each slab's measured
contraction ratio and residual, plus the mass against the exact law.
"""

from __future__ import annotations

import argparse

import numpy as np

from lagtransport import (
    GridSpec,
    SolverConfig,
    continue_solution,
    fragmentation_kernel,
    make_initial,
    zero_field,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--num-r", type=int, default=257)
    ap.add_argument("--r-min", type=float, default=1e-8)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--scale", type=float, default=2.0)
    args = ap.parse_args()

    grid = GridSpec(
        x_bounds=((0.0, 1.0),), x_counts=(2,),
        r_bounds=((args.r_min, 1.0),), r_counts=(args.num_r,),
        r_spacing="geometric",
    )
    config = SolverConfig(picard_tol=1e-9, nodes_per_slab=17)
    sol = continue_solution(
        make_initial("log_gaussian"),
        zero_field(1, 1),
        fragmentation_kernel(scale=args.scale),
        config,
        grid,
        args.t_end,
    )

    print(f"{args.num_r} geometric r-nodes on [{args.r_min:g}, 1], "
          f"kernel scale {args.scale}, t_end {args.t_end}")
    print(f"{'slab':>4}  {'interval':>18}  {'ratio':>11}  {'residual':>10}")
    for m, info in enumerate(sol.summaries):
        ratios = info["contraction_ratios"]
        worst = max(ratios) if ratios else 0.0
        print(f"{m:>4}  [{info['t_start']:>7.4f}, {info['t_end']:>7.4f}]  "
              f"{worst:>11.4f}  {info['residual']:>10.2e}")

    t_hist, masses = sol.mass_times, sol.masses
    print()
    print(f"{'t':>7}  {'mass':>12}  {'exact e^(ct) m0':>16}  {'rel err':>10}")
    step = max(1, t_hist.size // 8)
    indices = sorted(set(range(0, t_hist.size, step)) | {t_hist.size - 1})
    for i in indices:
        exact = masses[0] * np.exp(args.scale * t_hist[i])
        rel = abs(masses[i] - exact) / exact
        print(f"{t_hist[i]:>7.4f}  {masses[i]:>12.8f}  "
              f"{exact:>16.8f}  {rel:>10.2e}")


if __name__ == "__main__":
    main()
