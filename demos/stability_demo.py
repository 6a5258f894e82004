"""
Stability of the fixed point under field regularization
=======================================================

Mollifying the drift at radius eps perturbs the full solve (flow,
densities, the marched slab solves).  The windowed sup-in-time L2 distance
between the mollified solution and the limit solution should fall as
eps does; no rate is claimed, only decay to below a threshold.  The
default run uses coarse settings so it finishes quickly; pass --full
for the larger grid and the standard radii and threshold.
"""

from __future__ import annotations

import argparse

import numpy as np

from lagtransport import GridSpec
from lagtransport.experiments import stability_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--full", action="store_true",
                    help="standard radii, grid, and threshold (slower)")
    args = ap.parse_args()

    if args.full:
        report = stability_experiment()
    else:
        report = stability_experiment(
            eps_values=(0.3, 0.15, 0.075),
            t_end=0.2,
            checkpoints=(0.2,),
            final_threshold=5e-3,
            grid=GridSpec(
                x_bounds=((-np.pi, np.pi),), x_counts=(33,),
                r_bounds=((0.05, 0.95),), r_counts=(17,),
            ),
        )

    print("mollification radius vs distance to the limit solution")
    print(f"{'eps':>8}  {'distance':>12}")
    for row in report.rows:
        print(f"{row['eps']:>8.4f}  {row['distance']:>12.6e}")
    print()
    for name, crit in report.criteria.items():
        print(f"  {name}: {'pass' if crit['passed'] else 'FAIL'}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    if not args.full:
        print("(coarse settings; --full runs the standard configuration)")


if __name__ == "__main__":
    main()
