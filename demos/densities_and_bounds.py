"""
Densities along the flow and their a priori bounds
==================================================

The log-Jacobian carried by each trajectory is trapped between the
time integrals of the divergence infimum and supremum.  This script
integrates a grid of labels under the logistic field, prints the
observed extrema of logJ against those envelopes at a few times, and
then checks the change-of-variables identity: integrating phi(X(t, x))
against the labels equals integrating phi against the pushed-forward
density exp(-logJ) evaluated on the deformed grid.
"""

from __future__ import annotations

import argparse

import numpy as np

from lagtransport import (
    GridSpec,
    check_compressibility,
    flow_map,
    logistic_field,
    verify_change_of_variables,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--t-end", type=float, default=0.5)
    ap.add_argument("--nx", type=int, default=33)
    ap.add_argument("--nr", type=int, default=9)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    field = logistic_field(k=1, mu=0.3)
    times = np.linspace(0.0, args.t_end, 17)
    grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(args.nx,),
        r_bounds=((0.1, 0.9),), r_counts=(args.nr,),
    )

    fmap = flow_map(field, grid, times=times, tol=args.tol)
    report = check_compressibility(fmap, field)
    logj = fmap.logj()

    print(f"field {field.name!r}, {grid.num_x} x-labels, "
          f"{grid.num_r} fiber labels, t in [0, {args.t_end}]")
    print(f"{'t':>6}  {'lower env':>11}  {'min logJ':>11}  "
          f"{'max logJ':>11}  {'upper env':>11}")
    for idx in range(0, times.size, 4):
        env = report.bound_total[idx]
        print(f"{times[idx]:>6.3f}  {-env:>11.6f}  {logj[idx].min():>11.6f}  "
              f"{logj[idx].max():>11.6f}  {env:>11.6f}")
    print(f"bounds respected with 1e-6 slack: {report.ok}")

    def phi_x(pts):
        return np.exp(-np.sum((pts - 0.3) ** 2, axis=-1) / 0.4**2)

    def phi_joint(x, r):
        return phi_x(x) * np.exp(-np.sum((r - 0.5) ** 2, axis=-1) / 0.12**2)

    cov_grid = GridSpec(
        x_bounds=((-np.pi, np.pi),), x_counts=(65,),
        r_bounds=((0.05, 0.95),), r_counts=(17,),
    )
    cov_times = [0.0, args.t_end]
    out = verify_change_of_variables(
        flow_map(field, cov_grid, times=cov_times, tol=args.tol),
        flow_map(field, cov_grid, times=cov_times, tol=args.tol,
                 direction="backward"),
        phi_x, phi_joint,
    )
    print()
    print("change of variables with Gaussian test functions")
    print(f"  marginal: forward {out['marginal_forward']:.8f}  "
          f"eulerian {out['marginal_eulerian']:.8f}  "
          f"residual {out['residual_marginal']:.2e}")
    print(f"  joint:    forward {out['joint_forward']:.8f}  "
          f"eulerian {out['joint_eulerian']:.8f}  "
          f"residual {out['residual_joint']:.2e}")
    print("residuals are quadrature-limited; double the grid to shrink them")


if __name__ == "__main__":
    main()
