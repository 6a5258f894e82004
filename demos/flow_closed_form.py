"""
Trajectories with a closed-form answer
======================================

The field b(x) = sin(kx)/k has an explicit flow: along any trajectory
tan(k X / 2) = e^t tan(k x / 2), with Jacobian factor

    dX/dx = e^t / (cos^2(kx/2) + e^{2t} sin^2(kx/2)).

This script integrates the flow numerically, checks both formulas, and
prints the worst relative error per frequency.  It is the cheapest stop
if something looks off: errors here should sit near the ODE tolerance.
"""

from __future__ import annotations

import argparse

import numpy as np

from lagtransport import integrate_flow, oscillatory_field
from lagtransport.oracle import oscillatory_jacobian, oscillatory_position


def run_frequency(k: int, t_end: float, tol: float) -> tuple[float, float]:
    field = oscillatory_field(k=k, j=0)
    times = np.linspace(0.0, t_end, 5)
    fracs = np.linspace(0.05, 0.95, 9)
    worst_pos = 0.0
    worst_jac = 0.0
    h = 1e-3 / k
    for frac in fracs:
        x0 = frac * np.pi / k
        positions = integrate_flow(field, np.array([x0]), times, tol=tol)
        exact = oscillatory_position(k, times, x0)
        rel = np.max(np.abs(positions[:, 0] - exact) / np.abs(exact))
        worst_pos = max(worst_pos, float(rel))

        # central difference across two fresh integrations
        plus = integrate_flow(
            field, np.array([x0 + h]), times[[0, -1]], tol=tol
        )[-1, 0]
        minus = integrate_flow(
            field, np.array([x0 - h]), times[[0, -1]], tol=tol
        )[-1, 0]
        num = (plus - minus) / (2.0 * h)
        ref = float(oscillatory_jacobian(k, t_end, x0))
        worst_jac = max(worst_jac, abs(num - ref) / abs(ref))
    return worst_pos, worst_jac


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--k", type=int, nargs="+", default=[1, 4, 16])
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    print(f"flow vs closed form up to t = {args.t_end}")
    print(f"{'k':>4}  {'position rel err':>18}  {'jacobian rel err':>18}")
    for k in args.k:
        pos_err, jac_err = run_frequency(k, args.t_end, args.tol)
        print(f"{k:>4}  {pos_err:>18.3e}  {jac_err:>18.3e}")
    print("position errors track the ODE tolerance; jacobian errors add")
    print("the O(h^2) central-difference truncation at spacing 1e-3/k")


if __name__ == "__main__":
    main()
