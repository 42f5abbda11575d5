#!/usr/bin/env python3
"""Finite-size convergence of the Monte Carlo oracle toward the free limit.

Runs the P <= Q (``p-le-q``) estimator at a sequence of matrix sizes with a
shared master seed and reports the error against the closed-form moments.

Usage: python scripts/oracle_convergence.py [--dims 64,128,256] [--seed 1]
"""

import argparse

from freejacobi.moments import closed_form_moments
from freejacobi.oracle import OracleConfig, empirical_jacobi_moments


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="64,128,256")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--trials", type=int, default=6)
    parser.add_argument("--t", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ref1 = closed_form_moments(args.t, 1)[1]
    ref2 = closed_form_moments(args.t, 2)[2]
    print(f"theory: m1 = {ref1:.6f}, m2 = {ref2:.6f}")
    for dim in (int(x) for x in args.dims.split(",")):
        run = empirical_jacobi_moments(
            OracleConfig(dim=dim, t=args.t, steps=args.steps,
                         trials=args.trials, seed=args.seed)
        )
        print(
            f"N={dim:4d}: m1 {run.estimates[1]:.6f} (err {abs(run.estimates[1]-ref1):.2e},"
            f" se {run.stderrs[1]:.2e})  m2 {run.estimates[2]:.6f}"
            f" (err {abs(run.estimates[2]-ref2):.2e})  drift {run.unitarity_drift:.1e}"
            f"  [{run.wall_time:.1f}s]"
        )


if __name__ == "__main__":
    main()
