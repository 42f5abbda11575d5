#!/usr/bin/env python3
"""Time the moment-hierarchy right-hand side, one RK4 step and the batched
integrator.

Prints, for batches of B = 1 and 3 rows at orders 8 and 32, as
``integrate_moments_batch`` runs them (a (B, order + 1) state with one
parameter per row as a tuple):

- the median microseconds per call of the bound right-hand side
  (``hierarchy(lam, theta)(m, out)``, bound once, called many times);
- the median microseconds per RK4 step, each timed over 2000 steps of
  ``integrate_moments_batch``.

Then the wall time of the density suite's three-lambda integration
(order 8, t = 30, h = 1e-3) run as one batch and as three single runs.
Plain ``perf_counter``; set OPENBLAS_NUM_THREADS=1 to match the
benchmark's children.

Usage: python scripts/bench_rhs.py [--repeats 15] [--calls 2000] [--t 30]
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from freejacobi.moments import (
    ProcessParams,
    hierarchy,
    integrate_moments,
    integrate_moments_batch,
)

LAMBDAS = (0.4, 0.6, 0.8)
STEPS = 2000


def _median_us(run, repeats: int, per: int) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        run()
        samples.append((perf_counter() - start) / per * 1e6)
    return statistics.median(samples)


def per_call_us(rows: int, order: int, repeats: int, calls: int) -> float:
    m = np.random.default_rng(order).uniform(0, 1, (rows, order + 1))
    rhs = hierarchy(LAMBDAS[:rows], (0.5,) * rows)(m, np.empty_like(m))

    def run():
        for _ in range(calls):
            rhs(0.0)

    return _median_us(run, repeats, calls)


def per_step_us(rows: int, order: int, repeats: int) -> float:
    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS[:rows]]
    h = 1e-3
    return _median_us(lambda: integrate_moments_batch(params, STEPS * h, order=order, h=h),
                      repeats, STEPS)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--t", type=float, default=30.0, help="end time of the scan")
    args = parser.parse_args()

    for order in (8, 32):
        for rows in (1, 3):
            call = per_call_us(rows, order, args.repeats, args.calls)
            step = per_step_us(rows, order, args.repeats)
            print(f"B={rows}  order={order:2d}  bound call {call:6.2f} us  "
                  f"rk4 step {step:6.2f} us")

    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS]
    start = perf_counter()
    integrate_moments_batch(params, args.t, order=8)
    batched = perf_counter() - start
    start = perf_counter()
    for p in params:
        integrate_moments(p, args.t, order=8)
    serial = perf_counter() - start
    print(f"three-lambda scan to t={args.t:g}: batched {batched:.2f} s, "
          f"serial {serial:.2f} s ({serial / batched:.2f}x)")


if __name__ == "__main__":
    main()
