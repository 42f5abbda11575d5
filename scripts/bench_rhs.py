#!/usr/bin/env python3
"""Time the moment-hierarchy kernel and the batched integrator.

Prints the median microseconds per ``recurrence_rhs`` call for batches of
B = 1 and 3 rows at orders 8 and 32 (B = 1 is the flat vector that a
single-parameter integration uses), then the wall time of the density
suite's three-lambda integration (theta = 1/2, order 8, t = 30, h = 1e-3)
run as one batch and as three single runs.  Plain ``perf_counter``; set
OPENBLAS_NUM_THREADS=1 to match the benchmark's children.

Usage: python scripts/bench_rhs.py [--repeats 15] [--calls 2000] [--t 30]
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from freejacobi.moments import (
    ProcessParams,
    integrate_moments,
    integrate_moments_batch,
    recurrence_rhs,
)

LAMBDAS = (0.4, 0.6, 0.8)


def per_call_us(rows: int, order: int, repeats: int, calls: int) -> float:
    rng = np.random.default_rng(order)
    if rows == 1:
        m, lam, theta = rng.uniform(0, 1, order + 1), 0.6, 0.5
    else:
        m = rng.uniform(0, 1, (rows, order + 1))
        lam = np.array(LAMBDAS[:rows])[:, None]
        theta = np.full((rows, 1), 0.5)
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            recurrence_rhs(m, lam, theta)
        samples.append((perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--t", type=float, default=30.0, help="end time of the scan")
    args = parser.parse_args()

    for order in (8, 32):
        for rows in (1, 3):
            us = per_call_us(rows, order, args.repeats, args.calls)
            print(f"recurrence_rhs  B={rows}  order={order:2d}  {us:7.2f} us/call")

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
