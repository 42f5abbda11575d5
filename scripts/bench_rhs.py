#!/usr/bin/env python3
"""Time the moment-hierarchy kernel, one RK4 step and the batched integrator.

Prints the median microseconds per ``recurrence_rhs`` call for batches of
B = 1 and 3 rows at orders 8 and 32, called as ``integrate_moments_batch``
calls it: B = 1 as a flat vector with float parameters, B = 3 with one
parameter per row as a tuple, both writing into a preallocated ``out``;
the median microseconds per RK4 step of the density suite's batch
(lambda in {0.4, 0.6, 0.8}, theta = 1/2, order 8) and of the single-row
order-32 integration behind ``series --check pde`` (lambda = 1,
theta = 1/2, h = 1e-4), each timed over 2000 steps of
``integrate_moments_batch``; then the wall time of the density suite's
three-lambda integration (order 8, t = 30, h = 1e-3) run as one batch and
as three single runs.  Plain ``perf_counter``; set OPENBLAS_NUM_THREADS=1
to match the benchmark's children.

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
        lam, theta = LAMBDAS[:rows], (0.5,) * rows
    out = np.empty_like(m)
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            recurrence_rhs(m, lam, theta, out)
        samples.append((perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def per_step_us(params, order: int, h: float, repeats: int) -> float:
    steps = 2000
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        integrate_moments_batch(params, steps * h, order=order, h=h)
        samples.append((perf_counter() - start) / steps * 1e6)
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
    us = per_step_us(params, 8, 1e-3, args.repeats)
    print(f"rk4 step  density batch  B=3  order= 8  {us:7.2f} us/step")
    us = per_step_us([ProcessParams(lam=1.0, theta=0.5)], 32, 1e-4, args.repeats)
    print(f"rk4 step  series pde     B=1  order=32  {us:7.2f} us/step")

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
