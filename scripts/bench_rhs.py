#!/usr/bin/env python3
"""Time the moment-hierarchy kernel, one RK4 step and the batched integrator.

Prints, for batches of B = 1 and 3 rows at orders 8 and 32, as
``integrate_moments_batch`` runs them (B = 1 as a flat vector with float
parameters, B = 3 with one parameter per row as a tuple):

- the median microseconds per call of the bound right-hand side
  (``_kernel(...).bind(m, out)``, bound once, called many times);
- the median microseconds per RK4 step, each timed over 2000 steps of
  ``integrate_moments_batch``.

Then the per-step cost of one row run as a (1, order + 1) batch against
the flat vector ``integrate_moments_batch`` uses, at orders 8 and 32,
timed alternately (the percentage is the median per-repeat ratio), and
the wall time of the density suite's three-lambda integration (order 8,
t = 30, h = 1e-3) run as one batch and as three single runs.  Plain
``perf_counter``; set OPENBLAS_NUM_THREADS=1 to match the benchmark's
children.

Usage: python scripts/bench_rhs.py [--repeats 15] [--calls 2000] [--t 30]
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from freejacobi.moments import (
    ProcessParams,
    _kernel,
    integrate_moments,
    integrate_moments_batch,
)
from freejacobi.special_functions import rk4

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
    rng = np.random.default_rng(order)
    if rows == 1:
        m, lam, theta = rng.uniform(0, 1, order + 1), 0.6, 0.5
    else:
        m = rng.uniform(0, 1, (rows, order + 1))
        lam, theta = LAMBDAS[:rows], (0.5,) * rows
    rhs = _kernel(m.shape, lam, theta).bind(m, np.empty_like(m))

    def run():
        for _ in range(calls):
            rhs(0.0)

    return _median_us(run, repeats, calls)


def per_step_us(rows: int, order: int, repeats: int) -> float:
    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS[:rows]]
    h = 1e-3
    return _median_us(lambda: integrate_moments_batch(params, STEPS * h, order=order, h=h),
                      repeats, STEPS)


def one_row_step_us(order: int, repeats: int) -> tuple[float, float, float]:
    """Median us/step of one row run flat and as a (1, order + 1) batch,
    timed alternately, and the median of their per-repeat ratios."""
    y0 = ProcessParams(lam=0.6, theta=0.5).initial_vector(order)
    h = 1e-3

    def step_us(y):
        start = perf_counter()
        rk4(_kernel(y.shape, 0.6, 0.5).bind, y, STEPS * h, h)
        return (perf_counter() - start) / STEPS * 1e6

    pairs = [(step_us(y0), step_us(y0[None])) for _ in range(repeats)]
    flat, batch = zip(*pairs)
    ratio = statistics.median(b / f for f, b in pairs)
    return statistics.median(flat), statistics.median(batch), ratio


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

    for order in (8, 32):
        flat, batch, ratio = one_row_step_us(order, args.repeats)
        print(f"one row  order={order:2d}  flat {flat:6.2f} us/step  "
              f"(1, {order + 1}) batch {batch:6.2f} us/step ({ratio - 1:+.0%})")

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
