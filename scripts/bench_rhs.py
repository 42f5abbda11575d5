#!/usr/bin/env python3
"""Time the bound right-hand sides, one RK4 step and the batched integrator.

Prints, for batches of B = 1 and 3 parameter sets at orders 8 and 32, as
``integrate_moments_batch`` runs them (an order-major (order + 1, B) state
with one parameter per column as a tuple):

- the median microseconds per call of the bound right-hand side
  (``hierarchy(lam, theta)(m, out)``, bound once, called many times);
- the median microseconds per RK4 step, each timed over 2000 steps of
  ``integrate_moments_batch``; the run stores its last state alone, as
  every suite's run stores only the states it reads.

Then the same two for the trace system as the laguerre suite runs it
(``trace_system(0.5, 12)``, steps of ``s_trajectory`` at h = 2e-4), and
the wall time of the density suite's three-lambda integration
(order 8, t = 30, h = 1e-3) run as one batch and as three single runs.

Raw ``perf_counter`` medians follow the host's speed, which drifts on a
shared host.  So every timed sample is preceded by one sample of the
benchmark's host-speed reference loop (``reference_s`` in
``perfbench/sample.py``), and every row, the two scans included, also
prints its times at reference speed: scaled by the nominal reference time
over the median of all the run's reference samples, which the first line
prints.  One sample of about 1 ms tracks the host only as well as so short
a loop can, so no row is scaled by its own samples alone.  Set
OPENBLAS_NUM_THREADS=1 to match the benchmark's children.

Usage: python scripts/bench_rhs.py [--repeats 15] [--calls 2000] [--t 30]
"""

import argparse
import importlib.util
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from freejacobi.moments import (
    ProcessParams,
    hierarchy,
    integrate_moments,
    integrate_moments_batch,
)
from freejacobi.special_functions import s_trajectory, trace_system

LAMBDAS = (0.4, 0.6, 0.8)
STEPS = 2000
TRACE_ORDER, TRACE_STEP = 12, 2e-4
SAMPLE = Path(__file__).resolve().parents[1] / "perfbench" / "sample.py"
REFERENCE_NOMINAL_S = 0.001  # the benchmark's: its metrics are seconds at this reference time


def _seconds(run) -> float:
    start = perf_counter()
    run()
    return perf_counter() - start


class Timer:
    """Median times of repeated runs: each run follows one sample of the
    benchmark's reference loop, and every sample is kept in
    ``references``."""

    def __init__(self, repeats: int):
        spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self.reference_s = module.reference_s
        self.repeats = repeats
        self.references: list[float] = []

    def _timed(self, run) -> float:
        self.references.append(self.reference_s())
        return _seconds(run)

    def median_us(self, run, per: int) -> float:
        """Median microseconds per ``per`` of ``run``."""
        return statistics.median(self._timed(run) for _ in range(self.repeats)) / per * 1e6

    def reference(self) -> float:
        """The median of every reference sample taken so far."""
        return statistics.median(self.references)

    def call_us(self, rhs, calls: int) -> float:
        def run():
            for _ in range(calls):
                rhs(0.0)

        return self.median_us(run, calls)


def per_call_us(timer: Timer, rows: int, order: int, calls: int) -> float:
    m = np.random.default_rng(order).uniform(0, 1, (order + 1, rows))
    return timer.call_us(hierarchy(LAMBDAS[:rows], (0.5,) * rows)(m, np.empty_like(m)), calls)


def per_step_us(timer: Timer, rows: int, order: int) -> float:
    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS[:rows]]
    h = 1e-3
    return timer.median_us(lambda: integrate_moments_batch(params, STEPS * h, order=order, h=h),
                           STEPS)


def _row(label: str, call: float, step: float, scale: float) -> str:
    return (f"{label}  bound call {call:6.2f} us  rk4 step {step:6.2f} us  "
            f"at reference speed: {call * scale:6.2f} us  {step * scale:6.2f} us")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--t", type=float, default=30.0, help="end time of the scan")
    args = parser.parse_args()
    timer = Timer(args.repeats)

    timed = []  # (label, bound call us, rk4 step us)
    for order in (8, 32):
        for b in (1, 3):
            timed.append((f"B={b}  order={order:2d}", per_call_us(timer, b, order, args.calls),
                          per_step_us(timer, b, order)))

    s = np.random.default_rng(TRACE_ORDER).uniform(0, 1, TRACE_ORDER)
    call = timer.call_us(trace_system(0.5, TRACE_ORDER)(s, np.empty_like(s)), args.calls)
    step = timer.median_us(
        lambda: s_trajectory(0.5, STEPS * TRACE_STEP, TRACE_ORDER, h=TRACE_STEP), STEPS)
    timed.append((f"trace  order={TRACE_ORDER}", call, step))

    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS]
    batched = _seconds(lambda: integrate_moments_batch(params, args.t, order=8))
    serial = _seconds(lambda: [integrate_moments(p, args.t, order=8) for p in params])
    reference = timer.reference()
    scale = REFERENCE_NOMINAL_S / reference
    rows = [_row(label, call, step, scale) for label, call, step in timed]
    rows.append(f"three-lambda scan to t={args.t:g}: batched {batched:.2f} s, "
                f"serial {serial:.2f} s ({serial / batched:.2f}x); "
                f"at reference speed {batched * scale:.2f} s and {serial * scale:.2f} s")

    print(f"reference loop {reference * 1e3:.3f} ms (median of {len(timer.references)} samples;"
          f" nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
