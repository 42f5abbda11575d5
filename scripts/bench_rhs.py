#!/usr/bin/env python3
"""Time the bound right-hand sides, one RK4 step and the batched integrator.

Prints, for batches of B = 1 and 3 rows at orders 8 and 32, as
``integrate_moments_batch`` runs them (a (B, order + 1) state with one
parameter per row as a tuple):

- the median microseconds per call of the bound right-hand side
  (``hierarchy(lam, theta)(m, out)``, bound once, called many times);
- the median microseconds per RK4 step, each timed over 2000 steps of
  ``integrate_moments_batch``.

Then the same two for the trace system as the laguerre suite runs it
(``trace_system(0.5, 12)``, steps of ``s_trajectory`` at h = 2e-4), and
the wall time of the density suite's three-lambda integration
(order 8, t = 30, h = 1e-3) run as one batch and as three single runs.

Raw ``perf_counter`` medians follow the host's speed, which drifts on a
shared host.  So every timed sample is preceded by one sample of the
benchmark's host-speed reference loop (``reference_s`` in
``perfbench/sample.py``), and each row also prints its times at reference
speed: scaled by the nominal reference time over the reference sample, as
the benchmark scales its metrics, median over the repeats.  The two scans
run once each and are scaled by the median reference sample, which the
first line prints.  Set OPENBLAS_NUM_THREADS=1 to match the
benchmark's children.

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
    """Median times of repeated runs, raw and at reference speed: each run
    follows one sample of the benchmark's reference loop, and every sample
    is kept in ``references``."""

    def __init__(self, repeats: int):
        spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self.reference_s = module.reference_s
        self.repeats = repeats
        self.references: list[float] = []

    def _timed(self, run) -> tuple[float, float]:
        ref = self.reference_s()
        self.references.append(ref)
        elapsed = _seconds(run)
        return elapsed, elapsed * REFERENCE_NOMINAL_S / ref

    def median_us(self, run, per: int) -> tuple[float, float]:
        """Median microseconds per ``per`` of ``run``: raw and at reference speed."""
        samples = [self._timed(run) for _ in range(self.repeats)]
        return tuple(statistics.median(sample[i] for sample in samples) / per * 1e6
                     for i in (0, 1))

    def call_us(self, rhs, calls: int) -> tuple[float, float]:
        def run():
            for _ in range(calls):
                rhs(0.0)

        return self.median_us(run, calls)


def per_call_us(timer: Timer, rows: int, order: int, calls: int) -> tuple[float, float]:
    m = np.random.default_rng(order).uniform(0, 1, (rows, order + 1))
    return timer.call_us(hierarchy(LAMBDAS[:rows], (0.5,) * rows)(m, np.empty_like(m)), calls)


def per_step_us(timer: Timer, rows: int, order: int) -> tuple[float, float]:
    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS[:rows]]
    h = 1e-3
    return timer.median_us(lambda: integrate_moments_batch(params, STEPS * h, order=order, h=h),
                           STEPS)


def _row(label: str, call: tuple[float, float], step: tuple[float, float]) -> str:
    return (f"{label}  bound call {call[0]:6.2f} us  rk4 step {step[0]:6.2f} us  "
            f"at reference speed: {call[1]:6.2f} us  {step[1]:6.2f} us")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--t", type=float, default=30.0, help="end time of the scan")
    args = parser.parse_args()
    timer = Timer(args.repeats)

    rows = []
    for order in (8, 32):
        for b in (1, 3):
            call = per_call_us(timer, b, order, args.calls)
            step = per_step_us(timer, b, order)
            rows.append(_row(f"B={b}  order={order:2d}", call, step))

    s = np.random.default_rng(TRACE_ORDER).uniform(0, 1, TRACE_ORDER)
    call = timer.call_us(trace_system(0.5, TRACE_ORDER)(s, np.empty_like(s)), args.calls)
    step = timer.median_us(
        lambda: s_trajectory(0.5, STEPS * TRACE_STEP, TRACE_ORDER, h=TRACE_STEP), STEPS)
    rows.append(_row(f"trace  order={TRACE_ORDER}", call, step))

    params = [ProcessParams(lam=lam, theta=0.5) for lam in LAMBDAS]
    batched = _seconds(lambda: integrate_moments_batch(params, args.t, order=8))
    serial = _seconds(lambda: [integrate_moments(p, args.t, order=8) for p in params])
    # one sample of about 1 ms says little about a run of seconds: the
    # scans are scaled by the median of every reference sample
    reference = statistics.median(timer.references)
    scale = REFERENCE_NOMINAL_S / reference
    rows.append(f"three-lambda scan to t={args.t:g}: batched {batched:.2f} s, "
                f"serial {serial:.2f} s ({serial / batched:.2f}x); "
                f"at reference speed {batched * scale:.2f} s and {serial * scale:.2f} s")

    print(f"reference loop {reference * 1e3:.3f} ms (median of {len(timer.references)} samples;"
          f" nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
