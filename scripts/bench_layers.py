#!/usr/bin/env python3
"""Time the kernels behind the moment recurrence and the time-t density.

Prints, for batches of B = 1 and 3 parameter sets (the first B of the
density suite's ``DENSITY_LAMBDAS``) at orders 8 and 32, as
``integrate_moments_batch`` runs them (an order-major (order + 1, B)
state with one parameter per column as a tuple):

- the median microseconds per call of the bound right-hand side
  (``hierarchy(lam, theta)(m, out)``, bound once, called many times);
- the median microseconds per RK4 step, each timed over 2000 steps of
  ``integrate_moments_batch`` at ``DEFAULT_STEP``; the run stores its last
  state alone, as every suite's run stores only the states it reads.

Then the same two for the trace system as the laguerre suite runs it
(``trace_system(0.5, LAGUERRE_ORDER)``, steps of ``s_trajectory`` at
``LAGUERRE_STEP``), and the wall time of the density suite's scan
(``DENSITY_LAMBDAS`` at ``DENSITY_ORDER`` to ``--t``, by default
``DENSITY_SCAN_T``) run as one batch and as three single runs.  Last, for
``density_lambda1(1.0, fourier_terms=K)`` on ``spectral``'s default grid
at K = ``DEFAULT_TERMS`` (the CLI's and the density suite's) and K = 4096,
the median milliseconds per call and the tracemalloc peak of one further
call, in MiB.

Raw ``perf_counter`` medians follow the host's speed, which drifts on a
shared host.  So every timed sample is preceded by one sample of the
benchmark's host-speed reference loop (``sample.reference_s``, read with
``REFERENCE_NOMINAL_S`` from ``perfbench/run.py``), and every row, the
scans included, also prints its times at reference speed: scaled by the
nominal reference time over the median of all the run's reference
samples, which the first line prints.  One sample of about 1 ms tracks
the host only as well as so short a loop can, so no row is scaled by its
own samples alone.  Set OPENBLAS_NUM_THREADS=1 to match the benchmark's
children.

Usage: python scripts/bench_layers.py [--repeats 15] [--calls 2000] [--t T]
"""

import argparse
import runpy
import statistics
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from freejacobi.moments import (
    ProcessParams,
    hierarchy,
    integrate_moments,
    integrate_moments_batch,
)
from freejacobi.special_functions import DEFAULT_STEP, s_trajectory, trace_system
from freejacobi.spectral import DEFAULT_POINTS, DEFAULT_TERMS, density_lambda1
from freejacobi.verification import (DENSITY_LAMBDAS, DENSITY_ORDER, DENSITY_SCAN_T,
                                     LAGUERRE_ORDER, LAGUERRE_STEP)

STEPS = 2000
DENSITY_T, DENSITY_TERMS = 1.0, (DEFAULT_TERMS, 4096)
RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _seconds(run) -> float:
    start = perf_counter()
    run()
    return perf_counter() - start


class Timer:
    """Median times of repeated runs: each run follows one sample of the
    benchmark's reference loop, and every sample is kept in
    ``references``.  ``nominal_s`` is the reference time at which the
    benchmark states its seconds."""

    def __init__(self, repeats: int):
        path = list(sys.path)  # the runner puts perfbench/ on it to import its catalogue
        try:
            benchmark = runpy.run_path(str(RUNNER))
        finally:
            sys.path[:] = path
        self.reference_s = benchmark["sample"].reference_s
        self.nominal_s = benchmark["REFERENCE_NOMINAL_S"]
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
    return timer.call_us(hierarchy(DENSITY_LAMBDAS[:rows], (0.5,) * rows)(m, np.empty_like(m)),
                         calls)


def per_step_us(timer: Timer, rows: int, order: int) -> float:
    params = [ProcessParams(lam=lam, theta=0.5) for lam in DENSITY_LAMBDAS[:rows]]
    return timer.median_us(
        lambda: integrate_moments_batch(params, STEPS * DEFAULT_STEP, order=order), STEPS)


def peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _row(label: str, call: float, step: float, scale: float) -> str:
    return (f"{label}  bound call {call:6.2f} us  rk4 step {step:6.2f} us  "
            f"at reference speed: {call * scale:6.2f} us  {step * scale:6.2f} us")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--t", type=float, default=DENSITY_SCAN_T, help="end time of the scan")
    args = parser.parse_args()
    timer = Timer(args.repeats)

    timed = []  # (label, bound call us, rk4 step us)
    for order in (8, 32):
        for b in (1, 3):
            timed.append((f"B={b}  order={order:2d}", per_call_us(timer, b, order, args.calls),
                          per_step_us(timer, b, order)))

    s = np.random.default_rng(LAGUERRE_ORDER).uniform(0, 1, LAGUERRE_ORDER)
    call = timer.call_us(trace_system(0.5, LAGUERRE_ORDER)(s, np.empty_like(s)), args.calls)
    step = timer.median_us(
        lambda: s_trajectory(0.5, STEPS * LAGUERRE_STEP, LAGUERRE_ORDER, h=LAGUERRE_STEP), STEPS)
    timed.append((f"trace  order={LAGUERRE_ORDER}", call, step))

    params = [ProcessParams(lam=lam, theta=0.5) for lam in DENSITY_LAMBDAS]
    batched = _seconds(lambda: integrate_moments_batch(params, args.t, order=DENSITY_ORDER))
    serial = _seconds(lambda: [integrate_moments(p, args.t, order=DENSITY_ORDER) for p in params])

    densities = {terms: partial(density_lambda1, DENSITY_T, fourier_terms=terms)
                 for terms in DENSITY_TERMS}
    density_ms = {terms: timer.median_us(run, 1) / 1e3 for terms, run in densities.items()}

    reference = timer.reference()
    scale = timer.nominal_s / reference
    rows = [_row(label, call, step, scale) for label, call, step in timed]
    rows.append(f"three-lambda scan to t={args.t:g}: batched {batched:.2f} s, "
                f"serial {serial:.2f} s ({serial / batched:.2f}x); "
                f"at reference speed {batched * scale:.2f} s and {serial * scale:.2f} s")
    rows += [f"t={DENSITY_T:g}  points={DEFAULT_POINTS}  terms={terms:4d}  {ms:8.3f} ms  "
             f"at reference speed {ms * scale:8.3f} ms  "
             f"tracemalloc peak {peak_mib(densities[terms]):7.3f} MiB"
             for terms, ms in density_ms.items()]

    print(f"reference loop {reference * 1e3:.3f} ms (median of {len(timer.references)} samples;"
          f" nominal {timer.nominal_s * 1e3:g} ms)")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
