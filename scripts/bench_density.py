#!/usr/bin/env python3
"""Time the time-t density and measure its peak allocation.

Prints, for ``density_lambda1(1.0, num_points=999, fourier_terms=K)`` at
K = 256 (the CLI's and the density suite's default) and K = 4096:

- the median milliseconds per call, raw and at the benchmark's reference
  speed (the ``Timer`` of ``scripts/bench_rhs.py``: each timed call follows
  one sample of ``reference_s`` in ``perfbench/sample.py``, and both rows
  are scaled by the median of all those samples);
- the tracemalloc peak of one further call, in MiB.

Set OPENBLAS_NUM_THREADS=1 to match the benchmark's children.

Usage: python scripts/bench_density.py [--repeats 15]
"""

import argparse
import importlib.util
import tracemalloc
from functools import partial
from pathlib import Path

from freejacobi.spectral import density_lambda1

T, POINTS, TERMS = 1.0, 999, (256, 4096)
BENCH_RHS = Path(__file__).resolve().parent / "bench_rhs.py"


def _bench_rhs():
    spec = importlib.util.spec_from_file_location("bench_rhs", BENCH_RHS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    bench_rhs = _bench_rhs()
    timer = bench_rhs.Timer(args.repeats)

    runs = {terms: partial(density_lambda1, T, num_points=POINTS, fourier_terms=terms)
            for terms in TERMS}
    raw_us = {terms: timer.median_us(run, 1) for terms, run in runs.items()}
    scale = bench_rhs.REFERENCE_NOMINAL_S / timer.reference()
    for terms, run in runs.items():
        print(f"t={T:g}  points={POINTS}  terms={terms:4d}  {raw_us[terms] / 1e3:8.3f} ms  "
              f"at reference speed {raw_us[terms] * scale / 1e3:8.3f} ms  "
              f"tracemalloc peak {peak_mib(run):7.3f} MiB")


if __name__ == "__main__":
    main()
