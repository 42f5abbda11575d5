#!/usr/bin/env python3
"""Print the oracle's raw results as sorted JSON, bit for bit.

Runs the two oracle configurations the benchmark's oracle-mc workload
digests (the oracle suite at N = 256, t = 1, 200 steps, 2 trials: P <= Q,
mode ``p-le-q``, at seed 20240601, unitary at 20240602) and prints
``float.hex`` of every per-trial estimate and of the unitarity drift, so
two checkouts compare with one diff.  The keys are the workload's
``ORACLE_MODES``, ``nested`` for the P <= Q run:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/oracle_values.py > new.json

The drift's last bits depend on the BLAS thread count; compare runs made
with the same count.
"""

import json

from freejacobi.oracle import OracleConfig, empirical_jacobi_moments

SIZING = dict(dim=256, t=1.0, steps=200, trials=2, orders=(1, 2))
CONFIGS = {
    "nested": OracleConfig(seed=20240601, lam=1.0, theta=0.5, mode="p-le-q", **SIZING),
    "unitary": OracleConfig(seed=20240602, mode="unitary", **SIZING),
}


def main():
    records = {}
    for name, config in CONFIGS.items():
        run = empirical_jacobi_moments(config)
        records[name] = {
            "per_trial": [[float(x).hex() for x in row] for row in run.per_trial],
            "unitarity_drift": float(run.unitarity_drift).hex(),
        }
    print(json.dumps(records, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
