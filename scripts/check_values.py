#!/usr/bin/env python3
"""Print the workbench's evidence as one sorted JSON document, bit for bit,
so two checkouts compare with one diff:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/check_values.py > new.json

``checks``: every check of ``verify --suite all``: suite, name, pass/fail,
``float.hex`` of the value and of the tolerance (null when absent), detail.

``oracle``: every ``empirical_jacobi_moments`` call of those suites, caught
as oracle-mc's runner in ``perfbench/sample.py`` catches it: mode, seed,
dim, steps, trials and ``float.hex`` of each trial's estimates and
unitarity drift.  Trial k's path comes from a generator keyed by (seed, k)
alone, on whichever thread runs it, so its bits do not depend on the
number of trials: trials 0-1 of the oracle suite's p-le-q and unitary runs
are oracle-mc's two-trial runs.  The drift's last bits depend on the BLAS
thread count; compare runs made with the same count.

``cli``: per command of cli-artifacts (``CLI_COMMANDS`` in the same file),
run in-process into a fresh directory: the exit code, the SHA-256 of each
output file but the manifests, and each manifest's ``parameters`` and
``seeds`` (no timestamp, path or command line).  The list runs twice in
one process, so each second run reads the caches the first left; if a
second record differs, the script names its command, exits nonzero and
prints nothing.
"""

import hashlib
import io
import json
import runpy
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from freejacobi import cli, oracle
from freejacobi.verification import run_suite

SAMPLE = Path(__file__).resolve().parents[1] / "perfbench" / "sample.py"
CLI_COMMANDS = runpy.run_path(str(SAMPLE))["CLI_COMMANDS"]


def _hex(x):
    return None if x is None else float(x).hex()


def _run(argv):
    try:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # usage errors exit 2
        return exc.code


def _cli_records() -> dict:
    records = {}
    for command in CLI_COMMANDS:
        with tempfile.TemporaryDirectory() as outdir:
            code = _run(["--outdir", outdir] + command.split())
            files = sorted(f for f in Path(outdir).iterdir() if f.is_file())
            records[command] = {
                "exit": code,
                "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                          for f in files if not f.name.endswith("_manifest.json")},
                "manifests": {f.name: {key: json.loads(f.read_text())[key]
                                       for key in ("parameters", "seeds")}
                              for f in files if f.name.endswith("_manifest.json")},
            }
    return records


def _cli() -> dict:
    first, second = _cli_records(), _cli_records()
    changed = [command for command in first if first[command] != second[command]]
    if changed:
        raise SystemExit("a second run in the same process differs: " + "; ".join(changed))
    return first


def _checks_and_oracle() -> tuple[list, list]:
    inner, runs = oracle.empirical_jacobi_moments, []

    def caught(config):
        runs.append(inner(config))
        return runs[-1]

    oracle.empirical_jacobi_moments = caught
    try:
        results = run_suite("all")
    finally:
        oracle.empirical_jacobi_moments = inner
    checks = [{"suite": r.suite, "name": r.name, "passed": bool(r.passed),
               "value": _hex(r.value), "tolerance": _hex(r.tolerance), "detail": r.detail}
              for r in results]
    return checks, [
        {**{key: getattr(run.config, key) for key in ("mode", "seed", "dim", "steps", "trials")},
         "per_trial": [[_hex(x) for x in row] for row in run.per_trial],
         "trial_drift": [_hex(x) for x in run.trial_drift]}
        for run in runs
    ]


def main():
    cli_records = _cli()  # first: a second run that differs fails in seconds
    checks, runs = _checks_and_oracle()
    print(json.dumps({"checks": checks, "oracle": runs, "cli": cli_records}, indent=1,
                     sort_keys=True))


if __name__ == "__main__":
    main()
