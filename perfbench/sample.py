"""One benchmark sample: one pass over a workload's operations, run in a
fresh interpreter and written to a JSON file.

    python3 perfbench/sample.py --workload NAME --ops JSON --out PATH
                                --workdir DIR [--trace] [--oracle-seed N]

``--ops`` is the ordered list of operation names of the pass.  Each
operation is timed with ``perf_counter`` and then checked; the record
per operation holds its time, whether its check passed, and a digest of
its results, so that reruns and traced runs can be compared bit for bit.
An untraced sample also records the host-speed reference samples taken
while it ran (see ``Pass``).
The workload catalogue below is also read by ``run.py``; it imports
nothing from freejacobi at module level.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

VERIFY_SUITES = ["combinatorics", "catalan", "laguerre", "routes", "series",
                 "decomposition", "complement", "density"]

# README examples (minus `oracle` and `verify --suite all`), the series
# checks at their defaults, s-system, and the default times of
# scripts/density_scan.py
CLI_COMMANDS = [
    "moments --lambda 1 --theta 0.5 --t 1 --method closed-form --order 16",
    "moments --lambda 0.6 --theta 0.5 --t 2 --method recurrence --init p-le-q",
    "density --t 1 --grid-points 999 --terms 256 --fejer auto",
    "stationary-density --lambda 0.6",
    "series --check alpha --order 32",
    "series --check decomposition --lambda 0.6 --t 1 --order 12",
    "words --n 8",
    "verify --suite catalan",
    "series --check rho",
    "series --check mgf",
    "series --check pde",
    "s-system",
    "density --t 0.25",
    "density --t 0.5",
    "density --t 1",
    "density --t 2",
    "density --t 4",
]
CLI_EXPECTED_EXIT = 0  # every command above documents exit 0 on success

# the oracle suite's configuration at two trials per mode: eight would take
# about 110 s per pass, too long for 22 runs per workload in under an hour;
# two is the fewest the unitary 3-sigma check can use
ORACLE_CONFIG = {"dim": 256, "steps": 200, "trials": 2}
ORACLE_MODES = ["nested", "unitary"]
ORACLE_SEED = 20240601

# a reference sample times this many iterations of a fixed pure-Python
# loop (about 1-2 ms), once per period while an untraced sample runs
REFERENCE_LOOPS = 20_000
REFERENCE_PERIOD_S = 0.1

WORKLOADS = {
    "verify-analytic": VERIFY_SUITES,
    "oracle-mc": ORACLE_MODES,
    "cli-artifacts": CLI_COMMANDS,
}


def reference_s() -> float:
    """Host-speed reference: the time of a fixed pure-Python loop.  It runs
    no freejacobi code, so no change to the program moves it, while on a
    shared host it slows and speeds up with the program's own time."""
    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i
    return perf_counter() - start


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _file_sha256(path: Path) -> str:
    """The benchmark's own digest: the package's ``file_digest`` is traced."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_digest(results) -> str:
    return _hash(*[
        (r.suite, r.name, r.passed,
         None if r.value is None else float(r.value).hex(),
         None if r.tolerance is None else float(r.tolerance).hex(), r.detail)
        for r in results
    ])


class Pass:
    """Records each operation of one pass; opens an op span when traced.

    While ``sampling()`` is active, a timer interrupts the pass every
    ``REFERENCE_PERIOD_S`` to take a reference sample in the pass's own
    thread, so the samples see the host speed the operations see.  The
    time the samples take is left out of every time the pass reports."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.refs: list[float] = []
        self.ref_time = 0.0  # total time spent in reference samples

    def _on_timer(self, signum, frame):
        start = perf_counter()
        self.refs.append(reference_s())
        self.ref_time += perf_counter() - start

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, name, func, *args):
        """Run one operation: (result, seconds, traceback if it raised)."""
        with self.tracer.span(f"op.{name}") if self.tracer else nullcontext():
            start, before = perf_counter(), self.ref_time
            try:
                result, error = func(*args), None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            return result, perf_counter() - start - (self.ref_time - before), error

    def record(self, name, seconds, ok, digest, detail=""):
        self.ops.append({"name": name, "s": seconds, "ok": bool(ok),
                         "digest": digest, "detail": detail})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_verify(ops, p: Pass, args) -> dict:
    from freejacobi import verification

    for suite in ops:
        results, seconds, error = p.timed(suite, verification.run_suite, suite)
        if error:
            p.record(suite, seconds, False, None, error)
            continue
        failed = [r.line() for r in results if not r.passed]
        p.record(suite, seconds, not failed, _check_digest(results), "; ".join(failed))
    return {"pass_s": sum(op["s"] for op in p.ops),
            "key_op_s": next(op["s"] for op in p.ops if op["name"] == "density")}


def run_oracle(ops, p: Pass, args) -> dict:
    """One call of the oracle suite: one empirical_jacobi_moments call per
    mode, timed through a wrapper on the module attribute the suite uses,
    and gated by that mode's checks in the suite."""
    from freejacobi import oracle, verification

    if ops != ORACLE_MODES:
        raise SystemExit(f"oracle-mc runs the modes in suite order {ORACLE_MODES}")
    inner = oracle.empirical_jacobi_moments
    calls = []

    def timed_call(config):
        run, seconds, error = p.timed(config.mode, inner, config)
        calls.append((config.mode, seconds, run))
        if error:
            raise RuntimeError(error)
        return run

    oracle.empirical_jacobi_moments = timed_call
    start, before = perf_counter(), p.ref_time
    suite_error = None
    try:
        results = verification.run_suite("oracle", seed=args.oracle_seed, **ORACLE_CONFIG)
    except Exception:
        results, suite_error = [], traceback.format_exc(limit=3)
    finally:
        oracle.empirical_jacobi_moments = inner
    pass_s = perf_counter() - start - (p.ref_time - before)
    for mode, seconds, run in calls:
        if suite_error:
            p.record(mode, seconds, False, None, suite_error)
            continue
        mine = [r for r in results if r.name.startswith("unitary-") == (mode == "unitary")]
        failed = [r.line() for r in mine if not r.passed]
        digest = _hash(run.per_trial.tobytes(), float(run.unitarity_drift).hex(),
                       _check_digest(mine))
        p.record(mode, seconds, not failed, digest, "; ".join(failed))
    trials = ORACLE_CONFIG["trials"]
    return {"pass_s": pass_s, "key_op_s": statistics.median(op["s"] / trials for op in p.ops)}


def _gate_outdir(outdir: Path) -> list[str]:
    """Nonfinite numeric CSV fields and manifest digests that do not match.
    ``inf`` in a ``t`` column is the documented label of the stationary law
    (t = infinity), not a computed value."""
    problems = []
    manifests = sorted(outdir.glob("*_manifest.json"))
    if not manifests:
        problems.append("no manifest written")
    for path in manifests:
        for out in json.loads(path.read_text())["outputs"]:
            target = outdir / out["path"]
            if not target.is_file() or _file_sha256(target) != out["sha256"]:
                problems.append(f"{path.name}: digest mismatch for {out['path']}")
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            bad = 0
            for row in reader:
                for column, field in zip(header, row):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    if math.isnan(value) or (math.isinf(value) and column != "t"):
                        bad += 1
        if bad:
            problems.append(f"{path.name}: {bad} nonfinite fields")
    return problems


def run_cli(ops, p: Pass, args) -> dict:
    from freejacobi import cli

    for k, command in enumerate(ops):
        outdir = Path(args.workdir) / f"cli-{k:02d}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        argv = ["--outdir", str(outdir)] + command.split()

        def call():
            try:
                with redirect_stdout(io.StringIO()):
                    return cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit 2
                return exc.code

        code, seconds, error = p.timed(command, call)
        if error:
            p.record(command, seconds, False, None, error)
            continue
        files = sorted(f for f in outdir.iterdir() if f.is_file())
        if p.tracer is not None:
            p.tracer.add("cli.bytes_written", sum(f.stat().st_size for f in files))
        problems = [] if code == CLI_EXPECTED_EXIT else [f"exit code {code}"]
        problems += _gate_outdir(outdir)
        digest = _hash(code, *[(f.name, _file_sha256(f)) for f in files
                               if not f.name.endswith("_manifest.json")])
        p.record(command, seconds, not problems, digest, "; ".join(problems))
        shutil.rmtree(outdir)
    return {"pass_s": sum(op["s"] for op in p.ops),
            "key_op_s": next(op["s"] for op in p.ops if op["name"] == "series --check pde")}


RUNNERS = {"verify-analytic": run_verify, "oracle-mc": run_oracle, "cli-artifacts": run_cli}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--ops", required=True, help="JSON list of operation names")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle-seed", type=int, default=ORACLE_SEED)
    args = parser.parse_args()

    tracer, missing = None, []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    p = Pass(tracer)
    # traced passes take no reference samples: they would land in the spans
    with nullcontext() if args.trace else p.sampling():
        times = RUNNERS[args.workload](json.loads(args.ops), p, args)
    record = {"workload": args.workload, "traced": args.trace, "ops": p.ops, "ref_s": p.refs,
              **times}
    if tracer is not None:
        record["missing"] = missing
        record["per_layer"] = spans.layer_metrics(tracer)
        tracer.save(Path(args.workdir) / f"spans-{args.workload}.npz")
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
