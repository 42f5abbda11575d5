"""freejacobi benchmark: one command, three workloads, fresh interpreter per sample.

    python3 perfbench/run.py --workload verify-analytic|oracle-mc|cli-artifacts
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/freejacobi``).
The load is a closed loop with one client: samples run one after
another, each in a fresh interpreter (``sample.py``), because users pay
the cold-process cost on every CLI call and a fresh interpreter keeps
caches from carrying over between samples.  The BLAS thread count is set
explicitly for every child.  ``--seed`` fixes the order of the operations
in each pass; the inputs of each operation are the documented ones.

The number of samples is fixed by ``--seconds`` and each workload's
nominal sample time, so a run does the same work on any host; a run stops
starting samples only past a hard deadline of 2.5 x ``--seconds``.

The host's speed drifts, so the timed end-to-end metrics are scaled to a
nominal host speed by a fixed pure-Python reference loop that each sample
times every 0.1 s while it runs (``sample.reference_s``); the raw times are
printed in the machine block.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it
is the machine block.  ``failed`` counts operations whose correctness
check failed or raised.  ``correct`` is false when the benchmark itself
cannot vouch for the figures: an operation's results differ between
passes, a traced pass differs from its untraced twin, or a wrapper did
not take hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sample  # noqa: E402  (workload catalogue; imports no freejacobi)
import spans  # noqa: E402

NOMINAL_SAMPLE_S = {"verify-analytic": 10.0, "oracle-mc": 25.0, "cli-artifacts": 1.8}
TRACE_FACTOR = 2.5  # nominal (untraced + traced) pair time / untraced time
DEADLINE_FACTOR = 2.5
SAMPLE_TIMEOUT_S = 170
SETUP_PROBES = 9  # spread over the run: host speed drifts over seconds
# the timed metrics are seconds on a host where sample.reference_s() takes
# this long (it took 1.1-1.6 ms on the host that defined the benchmark)
REFERENCE_NOMINAL_S = 0.001
# one BLAS thread for every child.  The reference samples run in the
# sample's main thread; with two BLAS threads, scaling by them did not narrow
# the oracle's spread, and with one it did
BLAS_THREADS = 1
SETUP_CODE = ("import freejacobi, numpy; "
              "numpy.linalg.eigh(numpy.arange(64.0).reshape(8, 8) + numpy.eye(8) * 64)")
INFO_CODE = """
import json, sys, numpy
blas = {}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    pass
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas_name": blas.get("name"), "blas_version": blas.get("version")}))
"""

# wrapped calls each workload must make; zero calls in a traced run means
# a wrapper did not take hold
EXPECTED_CALLS = {
    "verify-analytic": [n for n in spans.wrapped_names()
                        if n.split(".")[0] not in ("oracle", "manifest")],
    "oracle-mc": ["oracle.empirical_jacobi_moments"]
                 + [f"oracle.linalg.{fn}" for fn in spans.LINALG],
    "cli-artifacts": [
        "moments.integrate_moments", "moments.recurrence_rhs", "moments.closed_form_moments",
        "special_functions.s_trajectory", "special_functions.ubm_moment_vector",
        "special_functions.laguerre1", "transforms.mgf_closed_lambda1",
        "transforms.pde_residual_rho", "transforms.stationary_mgf",
        "decomposition.decomposition_u", "decomposition.pde_residual_S",
        "spectral.density_lambda1", "spectral.stationary_density",
        "combinatorics.word_counts_bruteforce", "series.TruncatedSeries.__mul__",
        "series.TruncatedSeries.sqrt", "series.TruncatedSeries.compose",
        "manifest.file_digest", "manifest.RunManifest.write",
    ],
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def steal_seconds() -> float | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a host-speed diagnostic only."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return perf_counter() - start


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def child(argv, env, cwd, log_path=None) -> float:
    """Run one child to completion; return its wall time.

    The wait blocks in waitpid: a wait with a timeout polls every 50 ms,
    which would round the setup probes up to that grid.  A timer kills a
    child that hangs instead."""
    with open(log_path or os.devnull, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
        seconds = perf_counter() - start
    if proc.returncode != 0:
        tail = Path(log_path).read_text()[-2000:] if log_path else ""
        raise SystemExit(f"child {argv[:3]} exited {proc.returncode}\n{tail}")
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(sample.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle-seed", type=int, default=sample.ORACLE_SEED)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "freejacobi" / "__init__.py").is_file():
        log(f"no freejacobi sources under {src}: run from the root of a checkout")
        return 2
    work = HERE / "_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    threads = BLAS_THREADS
    env = dict(os.environ)
    env.pop("FREEJACOBI_OUTDIR", None)
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    started = perf_counter()
    steal0 = steal_seconds()

    # build: byte-compile once so no sample pays for it
    child(["-m", "compileall", "-q", str(src)], env, root)
    info_path = work / "info.json"
    with open(info_path, "w") as handle:
        subprocess.run([sys.executable, "-c", INFO_CODE], env=env, cwd=root, check=True,
                       stdout=handle, timeout=60)
    machine = {
        "nproc": nproc(), "blas_threads": threads, **json.loads(info_path.read_text()),
        "git_revision": git_revision(root), "source_sha256": source_digest(src),
        "calibration_s": [calibration_s()],
    }

    rng = random.Random(args.seed)
    catalogue = sample.WORKLOADS[args.workload]
    nominal = NOMINAL_SAMPLE_S[args.workload] * (TRACE_FACTOR if args.trace else 1.0)
    n_samples = max(1, int(args.seconds // nominal))
    deadline = started + DEADLINE_FACTOR * args.seconds
    # probe j runs before sample gap[j]; gap n_samples means after the last
    gap = [round(j * n_samples / (SETUP_PROBES - 1)) for j in range(SETUP_PROBES)]
    setup, untraced, traced = [], [], []
    for k in range(n_samples + 1):
        setup += [child(["-c", SETUP_CODE], env, root) for g in gap if g == k]
        if k == n_samples:
            break
        if k and perf_counter() > deadline:
            log(f"deadline reached after {k} of {n_samples} samples")
            setup += [child(["-c", SETUP_CODE], env, root) for g in gap if g > k]
            break
        ops = list(catalogue)
        if args.workload != "oracle-mc":  # the oracle suite fixes its mode order
            rng.shuffle(ops)
        for trace in (False, True) if args.trace else (False,):
            out = work / f"sample-{k}-{int(trace)}.json"
            argv = [str(HERE / "sample.py"), "--workload", args.workload,
                    "--ops", json.dumps(ops), "--out", str(out), "--workdir", str(work),
                    "--oracle-seed", str(args.oracle_seed)] + (["--trace"] if trace else [])
            child(argv, env, root, log_path=work / f"sample-{k}-{int(trace)}.log")
            record = json.loads(out.read_text())
            (traced if trace else untraced).append(record)
            bad = [op for op in record["ops"] if not op["ok"]]
            log(f"sample {k}{' traced' if trace else ''}: pass {record['pass_s']:.3f} s, "
                f"{len(record['ops'])} ops, {len(bad)} failed"
                + "".join(f"\n  FAIL {op['name']}: {op['detail'][:300]}" for op in bad))

    problems = consistency_problems(args.workload, untraced, traced)
    for problem in problems:
        log(f"INCONSISTENT: {problem}")
    records = untraced + traced
    refs = [ref for r in untraced for ref in r["ref_s"]]
    raw = {"setup_s": statistics.median(setup),
           "pass_s": statistics.median(r["pass_s"] for r in untraced),
           "key_op_s": statistics.median(r["key_op_s"] for r in untraced)}
    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(not op["ok"] for r in records for op in r["ops"])
    if args.trace:
        metrics = trace_metrics(untraced, traced)
    else:
        metrics = {
            # the probes are too short to sample: scale by the whole run
            "setup_s": (raw["setup_s"] * REFERENCE_NOMINAL_S / statistics.median(refs), "s"),
            "pass_s": (at_reference_speed(untraced, "pass_s"), "s"),
            "key_op_s": (at_reference_speed(untraced, "key_op_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
            "ops_attempted": (attempted, "count"),
        }
    steal1 = steal_seconds()
    machine["calibration_s"].append(calibration_s())
    machine.update(
        steal_s=None if steal0 is None or steal1 is None else steal1 - steal0,
        setup_probes_s=setup, raw_s=raw, reference_median_s=statistics.median(refs),
        samples=len(records), run_wall_s=perf_counter() - started,
        workload=args.workload, seed=args.seed, trace=args.trace,
        oracle_seed=args.oracle_seed,
    )
    spec_problem = spec_mismatch(root, set(metrics), args.trace)
    if spec_problem:
        log(spec_problem)
        return 1
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def at_reference_speed(records, key) -> float:
    """Median over samples of a sample's time scaled to the nominal host
    speed by the median of the reference samples taken during it."""
    return statistics.median(r[key] * REFERENCE_NOMINAL_S / statistics.median(r["ref_s"])
                             for r in records)


def consistency_problems(workload, untraced, traced) -> list[str]:
    """Reruns must repeat every result bit for bit, traced passes must
    match their untraced twins, and every wrapper must have taken hold."""
    problems = []
    first = {op["name"]: op["digest"] for op in untraced[0]["ops"]}
    for record in untraced + traced:
        kind = "traced" if record["traced"] else "untraced"
        problems += [f"{kind} pass: {op['name']} results differ from the first pass"
                     for op in record["ops"] if op["digest"] != first.get(op["name"])]
    for record in traced:
        problems += [f"listed function not found: {name}" for name in record["missing"]]
        layer = record["per_layer"]
        problems += [f"{name} recorded no calls" for name in EXPECTED_CALLS[workload]
                     if not layer[f"{name}.calls"]]
    return problems


def trace_metrics(untraced, traced) -> dict:
    """Median over traced samples of each per-layer metric, plus the
    tracing overhead: traced minus untraced pass time, median over pairs."""
    units = dict(spans.metric_spec())
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = statistics.median(t["pass_s"] - u["pass_s"] for u, t in zip(untraced, traced))
        else:
            value = statistics.median(t["per_layer"][name] for t in traced)
        metrics[name] = (value, unit)
    return metrics


def spec_mismatch(root: Path, names: set[str], trace: int) -> str | None:
    """The printed metric names must be exactly those BENCHMARK.json lists."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if listed != names:
        return (f"metrics differ from BENCHMARK.json: missing {sorted(listed - names)}, "
                f"unlisted {sorted(names - listed)}")
    return None


if __name__ == "__main__":
    sys.exit(main())
