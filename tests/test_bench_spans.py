"""The benchmark's span tracer wraps package functions by name; every name
it lists must still resolve, and every function a workload is expected to
call must still be called, so a rename, a deletion or a refactor that stops
calling one fails here rather than only turning a traced benchmark run
incorrect."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("perfbench_spans", SPANS)


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    missing = []
    for mod_name, fns in spans.FUNCTIONS.items():
        mod = importlib.import_module(f"freejacobi.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fns if not callable(getattr(mod, fn, None))]
    for mod_name, (cls_name, methods) in spans.METHODS.items():
        cls = getattr(importlib.import_module(f"freejacobi.{mod_name}"), cls_name, None)
        missing += [f"{mod_name}.{cls_name}.{m}" for m in methods
                    if cls is None or not callable(cls.__dict__.get(m))]
    assert not missing, f"wrapped names missing from the package: {missing}"


def _load_run(monkeypatch):
    # run.py puts perfbench/ on sys.path to import its catalogue
    monkeypatch.setattr(sys, "path", list(sys.path))
    return _load("perfbench_run", ROOT / "perfbench" / "run.py")


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _assert_traced_pass_makes_every_expected_call(tmp_path, monkeypatch, workload):
    """Run one traced ``perfbench/sample.py`` pass over the workload's
    operations and hold it to the benchmark's rule for traced runs."""
    run = _load_run(monkeypatch)
    out = tmp_path / "sample.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"), "--workload", workload,
         "--ops", json.dumps(run.sample.WORKLOADS[workload]), "--out", str(out),
         "--workdir", str(tmp_path), "--trace"],
        env=_env(), cwd=ROOT, check=True, timeout=300,
    )
    record = json.loads(out.read_text())
    assert record["missing"] == []
    assert [op["name"] for op in record["ops"] if not op["ok"]] == []
    layer = record["per_layer"]
    silent = [name for name in run.EXPECTED_CALLS[workload] if not layer[f"{name}.calls"]]
    assert silent == [], f"expected calls not made: {silent}"


def test_traced_verify_pass_makes_every_expected_call(tmp_path, monkeypatch):
    _assert_traced_pass_makes_every_expected_call(tmp_path, monkeypatch, "verify-analytic")


def test_traced_cli_pass_makes_every_expected_call(tmp_path, monkeypatch):
    _assert_traced_pass_makes_every_expected_call(tmp_path, monkeypatch, "cli-artifacts")


# the oracle suite at a small size, untraced and then under the tracer; the
# runs are caught where sample.py's oracle-mc workload catches them
ORACLE_TRACE_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import spans
from freejacobi import oracle, verification

def suite():
    inner, bits = oracle.empirical_jacobi_moments, []
    def caught(config):
        run = inner(config)
        bits.append((run.per_trial.tobytes().hex(), float(run.unitarity_drift).hex()))
        return run
    oracle.empirical_jacobi_moments = caught
    try:
        verification.run_suite("oracle", dim=16, steps=5, trials=2)
    finally:
        oracle.empirical_jacobi_moments = inner
    return bits

untraced = suite()
tracer = spans.Tracer()
missing = spans.install(tracer)
traced = suite()
print(json.dumps({"untraced": untraced, "traced": traced, "missing": missing,
                  "per_layer": spans.layer_metrics(tracer)}))
"""


def test_traced_oracle_pass_repeats_its_bits_and_makes_every_expected_call(monkeypatch):
    run = _load_run(monkeypatch)
    done = subprocess.run([sys.executable, "-c", ORACLE_TRACE_SCRIPT], env=_env(), cwd=ROOT,
                          check=True, timeout=300, capture_output=True, text=True)
    record = json.loads(done.stdout)
    assert record["missing"] == []
    assert len(record["untraced"]) == 2  # nested and unitary
    assert record["traced"] == record["untraced"]
    layer = record["per_layer"]
    # a linalg call counts only when its span's parent is the oracle's span
    silent = [name for name in run.EXPECTED_CALLS["oracle-mc"] if not layer[f"{name}.calls"]]
    assert silent == [], f"expected calls not made: {silent}"
