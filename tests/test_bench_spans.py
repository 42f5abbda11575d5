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


def test_traced_verify_pass_makes_every_expected_call(tmp_path, monkeypatch):
    # run.py puts perfbench/ on sys.path to import its catalogue
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    out = tmp_path / "sample.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"), "--workload", "verify-analytic",
         "--ops", json.dumps(run.sample.VERIFY_SUITES), "--out", str(out),
         "--workdir", str(tmp_path), "--trace"],
        env=env, cwd=ROOT, check=True, timeout=300,
    )
    record = json.loads(out.read_text())
    assert record["missing"] == []
    assert [op["name"] for op in record["ops"] if not op["ok"]] == []
    layer = record["per_layer"]
    silent = [name for name in run.EXPECTED_CALLS["verify-analytic"]
              if not layer[f"{name}.calls"]]
    assert silent == [], f"expected calls not made: {silent}"
