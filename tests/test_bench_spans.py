"""The benchmark's span tracer wraps package functions by name; every name
it lists must still resolve, so a rename or a deletion fails here rather
than only turning a traced benchmark run incorrect."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
