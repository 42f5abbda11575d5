"""In-memory spans around the public functions of each freejacobi layer.

A ``Tracer`` records one span per wrapped call (name, start, end, parent
span) in flat arrays, plus counters of work done that are read from the
calls' arguments and results.  ``install`` binds the wrappers from outside
the package: every module namespace (or class) that holds a listed
function gets the same wrapper, so a call is recorded whichever import
path reached it.  Nothing in the package is edited.

``layer_metrics`` turns the spans into the per-layer metrics the
benchmark prints: call counts, self time (span time minus the time its
child spans cover) and the counters.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# module -> public functions wrapped in every namespace that holds them
FUNCTIONS = {
    "moments": ["integrate_moments", "recurrence_rhs", "closed_form_moments",
                "expansion_moments", "complement_moments"],
    "special_functions": ["s_trajectory", "ubm_moment_vector", "laguerre1"],
    "transforms": ["mgf_closed_lambda1", "pde_residual_rho",
                   "pde_residual_mgf_lambda1", "stationary_mgf"],
    "decomposition": ["decomposition_u", "pde_residual_S",
                      "general_evolution_residual", "k_gap_vector"],
    "spectral": ["density_lambda1", "stationary_density", "quadrature_moments"],
    "combinatorics": ["word_counts_bruteforce"],
    "oracle": ["empirical_jacobi_moments"],
    "manifest": ["file_digest"],
}
# module -> (class, methods)
METHODS = {
    "series": ("TruncatedSeries", ["__mul__", "sqrt", "reciprocal", "compose"]),
    "manifest": ("RunManifest", ["write"]),
}
LINALG = ["eigh", "eigvalsh", "eigvals"]
SUITES = ["combinatorics", "catalan", "laguerre", "routes", "series",
          "decomposition", "complement", "density"]
CLI_COMMANDS = ["moments", "density", "stationary-density", "series", "s-system",
                "words", "verify"]
COUNTERS = [
    ("moments.rk4_steps", "count"),
    ("moments.trajectory_bytes", "bytes"),
    ("special_functions.rk4_steps", "count"),
    ("spectral.fourier_points_x_terms", "count"),
    ("combinatorics.words_enumerated", "count"),
    ("oracle.trials", "count"),
    ("oracle.path_steps", "count"),
    ("oracle.unitarity_drift_max", "1"),
    ("cli.bytes_written", "bytes"),
    ("manifest.bytes_digested", "bytes"),
]
ORACLE_SPAN = "oracle.empirical_jacobi_moments"


def wrapped_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}.{m}" for mod, (cls, ms) in METHODS.items() for m in ms]
    return names


def metric_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    spec = [(f"verification.run_suite.{s}.s", "s") for s in SUITES]
    for name in wrapped_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for fn in LINALG:
        spec += [(f"oracle.linalg.{fn}.calls", "count"), (f"oracle.linalg.{fn}.s", "s")]
    spec += [(f"cli.main.{c}.s", "s") for c in CLI_COMMANDS]
    spec += [("cli.self_s", "s")] + COUNTERS
    spec += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return spec


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, func, name: str, label=None, after=None):
        """Wrapper recording one span per call.  ``label(args)`` names the
        span per call; ``after(tracer, args, result)`` updates counters."""
        fixed = self._id(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._open(fixed if label is None else self._id(label(args)))
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# counters read from arguments and results
# ---------------------------------------------------------------------------

def _after_integrate(tr, args, traj):
    tr.add("moments.rk4_steps", len(traj.times) - 1)
    tr.add("moments.trajectory_bytes", traj.times.nbytes + traj.values.nbytes)


def _after_s_trajectory(tr, args, result):
    tr.add("special_functions.rk4_steps", len(result[0]) - 1)


def _after_density(tr, args, grid):
    tr.add("spectral.fourier_points_x_terms", grid.xs.size * grid.params["fourier_terms"])


def _after_words(tr, args, table):
    tr.add("combinatorics.words_enumerated", 4 ** table.n)


def _after_oracle(tr, args, run):
    tr.add("oracle.trials", run.config.trials)
    tr.add("oracle.path_steps", run.config.trials * run.config.steps)
    tr.peak("oracle.unitarity_drift_max", run.unitarity_drift)


def _after_digest(tr, args, digest):
    tr.add("manifest.bytes_digested", os.path.getsize(args[0]))


AFTER = {
    "moments.integrate_moments": _after_integrate,
    "special_functions.s_trajectory": _after_s_trajectory,
    "spectral.density_lambda1": _after_density,
    "combinatorics.word_counts_bruteforce": _after_words,
    "oracle.empirical_jacobi_moments": _after_oracle,
    "manifest.file_digest": _after_digest,
}


def _cli_label(args) -> str:
    argv = args[0]
    for i, token in enumerate(argv):
        if not token.startswith("-") and (i == 0 or argv[i - 1] != "--outdir"):
            return f"cli.main.{token}"
    return "cli.main.none"


def _rebind(original, wrapper, namespaces) -> None:
    """Replace every reference to ``original`` in the namespaces."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Bind wrappers for every listed function; return the names that
    could not be found (a renamed or removed function)."""
    import numpy.linalg

    import freejacobi.cli  # noqa: F401  (imports every module of the package)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "freejacobi" or name.startswith("freejacobi.")]
    missing = []
    for mod_name, fns in FUNCTIONS.items():
        mod = sys.modules[f"freejacobi.{mod_name}"]
        for fn in fns:
            name = f"{mod_name}.{fn}"
            original = getattr(mod, fn, None)
            if original is None:
                missing.append(name)
                continue
            _rebind(original, tracer.wrap(original, name, after=AFTER.get(name)), modules)
    for mod_name, (cls_name, methods) in METHODS.items():
        cls = getattr(sys.modules[f"freejacobi.{mod_name}"], cls_name)
        for m in methods:
            name = f"{mod_name}.{cls_name}.{m}"
            original = cls.__dict__.get(m)
            if original is None:
                missing.append(name)
                continue
            _rebind(original, tracer.wrap(original, name), [cls])
    run_suite = sys.modules["freejacobi.verification"].run_suite
    _rebind(run_suite, tracer.wrap(run_suite, "verification.run_suite",
                                   label=lambda a: f"verification.run_suite.{a[0]}"),
            modules)
    cli_main = sys.modules["freejacobi.cli"].main
    _rebind(cli_main, tracer.wrap(cli_main, "cli.main", label=_cli_label), modules)
    for fn in LINALG:
        original = getattr(numpy.linalg, fn)
        setattr(numpy.linalg, fn, tracer.wrap(original, f"linalg.{fn}"))
    return missing


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced sample (``trace.overhead_s`` is
    filled in by the caller, which has the untraced time)."""
    import numpy as np

    a = tracer.arrays()
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - covered
    n_names = len(tracer.names)
    calls = np.bincount(nid, minlength=n_names)
    self_by = np.bincount(nid, weights=self_time, minlength=n_names)
    total_by = np.bincount(nid, weights=dur, minlength=n_names)
    ids = tracer._ids

    def get(arr, name):
        return float(arr[ids[name]]) if name in ids else 0.0

    out = {f"verification.run_suite.{s}.s": get(total_by, f"verification.run_suite.{s}")
           for s in SUITES}
    for name in wrapped_names():
        out[f"{name}.calls"] = get(calls, name)
        out[f"{name}.self_s"] = get(self_by, name)
    # linalg calls made directly by the oracle (its trial loop is private)
    oracle_id = ids.get(ORACLE_SPAN, -1)
    from_oracle = has_parent & (nid[np.maximum(parent, 0)] == oracle_id)
    for fn in LINALG:
        sel = from_oracle & (nid == ids.get(f"linalg.{fn}", -1))
        out[f"oracle.linalg.{fn}.calls"] = float(sel.sum())
        out[f"oracle.linalg.{fn}.s"] = float(dur[sel].sum())
    out.update({f"cli.main.{c}.s": get(total_by, f"cli.main.{c}") for c in CLI_COMMANDS})
    out["cli.self_s"] = sum((float(self_by[i]) for n, i in ids.items()
                            if n.startswith("cli.main.")), 0.0)
    out.update({name: float(tracer.counters.get(name, 0)) for name, _ in COUNTERS})
    out["trace.spans"] = float(dur.size)
    return out
