import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import freejacobi
from freejacobi import oracle as orc
from freejacobi.moments import INIT_MODES, ProcessParams, closed_form_moments, integrate_moments
from freejacobi.special_functions import s_closed_theta_half, ubm_moment_vector


def test_config_validation():
    with pytest.raises(ValueError):
        orc.OracleConfig(dim=1, t=1.0, steps=10, trials=2, seed=0)
    with pytest.raises(ValueError):
        orc.OracleConfig(dim=8, t=1.0, steps=0, trials=2, seed=0)
    with pytest.raises(ValueError):
        orc.OracleConfig(dim=8, t=1.0, steps=10, trials=2, seed=0, mode="bogus")
    with pytest.raises(ValueError):
        # P <= Q requires lambda <= 1 (lambda = 1.8 is P >= Q, mode "p-ge-q")
        orc.OracleConfig(
            dim=8, t=1.0, steps=10, trials=2, seed=0, lam=1.8, theta=0.5
        )
    with pytest.raises(ValueError):
        orc.OracleConfig(
            dim=8, t=1.0, steps=10, trials=2, seed=0,
            lam=1.5, theta=0.5, mode="orthogonal",
        )
    with pytest.raises(ValueError, match="trials must be >= 2"):
        orc.OracleConfig(dim=8, t=1.0, steps=10, trials=1, seed=0)


GRID = [(lam, theta, mode) for lam in (0.3, 0.9, 1.0, 1.2, 1.9, 2.5)
        for theta in (0.2, 0.5, 0.6) for mode in INIT_MODES]


@pytest.mark.parametrize("lam, theta, mode", GRID)
def test_config_accepts_what_process_params_accepts(lam, theta, mode):
    def raises(build):
        try:
            build()
        except ValueError:
            return True
        return False

    assert raises(lambda: orc.OracleConfig(dim=1024, lam=lam, theta=theta, mode=mode)) == \
        raises(lambda: ProcessParams(lam, theta, mode))


def test_orthogonal_rounded_ranks_must_fit():
    # nominal traces 1/2 + 1/2 = 1 fit, but at dim 3 both ranks round to 2
    ProcessParams(1.0, 0.5, "orthogonal")
    with pytest.raises(ValueError, match="rank\\(P\\) \\+ rank\\(Q\\) <= dim"):
        orc.OracleConfig(dim=3, lam=1.0, theta=0.5, mode="orthogonal")


def test_rank_rounding():
    cfg = orc.OracleConfig(dim=10, t=0.1, steps=1, trials=2, seed=0,
                           lam=0.9, theta=0.5)
    assert cfg.rank_q() == 5
    assert cfg.rank_p() == 5  # round-half-up of 4.5
    assert cfg.rank_info()["rank_rounded"] is True
    bernoulli = orc.OracleConfig(dim=10, mode="bernoulli_weight", theta=0.55)
    assert bernoulli.rank_info() == {"rank_q": 6, "nominal_rank_q": 5.5, "rank_rounded": True}
    assert orc.OracleConfig(dim=10, mode="bernoulli_weight").rank_info()["rank_rounded"] is False
    assert orc.OracleConfig(dim=10, mode="unitary").rank_info() == {}


def test_gaussian_normalization():
    rng = orc._trial_rng(3, 0)
    dim = 200
    acc = 0.0
    reps = 12
    for _ in range(reps):
        g = orc._gue(rng, dim)
        assert np.allclose(g, g.conj().T)
        acc += np.trace(g @ g).real / dim
    assert acc / reps == pytest.approx(1.0, rel=0.05)


def test_box_muller_moments():
    rng = orc._trial_rng(11, 0)
    x = orc._box_muller(rng, (200000,))
    assert abs(x.mean()) < 0.02
    assert x.std() == pytest.approx(1.0, abs=0.02)


def test_endpoint_at_time_zero_is_identity():
    u = orc._unitary_endpoint(orc._trial_rng(4, 0), 16, 0.0, 10)
    assert np.array_equal(u, np.eye(16, dtype=complex))


def test_unitarity_is_structural():
    u = orc._unitary_endpoint(orc._trial_rng(4, 0), 64, 1.0, 50)
    assert orc.unitarity_defect(u) < 1e-12


def test_determinism_across_runs():
    cfg = orc.OracleConfig(dim=32, t=0.5, steps=20, trials=3, seed=123)
    r1 = orc.empirical_jacobi_moments(cfg)
    r2 = orc.empirical_jacobi_moments(cfg)
    assert r1.estimates == r2.estimates
    assert np.array_equal(r1.per_trial, r2.per_trial)


def test_different_seeds_differ():
    base = dict(dim=32, t=0.5, steps=20, trials=2)
    r1 = orc.empirical_jacobi_moments(orc.OracleConfig(seed=1, **base))
    r2 = orc.empirical_jacobi_moments(orc.OracleConfig(seed=2, **base))
    assert r1.estimates != r2.estimates


def test_nested_at_time_zero_is_exact():
    cfg = orc.OracleConfig(dim=24, t=0.0, steps=1, trials=2, seed=9,
                           lam=0.5, theta=0.5)
    run = orc.empirical_jacobi_moments(cfg)
    assert run.estimates[1] == pytest.approx(1.0, abs=1e-14)
    assert run.estimates[2] == pytest.approx(1.0, abs=1e-14)


def test_orthogonal_at_time_zero_vanishes():
    cfg = orc.OracleConfig(dim=24, t=0.0, steps=1, trials=2, seed=9,
                           lam=0.5, theta=0.5, mode="orthogonal")
    run = orc.empirical_jacobi_moments(cfg)
    assert run.estimates[1] == pytest.approx(0.0, abs=1e-14)


def test_p_ge_q_at_time_zero_is_one_over_lambda():
    cfg = orc.OracleConfig(dim=64, t=0.0, steps=1, trials=2, seed=9,
                           lam=1.5, theta=0.5, mode="p-ge-q")
    run = orc.empirical_jacobi_moments(cfg)
    assert run.estimates == {1: 1 / 1.5, 2: 1 / 1.5}


def test_p_ge_q_moments_track_the_hierarchy():
    cfg = orc.OracleConfig(dim=64, t=0.5, steps=25, trials=4, seed=1,
                           lam=1.5, theta=0.5, mode="p-ge-q", orders=(1, 2, 3))
    run = orc.empirical_jacobi_moments(cfg)
    ode = integrate_moments(ProcessParams(1.5, 0.5, "p-ge-q"), 0.5, order=3).at(0.5)
    for n in cfg.orders:
        assert abs(run.estimates[n] - ode[n]) <= 3 * run.stderrs[n] + 4.0 / cfg.dim


def test_unitary_trace_tracks_theory():
    cfg = orc.OracleConfig(dim=128, t=1.0, steps=100, trials=4, seed=20240601,
                           mode="unitary", orders=(1, 2))
    run = orc.empirical_jacobi_moments(cfg)
    for n, h_ref in zip((1, 2), ubm_moment_vector(1.0, 2)):
        err = abs(run.estimates[n] - h_ref)
        assert err < 3 * run.stderrs[n] + 4.0 / cfg.dim


def test_nested_moments_track_theory():
    cfg = orc.OracleConfig(dim=128, t=1.0, steps=100, trials=4, seed=7)
    run = orc.empirical_jacobi_moments(cfg)
    assert abs(run.estimates[1] - closed_form_moments(1.0, 1)[1]) < 0.02
    assert abs(run.estimates[2] - closed_form_moments(1.0, 2)[2]) < 0.03
    assert run.unitarity_drift < 1e-10


def test_bernoulli_weight_tracks_symmetric_traces():
    cfg = orc.OracleConfig(dim=128, t=1.0, steps=100, trials=4, seed=7,
                           theta=0.5, mode="bernoulli_weight", orders=(1, 2))
    run = orc.empirical_jacobi_moments(cfg)
    predicted = math.exp(-2.0) * s_closed_theta_half(1.0, 2)[1]  # -e^{-2}
    assert predicted == pytest.approx(-math.exp(-2.0))
    assert abs(run.estimates[2] - predicted) < 0.03


def test_convergence_trend_with_paired_seed():
    # fixed-seed paired design: seed 1 exhibits the non-strict decrease
    # (the per-dim errors are noise-dominated at this scale, so the trend
    # is a property of the pinned draw, not of every seed)
    errors = []
    for dim in (64, 128, 256):
        cfg = orc.OracleConfig(dim=dim, t=1.0, steps=60, trials=4, seed=1)
        run = orc.empirical_jacobi_moments(cfg)
        errors.append(abs(run.estimates[1] - closed_form_moments(1.0, 1)[1]))
    assert errors[0] >= errors[1] >= errors[2]


# The serial draw and step loop, kept verbatim as the bit-for-bit reference
# of the in-place draw and of paths run side by side.
def _reference_box_muller(rng, shape):
    n = int(np.prod(shape))
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate(
        [radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)]
    )[:n]
    return out.reshape(shape)


def _reference_gue(rng, dim):
    normals = _reference_box_muller(rng, (2, dim, dim))
    a = (normals[0] + 1j * normals[1]) / math.sqrt(2.0)
    g = (a + a.conj().T) / math.sqrt(2.0)
    diag = _reference_box_muller(rng, (dim,))
    g[np.diag_indices(dim)] = diag
    return g / math.sqrt(dim)


def _reference_endpoint(rng, dim, t_end, steps):
    u = np.eye(dim, dtype=complex)
    if t_end == 0.0:
        return u
    dt = t_end / steps
    sqrt_dt = math.sqrt(dt)
    for _ in range(steps):
        g = _reference_gue(rng, dim)
        w, v = np.linalg.eigh(g)
        step = (v * np.exp(1j * sqrt_dt * w)) @ v.conj().T
        u = step @ u
    return u


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("dim", [2, 3, 16, 17])
def test_pipelined_endpoint_is_bit_identical_to_serial_loop(dim, steps):
    got = orc._unitary_endpoint(orc._trial_rng(5, 1), dim, 0.7, steps)
    want = _reference_endpoint(orc._trial_rng(5, 1), dim, 0.7, steps)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", orc.MODES)
def test_pipelined_runs_are_bit_identical_to_serial_loop(monkeypatch, mode):
    # trials one after another and side by side on 2 and 3 threads, against
    # the reference loop: which thread runs a trial changes no bit
    cfg = orc.OracleConfig(dim=17, t=0.8, steps=6, trials=3, seed=42,
                           lam=1.5 if mode == "p-ge-q" else 0.5, theta=0.5, mode=mode,
                           orders=(1, 2, 3))
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(orc, "_workers", lambda trials, n=workers: n)
        runs[workers] = orc.empirical_jacobi_moments(cfg)
        assert runs[workers].workers == workers
    monkeypatch.setattr(orc, "_workers", lambda trials: 1)
    monkeypatch.setattr(orc, "_unitary_endpoint", _reference_endpoint)
    want = orc.empirical_jacobi_moments(cfg)
    for got in runs.values():
        assert got.per_trial.tobytes() == want.per_trial.tobytes()
        assert float(got.unitarity_drift).hex() == float(want.unitarity_drift).hex()
        assert got.trial_drift == want.trial_drift
        assert got.unitarity_drift == max(got.trial_drift)
        assert len(got.trial_seconds) == cfg.trials


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("env, one_blas_thread", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),  # empty reads as unset
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, False),  # in doubt, serial
    ({"OMP_NUM_THREADS": "4"}, False),
])
def test_trials_run_side_by_side_only_at_one_blas_thread(monkeypatch, env, one_blas_thread):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(orc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for trials, workers in ((2, 2), (3, 3), (8, 3)):  # min(trials, CPUs the process may use)
        assert orc._workers(trials) == (workers if one_blas_thread else 1)


def _trace_trials(monkeypatch):
    """Record which trials' paths began, and the trial whose path the
    current thread runs."""
    started, current = [], threading.local()
    trial_rng = orc._trial_rng

    def recorded(seed, trial):
        started.append(trial)
        current.trial = trial
        return trial_rng(seed, trial)

    monkeypatch.setattr(orc, "_trial_rng", recorded)
    return started, current


@pytest.mark.parametrize("owner, name", [(orc, "_gue"), (np.linalg, "eigh")])
def test_failure_reaches_caller_and_leaves_no_thread(monkeypatch, owner, name):
    # one after another, the path fails at the third call.  Side by side (3
    # workers, 7 trials), trial 0 fails on the calling thread or trial 1 on
    # a helper, once the other two trials of the block have begun; those
    # finish only after the failure, and no later trial may begin
    gue, original = orc._gue, getattr(owner, name)
    cfg = orc.OracleConfig(dim=8, t=1.0, steps=5, trials=7, seed=1)

    def slow_gue(rng, dim):
        time.sleep(0.02)  # a thread left running would still be alive at the last assert
        return gue(rng, dim)

    for workers, failing_trial in ((1, None), (3, 0), (3, 1)):
        monkeypatch.setattr(orc, "_gue", slow_gue)
        started, current = _trace_trials(monkeypatch)
        calls, block_began, failed = [], threading.Barrier(3, timeout=10), threading.Event()

        def failing(*args):
            calls.append(args)
            if failing_trial is None:
                if len(calls) == 3:
                    raise RuntimeError(f"{name} failed")
            elif current.trial == failing_trial:
                block_began.wait()
                failed.set()
                raise RuntimeError(f"{name} failed")
            elif not failed.is_set():
                block_began.wait()
                assert failed.wait(timeout=10)
            return (slow_gue if owner is orc else original)(*args)

        monkeypatch.setattr(orc, "_workers", lambda trials: workers)
        monkeypatch.setattr(owner, name, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{name} failed"):
            orc.empirical_jacobi_moments(cfg)
        assert sorted(started) == ([0] if workers == 1 else [0, 1, 2])
        assert threading.active_count() == before
        if workers == 1:
            assert len(calls) == 3
        monkeypatch.undo()


def test_failed_estimate_on_the_calling_thread_leaves_no_thread(monkeypatch):
    # trial 0's estimates fail on the calling thread; trial 1 ran beside it
    started, _ = _trace_trials(monkeypatch)
    estimates = orc._trial_estimates

    def failing(config, u):
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError("estimate failed")
        return estimates(config, u)

    monkeypatch.setattr(orc, "_trial_estimates", failing)
    monkeypatch.setattr(orc, "_workers", lambda trials: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="estimate failed"):
        orc.empirical_jacobi_moments(orc.OracleConfig(dim=8, t=1.0, steps=5, trials=6, seed=1))
    assert sorted(started) == [0, 1]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_endpoint_is_released_after_its_estimates(monkeypatch, workers):
    # however many trials, a run holds at most workers + 1 endpoints: one
    # block's and the one last estimated; the estimates run on the calling
    # thread, in trial order
    live, most, estimated, trial_of = [], [], [], {}
    lock = threading.Lock()
    path, estimates = orc._path, orc._trial_estimates

    def tracked(config, trial):
        u, seconds = path(config, trial)
        with lock:
            live.append(weakref.ref(u))
            most.append(sum(ref() is not None for ref in live))
            trial_of[id(u)] = trial
        return u, seconds

    def recorded(config, u):
        estimated.append((threading.current_thread() is threading.main_thread(), trial_of[id(u)]))
        return estimates(config, u)

    monkeypatch.setattr(orc, "_path", tracked)
    monkeypatch.setattr(orc, "_trial_estimates", recorded)
    monkeypatch.setattr(orc, "_workers", lambda trials: workers)
    cfg = orc.OracleConfig(dim=16, t=0.5, steps=2, trials=12, seed=3, mode="unitary")
    run = orc.empirical_jacobi_moments(cfg)
    assert len(most) == cfg.trials and max(most) <= workers + 1
    assert estimated == [(True, trial) for trial in range(cfg.trials)]
    monkeypatch.undo()
    assert run.per_trial.tobytes() == orc.empirical_jacobi_moments(cfg).per_trial.tobytes()


def test_many_workers_run_each_trial_once(monkeypatch):
    # more threads than cores and a short switch interval: every trial must
    # run exactly once and its estimates land in its own row
    cfg = orc.OracleConfig(dim=4, t=0.5, steps=3, trials=24, seed=5, mode="unitary")
    monkeypatch.setattr(orc, "_workers", lambda trials: 1)
    want = orc.empirical_jacobi_moments(cfg)
    monkeypatch.setattr(orc, "_workers", lambda trials: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = orc.empirical_jacobi_moments(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert got.workers == 8
    assert got.per_trial.tobytes() == want.per_trial.tobytes()
    assert got.trial_drift == want.trial_drift


def test_analytic_entry_points_do_not_load_the_thread_pool():
    # only drawing a path needs concurrent.futures; the CLI and the suites
    # import the oracle module without it
    src = str(Path(freejacobi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, freejacobi.cli, freejacobi.verification; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
