"""Every check can fail: the check constructor at and past its tolerance,
and NaN injected into one input of a suite."""

import math

import numpy as np
import pytest

from freejacobi import (combinatorics, decomposition, oracle, special_functions, spectral,
                        verification)
from freejacobi.special_functions import damped_traces, s_trajectory
from freejacobi.verification import _check


@pytest.mark.parametrize("value", [1e-8, np.nextafter(1e-8, np.inf), np.nan])
def test_check_fails_at_tolerance_past_it_and_at_nan(value):
    result = _check("suite", "name", value, 1e-8)
    assert not result.passed
    assert result.line().startswith("FAIL")


def test_check_passes_below_tolerance_and_stated_passed_wins():
    assert _check("suite", "name", np.nextafter(1e-8, -np.inf), 1e-8).passed
    assert not _check("suite", "name", 0.0, 1e-8, passed=False).passed


def test_check_without_tolerance_or_passed_is_rejected():
    # a check that cannot fail is no check
    with pytest.raises(ValueError, match="suite/name"):
        _check("suite", "name", 3, detail="measured only")


def _integrated_traces_at_half(order):
    """The routes suite's damped traces at t = 0.5: 500 steps of one
    default-step run to 0.5 give the bits of the longer run's stored state."""
    return damped_traces(s_trajectory(0.5, 0.5, order)[1][-1], 0.5)


def _nan_m3_at_half(m, theta, damped):
    if np.array_equal(damped, _integrated_traces_at_half(damped.size)):
        m[3] = np.nan


def _nan_m3_at_one(traj, *args):
    traj.at(1.0)[3] = np.nan


def _nan_m3(m, *args):
    m[3] = np.nan


def _nan_z4(series, *args):
    series.coeffs[4] = np.nan


@pytest.mark.parametrize("suite, module, name, poison, affected", [
    ("routes", verification, "expansion_moments", _nan_m3_at_half,
     {"expansion-vs-closed-form", "ode-vs-expansion"}),
    ("complement", verification, "complement_moments", _nan_m3_at_one,
     {"transform-vs-direct-lam-1.5", "limit-lam-1-symmetry"}),
    ("density", spectral, "quadrature_moments", _nan_m3,
     {"moment-back-check", "stationary-vs-t-30-moments"}),
    ("decomposition", decomposition, "source_series", _nan_z4,
     {"evolution-equation-n-4-to-8"}),
])
def test_nan_in_one_input_fails_the_checks_it_reaches(monkeypatch, suite, module, name,
                                                      poison, affected):
    original = getattr(module, name)

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        poison(out, *args)
        return out

    monkeypatch.setattr(module, name, poisoned)
    results = {r.name: r for r in verification.run_suite(suite)}
    for check in affected:
        assert not results[check].passed, results[check].line()
        assert np.isnan(results[check].value)
    assert all(r.passed for n, r in results.items() if n not in affected)


def test_ubm_moment_error_fails_the_routes_that_read_it(monkeypatch):
    # the expansion route reads the integrated trace system, not h_k(2t):
    # a relative 1e-6 error in every h_k, all of which ``rho_coefficients``
    # produces, shows between it and the closed form, and not between it
    # and the ODE
    original = special_functions.rho_coefficients
    monkeypatch.setattr(special_functions, "rho_coefficients",
                        lambda s, rate, order: original(s, rate, order) * (1 + 1e-6))
    results = {r.name: r for r in verification.run_suite("routes")}
    assert not results["expansion-vs-closed-form"].passed, results["expansion-vs-closed-form"].line()
    assert results["ode-vs-expansion"].passed, results["ode-vs-expansion"].line()


def test_closed_count_error_fails_the_combinatorics_suite(monkeypatch):
    original = combinatorics.word_counts_closed

    def off_by_one(n, k):
        c, d, e = original(n, k)
        return (c + 1, d, e) if (n, k) == (15, 3) else (c, d, e)

    monkeypatch.setattr(combinatorics, "word_counts_closed", off_by_one)
    results = {r.name: r for r in verification.run_suite("combinatorics")}
    assert not results["closed-recurrences-n<=20"].passed


def test_nan_drift_in_one_trial_fails_the_drift_gate(monkeypatch):
    defects = iter([2e-15, math.nan, 2e-15, 2e-15])
    monkeypatch.setattr(oracle, "unitarity_defect", lambda u: next(defects))
    results = {r.name: r for r in verification.run_suite("oracle", dim=8, steps=5, trials=2)}
    drift = results["unitarity-drift"]
    assert not drift.passed, drift.line()
    assert np.isnan(drift.value)


def test_nan_general_theta_trace_fails_both_gates(monkeypatch):
    original = verification.damped_traces

    def poisoned(s, t):
        out = original(s, t)
        if t == 1.0:
            out[2] = np.nan  # the theta = 0.75 trace e^{-3t} s_3 at t = 1
        return out

    monkeypatch.setattr(verification, "damped_traces", poisoned)
    results = {r.name: r for r in verification.run_suite(
        "general-theta", dim=8, steps=2, trials=2)}
    for name in ("expansion-vs-ode", "bernoulli-oracle-within-budget"):
        assert not results[name].passed, results[name].line()
        assert np.isnan(results[name].value)
    assert results["theta-half-sanity"].passed


def test_general_theta_suite_integrates_the_trace_system_once(monkeypatch):
    calls = []
    original = verification.s_trajectory

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verification, "s_trajectory", counted)
    verification.run_suite("general-theta", dim=8, steps=2, trials=2)
    assert calls == [(0.75, 2.0, 6)]
    # at the oracle's realised weight: 7.5 of 10 signs round to 8
    results = verification.run_suite("general-theta", dim=10, steps=2, trials=2)
    assert calls[1:] == [(0.8, 2.0, 6)]
    assert "theta=0.8," in results[1].detail and "theta=0.8" in results[2].detail


def test_general_theta_suite_writes_no_file(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    results = verification.run_suite("general-theta", dim=8, steps=2, trials=2)
    assert list(tmp_path.iterdir()) == []
    assert [(r.name, r.tolerance) for r in results] == [
        ("theta-half-sanity", 1e-8), ("expansion-vs-ode", 1e-8),
        ("bernoulli-oracle-within-budget", 1.0)]


def test_unknown_suite_keyword_is_rejected():
    with pytest.raises(TypeError, match="outdir"):
        verification.run_suite("general-theta", outdir=".")
    with pytest.raises(TypeError, match="dim"):
        verification.run_suite("catalan", dim=8)


def test_all_runs_every_suite_at_its_stated_configuration():
    # a keyword is never routed into 'all': sizing one suite needs its name
    with pytest.raises(TypeError, match="dim"):
        verification.run_suite("all", dim=8)
