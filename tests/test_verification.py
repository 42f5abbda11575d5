"""Every check can fail: the check constructor at and past its tolerance,
and NaN injected into one input of a suite."""

import math

import numpy as np
import pytest

from freejacobi import combinatorics, oracle, spectral, verification
from freejacobi.verification import _check


@pytest.mark.parametrize("value", [1e-8, np.nextafter(1e-8, np.inf), np.nan])
def test_check_fails_at_tolerance_past_it_and_at_nan(value):
    result = _check("suite", "name", value, 1e-8)
    assert not result.passed
    assert result.line().startswith("FAIL")


def test_check_passes_below_tolerance_and_stated_passed_wins():
    assert _check("suite", "name", np.nextafter(1e-8, -np.inf), 1e-8).passed
    assert not _check("suite", "name", 0.0, 1e-8, passed=False).passed


def test_check_without_tolerance_or_passed_is_a_labelled_diagnostic():
    result = _check("suite", "name", 3, detail="measured only")
    assert result.passed and result.diagnostic
    assert result.value == 3.0 and result.tolerance is None
    assert result.line() == "DIAG  suite/name  value=3  measured only"


def _nan_m3_at_half(m, theta, t, order):
    if t == 0.5:
        m[3] = np.nan


def _nan_m3_at_one(traj, *args):
    traj.values[traj.index_of(1.0), 3] = np.nan


def _nan_m3(m, *args):
    m[3] = np.nan


@pytest.mark.parametrize("suite, module, name, poison, affected", [
    ("routes", verification, "expansion_moments", _nan_m3_at_half,
     {"expansion-vs-closed-form", "ode-vs-expansion"}),
    ("complement", verification, "complement_moments", _nan_m3_at_one,
     {"transform-vs-direct-lam-1.5", "limit-lam-1-symmetry"}),
    ("density", spectral, "quadrature_moments", _nan_m3,
     {"moment-back-check", "stationary-vs-t-30-moments"}),
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


def test_nan_general_theta_row_is_flagged(monkeypatch):
    original = verification.expansion_moments

    def poisoned(theta, t, order, **kwargs):
        out = original(theta, t, order, **kwargs)
        if (theta, t) == (0.75, 1.0):
            out[3] = np.nan
        return out

    monkeypatch.setattr(verification, "expansion_moments", poisoned)
    results = {r.name: r for r in verification.run_suite(
        "general-theta", dim=8, steps=2, trials=2)}
    header, rows = results["report-produced"].table
    row = dict(zip(header, next(r for r in rows if r[:4] == ("moments", 0.75, 1.0, 3))))
    assert row["abs_diff"] == "nan"
    assert row["flagged"] is True


def test_general_theta_suite_writes_no_file(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    results = verification.run_suite("general-theta", dim=8, steps=2, trials=2)
    assert list(tmp_path.iterdir()) == []
    header, rows = results[-1].table
    assert header == verification.GENERAL_THETA_COLUMNS and len(rows) == 58


def test_unknown_suite_keyword_is_rejected():
    with pytest.raises(TypeError, match="outdir"):
        verification.run_suite("general-theta", outdir=".")
    with pytest.raises(TypeError, match="dim"):
        verification.run_suite("catalan", dim=8)


def test_all_runs_every_suite_at_its_stated_configuration():
    # a keyword is never routed into 'all': sizing one suite needs its name
    with pytest.raises(TypeError, match="dim"):
        verification.run_suite("all", dim=8)
