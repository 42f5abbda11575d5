"""Acceptance gate: every criterion at its stated tolerance.

Each test dispatches through the same verification suites the CLI
``verify`` command uses and prints one pass/fail line per check, so
``pytest tests/test_acceptance.py -s`` doubles as the acceptance report.
The Monte Carlo criterion runs the full published configuration and
dominates the runtime (a few minutes of eigendecompositions).
"""

import time

import pytest

from freejacobi.verification import run_suite


def _run(name, **kwargs):
    start = time.time()
    results = run_suite(name, **kwargs)
    elapsed = time.time() - start
    for result in results:
        print(result.line())
    print(f"[suite {name}: {elapsed:.1f}s]")
    failed = [r for r in results if not r.passed]
    assert not failed, "failed checks: " + "; ".join(r.line() for r in failed)
    return results


def test_criterion_1_three_route_moment_agreement():
    # integrate (RK4 h=1e-3), Laguerre closed form, and word-count
    # expansion agree pairwise to 1e-8 for n <= 16, t in {0.25,...,4}
    _run("routes")


def test_criterion_2_symmetric_binomial_identity():
    # covered inside the routes suite at 1e-12; run standalone here so the
    # criterion has its own pass/fail line
    results = run_suite("routes")
    line = [r for r in results if r.name == "symmetric-binomial-identity"]
    print(line[0].line())
    assert line and line[0].passed


def test_criterion_3_exact_combinatorics():
    _run("combinatorics")
    _run("catalan")


def test_criterion_4_trace_system_symmetric_weight():
    _run("laguerre")


def test_criterion_5_series_pde_suite():
    _run("series")


def test_criterion_6_decomposition_suite():
    _run("decomposition")


def test_criterion_7_complement_consistency():
    _run("complement")


def test_criterion_8_density_suite():
    _run("density")


def test_criterion_9_matrix_oracle():
    _run("oracle")


def test_criterion_10_general_theta_diagnostic():
    results = _run("general-theta")
    report = [r for r in results if r.name == "report-produced"]
    assert report and "flagged" in report[0].detail
    assert report[0].line().startswith("DIAG")
    header, rows = report[0].table
    assert len(rows) == 58 and all(len(row) == len(header) for row in rows)
