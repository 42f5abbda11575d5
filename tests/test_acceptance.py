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


def _timed(name):
    start = time.time()
    results = run_suite(name)
    return results, time.time() - start


def _report(name, timed):
    results, elapsed = timed
    for result in results:
        print(result.line())
    print(f"[suite {name}: {elapsed:.1f}s]")
    failed = [r for r in results if not r.passed]
    assert not failed, "failed checks: " + "; ".join(r.line() for r in failed)
    return results


def _run(name):
    return _report(name, _timed(name))


@pytest.fixture(scope="module")
def routes():
    """One routes run for criteria 1 and 2."""
    return _timed("routes")


def test_criterion_1_three_route_moment_agreement(routes):
    # integrate (RK4 h=1e-3), Laguerre closed form, and word-count
    # expansion over the integrated trace system (RK4 h=1e-3) agree
    # pairwise to 1e-8 for n <= 16, t in {0.25,...,4}
    _report("routes", routes)


def test_criterion_2_symmetric_binomial_identity(routes):
    # covered inside the routes suite at 1e-12; read from criterion 1's run
    # so the criterion has its own pass/fail line
    line = [r for r in routes[0] if r.name == "symmetric-binomial-identity"]
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


def test_criterion_10_general_theta_gates():
    # expansion against the ODE at theta = 0.75 and the Bernoulli oracle
    # against the traces at the realised theta; every check a gate
    results = _run("general-theta")
    assert [r.name for r in results] == [
        "theta-half-sanity", "expansion-vs-ode", "bernoulli-oracle-within-budget"]
    assert all(r.tolerance is not None for r in results)
