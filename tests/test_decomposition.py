import math

import numpy as np
import pytest

from freejacobi import decomposition as dec
from freejacobi.verification import check_decomposition
from freejacobi.combinatorics import binomial
from freejacobi.moments import (
    MomentTrajectory,
    ProcessParams,
    integrate_moments,
    symmetric_binomial_moment,
)
from freejacobi.series import one_minus_z
from freejacobi.transforms import radical_series, stationary_mgf, stationary_support


@pytest.fixture(scope="module")
def traj06():
    return integrate_moments(ProcessParams(lam=0.6, theta=0.5), 1.0, order=12)


def test_root_reciprocals_sum_to_one():
    # the reciprocals 1/z1, 1/z2 of the roots of (1-lambda)^2 z^2 - 4z + 4
    # are the stationary support endpoints x_-, x_+ at theta = 1/2:
    # their sum is 1 and their product (1-lambda)^2/4 for every lambda
    for lam in (0.1, 0.5, 0.9, 0.999):
        x_lo, x_hi = stationary_support(lam, 0.5)
        assert x_lo + x_hi == pytest.approx(1.0, rel=1e-13)
        assert x_lo * x_hi == pytest.approx((1 - lam) ** 2 / 4, rel=1e-12, abs=1e-15)


def test_gamma_low_orders():
    for lam in (0.3, 0.8):
        g = radical_series(lam, 3).coeffs
        assert g[0] == pytest.approx(2.0)
        assert g[1] == pytest.approx(-1.0)
        assert g[2] == pytest.approx(((1 - lam) ** 2 - 1) / 4)


def test_gamma_lambda_one_is_twice_beta():
    # at lambda = 1 the radical is 2 sqrt(1 - z)
    assert np.allclose(
        radical_series(1.0, 10).coeffs, 2 * one_minus_z(10).sqrt().coeffs, atol=1e-15
    )


@pytest.mark.parametrize("lam", [0.6, 1.0])
def test_decomposition_export_gamma_is_the_radical(lam):
    _, exports = check_decomposition(lam, 0.5, 12)
    assert exports["gamma"].tobytes() == radical_series(lam, 12).coeffs.tobytes()


def test_psi_closed_finite_at_large_order_and_time():
    # at lambda = 1, psi_n is the closed-form moment minus its arcsine part
    psi = dec.psi_closed(1.0, 5.0, 256)
    assert np.all(np.isfinite(psi))
    for n in (1, 64, 219, 220, 256):
        ref = symmetric_binomial_moment(n, 5.0) - binomial(2 * n, n) / 4.0**n
        assert abs(psi[n] - ref) < 1e-12


def psi_closed_reference(lam, t, order):
    """psi_n as a scalar loop over exact binomials."""
    c = dec._transport_rho(lam, t, order).coeffs
    out = np.zeros(order + 1)
    for n in range(1, order + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += binomial(2 * n, n - k) * c[k]
        out[n] = acc * 2.0 ** (1 - 2 * n) / (2.0 - lam)
    return out


@pytest.mark.parametrize("order", [1, 2, 17, 64])
def test_psi_closed_equals_the_binomial_loop(order):
    for lam in (0.3, 0.6, 0.9, 1.0):
        for t in (0.0, 1.0, 5.0):
            assert (dec.psi_closed(lam, t, order).tobytes()
                    == psi_closed_reference(lam, t, order).tobytes())


def test_psi_extraction_matches_closed_form():
    for lam in (0.25, 0.6, 1.0):
        for t in (0.0, 0.5, 1.5):
            assert np.max(
                np.abs(dec.psi_series(lam, t, 12) - dec.psi_closed(lam, t, 12))
            ) < 1e-13


def test_psi_first_coefficient():
    for lam in (0.3, 0.7, 1.0):
        for t in (0.2, 1.0):
            assert dec.psi_series(lam, t, 4)[1] == pytest.approx(
                math.exp(-t) / 2, abs=1e-14
            )


def test_source_series_starts_at_cube():
    for lam in (0.4, 0.8):
        z = dec.source_series(lam, 1.0, 8).coeffs
        assert abs(z[1]) < 1e-16
        assert abs(z[2]) < 1e-16


def test_source_third_coefficient_pins_sign():
    # Z_3 = -(3/16)(1-lambda)^2 e^{-t}; this is what fixes the relative
    # sign of the two source terms
    for lam in (0.3, 0.6, 0.9):
        for t in (0.5, 1.0):
            z3 = dec.source_series(lam, t, 6).coeffs[3]
            assert z3 == pytest.approx(
                -(3 / 16) * (1 - lam) ** 2 * math.exp(-t), rel=1e-12
            )


def test_remainder_coefficients(traj06):
    d = dec.decomposition_u(1.0, 10, traj06)
    assert abs(d.c[1]) < 1e-7
    assert abs(d.c[2]) < 1e-7
    c3 = -((1 - 0.6) / 32) * (2 * 0.6 * math.exp(-3) + 3 * (1 - 0.6) * math.exp(-1))
    assert d.c[3] == pytest.approx(c3, abs=1e-6)


def test_remainder_vanishes_at_lambda_one():
    d = dec.decomposition_u(1.0, 10)
    assert np.max(np.abs(d.c)) < 1e-10
    _, exports = check_decomposition(1.0, 1.0, 10)
    assert np.all(exports["d"] == 0.0)


def test_source_vanishes_identically_at_lambda_one():
    # both source terms carry (1-lambda)-order factors: exact zeros
    assert np.all(dec.source_series(1.0, 0.7, 10).coeffs == 0.0)


def test_decomposition_validates_trajectory(traj06):
    with pytest.raises(ValueError):
        dec.decomposition_u(1.0, 14, traj06)  # order too high
    orth = integrate_moments(
        ProcessParams(lam=0.6, theta=0.5, init_mode="orthogonal"), 0.1, order=10
    )
    with pytest.raises(ValueError):
        dec.decomposition_u(0.1, 10, orth)  # wrong initial geometry


def test_stationary_coefficient_identity():
    # m_n(inf) = (lambda-1)/(2 lambda) + (1/(2 lambda)) sum_{k<=n} gamma_k
    # for n >= 1, the partial-sum form of the stationary coefficients
    for lam in (0.3, 0.6, 0.9):
        m_inf = stationary_mgf(lam, 16).coeffs
        partial = np.cumsum(radical_series(lam, 16).coeffs)
        predicted = (lam - 1.0) / (2.0 * lam) + partial / (2.0 * lam)
        assert np.max(np.abs(m_inf[1:] - predicted[1:])) < 1e-13


def test_gap_vector_scales_out():
    # k_n is proportional to (1 - lambda) to leading order near lambda = 1
    g1 = np.abs(dec.k_gap_vector(0.99, 8)[1:])
    g2 = np.abs(dec.k_gap_vector(0.999, 8)[1:])
    ratio = g1 / g2
    assert np.all(ratio > 5.0)


def test_general_evolution_residual(traj06):
    # the trajectory ends at t: c_n' needs only the state there
    res = dec.general_evolution_residual(1.0, (4, 8), traj06, order=10)
    assert res.shape == (5,)
    assert np.max(res) < 1e-11


def test_s_pde_residual_trivial_for_stationary_input():
    lam = 0.5
    params = ProcessParams(lam=lam, theta=0.5)
    m_inf = stationary_mgf(lam, 10).coeffs
    times = 0.999 + np.arange(11) * 1e-4
    traj = MomentTrajectory(params=params, times=times, values=np.tile(m_inf, (11, 1)))
    assert dec.pde_residual_S(traj, 0.9995, 10) == 0.0


def test_s_pde_residual_on_integrated_trajectory():
    # d/dt S_t is the recurrence at the state at t: the residual is rounding
    for lam, order in ((0.5, 12), (1.0, 16)):
        traj = integrate_moments(ProcessParams(lam=lam, theta=0.5), 1.0, order=order)
        assert dec.pde_residual_S(traj, 1.0, order) < 1e-14


def test_psi_series_finite_at_large_order_and_time():
    psi = dec.psi_series(1.0, 5.0, 256)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi - dec.psi_closed(1.0, 5.0, 256))) < 1e-12


def test_transport_routes_reject_lambda_outside_unit_interval():
    # near lambda = 2 the alternating Laguerre sum cancels catastrophically
    with pytest.raises(ValueError):
        dec.psi_closed(1.9, 2.0, 256)
    for route in (dec.psi_closed, dec.psi_series, dec.v_series, dec.source_series):
        for lam in (0.0, 1.2):
            with pytest.raises(ValueError):
                route(lam, 1.0, 8)
