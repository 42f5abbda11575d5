import math

import numpy as np
import pytest

from freejacobi import decomposition as dec
from freejacobi.combinatorics import binomial
from freejacobi.moments import (
    MomentTrajectory,
    ProcessParams,
    integrate_moments,
    symmetric_binomial_moment,
)
from freejacobi.series import TruncatedSeries
from freejacobi.transforms import stationary_mgf


@pytest.fixture(scope="module")
def traj06():
    return integrate_moments(ProcessParams(lam=0.6, theta=0.5), 1.002, order=12)


def test_beta_coefficients():
    beta = dec.beta_coefficients(4)
    assert np.allclose(beta, [1, -0.5, -0.125, -1 / 16, -5 / 128], atol=1e-14)


def test_root_reciprocals_sum_to_one():
    # 1/z1 + 1/z2 = (sum of roots)/(product) = 1 for every lambda
    for lam in (0.1, 0.5, 0.9, 0.999):
        inv1, inv2 = dec.root_reciprocals(lam)
        assert inv1 + inv2 == pytest.approx(1.0, rel=1e-13)
        assert inv1 * inv2 == pytest.approx((1 - lam) ** 2 / 4, rel=1e-12, abs=1e-15)


def test_gamma_against_direct_sqrt():
    # the root factorization must agree with the plain series square root
    for lam in (0.2, 0.6, 0.95):
        c = np.zeros(13)
        c[0], c[1], c[2] = 4.0, -4.0, (1 - lam) ** 2
        direct = TruncatedSeries(c).sqrt().coeffs
        assert np.max(np.abs(dec.gamma_coefficients(lam, 12) - direct)) < 1e-13


def test_gamma_low_orders():
    for lam in (0.3, 0.8):
        g = dec.gamma_coefficients(lam, 3)
        assert g[0] == pytest.approx(2.0)
        assert g[1] == pytest.approx(-1.0)
        assert g[2] == pytest.approx(((1 - lam) ** 2 - 1) / 4)


def test_gamma_lambda_one_is_twice_beta():
    assert np.allclose(
        dec.gamma_coefficients(1.0, 10), 2 * dec.beta_coefficients(10), atol=1e-15
    )


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
    d = dec.decomposition_u(0.6, 1.0, 10, traj06)
    assert abs(d.c[1]) < 1e-7
    assert abs(d.c[2]) < 1e-7
    c3 = -((1 - 0.6) / 32) * (2 * 0.6 * math.exp(-3) + 3 * (1 - 0.6) * math.exp(-1))
    assert d.c[3] == pytest.approx(c3, abs=1e-6)


def test_remainder_vanishes_at_lambda_one():
    d = dec.decomposition_u(1.0, 1.0, 10)
    assert np.max(np.abs(d.c)) < 1e-10
    assert np.all(d.d == 0.0)


def test_source_vanishes_identically_at_lambda_one():
    # both source terms carry (1-lambda)-order factors: exact zeros
    assert np.all(dec.source_series(1.0, 0.7, 10).coeffs == 0.0)


def test_decomposition_validates_trajectory(traj06):
    with pytest.raises(ValueError):
        dec.decomposition_u(0.5, 1.0, 10, traj06)  # wrong lambda
    with pytest.raises(ValueError):
        dec.decomposition_u(0.6, 1.0, 14, traj06)  # order too high
    orth = integrate_moments(
        ProcessParams(lam=0.6, theta=0.5, init_mode="orthogonal"), 0.1, order=10
    )
    with pytest.raises(ValueError):
        dec.decomposition_u(0.6, 0.1, 10, orth)  # wrong initial geometry


def test_stationary_coefficient_identity():
    for lam in (0.3, 0.6, 0.9):
        assert dec.stationary_coefficient_identity_residual(lam, 16) < 1e-13


def test_gap_vector_scales_out():
    # k_n is proportional to (1 - lambda) to leading order near lambda = 1
    g1 = np.abs(dec.k_gap_vector(0.99, 8)[1:])
    g2 = np.abs(dec.k_gap_vector(0.999, 8)[1:])
    ratio = g1 / g2
    assert np.all(ratio > 5.0)


def test_general_evolution_residual(traj06):
    res = dec.general_evolution_residual(0.6, 1.0, (4, 8), traj06, order=10)
    assert res.shape == (5,)
    assert np.max(res) < 1e-5


def test_s_pde_residual_trivial_for_stationary_input():
    lam = 0.5
    params = ProcessParams(lam=lam, theta=0.5)
    m_inf = stationary_mgf(lam, 10).coeffs
    times = 0.999 + np.arange(11) * 1e-4
    traj = MomentTrajectory(
        params=params,
        order=10,
        times=times,
        values=np.tile(m_inf, (11, 1)),
        step=1e-4,
        method="synthetic",
    )
    assert dec.pde_residual_S(traj, 0.9995, 10) == 0.0


def test_s_pde_residual_on_integrated_trajectory():
    for lam, order in ((0.5, 12), (1.0, 16)):
        traj = integrate_moments(
            ProcessParams(lam=lam, theta=0.5), 1.0 + 4e-4, order=order, h=1e-4
        )
        assert dec.pde_residual_S(traj, 1.0, order) < 1e-6


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
