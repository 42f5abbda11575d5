import math

import numpy as np
import pytest

from freejacobi import transforms as tr
from freejacobi.combinatorics import binomial
from freejacobi.moments import closed_form_moments
from freejacobi.series import TruncatedSeries, one_minus_z


def test_alpha_leading_coefficients():
    a = tr.alpha_series(8)
    assert a.coeffs[0] == 0.0
    assert a.coeffs[1] == pytest.approx(0.25, abs=1e-15)
    assert a.coeffs[2] == pytest.approx(0.125, abs=1e-15)


def test_alpha_inverse_leading_coefficients():
    # 4z/(1+z)^2 = 4z - 8z^2 + 12z^3 - ...
    ai = tr.alpha_inv_series(5)
    assert np.allclose(ai.coeffs, [0, 4, -8, 12, -16, 20], atol=1e-13)


def test_alpha_inverse_pair():
    order = 32
    a = tr.alpha_series(order)
    ai = tr.alpha_inv_series(order)
    ident = np.zeros(order + 1)
    ident[1] = 1.0
    assert np.max(np.abs(ai.compose(a).coeffs - ident)) < 1e-13


def test_alpha_inverse_pair_other_direction_low_order():
    # alpha(alpha_inv) is ill-conditioned at high order: the intermediate
    # coefficients of alpha_inv^k grow like 4^k C(n+k-1, 2k-1), so the
    # float64 cancellation floor rises quickly; check the direction only
    # at low order where the blowup stays below ~1e4
    order = 10
    a = tr.alpha_series(order)
    ai = tr.alpha_inv_series(order)
    ident = np.zeros(order + 1)
    ident[1] = 1.0
    assert np.max(np.abs(a.compose(ai).coeffs - ident)) < 1e-9


def test_alpha_derivative_identity():
    order = 32
    a = tr.alpha_series(order)
    lhs = (one_minus_z(order).sqrt() * a.differentiate()).shift(1)
    assert np.max(np.abs(lhs.coeffs[:order] - a.coeffs[:order])) < 1e-13


def test_rho_at_zero_time():
    r = tr.rho_series(0.0, 12)
    assert r.coeffs[0] == 0.0
    assert np.allclose(r.coeffs[1:], 1.0, atol=1e-14)


def test_rho_second_coefficient():
    # (1/2) L_1^1(2t) = 1 - t
    for t in (0.0, 0.3, 1.0, 2.2):
        assert tr.rho_series(t, 4).coeffs[2] == pytest.approx(1 - t, rel=1e-13, abs=1e-13)


def test_rho_pde_residual():
    assert tr.pde_residual_rho(1.0, 24) < 1e-6


def test_mgf_at_zero_time_is_geometric():
    m = tr.mgf_closed_lambda1(0.0, 20)
    assert np.allclose(m.coeffs, 1.0, atol=1e-12)


def test_mgf_first_coefficient():
    for t in (0.2, 1.0, 3.0):
        assert tr.mgf_closed_lambda1(t, 4).coeffs[1] == pytest.approx(
            (1 + math.exp(-t)) / 2, abs=1e-13
        )


def test_mgf_matches_closed_form_moments():
    for t in (0.5, 1.0, 2.0):
        coeffs = tr.mgf_closed_lambda1(t, 12).coeffs
        assert np.max(np.abs(coeffs - closed_form_moments(t, 12))) < 1e-12


def test_mgf_large_time_is_arcsine():
    coeffs = tr.mgf_closed_lambda1(30.0, 12).coeffs
    arcsine = np.array([binomial(2 * n, n) / 4.0**n for n in range(13)])
    assert np.max(np.abs(coeffs - arcsine)) < 1e-12


def test_mgf_pde_residual():
    assert tr.pde_residual_mgf_lambda1(1.0, 16) < 1e-6


class TestStationary:
    def test_lambda_one_is_arcsine(self):
        coeffs = tr.stationary_mgf(1.0, 10).coeffs
        arcsine = np.array([binomial(2 * n, n) / 4.0**n for n in range(11)])
        assert np.allclose(coeffs, arcsine, atol=1e-14)

    def test_first_moment_is_half_for_all_lambda(self):
        for lam in (0.2, 0.5, 0.77, 1.0):
            assert tr.stationary_mgf(lam, 4).coeffs[1] == pytest.approx(0.5, abs=1e-13)

    def test_normalized(self):
        for lam in (0.3, 0.8):
            assert tr.stationary_mgf(lam, 4).coeffs[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_long_time_integration(self):
        from freejacobi.moments import ProcessParams, integrate_moments

        for lam in (0.4, 0.9):
            traj = integrate_moments(ProcessParams(lam=lam, theta=0.5), 30.0, order=8)
            assert np.max(np.abs(tr.stationary_mgf(lam, 8).coeffs - traj.at(30.0))) < 1e-8

    def test_support_endpoints(self):
        lo, hi = tr.stationary_support(1.0, 0.5)
        assert lo == pytest.approx(0.0, abs=1e-14)
        assert hi == pytest.approx(1.0, abs=1e-14)
        lo, hi = tr.stationary_support(0.6, 0.5)
        root = math.sqrt(0.6 * 1.4)
        assert lo == pytest.approx((1 - root) / 2, rel=1e-12)
        assert hi == pytest.approx((1 + root) / 2, rel=1e-12)

    def test_cauchy_collapses_at_lambda_one(self):
        # radical collapses: G(z) = 1/sqrt(z^2 - z) off [0, 1]
        for z in (2.0, -1.5, 1.0 + 2.0j):
            val = tr.cauchy_stationary_eval(1.0, 0.5, z)
            import cmath

            expected = 1.0 / cmath.sqrt(z * z - z)
            if (expected * z).real < 0:  # align branch with decay at infinity
                expected = -expected
            assert val == pytest.approx(expected, rel=1e-12)

    def test_cauchy_decays_like_one_over_z(self):
        for lam, theta in ((0.6, 0.5), (0.9, 0.3), (1.2, 0.4)):
            for z in (1e6, -1e6, 1e6j):
                val = tr.cauchy_stationary_eval(lam, theta, z)
                assert val * z == pytest.approx(1.0, rel=1e-4)

    def test_cauchy_moment_expansion(self):
        # G(z) = sum m_n / z^{n+1}: compare against the series coefficients
        lam = 0.7
        coeffs = tr.stationary_mgf(lam, 6).coeffs
        z = 40.0
        g = tr.cauchy_stationary_eval(lam, 0.5, z)
        approx = sum(coeffs[n] / z ** (n + 1) for n in range(7))
        assert g.real == pytest.approx(approx, rel=1e-9)

    def test_cauchy_imaginary_sign(self):
        # Im G must be negative just above the support (positive density)
        lam = 0.6
        lo, hi = tr.stationary_support(lam, 0.5)
        x = 0.5 * (lo + hi)
        val = tr.cauchy_stationary_eval(lam, 0.5, complex(x, 1e-9))
        assert val.imag < 0

    def test_cut_evaluation_rejected(self):
        lo, hi = tr.stationary_support(0.6, 0.5)
        with pytest.raises(ValueError):
            tr.cauchy_stationary_eval(0.6, 0.5, complex(0.5 * (lo + hi), 0.0))

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            tr.stationary_mgf(1.2, 4)
        with pytest.raises(ValueError):
            tr.stationary_mgf(0.0, 4)


def test_radical_series_squares_back():
    for lam in (0.3, 0.75):
        rad = tr.radical_series(lam, 12)
        sq = rad * rad
        expected = np.zeros(13)
        expected[0] = 4.0
        expected[1] = -4.0
        expected[2] = (1 - lam) ** 2
        assert np.allclose(sq.coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("t", [4.0, 5.0])
def test_mgf_finite_at_large_order_and_time(t):
    coeffs = tr.mgf_closed_lambda1(t, 256).coeffs
    assert np.all(np.isfinite(coeffs))
    assert np.max(np.abs(coeffs - closed_form_moments(t, 256))) < 1e-10


def test_rho_series_names_its_overflow():
    with pytest.raises(ValueError, match="coefficient 225 .* t=10"):
        tr.rho_series(10.0, 256)
    assert np.all(np.isfinite(tr.rho_series(10.0, 224).coeffs))
