"""Named generating functions of the moment problem and their PDE checks.

Series here are truncated to a finite order; identities are checked
coefficient-wise.  Finite differences in time use centered stencils with
Richardson extrapolation, and residuals are normalized per coefficient by
the local scale max(1, |lhs_k|, |rhs_k|): the raw coefficients of the
Laguerre series grow fast with the order, so an absolute residual would
measure nothing but the finite-difference truncation error.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .series import TruncatedSeries, geometric, one_minus_z
from .special_functions import rho_coefficients

FD_DELTA = 1e-4


def alpha_series(order: int) -> TruncatedSeries:
    """alpha(z) = z / (1 + sqrt(1 - z))^2, the disc self-map linearizing
    the moment flow; coefficients start 1/4, 1/8, ..."""
    s = one_minus_z(order).sqrt()
    denom = (1.0 + s) * (1.0 + s)
    return denom.reciprocal().shift(1)


def alpha_inv_series(order: int) -> TruncatedSeries:
    """The inverse map 4z / (1 + z)^2."""
    one_plus_z = TruncatedSeries.identity(order) + 1.0
    return (one_plus_z * one_plus_z).reciprocal().shift(1) * 4.0


def rho_series(t: float, order: int) -> TruncatedSeries:
    """rho_t(z) = sum_k L_{k-1}^1(kt) z^k / k; rho_0(z) = z/(1-z).

    The undamped coefficients grow with k t and leave the float64 range
    (at t = 10 from k = 225); a ValueError names the first such order.
    """
    c = rho_coefficients(t, 0.0, order)
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise ValueError(f"rho_t coefficient {bad[0]} exceeds the float64 range at t={t:g}")
    return TruncatedSeries(c)


def mgf_closed_lambda1(t: float, order: int) -> TruncatedSeries:
    """Moment generating function at the symmetric parameter point:

    M_t(z) = (1 + 2 rho_{2t}(e^{-t} alpha(z))) / sqrt(1 - z),

    where rho_{2t}(e^{-t} .) enters by its damped coefficients h_k(2t).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    damped = TruncatedSeries(rho_coefficients(2.0 * t, t, order))
    composed = damped.compose(alpha_series(order))
    inv_sqrt = one_minus_z(order).sqrt().reciprocal()
    return inv_sqrt * (2.0 * composed + 1.0)


# ---------------------------------------------------------------------------
# Stationary transforms
# ---------------------------------------------------------------------------

def radical_series(lam: float, order: int) -> TruncatedSeries:
    """Series square root of 4 - 4z + (1 - lambda)^2 z^2."""
    c = np.zeros(order + 1)
    c[0] = 4.0
    if order >= 1:
        c[1] = -4.0
    if order >= 2:
        c[2] = (1.0 - lam) ** 2
    return TruncatedSeries(c).sqrt()


def stationary_mgf(lam: float, order: int) -> TruncatedSeries:
    """Generating function of the stationary moments at theta = 1/2:

    M_inf(z) = [ (1 - lambda)(z - 2) + sqrt(4 - 4z + (1-lambda)^2 z^2) ]
               / (2 lambda (1 - z)).

    At lambda = 1 the radical collapses to 2 sqrt(1 - z) and the
    coefficients are the arcsine moments C(2n, n)/4^n.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    linear = TruncatedSeries.identity(order) - 2.0
    numer = (1.0 - lam) * linear + radical_series(lam, order)
    return numer * geometric(order) * (1.0 / (2.0 * lam))


def stationary_transform_params(lam: float, theta: float) -> tuple[float, float, float]:
    """(r, B, C) of the stationary Cauchy transform: r = 1/(lambda theta),
    B = 2 (r + (r - 2)/lambda), C = 1 - 1/lambda."""
    r = 1.0 / (lam * theta)
    b = 2.0 * (r + (r - 2.0) / lam)
    c = 1.0 - 1.0 / lam
    return r, b, c


def stationary_support(lam: float, theta: float = 0.5) -> tuple[float, float]:
    """Endpoints of the continuous stationary spectrum: the roots of
    r^2 x^2 - B x + C^2 = 0."""
    r, b, c = stationary_transform_params(lam, theta)
    disc = b * b - 4.0 * r * r * c * c
    if disc < 0:
        raise ValueError("no real support interval for these parameters")
    root = math.sqrt(disc)
    return (b - root) / (2.0 * r * r), (b + root) / (2.0 * r * r)


def cauchy_stationary_eval(lam: float, theta: float, z: complex) -> complex:
    """Stationary Cauchy transform G_inf(z), branch decaying like 1/z.

    G_inf(z) = [ (2 - r) z + (1/lambda - 1) + s(z) ] / (2 z (z - 1)) with
    s(z) = r sqrt(z - x_+) sqrt(z - x_-) using principal square roots, so
    the branch cut sits exactly on the support [x_-, x_+].
    """
    if not (0.0 < theta < 1.0 and lam > 0.0 and 0.0 < lam * theta < 1.0):
        raise ValueError("invalid (lambda, theta)")
    x_lo, x_hi = stationary_support(lam, theta)
    z = complex(z)
    if z.imag == 0.0 and x_lo - 1e-12 <= z.real <= x_hi + 1e-12:
        if min(abs(z.real - x_lo), abs(z.real - x_hi)) < 1e-12 or x_lo < z.real < x_hi:
            raise ValueError("evaluation point lies on the support cut")
    r, _, _ = stationary_transform_params(lam, theta)
    s = r * cmath.sqrt(z - x_hi) * cmath.sqrt(z - x_lo)
    return ((2.0 - r) * z + (1.0 / lam - 1.0) + s) / (2.0 * z * (z - 1.0))


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

def _normalized_max_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max(np.abs(lhs + rhs) / scale))


def _richardson_time_derivative(series_at, t: float, delta: float) -> np.ndarray:
    """Centered difference with one Richardson level: error O(delta^4)."""
    def centered(d):
        return (series_at(t + d).coeffs - series_at(t - d).coeffs) / (2.0 * d)

    coarse = centered(delta)
    fine = centered(delta / 2.0)
    return (4.0 * fine - coarse) / 3.0


def transport_rhs_rho(f: TruncatedSeries) -> TruncatedSeries:
    """(z/2) d/dz f^2, the flux side of the rho transport equation."""
    return (f * f).differentiate().shift(1) * 0.5


def pde_residual_rho(t: float, order: int, delta: float = FD_DELTA) -> float:
    """Residual of d/dt rho_t + (z/2) d/dz rho_t^2 = 0, normalized."""
    lhs = _richardson_time_derivative(lambda u: rho_series(u, order), t, delta)
    rhs = transport_rhs_rho(rho_series(t, order)).coeffs
    # differentiate() leaves the top coefficient unreliable
    return _normalized_max_residual(lhs[: order], rhs[: order])


def pde_residual_mgf_lambda1(t: float, order: int, delta: float = FD_DELTA) -> float:
    """Residual of d/dt M_t + (z/2) d/dz{(1 - z) M_t^2} = 0 for the
    closed-form generating function at the symmetric point."""
    lhs = _richardson_time_derivative(lambda u: mgf_closed_lambda1(u, order), t, delta)
    m = mgf_closed_lambda1(t, order)
    rhs = (one_minus_z(order) * m * m).differentiate().shift(1) * 0.5
    return _normalized_max_residual(lhs[: order], rhs.coeffs[: order])
