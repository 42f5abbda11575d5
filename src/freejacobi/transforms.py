"""Named generating functions of the moment problem and their PDE checks.

Series here are truncated to a finite order; identities are checked
coefficient-wise.  The rho_t, M_t and S_t equations are all transport
equations d/dt f + (z/2) d/dz flux(f) = 0, and ``transport_residual`` is
the one body that checks them.  It normalizes each coefficient by the local
scale max(1, |lhs_k|, |rhs_k|), because the raw coefficients of the
Laguerre series grow fast with the order.  The time derivative is an input:
closed forms in t are differenced by ``richardson_dt``, the package's one
finite-difference stencil, while integrated trajectories take it exactly
from the moment hierarchy (``decomposition.pde_residual_S``).
"""

from __future__ import annotations

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
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
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


def stationary_support(lam: float, theta: float = 0.5) -> tuple[float, float]:
    """Endpoints x_-, x_+ of the continuous stationary spectrum,
    (sqrt(lambda theta (1 - theta)) -/+ sqrt(theta (1 - lambda theta)))^2;
    at theta = 1/2, (1 -/+ sqrt(lambda (2 - lambda)))/2."""
    a = math.sqrt(lam * theta * (1.0 - theta))
    b = math.sqrt(theta * (1.0 - lam * theta))
    return (a - b) ** 2, (a + b) ** 2


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

def richardson_dt(coeffs_at, t: float) -> np.ndarray:
    """d/dt of the coefficient array ``coeffs_at(t)``: a centered difference
    with one Richardson level (error O(delta^4), delta = ``FD_DELTA``),
    reading t +/- delta and t +/- delta/2.  Only for closed forms in t; a
    trajectory's derivative is its recurrence."""
    def centered(d):
        return (coeffs_at(t + d) - coeffs_at(t - d)) / (2.0 * d)

    return (4.0 * centered(FD_DELTA / 2.0) - centered(FD_DELTA)) / 3.0


def transport_residual(dfdt: np.ndarray, f: TruncatedSeries, flux) -> float:
    """Residual of the transport equation d/dt f + (z/2) d/dz flux(f) = 0
    over the first ``f.order`` coefficients, given f and its time derivative
    ``dfdt``.  Each coefficient is normalized by max(1, |lhs_k|, |rhs_k|);
    the top one is dropped because differentiate() leaves it unreliable.
    """
    rhs = (flux(f).differentiate().shift(1) * 0.5).coeffs
    lhs, rhs = dfdt[:f.order], rhs[:f.order]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max(np.abs(lhs + rhs) / scale))


def pde_residual_rho(t: float, order: int) -> float:
    """Residual of d/dt rho_t + (z/2) d/dz rho_t^2 = 0, normalized."""
    dfdt = richardson_dt(lambda u: rho_series(u, order).coeffs, t)
    return transport_residual(dfdt, rho_series(t, order), lambda f: f * f)


def pde_residual_mgf_lambda1(t: float, order: int) -> float:
    """Residual of d/dt M_t + (z/2) d/dz{(1 - z) M_t^2} = 0 for the
    closed-form generating function at the symmetric point."""
    dfdt = richardson_dt(lambda u: mgf_closed_lambda1(u, order).coeffs, t)
    return transport_residual(dfdt, mgf_closed_lambda1(t, order),
                              lambda m: one_minus_z(order) * m * m)
