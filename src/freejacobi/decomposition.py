"""Splitting of the moment generating function at theta = 1/2 into its
stationary part, a Laguerre transport term, and a remainder that is small
near rank ratio one.

With S_t = M_t - M_inf and the transport term

    v_t(z) = 2/(2 - lambda) * rho_s((2 - lambda) e^{-t} alpha(z)),
    s = 2 lambda t / (2 - lambda),

the remainder u_t = S_t - v_t / sqrt(1 - z) has coefficients c_n(t) that
vanish for n <= 2 and tend to zero as lambda -> 1.  The series assembled
here were re-derived from the transport identities and validated against
the explicit c_3 closed form; the evolution equation for c_n and the
source term Z_t are implemented in the corrected form (see the module
tests for the c_3 cross-check that pins the signs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentTrajectory, closed_form_moments, weighted_row_sums
from .series import TruncatedSeries, geometric, one_minus_z
from .special_functions import rho_coefficients
from .transforms import FD_DELTA, alpha_series, radical_series, stationary_mgf
from .transforms import _normalized_max_residual, _richardson_time_derivative


def beta_coefficients(order: int) -> np.ndarray:
    """Coefficients beta_n of sqrt(1 - z): 1, -1/2, -1/8, -1/16, ..."""
    return one_minus_z(order).sqrt().coeffs


def root_reciprocals(lam: float) -> tuple[float, float]:
    """(1/z_1, 1/z_2) for the roots of (1-lambda)^2 z^2 - 4z + 4 = 0.

    Uses the cancellation-free forms
    1/z_1 = (1-lambda)^2 / (2 (1 + sqrt(lambda(2-lambda)))) and
    1/z_2 = (1 + sqrt(lambda(2-lambda))) / 2, stable as lambda -> 1.
    """
    if not 0.0 < lam < 2.0:
        raise ValueError("lambda must lie in (0, 2)")
    root = math.sqrt(lam * (2.0 - lam))
    inv_z2 = (1.0 + root) / 2.0
    inv_z1 = (1.0 - lam) ** 2 / (2.0 * (1.0 + root))
    return inv_z1, inv_z2


def gamma_coefficients(lam: float, order: int) -> np.ndarray:
    """Coefficients gamma_n of sqrt(4 - 4z + (1 - lambda)^2 z^2).

    Computed from the factorization 4 (1 - z/z_1)(1 - z/z_2) as
    gamma_n = 2 sum_k beta_k beta_{n-k} z_1^{-k} z_2^{-(n-k)}; at
    lambda = 1 this degenerates to 2 beta_n.  The direct series square
    root is the arbiter for this indexing (checked in the tests).
    """
    beta = beta_coefficients(order)
    if lam == 1.0:
        return 2.0 * beta
    inv_z1, inv_z2 = root_reciprocals(lam)
    pow1 = inv_z1 ** np.arange(order + 1)
    pow2 = inv_z2 ** np.arange(order + 1)
    gamma = np.empty(order + 1)
    for n in range(order + 1):
        k = np.arange(n + 1)
        gamma[n] = 2.0 * float(np.sum(beta[k] * beta[n - k] * pow1[k] * pow2[n - k]))
    return gamma


def _transport_rho(lam: float, t: float, order: int) -> TruncatedSeries:
    """rho_s((2-lambda) e^{-t} z), s = 2 lambda t/(2-lambda), pre-damped at
    rate t - ln(2-lambda).  Lambda must lie in (0, 1], the range of
    ``decomposition_u``: towards lambda = 2 the alternating sums built on it
    cancel catastrophically (psi_256 = -4.3e7, not 0.0054, at lambda = 1.9).
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    s_time = 2.0 * lam * t / (2.0 - lam)
    return TruncatedSeries(rho_coefficients(s_time, t - math.log(2.0 - lam), order))


def v_series(lam: float, t: float, order: int) -> TruncatedSeries:
    """Transport term v_t(z) = 2/(2-lambda) rho_s((2-lambda) e^{-t} alpha)."""
    return _transport_rho(lam, t, order).compose(alpha_series(order)) * (2.0 / (2.0 - lam))


def psi_series(lam: float, t: float, order: int) -> np.ndarray:
    """Coefficients psi_n of v_t(z)/sqrt(1-z), by series extraction."""
    inv_sqrt = one_minus_z(order).sqrt().reciprocal()
    return (inv_sqrt * v_series(lam, t, order)).coeffs


def psi_closed(lam: float, t: float, order: int) -> np.ndarray:
    """Closed form of psi_n, carrying the binomial weight its stationary
    limit requires:

    psi_n = 2 sum_{k=1}^n W[n, k] (2-lambda)^{k-1}
            L_{k-1}^1(2 lambda k t/(2-lambda)) e^{-kt} / k

    with W[n, k] = C(2n, n-k)/4^n (``symmetric_weights``).  Cross-checks
    the series extraction; the two must agree to rounding.
    """
    c = _transport_rho(lam, t, order).coeffs  # (2-lambda)^k L_{k-1}^1 e^{-kt} / k, c_0 = 0
    return 2.0 * weighted_row_sums(c) / (2.0 - lam)


def r_series(lam: float, order: int) -> TruncatedSeries:
    """sqrt(4 + (1 - lambda)^2 z^2/(1 - z)); independent of time."""
    inner = geometric(order).shift(2) * (1.0 - lam) ** 2
    return (inner + 4.0).sqrt()


def source_series(lam: float, t: float, order: int) -> TruncatedSeries:
    """The source term Z_t in the remainder evolution:

    Z_t = (1-lambda)^2/(4 r(z)) * z^2 (z-2)/(1-z)^2 * v_t(z)
          - z e^{-t} (r(z) - 2) alpha'(z) rho_s'((2-lambda)e^{-t} alpha(z)).

    The relative minus sign between the two terms follows from expanding
    -(z/2) d/dz (r v_t) against the transport identity for v_t; it is
    pinned numerically by Z_3 = -(3/16)(1-lambda)^2 e^{-t}.  With
    g(z) = rho_s((2-lambda) e^{-t} z), g'(z) = (2-lambda) e^{-t} rho_s'(.),
    so the second term is z (r - 2) alpha' g'(alpha) / (2-lambda).
    """
    r = r_series(lam, order)
    v = v_series(lam, t, order)
    geo = geometric(order)
    z2_zm2 = (TruncatedSeries.identity(order) - 2.0).shift(2)  # z^2 (z - 2)
    term1 = (
        r.reciprocal() * z2_zm2 * geo * geo * v * ((1.0 - lam) ** 2 / 4.0)
    )

    alpha = alpha_series(order)
    g_prime = _transport_rho(lam, t, order).differentiate().compose(alpha)
    term2 = ((r - 2.0) * alpha.differentiate() * g_prime).shift(1) * (1.0 / (2.0 - lam))
    return term1 - term2


@dataclass
class DecompositionResult:
    """Decomposition data at one (lambda, t): the radical coefficients
    gamma_n, the transport coefficients psi_n, the remainder coefficients
    c_n, and the source coefficients d_n with Z_t = (1-lambda) sum d_n z^n.
    """

    lam: float
    t: float
    gamma: np.ndarray
    psi: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def order(self) -> int:
        return self.c.size - 1


def decomposition_u(
    lam: float,
    t: float,
    order: int,
    trajectory: MomentTrajectory | None = None,
) -> DecompositionResult:
    """Remainder coefficients c_n(t) = m_n(t) - m_n(inf) - psi_n(t).

    ``trajectory`` supplies m_n(t); it must be a theta = 1/2 run with the
    same rank ratio, nested P <= Q initial data, stored time t, and order
    at least ``order``.  At lambda = 1 the closed-form moments are used
    when no trajectory is given.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if trajectory is None:
        if lam != 1.0:
            raise ValueError("a trajectory is required away from lambda = 1")
        m_t = closed_form_moments(t, order)
    else:
        p = trajectory.params
        if p.theta != 0.5 or abs(p.lam - lam) > 1e-12:
            raise ValueError("trajectory parameters do not match (lambda, 1/2)")
        if p.init_mode != "nested_P_le_Q":
            raise ValueError("decomposition needs nested P <= Q initial data")
        if trajectory.order < order:
            raise ValueError(
                f"trajectory order {trajectory.order} below requested {order}"
            )
        m_t = trajectory.at(t)[: order + 1]

    gamma = gamma_coefficients(lam, order)
    psi = psi_series(lam, t, order)
    m_inf = stationary_mgf(lam, order).coeffs
    c = m_t - m_inf - psi
    c[0] = 0.0
    if lam == 1.0:
        d = np.zeros(order + 1)
    else:
        d = source_series(lam, t, order).coeffs / (1.0 - lam)
    return DecompositionResult(lam=lam, t=t, gamma=gamma, psi=psi, c=c, d=d)


def stationary_coefficient_identity_residual(lam: float, order: int) -> float:
    """Max deviation of m_n(inf) from (lambda-1)/(2 lambda)
    + (1/(2 lambda)) sum_{k<=n} gamma_k, the partial-sum form of the
    stationary coefficients (n >= 1)."""
    m_inf = stationary_mgf(lam, order).coeffs
    gamma = gamma_coefficients(lam, order)
    partial = np.cumsum(gamma)
    predicted = (lam - 1.0) / (2.0 * lam) + partial / (2.0 * lam)
    return float(np.max(np.abs(m_inf[1:] - predicted[1:])))


def k_gap_vector(lam: float, order: int) -> np.ndarray:
    """k_n(lambda) = c_n(0) - c_{n-1}(0) = psi_{n-1}(0) - psi_n(0)
    - gamma_n/(2 lambda), for n = 2..order; tends to 0 as lambda -> 1."""
    psi0 = psi_series(lam, 0.0, order)
    gamma = gamma_coefficients(lam, order)
    n = np.arange(2, order + 1)
    return psi0[n - 1] - psi0[n] - gamma[n] / (2.0 * lam)


# ---------------------------------------------------------------------------
# Evolution residuals
# ---------------------------------------------------------------------------

def pde_residual_S(
    trajectory: MomentTrajectory,
    t: float,
    order: int,
    delta: float = FD_DELTA,
) -> float:
    """Residual of d/dt S_t = -(z/2) d/dz{ lambda (1-z) S_t^2 + R(z) S_t }
    with S_t = M_t - M_inf and R the radical series, normalized per
    coefficient.

    The Richardson stencil reads the trajectory at t, t +/- delta and
    t +/- 2 delta, so the integration step must divide delta.
    """
    lam = trajectory.params.lam
    if trajectory.params.theta != 0.5:
        raise ValueError("the S equation is specialized to theta = 1/2")
    if trajectory.order < order:
        raise ValueError("trajectory order too small")
    m_inf = stationary_mgf(lam, order).coeffs

    def s_at(u: float) -> TruncatedSeries:
        return TruncatedSeries(trajectory.at(u)[: order + 1] - m_inf)

    lhs = _richardson_time_derivative(s_at, t, 2.0 * delta)
    s = s_at(t)
    flux = one_minus_z(order) * s * s * lam + radical_series(lam, order) * s
    rhs = flux.differentiate().shift(1) * 0.5
    return _normalized_max_residual(lhs[:order], rhs.coeffs[:order])


def general_evolution_residual(
    lam: float,
    t: float,
    n_range: tuple[int, int],
    trajectory: MomentTrajectory,
    order: int | None = None,
    delta: float = 1e-3,
) -> np.ndarray:
    """Residuals of the remainder evolution equation for n in n_range:

    c_n'(t) = -(n/2) [ (R u)_n + 2 lambda ((1-z) u psi-series)_n
                       + lambda ((1-z) u^2)_n ] + Z_n(t)

    where u = sum c_k z^k and psi-series = v_t/sqrt(1-z).  c_n'(t) is a
    centered difference of the decomposition at t +/- delta.  Note the
    2 lambda weight on the cross term: the plain rearrangement of the
    S-equation fixes this factor, and the residual check only passes with
    it (and with the corrected sign of Z_t).
    """
    n_lo, n_hi = n_range
    if order is None:
        order = n_hi
    dec_mid = decomposition_u(lam, t, order, trajectory)
    dec_hi = decomposition_u(lam, t + delta, order, trajectory)
    dec_lo = decomposition_u(lam, t - delta, order, trajectory)
    c_dot = (dec_hi.c - dec_lo.c) / (2.0 * delta)

    u = TruncatedSeries(dec_mid.c)
    psi = TruncatedSeries(dec_mid.psi)
    radical = TruncatedSeries(dec_mid.gamma)
    omz = one_minus_z(order)
    flux = radical * u + (omz * u * psi) * (2.0 * lam) + (omz * u * u) * lam
    z_coeffs = source_series(lam, t, order).coeffs

    n = np.arange(n_lo, n_hi + 1)
    rhs = -0.5 * n * flux.coeffs[n_lo : n_hi + 1] + z_coeffs[n_lo : n_hi + 1]
    return np.abs(c_dot[n_lo : n_hi + 1] - rhs)
