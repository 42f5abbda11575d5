"""Splitting of the moment generating function at theta = 1/2 into its
stationary part, a Laguerre transport term, and a remainder that is small
near rank ratio one.

With S_t = M_t - M_inf and the transport term

    v_t(z) = 2/(2 - lambda) * rho_s((2 - lambda) e^{-t} alpha(z)),
    s = 2 lambda t / (2 - lambda),

the remainder u_t = S_t - v_t / sqrt(1 - z) has coefficients c_n(t) that
vanish for n <= 2 and tend to zero as lambda -> 1.  The series assembled
here follow from the transport identities; the module tests check them
against the explicit c_3 closed form, which pins the signs of the
evolution equation for c_n and of the source term Z_t.  The radical
sqrt(4 - 4z + (1 - lambda)^2 z^2) is ``transforms.radical_series``
throughout.  The checks that read a "p-le-q" run take lambda from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import closed_form_moments, recurrence_rhs
from .series import TruncatedSeries, geometric, one_minus_z
from .special_functions import Run, rho_coefficients
from .transforms import alpha_series, radical_series, richardson_dt, stationary_mgf
from .transforms import transport_residual


#: smallest lambda the decomposition takes: ``stationary_mgf``'s numerator
#: cancels to O(lambda), and the worst c_1, c_2 (t in {0.5, 1, 2}, orders 12
#: and 32) read 2.5e-9 at 1e-8, 40x under their 1e-7 gate, 1.1e-5 at 1e-12
LAMBDA_FLOOR = 1e-8


def _transport_rho(lam: float, t: float, order: int) -> TruncatedSeries:
    """rho_s((2-lambda) e^{-t} z), s = 2 lambda t/(2-lambda), pre-damped at
    rate t - ln(2-lambda).  Lambda must lie in [LAMBDA_FLOOR, 1], the range
    of ``decomposition_u``: towards lambda = 2 the alternating sums built on
    it cancel catastrophically (psi_256 = -4.3e7, not 0.0054, at lambda = 1.9).
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if lam < LAMBDA_FLOOR:
        raise ValueError(f"lambda {lam:g} is below the decomposition's floor {LAMBDA_FLOOR:g}")
    s_time = 2.0 * lam * t / (2.0 - lam)
    return TruncatedSeries(rho_coefficients(s_time, t - math.log(2.0 - lam), order))


def v_series(lam: float, t: float, order: int) -> TruncatedSeries:
    """Transport term v_t(z) = 2/(2-lambda) rho_s((2-lambda) e^{-t} alpha)."""
    return _transport_rho(lam, t, order).compose(alpha_series(order)) * (2.0 / (2.0 - lam))


def psi_series(lam: float, t: float, order: int) -> np.ndarray:
    """Coefficients psi_n of v_t(z)/sqrt(1-z), by series extraction."""
    inv_sqrt = one_minus_z(order).sqrt().reciprocal()
    return (inv_sqrt * v_series(lam, t, order)).coeffs


def source_series(lam: float, t: float, order: int) -> TruncatedSeries:
    """The source term Z_t in the remainder evolution:

    Z_t = (1-lambda)^2/(4 r(z)) * z^2 (z-2)/(1-z)^2 * v_t(z)
          - z e^{-t} (r(z) - 2) alpha'(z) rho_s'((2-lambda)e^{-t} alpha(z)).

    The relative minus sign between the two terms follows from expanding
    -(z/2) d/dz (r v_t) against the transport identity for v_t; it is
    pinned numerically by Z_3 = -(3/16)(1-lambda)^2 e^{-t}.  With
    g(z) = rho_s((2-lambda) e^{-t} z), g'(z) = (2-lambda) e^{-t} rho_s'(.),
    so the second term is z (r - 2) alpha' g'(alpha) / (2-lambda).
    Here r = R/sqrt(1-z), R the radical series, 1/sqrt(1-z) as in ``psi_series``.
    """
    r = radical_series(lam, order) * one_minus_z(order).sqrt().reciprocal()
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
    """Decomposition data at one (lambda, t): the transport coefficients
    psi_n and the remainder coefficients c_n."""

    psi: np.ndarray
    c: np.ndarray

    @property
    def order(self) -> int:
        return self.c.size - 1


def decomposition_u(
    t: float,
    order: int,
    trajectory: Run | None = None,
) -> DecompositionResult:
    """Remainder coefficients c_n(t) = m_n(t) - m_n(inf) - psi_n(t).

    ``trajectory`` supplies m_n(t) and the rank ratio lambda; it must be a
    theta = 1/2 run from the P <= Q start "p-le-q" (so lambda lies in
    (0, 1]) at lambda >= LAMBDA_FLOOR, stored time t, and order at least
    ``order``.  Without a trajectory, lambda = 1 and the closed-form moments
    are used.
    """
    if trajectory is None:
        lam, m_t = 1.0, closed_form_moments(t, order)
    else:
        p = trajectory.params
        if p.theta != 0.5:
            raise ValueError("decomposition is specialized to theta = 1/2")
        if p.init_mode != "p-le-q":
            raise ValueError("decomposition needs the P <= Q start 'p-le-q'")
        if trajectory.order < order:
            raise ValueError(f"trajectory order {trajectory.order} below requested {order}")
        lam, m_t = p.lam, trajectory.at(t)[: order + 1]

    psi = psi_series(lam, t, order)
    c = m_t - stationary_mgf(lam, order).coeffs - psi
    c[0] = 0.0
    return DecompositionResult(psi=psi, c=c)


def k_gap_vector(lam: float, order: int) -> np.ndarray:
    """k_n(lambda) = c_n(0) - c_{n-1}(0) = psi_{n-1}(0) - psi_n(0)
    - gamma_n/(2 lambda), for n = 2..order, with gamma_n the coefficients of
    the radical series; tends to 0 as lambda -> 1."""
    psi0 = psi_series(lam, 0.0, order)
    gamma = radical_series(lam, order).coeffs
    n = np.arange(2, order + 1)
    return psi0[n - 1] - psi0[n] - gamma[n] / (2.0 * lam)


# ---------------------------------------------------------------------------
# Evolution residuals
# ---------------------------------------------------------------------------

def pde_residual_S(trajectory: Run, t: float) -> float:
    """Residual of d/dt S_t = -(z/2) d/dz{ lambda (1-z) S_t^2 + R(z) S_t }
    with S_t = M_t - M_inf and R the radical series, normalized per
    coefficient, at the trajectory's order.

    Only the state at t is read: d/dt S_t = d/dt M_t is the moment
    recurrence at that state, exactly.
    """
    lam, order = trajectory.params.lam, trajectory.order
    if trajectory.params.theta != 0.5:
        raise ValueError("the S equation is specialized to theta = 1/2")
    m_t = trajectory.at(t)
    s_t = TruncatedSeries(m_t - stationary_mgf(lam, order).coeffs)

    def flux(s: TruncatedSeries) -> TruncatedSeries:
        return one_minus_z(order) * s * s * lam + radical_series(lam, order) * s

    return transport_residual(recurrence_rhs(m_t, lam, 0.5), s_t, flux)


def general_evolution_residual(
    t: float,
    n_range: tuple[int, int],
    trajectory: Run,
) -> np.ndarray:
    """Residuals of the remainder evolution equation for n in n_range, at
    the trajectory's rank ratio lambda and order:

    c_n'(t) = -(n/2) [ (R u)_n + 2 lambda ((1-z) u psi-series)_n
                       + lambda ((1-z) u^2)_n ] + Z_n(t)

    where u = sum c_k z^k and psi-series = v_t/sqrt(1-z), all truncated at
    ``order``.  c_n' = m_n' - psi_n': m_n' is the moment recurrence at the
    trajectory's state at t, and psi_n', closed-form in t, comes from
    ``richardson_dt``.  Note the 2 lambda weight on the cross term: the
    plain rearrangement of the S-equation fixes this factor, and the
    residual check only passes with it (and with the corrected sign of Z_t).
    """
    n_lo, n_hi = n_range
    lam, order = trajectory.params.lam, trajectory.order
    dec_t = decomposition_u(t, order, trajectory)
    m_dot = recurrence_rhs(trajectory.at(t), lam, 0.5)
    c_dot = m_dot - richardson_dt(lambda u: psi_series(lam, u, order), t)

    u = TruncatedSeries(dec_t.c)
    psi = TruncatedSeries(dec_t.psi)
    omz = one_minus_z(order)
    flux = radical_series(lam, order) * u + (omz * u * psi) * (2.0 * lam) + (omz * u * u) * lam
    z_coeffs = source_series(lam, t, order).coeffs

    n = np.arange(n_lo, n_hi + 1)
    rhs = -0.5 * n * flux.coeffs[n_lo : n_hi + 1] + z_coeffs[n_lo : n_hi + 1]
    return np.abs(c_dot[n_lo : n_hi + 1] - rhs)
