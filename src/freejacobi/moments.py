"""Moment hierarchy of the free Jacobi process.

The moments m_n(t) = tau(J_t^n)/tau(P) close into a triangular ODE system

    d/dt m_n = -n m_n + theta n m_{n-1}
               + lambda theta n sum_{k=0}^{n-2} m_{n-k-1} (m_k - m_{k+1})

valid for any initial data, which this module integrates with fixed-step
classical RK4.  It also provides the closed-form route at the symmetric
parameter point, the combinatorial-expansion route for rank ratio one, and
the complement transform recovering rank ratios above one from those below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import binomial
from .special_functions import DEFAULT_STEP, laguerre1, rk4, s_moments, ubm_moment

DEFAULT_ORDER = 32

INIT_MODES = ("nested_P_le_Q", "nested_P_ge_Q", "orthogonal", "custom")


@dataclass(frozen=True)
class ProcessParams:
    """Parameter pair (lambda, theta) plus the initial-condition geometry.

    ``lam`` is the rank ratio tau(P)/tau(Q), ``theta`` = tau(Q).  Validity
    requires 0 < theta < 1 and 0 < lam * theta < 1.  The three named init
    modes encode the projection geometries P <= Q (moments start at 1),
    P >= Q (start at 1/lam) and P orthogonal to Q (start at 0); ``custom``
    takes an explicit vector.
    """

    lam: float
    theta: float
    init_mode: str = "nested_P_le_Q"
    custom_init: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not 0.0 < self.lam * self.theta < 1.0:
            raise ValueError("lambda * theta must lie in (0, 1)")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init_mode!r}")
        if self.init_mode == "nested_P_le_Q" and self.lam > 1.0:
            raise ValueError("P <= Q requires lambda <= 1")
        if self.init_mode == "nested_P_ge_Q" and self.lam < 1.0:
            raise ValueError("P >= Q requires lambda >= 1")
        if self.init_mode == "orthogonal" and self.theta * (1.0 + self.lam) > 1.0:
            raise ValueError("orthogonal P, Q require tau(P) + tau(Q) <= 1")
        if self.init_mode == "custom":
            if self.custom_init is None:
                raise ValueError("custom init mode needs custom_init")
            vec = np.asarray(self.custom_init, dtype=float)
            if not np.all(np.isfinite(vec)):
                raise ValueError("custom init vector must be finite")
        elif self.custom_init is not None:
            raise ValueError("custom_init is only allowed with init_mode='custom'")

    def initial_vector(self, order: int) -> np.ndarray:
        """Initial moments (m_0, ..., m_order); m_0 = 1 always."""
        m = np.empty(order + 1)
        m[0] = 1.0
        if self.init_mode == "nested_P_le_Q":
            m[1:] = 1.0
        elif self.init_mode == "nested_P_ge_Q":
            m[1:] = 1.0 / self.lam
        elif self.init_mode == "orthogonal":
            m[1:] = 0.0
        else:
            vec = np.asarray(self.custom_init, dtype=float)
            if vec.size < order + 1:
                raise ValueError(
                    f"custom init vector too short: need {order + 1}, got {vec.size}"
                )
            if vec[0] != 1.0:
                raise ValueError("custom init vector must have m_0 = 1")
            m[:] = vec[: order + 1]
        return m


def recurrence_rhs(m: np.ndarray, lam: float, theta: float) -> np.ndarray:
    """Time derivative of the moment vector (component 0 is zero).

    The quadratic sum is empty for n = 1.  Component 0 of ``m`` is read
    as-is rather than assumed to be 1, so the rescaled system v_n = lam m_n
    (which satisfies the same recurrence with lambda replaced by 1 and
    v_0 = lam) can reuse this function.
    """
    m = np.asarray(m, dtype=float)
    order = m.size - 1
    out = np.zeros(order + 1)
    if order == 0:
        return out
    n = np.arange(1, order + 1)
    out[1:] = -n * m[1:] + theta * n * m[:-1]
    if order >= 2:
        diffs = m[:-1] - m[1:]
        conv = np.convolve(m[1:], diffs)
        out[2:] += lam * theta * n[1:] * conv[: order - 1]
    return out


@dataclass
class MomentTrajectory:
    """Time-indexed moment vectors with the integration metadata.

    ``values[j]`` is (m_0, ..., m_order) at ``times[j]``.
    """

    params: ProcessParams
    order: int
    times: np.ndarray
    values: np.ndarray
    step: float
    method: str = "rk4"

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        # tolerance covers float accumulation drift only; a request halfway
        # between stored steps must fail loudly rather than snap to a neighbor
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} not stored in trajectory")
        return idx

    def at(self, t: float) -> np.ndarray:
        return self.values[self.index_of(t)]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def integrate_moments(
    params: ProcessParams,
    t_end: float,
    order: int = DEFAULT_ORDER,
    h: float = DEFAULT_STEP,
) -> MomentTrajectory:
    """Integrate the hierarchy from the params' initial data up to t_end.

    Every RK4 step is stored, so intermediate times that are multiples of
    ``h`` can be read back exactly.  Deterministic for fixed
    (params, order, h).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    rhs = lambda t, m: recurrence_rhs(m, params.lam, params.theta)
    times, states = rk4(rhs, params.initial_vector(order), t_end, h)
    return MomentTrajectory(
        params=params, order=order, times=times, values=states, step=h
    )


# ---------------------------------------------------------------------------
# Closed-form and expansion routes (lambda = 1)
# ---------------------------------------------------------------------------

def closed_form_moment(n: int, t: float) -> float:
    """Moment at the symmetric point via the explicit Laguerre sum:

    m_n(t) = 4^{-n} C(2n, n)
             + 2^{1-2n} sum_{k=1}^{n} C(2n, n-k) L_{k-1}^1(2kt) e^{-kt} / k.
    """
    if n == 0:
        return 1.0
    four_n = 4.0**n
    total = binomial(2 * n, n) / four_n
    acc = 0.0
    for k in range(1, n + 1):
        acc += binomial(2 * n, n - k) * laguerre1(k - 1, 2 * k * t) * math.exp(-k * t) / k
    return total + 2.0 * acc / four_n


def closed_form_moments(t: float, order: int) -> np.ndarray:
    """Vector (m_0, ..., m_order) of the closed-form route at time t."""
    return np.array([closed_form_moment(n, t) for n in range(order + 1)])


def symmetric_binomial_moment(n: int, t: float) -> float:
    """Same moment written as the symmetric binomial average of the free
    unitary Brownian motion moments: 4^{-n} sum_{k=-n}^{n} C(2n, n-k) h_{|k|}(2t)."""
    if n == 0:
        return 1.0
    acc = 0.0
    for k in range(-n, n + 1):
        acc += binomial(2 * n, n - k) * ubm_moment(abs(k), 2.0 * t)
    return acc / 4.0**n


def expansion_moments(
    theta: float,
    t: float,
    order: int,
    h: float = DEFAULT_STEP,
    s_method: str = "auto",
) -> np.ndarray:
    """Moment vector (m_0..m_order) from the word-count expansion at
    rank ratio one:

    m_n = [ C(2n,n)/2 + sum_k C(2n, n-k) e^{-kt} s_k(t)
            + (2 theta - 1) 2^{2n-1} ] / (4^n theta).

    The odd-word correction 2^{2n-1} enters only away from theta = 1/2.
    For theta != 1/2 the s_k come from integrating the stated trace system,
    whose consistency is an open question; treat results as experimental.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    s = s_moments(theta, t, max(order, 1), h=h, method=s_method)
    scaled = np.exp(-np.arange(1, s.size + 1) * t) * s
    out = np.empty(order + 1)
    out[0] = 1.0
    c = 2.0 * theta - 1.0
    for n in range(1, order + 1):
        acc = 0.5 * binomial(2 * n, n)
        for k in range(1, n + 1):
            acc += binomial(2 * n, n - k) * scaled[k - 1]
        acc += c * 2.0 ** (2 * n - 1)
        out[n] = acc / (4.0**n * theta)
    return out


# ---------------------------------------------------------------------------
# Parameter transforms
# ---------------------------------------------------------------------------

def complement_moments(
    source: MomentTrajectory, lambda_prime: float
) -> MomentTrajectory:
    """Moments for rank ratio lambda' in [1, 2) from an orthogonal-start run.

    The source must be integrated at theta = 1/2 with rank ratio
    lambda'' = 2 - lambda' and orthogonal initial data.  Writing
    r_k = tau(P'') m_k with tau(P'') = (2 - lambda')/2, the complement
    projection 1 - P'' has trace lambda'/2 and

        m'_n = [ tau(Q) + sum_{k=1}^n (-1)^k C(n,k) r_k ] / (lambda'/2).
    """
    if not 1.0 <= lambda_prime < 2.0:
        raise ValueError("lambda' must lie in [1, 2)")
    p = source.params
    if p.theta != 0.5:
        raise ValueError("complement transform requires theta = 1/2")
    if p.init_mode != "orthogonal":
        raise ValueError("source trajectory must use orthogonal initial data")
    if abs(p.lam - (2.0 - lambda_prime)) > 1e-12:
        raise ValueError(
            f"source rank ratio {p.lam} does not match 2 - lambda' = {2.0 - lambda_prime}"
        )
    tau_p = (2.0 - lambda_prime) / 2.0
    tau_q = 0.5
    norm = lambda_prime / 2.0
    order = source.order
    weights = np.array(
        [[(-1) ** k * binomial(n, k) for k in range(order + 1)] for n in range(order + 1)]
    )
    out = np.empty_like(source.values)
    for j in range(source.times.size):
        r = tau_p * source.values[j]
        r[0] = tau_p  # r_0 = tau(P''), unused by the k >= 1 sum below
        vals = np.empty(order + 1)
        vals[0] = 1.0
        for n in range(1, order + 1):
            vals[n] = (tau_q + np.dot(weights[n, 1 : n + 1], r[1 : n + 1])) / norm
        out[j] = vals
    params = ProcessParams(lam=lambda_prime, theta=0.5, init_mode="nested_P_ge_Q")
    return MomentTrajectory(
        params=params,
        order=order,
        times=source.times.copy(),
        values=out,
        step=source.step,
        method="complement",
    )


def lambda_scaling_residual(
    lam: float,
    theta: float,
    t_end: float,
    order: int = 16,
    h: float = DEFAULT_STEP,
    init_mode: str = "nested_P_le_Q",
) -> float:
    """Max deviation between lam * m_n(t) and the rescaled system v_n(t).

    v_n = lam m_n satisfies the recurrence with the quadratic coupling
    constant set to theta alone (lambda = 1) and v_0 = lam; integrating
    both and comparing validates the scaling reduction.
    """
    params = ProcessParams(lam=lam, theta=theta, init_mode=init_mode)
    traj = integrate_moments(params, t_end, order, h)

    v0 = params.initial_vector(order) * lam  # v_0 = lam, v_n(0) = lam m_n(0)
    rhs = lambda t, v: recurrence_rhs(v, 1.0, theta)
    _, v_states = rk4(rhs, v0, t_end, h)

    return float(np.max(np.abs(lam * traj.values - v_states)))
