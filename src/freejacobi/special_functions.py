"""Laguerre polynomials of index 1, moments of the free unitary Brownian
motion, and the coupled trace system for Bernoulli-weighted conjugations.

The general-weight trace system (``theta != 1/2``) is integrated exactly as
its source states it, but its consistency is an open question: the
degenerate limit theta -> 1 of the stated inhomogeneous term is
inconsistent with the trivial solution it should produce.  Callers are
expected to treat those outputs as experimental and compare them against
the matrix Monte Carlo oracle; see ``oracle`` and the general-theta verify
suite.
"""

from __future__ import annotations

import math
import sys

import numpy as np

DEFAULT_STEP = 1e-3
_LN2 = math.log(2.0)
_RESCALE_ABOVE = 2.0**500


def laguerre1_scaled(n: int, x: float) -> tuple[float, int]:
    """L_n^1(x) as (mantissa, exponent), L_n^1(x) = mantissa * 2**exponent.

    Forward recurrence (k+1) L_{k+1}^1 = (2k + 2 - x) L_k^1 - (k+1) L_{k-1}^1
    from L_0^1 = 1, L_1^1 = 2 - x.  Once a value passes 2**500 both carried
    values are divided by the same power of two, which is exact: wherever
    the unscaled recurrence stays finite, mantissa * 2**exponent is its
    value bit for bit, and no intermediate overflows at any degree.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0, 0
    exponent = 0
    prev = 1.0
    cur = 2.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
        if abs(cur) > _RESCALE_ABOVE:
            shift = math.frexp(cur)[1]
            prev, cur = math.ldexp(prev, -shift), math.ldexp(cur, -shift)
            exponent += shift
    return cur, exponent


def _to_float(mantissa: float, exponent: int) -> float:
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def laguerre1(n: int, x: float) -> float:
    """L_n^1(x); +-inf where the value exceeds the float64 range."""
    return _to_float(*laguerre1_scaled(n, x))


def ubm_moment(n: int, t: float) -> float:
    """n-th moment h_n(t) = e^{-nt/2} L_{n-1}^1(nt) / n of the free
    unitary Brownian motion; h_0 = 1 and h_{-n} = h_n by unitarity.

    Finite for every t >= 0.  Once n t passes about 1.4e3 the exponential
    underflows while the Laguerre value overflows; there the carried
    Laguerre exponent is applied together with the exponential.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    n = abs(n)
    if n == 0:
        return 1.0
    mantissa, exponent = laguerre1_scaled(n - 1, n * t)
    value = math.exp(-n * t / 2.0) * _to_float(mantissa, exponent) / n
    if sys.float_info.min <= abs(value) < math.inf:
        return value
    return math.exp(exponent * _LN2 - n * t / 2.0) * mantissa / n


def ubm_moment_vector(t: float, order: int) -> np.ndarray:
    """(h_1(t), ..., h_order(t)); every entry lies in [-1, 1]."""
    return np.array([ubm_moment(n, t) for n in range(1, order + 1)])


def s_closed_theta_half(n: int, t: float) -> float:
    """Closed form of the symmetric-weight trace system: L_{n-1}^1(2nt)/n."""
    return laguerre1(n - 1, 2.0 * n * t) / n


def s_initial(order: int) -> np.ndarray:
    """s_n(0) = 1 for every n (the weight squares to the identity)."""
    return np.ones(order)


def s_system_rhs(t: float, s: np.ndarray, theta: float) -> np.ndarray:
    """Right-hand side of the trace system, component n stored at s[n-1].

    d/dt s_1 = (2 theta - 1)^2 e^t  (the stated closed form for s_1), and
    for n >= 2
    d/dt s_n = -n sum_{k=1}^{n-1} s_{n-k} s_k
               + e^{nt} [2n (2 theta - 1) + (n-1)(n-2)(2 theta - 1)^2].
    """
    order = s.size
    c = 2.0 * theta - 1.0
    out = np.empty(order)
    out[0] = c * c * math.exp(t)
    if order >= 2:
        conv = np.convolve(s, s)
        n = np.arange(2, order + 1)
        out[1:] = -n * conv[: order - 1]
        if c != 0.0:
            out[1:] += np.exp(n * t) * (2 * n * c + (n - 1) * (n - 2) * c * c)
    return out


def rk4(rhs, y0: np.ndarray, t_end: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 for dy/dt = rhs(t, y) from t = 0 to t_end.

    Returns (times, states) with every step stored; a final partial step
    lands exactly on t_end when it is not a multiple of h.  The one
    integrator of the package: the moment hierarchy and the trace system
    both run through it.
    """
    if not h > 0:
        raise ValueError("step must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    times = [0.0]
    states = [y0.copy()]
    t, y = 0.0, y0.copy()

    def step(dt):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + (dt / 2) * k1)
        k3 = rhs(t + dt / 2, y + (dt / 2) * k2)
        k4 = rhs(t + dt, y + dt * k3)
        return y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    for _ in range(int(round(t_end / h))):
        y = step(h)
        t += h
        times.append(t)
        states.append(y.copy())
    rem = t_end - t
    if rem > 1e-12 * max(1.0, t_end):
        y = step(rem)
        times.append(t_end)
        states.append(y.copy())
    return np.array(times), np.array(states)


def s_trajectory(
    theta: float,
    t_end: float,
    order: int,
    h: float = DEFAULT_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the trace system from t = 0; states[j, n-1] holds s_n."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if order < 1:
        raise ValueError("order must be >= 1")
    rhs = lambda t, y: s_system_rhs(t, y, theta)
    return rk4(rhs, s_initial(order), t_end, h)


def s_moments(
    theta: float,
    t_end: float,
    order: int,
    h: float = DEFAULT_STEP,
    method: str = "auto",
) -> np.ndarray:
    """Vector (s_1, ..., s_order) at time t_end.

    ``method='auto'`` returns the Laguerre closed form at theta = 1/2 and
    integrates the stated system otherwise; ``'integrate'`` forces the RK4
    route (used to validate the closed form), ``'closed'`` forces the
    closed form and raises away from theta = 1/2.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if method not in ("auto", "integrate", "closed"):
        raise ValueError(f"unknown method {method!r}")
    use_closed = method == "closed" or (method == "auto" and theta == 0.5)
    if use_closed:
        if theta != 0.5:
            raise ValueError("closed form is only available at theta = 1/2")
        return np.array([s_closed_theta_half(n, t_end) for n in range(1, order + 1)])
    _, states = s_trajectory(theta, t_end, order, h)
    return states[-1]
