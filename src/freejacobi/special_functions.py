"""Laguerre polynomials of index 1, moments of the free unitary Brownian
motion, and the coupled trace system for Bernoulli-weighted conjugations.

Every Laguerre value of the package comes from ``damped_laguerre1``; the
damped coefficients of rho_s(e^{-rate} z) built on it (``rho_coefficients``)
are, at s = 2t and rate = t, the free unitary Brownian motion moments
h_k(2t) behind the closed-form moments, the generating function and the
time-t density.

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


def damped_laguerre1(n: int, x: float, decay: float) -> float:
    """L_n^1(x) e^{-decay}; +-inf only where that value is past float64.

    The plain product wherever it is a normal float.  Where the Laguerre
    value overflows, or the exponential underflows against it, the
    power-of-two exponent ``laguerre1_scaled`` carries is applied together
    with the exponential instead; no other code handles that exponent.
    """
    mantissa, exponent = laguerre1_scaled(n, x)
    try:
        value = math.exp(-decay) * math.ldexp(mantissa, exponent)
    except OverflowError:
        value = math.inf
    if sys.float_info.min <= abs(value) < math.inf:
        return value
    try:
        return mantissa * math.exp(exponent * _LN2 - decay)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def laguerre1(n: int, x: float) -> float:
    """L_n^1(x); +-inf where the value exceeds the float64 range."""
    return damped_laguerre1(n, x, 0.0)


def rho_coefficients(s: float, rate: float, order: int) -> np.ndarray:
    """(0, c_1, ..., c_order) with c_k = L_{k-1}^1(k s) e^{-k rate} / k,
    the coefficients of rho_s(e^{-rate} z).

    rho_{2t}(e^{-t} z) has the free unitary Brownian motion moments
    h_k(2t) as coefficients.  Each c_k is damped before it is stored, so
    it is finite wherever its own value is, however large L_{k-1}^1(k s).
    """
    c = np.zeros(order + 1)
    for k in range(1, order + 1):
        c[k] = damped_laguerre1(k - 1, k * s, k * rate) / k
    return c


def ubm_moment(n: int, t: float) -> float:
    """n-th moment h_n(t) = e^{-nt/2} L_{n-1}^1(nt) / n of the free
    unitary Brownian motion; h_0 = 1 and h_{-n} = h_n by unitarity.
    Finite for every t >= 0.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    n = abs(n)
    if n == 0:
        return 1.0
    return damped_laguerre1(n - 1, n * t, n * t / 2.0) / n


def ubm_moment_vector(t: float, order: int) -> np.ndarray:
    """(h_1(t), ..., h_order(t)); every entry lies in [-1, 1]."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return rho_coefficients(t, t / 2.0, order)[1:]


def s_closed_theta_half(n: int, t: float) -> float:
    """Closed form of the symmetric-weight trace system: L_{n-1}^1(2nt)/n."""
    return laguerre1(n - 1, 2.0 * n * t) / n


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
    out[0] = c * c * math.exp(t) if c != 0.0 else 0.0
    if order >= 2:
        conv = np.convolve(s, s)
        n = np.arange(2, order + 1)
        out[1:] = -n * conv[: order - 1]
        if c != 0.0:
            out[1:] += np.exp(n * t) * (2 * n * c + (n - 1) * (n - 2) * c * c)
    return out


def rk4(rhs, y0: np.ndarray, t_end: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 for dy/dt = rhs(t, y) from t = 0 to t_end.

    ``y0`` may have any shape; a (B, n) state advances B systems in one
    loop, one rhs call per stage for all of them.  Returns (times, states)
    with every step stored, states of shape (len(times),) + y0.shape; a
    final partial step lands exactly on t_end when the accumulated time
    falls short of it.  The one integrator of the package: the moment
    hierarchy and the trace system both run through it.
    """
    if not h > 0:
        raise ValueError("step must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    y0 = np.asarray(y0, dtype=float)
    steps = int(round(t_end / h))
    # one spare row for the partial step, which the accumulated t decides
    times = np.empty(steps + 2)
    states = np.empty((steps + 2,) + y0.shape)
    times[0], states[0] = 0.0, y0
    t, y = 0.0, states[0]

    def step(dt, dest):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + (dt / 2) * k1)
        k3 = rhs(t + dt / 2, y + (dt / 2) * k2)
        k4 = rhs(t + dt, y + dt * k3)
        np.add(y, (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4), out=dest)
        return dest

    for j in range(1, steps + 1):
        y = step(h, states[j])
        t += h
        times[j] = t
    stored = steps + 1
    rem = t_end - t
    if rem > 1e-12 * max(1.0, t_end):
        step(rem, states[stored])
        times[stored] = t_end
        stored += 1
    return times[:stored], states[:stored]


def s_trajectory(
    theta: float,
    t_end: float,
    order: int,
    h: float = DEFAULT_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the trace system from s_n(0) = 1 (the weight squares to the
    identity); states[j, n-1] holds s_n.  A ValueError names the time the
    state leaves float64 (theta != 1/2)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if order < 1:
        raise ValueError("order must be >= 1")

    t_last = 0.0

    def rhs(t, y):
        nonlocal t_last
        t_last = t
        return s_system_rhs(t, y, theta)

    # every overflow raises, so the state never holds inf or NaN: numpy's
    # as FloatingPointError, math.exp(t) of the s_1 source (past t = 709.78)
    # as OverflowError
    try:
        with np.errstate(over="raise"):
            return rk4(rhs, np.ones(order), t_end, h)
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"trace system state leaves the float64 range by t={t_last:g}"
        ) from None
