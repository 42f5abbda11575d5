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
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    n = abs(n)
    if n == 0:
        return 1.0
    return damped_laguerre1(n - 1, n * t, n * t / 2.0) / n


def ubm_moment_vector(t: float, order: int) -> np.ndarray:
    """(h_1(t), ..., h_order(t)); every entry lies in [-1, 1]."""
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    return rho_coefficients(t, t / 2.0, order)[1:]


def s_closed_theta_half(n: int, t: float) -> float:
    """Closed form of the symmetric-weight trace system: L_{n-1}^1(2nt)/n."""
    return laguerre1(n - 1, 2.0 * n * t) / n


def rk4(bind, y0: np.ndarray, t_end: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 for dy/dt = f(t, y) from t = 0 to t_end.

    ``bind(y, out)`` is called once for each of the four stages, before the
    first step, with the stage's fixed state buffer ``y`` and derivative
    buffer ``out`` (C-contiguous arrays of y0's shape that never overlap).
    It returns ``f(t)``, which writes f(t, y) for the current contents of
    ``y`` into ``out``; its return value is ignored.  Nothing else writes
    ``out``, so entries that never change may be written once, by
    ``bind``.  ``bind`` prepares everything the right-hand side needs
    (coefficients, views, scratch buffers) for its own two buffers, so
    nothing outlives one integration and two integrations, in one thread
    or several, share nothing.  The state lives in one buffer and is
    copied into ``states[j]`` after step j, and each step evaluates
    y + (dt/2) k1, y + (dt/2) k2, y + dt k3 and
    y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) with in-place ufuncs, which
    round exactly as their allocating forms.

    ``y0`` may have any shape; a (B, n) state advances B systems in one
    loop, one call per stage for all of them.  Returns (times, states)
    with every step stored, states of shape (len(times),) + y0.shape: the
    most full steps that end at or before t_end (up to rounding), then a
    partial step that lands on t_end when the accumulated time falls
    short.  The one integrator of the package: the moment hierarchy and
    the trace system both run through it.
    """
    if not h > 0:
        raise ValueError("step must be positive")
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    y0 = np.asarray(y0, dtype=float)
    steps = math.floor(t_end / h + 1e-9)
    # one spare row for the partial step, which the accumulated t decides
    times = np.empty(steps + 2)
    states = np.empty((steps + 2,) + y0.shape)
    times[0], states[0] = 0.0, y0
    t = 0.0
    y, k1, k2, k3, k4, stage, acc = np.empty((7,) + y0.shape)
    y[...] = y0
    f1, f2, f3, f4 = bind(y, k1), bind(stage, k2), bind(stage, k3), bind(stage, k4)

    def step(dt):
        half = dt / 2
        f1(t)
        np.multiply(half, k1, stage)
        np.add(y, stage, stage)
        f2(t + half)
        np.multiply(half, k2, stage)
        np.add(y, stage, stage)
        f3(t + half)
        np.multiply(dt, k3, stage)
        np.add(y, stage, stage)
        f4(t + dt)
        np.multiply(2, k2, acc)
        np.add(k1, acc, acc)
        np.multiply(2, k3, stage)
        np.add(acc, stage, acc)
        np.add(acc, k4, acc)
        np.multiply(dt / 6, acc, acc)
        np.add(y, acc, y)

    for j in range(1, steps + 1):
        step(h)
        t += h
        times[j], states[j] = t, y
    stored = steps + 1
    rem = t_end - t
    if rem > 1e-12 * max(1.0, t_end):
        step(rem)
        times[stored], states[stored] = t_end, y
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
    state leaves float64 (theta != 1/2).

    With c = 2 theta - 1,
    d/dt s_1 = c^2 e^t  (the stated closed form for s_1), and for n >= 2
    d/dt s_n = -n sum_{k=1}^{n-1} s_{n-k} s_k + e^{nt} [2n c + (n-1)(n-2) c^2].
    The t-independent factors -n, n and 2n c + (n-1)(n-2) c^2 are computed
    once per binding.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if order < 1:
        raise ValueError("order must be >= 1")

    c = 2.0 * theta - 1.0
    t_last = 0.0

    def bind(s, out):
        n = np.arange(2, order + 1)
        neg_n, n_float, source = -n, n.astype(float), 2 * n * c + (n - 1) * (n - 2) * c * c
        tail = out[1:]

        def rhs(t):
            nonlocal t_last
            t_last = t
            out[0] = c * c * math.exp(t) if c != 0.0 else 0.0
            if order >= 2:
                np.multiply(neg_n, np.convolve(s, s)[: order - 1], tail)
                if c != 0.0:
                    np.add(tail, np.exp(n_float * t) * source, tail)
        return rhs

    # every overflow raises, so the state never holds inf or NaN: numpy's
    # as FloatingPointError, math.exp(t) of the s_1 source (past t = 709.78)
    # as OverflowError
    try:
        with np.errstate(over="raise"):
            return rk4(bind, np.ones(order), t_end, h)
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"trace system state leaves the float64 range by t={t_last:g}"
        ) from None
