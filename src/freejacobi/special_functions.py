"""Laguerre polynomials of index 1, moments of the free unitary Brownian
motion, and the coupled trace system for Bernoulli-weighted conjugations.

Every Laguerre value of the package comes from one power-of-two scaled
recurrence in two forms, bit-identical entry by entry.  The scalar form
(``laguerre1_scaled``, damped by ``damped_laguerre1``) gives ``laguerre1``
and is the tests' reference.  The vector form (``laguerre1_scaled_vector``)
runs one array pass per degree over every argument still advancing, and
gives the damped coefficients of rho_s(e^{-rate} z) (``rho_coefficients``):
at s = 2t and rate = t these are the free unitary Brownian motion moments
h_k(2t) (``ubm_moment_vector(2t, order)``) behind the closed-form moments,
the generating function and the time-t density, finite wherever every
k s is.  Both forms finish through ``damp_scaled``.  ``damped_traces``
turns a trace-system state into the damped traces e^{-kt} s_k(t) that the
expansion route reads.

The trace system (``trace_system``) holds s_n(t) = e^{nt} tau(Z_t^n) for
Z_t = a Y_t a Y_t^*, with Y_t the free unitary Brownian motion and a = 2Q - 1
a symmetry of trace c = 2 theta - 1.  Write W = Y a Y^*, so Z = aW with
a^2 = W^2 = 1.  Then a Z^k = W (aW)^{k-1} is a palindromic word u x u^* in
the two self-adjoint unitaries, with x in {a, W}, so tau(a Z^k) = tau(x) = c
for every k >= 0.  Free Ito calculus (Biane and Speicher 1998) on
dY = i dX Y - Y dt / 2, where dX A dX = tau(A) dt, splits d tau(Z^n) into
the drift n (c^2 - tau(Z^n)) and Ito pairings whose traces factor into
tau(Z^p) tau(Z^{n-p}) and, through tau(a Z^k) = c, into c^2; collecting
them gives the source n^2 c^2 e^{nt} for every n >= 1.  At c = 0 the
system is Biane's, with s_n(t) = e^{nt} h_n(2t); at c = 1 (theta -> 1,
a -> 1) it keeps the trivial solution s_n = e^{nt}.
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
    from L_{-1}^1 = 0 and L_0^1 = 1, whose first step gives L_1^1 = 2 - x
    exactly.  Once a value, L_1^1 included, passes 2**500 both carried
    values are divided by the same power of two, which is exact: wherever
    the unscaled recurrence stays finite, mantissa * 2**exponent is its
    value bit for bit, and for finite x no intermediate overflows at any
    degree.  The scalar form of the recurrence, which
    ``laguerre1_scaled_vector`` runs for many degrees at once.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    exponent = 0
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
        if abs(cur) > _RESCALE_ABOVE:
            shift = math.frexp(cur)[1]
            prev, cur = math.ldexp(prev, -shift), math.ldexp(cur, -shift)
            exponent += shift
    return cur, exponent


def laguerre1_scaled_vector(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, exponent) arrays whose entry n is ``laguerre1_scaled(n,
    x[n])`` bit for bit, for a 1-D array x.

    The vector form of the recurrence: pass k advances every entry of
    degree k or above, the suffix x[k:], by the scalar form's step to
    degree k, in its operations and order ((2k - x) cur, k prev,
    subtract, divide by k), each correctly rounded alike.  The rescale
    applies to exactly the entries whose new value passed 2**500, so each
    entry's (mantissa, exponent) split is the scalar one.
    """
    x = np.asarray(x, dtype=float)
    size = x.size
    mantissa = np.ones(size)
    exponent = np.zeros(size, dtype=np.int64)
    prev, cur, new, mag = np.zeros(size), np.ones(size), np.empty(size), np.empty(size)
    subtract, multiply, divide, absolute = np.subtract, np.multiply, np.divide, np.absolute
    # a NaN entry never rescales; fmax passes over it to the other entries
    largest = np.fmax.reduce
    for k in range(1, size):
        # step k - 1 of the scalar loop, on the entries of degree >= k;
        # k as a float converts exactly, and 2k = k + k
        kf = float(k)
        p, c, v = prev[k:], cur[k:], new[k:]
        subtract(kf + kf, x[k:], v)
        multiply(v, c, v)
        multiply(p, kf, p)
        subtract(v, p, v)
        divide(v, kf, v)
        m = absolute(v, mag[k:])
        if largest(m) > _RESCALE_ABOVE:
            big = m > _RESCALE_ABOVE
            shift = np.frexp(v[big])[1]
            v[big] = np.ldexp(v[big], -shift)
            c[big] = np.ldexp(c[big], -shift)
            exponent[k:][big] += shift
        # the old value becomes prev, the new one cur; entry k is done
        prev, cur, new = cur, new, prev
        mantissa[k] = cur[k]
    return mantissa, exponent


def damp_scaled(mantissa: float, exponent: int, decay: float) -> float:
    """mantissa * 2**exponent * e^{-decay}; +-inf only where that value is
    past float64.

    The plain product wherever it is a normal float.  Where the scaled
    value overflows, or the exponential underflows against it, the
    power-of-two exponent is applied together with the exponential
    instead; no other code handles a Laguerre exponent.  Both Laguerre
    forms finish here, on scalars, with libm's ``math.exp`` and
    ``math.ldexp``: ``np.exp`` need not round as libm does.
    """
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


def damped_laguerre1(n: int, x: float, decay: float) -> float:
    """L_n^1(x) e^{-decay}; +-inf only where that value is past float64."""
    return damp_scaled(*laguerre1_scaled(n, x), decay)


def laguerre1(n: int, x: float) -> float:
    """L_n^1(x); +-inf where the value exceeds the float64 range."""
    return damped_laguerre1(n, x, 0.0)


def rho_coefficients(s: float, rate: float, order: int) -> np.ndarray:
    """(0, c_1, ..., c_order) with c_k = L_{k-1}^1(k s) e^{-k rate} / k,
    the coefficients of rho_s(e^{-rate} z).

    rho_{2t}(e^{-t} z) has the free unitary Brownian motion moments
    h_k(2t) as coefficients.  Each c_k is damped before it is stored, so
    it is finite wherever its own value is, however large L_{k-1}^1(k s).
    The Laguerre values come from ``laguerre1_scaled_vector`` over
    x_k = k s, so c_k is ``damped_laguerre1(k - 1, k s, k rate) / k`` bit
    for bit.  A ValueError unless every k s is finite.
    """
    if not math.isfinite(s * max(order, 1)):
        raise ValueError(f"the Laguerre argument k s is not finite: s = {s:g}, order = {order}")
    mantissa, exponent = laguerre1_scaled_vector(np.arange(1, order + 1) * s)
    c = np.zeros(order + 1)
    c[1:] = [damp_scaled(m, e, k * rate) / k
             for k, (m, e) in enumerate(zip(mantissa.tolist(), exponent.tolist()), 1)]
    return c


def ubm_moment_vector(t: float, order: int) -> np.ndarray:
    """(h_1(t), ..., h_order(t)), the moments h_n(t) = e^{-nt/2}
    L_{n-1}^1(nt) / n of the free unitary Brownian motion (h_0 = 1 and
    h_{-n} = h_n by unitarity); every entry lies in [-1, 1] and is finite
    for every t >= 0 with order * t finite (a ValueError past that)."""
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    if order < 0:
        raise ValueError("order must be >= 0")
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

    A step's multipliers dt/2, dt and dt/6 are held as 0-d float64 arrays,
    made once for the full steps and once for the partial one, so no
    ufunc converts a Python scalar per call; each holds exactly the Python
    float it is made from.  2 k is formed as k + k: doubling is exact in
    binary floating point, so it equals 2 * k bit for bit, overflow to
    inf, NaN and -0.0 included.  The stage times stay Python floats.
    Every step, the partial one included, runs the one step body.

    ``y0`` may have any shape; a (B, n) state advances B systems in one
    loop, one call per stage for all of them.  Returns (times, states)
    with every step stored, states of shape (len(times),) + y0.shape: the
    most full steps that end at or before t_end (up to rounding), then a
    partial step that lands on t_end when the accumulated time falls
    short.  A run too long to store raises a ValueError naming its step
    count and the bytes it needs.  The one integrator of the package: the
    moment hierarchy and the trace system both run through it.
    """
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    y0 = np.asarray(y0, dtype=float)
    span = t_end / h + 1e-9
    # one spare row for the partial step, which the accumulated t decides.
    # A run too long to store: OverflowError from floor(inf), ValueError
    # past numpy's largest dimension, MemoryError short of it
    try:
        steps = math.floor(span)
        times = np.empty(steps + 2)
        states = np.empty((steps + 2,) + y0.shape)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(
            f"{span:.6g} steps of h={h:g} to t={t_end:g} need "
            f"{8 * (span + 2) * (1 + y0.size):.3g} bytes of stored times and states, "
            "more than can be allocated"
        ) from None
    times[0], states[0] = 0.0, y0
    y, k1, k2, k3, k4, stage, acc = np.empty((7,) + y0.shape)
    y[...] = y0
    f1, f2, f3, f4 = bind(y, k1), bind(stage, k2), bind(stage, k3), bind(stage, k4)
    multiply, add = np.multiply, np.add

    def scalars(dt):
        return dt, dt / 2, np.array(dt / 2), np.array(dt), np.array(dt / 6)

    def step(t, dt, half, half_a, dt_a, sixth_a):
        f1(t)
        multiply(half_a, k1, stage)
        add(y, stage, stage)
        f2(t + half)
        multiply(half_a, k2, stage)
        add(y, stage, stage)
        f3(t + half)
        multiply(dt_a, k3, stage)
        add(y, stage, stage)
        f4(t + dt)
        add(k2, k2, acc)
        add(k1, acc, acc)
        add(k3, k3, stage)
        add(acc, stage, acc)
        add(acc, k4, acc)
        multiply(sixth_a, acc, acc)
        add(y, acc, y)

    full = scalars(h)
    t = 0.0
    for j in range(1, steps + 1):
        step(t, *full)
        t += h
        times[j], states[j] = t, y
    stored = steps + 1
    rem = t_end - t
    if rem > 1e-12 * max(1.0, t_end):
        step(t, *scalars(rem))
        times[stored], states[stored] = t_end, y
        stored += 1
    return times[:stored], states[:stored]


def stored_index(times: np.ndarray, t: float) -> int:
    """Index of ``t`` among an ``rk4`` run's stored ``times``, within float
    accumulation drift; a KeyError for a time between stored steps, which
    must fail loudly rather than snap to a neighbor."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"time {t} not stored in trajectory")
    return idx


def trace_system(theta: float, order: int):
    """The trace system's right-hand side at theta, as ``rk4`` takes it:
    ``bind(s, out)`` returns ``rhs(t)``, which writes d/dt (s_1, ..., s_order)
    at the current contents of ``s`` into ``out``.

    With c = 2 theta - 1 (see the module notes for the derivation),
    d/dt s_n = -n sum_{k=1}^{n-1} s_{n-k} s_k + n^2 c^2 e^{nt},  n >= 1,
    so d/dt s_1 = c^2 e^t.  ``bind`` prepares, for its own state and output
    buffers, the t-independent factors -n, n and n^2 c^2, a reversed view
    of the state and a scratch buffer for e^{nt} n^2 c^2, whose first entry
    is d/dt s_1.  At c = 0 (theta = 1/2) the source term is skipped and
    ``bind`` writes d/dt s_1 = 0 once, as the hierarchy's ``bind`` writes
    its column 0.  The self-convolution is ``np.correlate`` of the state
    with its reversed view, the call ``np.convolve(s, s)`` makes, so it
    has ``np.convolve``'s bits.  Every right-hand side of one
    ``bind`` stores the time of its latest call in ``bind.t``.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if order < 1:
        raise ValueError("order must be >= 1")
    c = 2.0 * theta - 1.0

    def bind(s, out):
        n = np.arange(1, order + 1)
        # -n as floats: each int converts exactly
        neg_n, n_float = -n[1:].astype(float), n.astype(float)
        source = n * n * (c * c)
        tail, mirror, cut = out[1:], s[::-1], order - 1
        forcing = c != 0.0
        scratch = np.empty(order)
        scratch_tail = scratch[1:]
        out[0] = 0.0
        multiply, add, exp, correlate = np.multiply, np.add, np.exp, np.correlate

        def rhs(t):
            bind.t = t
            if cut:
                multiply(neg_n, correlate(s, mirror, "full")[:cut], tail)
            if forcing:
                multiply(n_float, t, scratch)
                exp(scratch, scratch)
                multiply(scratch, source, scratch)
                out[0] = scratch[0]
                add(tail, scratch_tail, tail)
        return rhs

    bind.t = 0.0
    return bind


def s_trajectory(
    theta: float,
    t_end: float,
    order: int,
    h: float = DEFAULT_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the trace system (``trace_system``) from s_n(0) = 1 (the
    weight squares to the identity); states[j, n-1] holds s_n.  A
    ValueError names the time the state leaves float64 (theta != 1/2).
    """
    bind = trace_system(theta, order)
    # every overflow raises as numpy's FloatingPointError, so the state
    # never holds inf or NaN
    try:
        with np.errstate(over="raise"):
            return rk4(bind, np.ones(order), t_end, h)
    except FloatingPointError:
        raise ValueError(
            f"trace system state leaves the float64 range by t={bind.t:g}"
        ) from None


def damped_traces(s: np.ndarray, t: float) -> np.ndarray:
    """(e^{-t} s_1, ..., e^{-nt} s_n) of a trace-system state s at time t."""
    return np.exp(-np.arange(1, s.size + 1) * t) * s
