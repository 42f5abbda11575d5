"""Laguerre polynomials of index 1, moments of the free unitary Brownian
motion, and the coupled trace system for Bernoulli-weighted conjugations.

Every Laguerre value of the package comes from one recurrence,
``laguerre1(x, decay)``: one array pass per degree over every argument
still advancing, in a power-of-two scaled (mantissa, exponent) format
that never leaves it, each entry damped to L_n^1(x_n) e^{-decay_n} before
it is returned.  ``rho_coefficients`` reads it for the coefficients of
rho_s(e^{-rate} z): at s = 2t and rate = t these are the free unitary
Brownian motion moments h_k(2t) (``ubm_moment_vector(2t, order)``) behind
the closed-form moments, the generating function and the time-t density,
finite wherever every k s is; at s = 2t and rate 0 they are the
symmetric-weight traces s_k(t) (``s_closed_theta_half``).  The tests keep
the scalar form of the recurrence as the bit-for-bit reference.
``damped_traces`` turns a trace-system state into the damped traces
e^{-kt} s_k(t) that the expansion route reads.

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

``rk4`` is the one integrator, of the trace system (``s_trajectory``) and
of the moment hierarchy, and ``Run`` the one record of a run: its stored
times and states, its step count, and ``at(t)``, the lookup of a stored
time.
"""

from __future__ import annotations

import math
import sys

import numpy as np

DEFAULT_STEP = 1e-3
_LN2 = math.log(2.0)
_RESCALE_ABOVE = 2.0**500


def _laguerre1_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, exponent) arrays with L_n^1(x[n]) = mantissa[n] *
    2**exponent[n], for a 1-D array x.

    The forward recurrence (k+1) L_{k+1}^1 = (2k + 2 - x) L_k^1 - (k+1) L_{k-1}^1
    from L_{-1}^1 = 0 and L_0^1 = 1, whose first step gives L_1^1 = 2 - x
    exactly.  Pass k advances every entry of degree k or above, the suffix
    x[k:], to degree k in the operations and order ((2k - x) cur, k prev,
    subtract, divide by k), each correctly rounded.  Once an entry's value,
    L_1^1 included, passes 2**500 both its carried values are divided by
    the same power of two, which is exact: wherever the unscaled
    recurrence stays finite, mantissa * 2**exponent is its value bit for
    bit, and for finite x no intermediate overflows at any degree.
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
        # the step from degree k - 1 to k, on the entries of degree >= k;
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


def _damp_scaled(mantissa: float, exponent: int, decay: float) -> float:
    """mantissa * 2**exponent * e^{-decay}; +-inf only where that value is
    past float64.

    The plain product wherever it is a normal float.  Where the scaled
    value overflows, or the exponential underflows against it, the
    power-of-two exponent is applied together with the exponential
    instead; no other code handles a Laguerre exponent.  On scalars, with
    libm's ``math.exp`` and ``math.ldexp``: ``np.exp`` need not round as
    libm does.
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


def laguerre1(x: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Entry n is L_n^1(x[n]) e^{-decay[n]}, for 1-D arrays x and decay of
    one length (a ValueError otherwise).  Each entry is damped before it
    leaves the scaled format, so it is finite wherever its own value is,
    however large L_n^1(x[n]), and +-inf only past float64."""
    mantissa, exponent = _laguerre1_scaled(x)
    return np.array([_damp_scaled(m, e, d) for m, e, d in
                     zip(mantissa.tolist(), exponent.tolist(),
                         np.asarray(decay, dtype=float).tolist(), strict=True)])


def rho_coefficients(s: float, rate: float, order: int) -> np.ndarray:
    """(0, c_1, ..., c_order) with c_k = L_{k-1}^1(k s) e^{-k rate} / k,
    the coefficients of rho_s(e^{-rate} z).

    rho_{2t}(e^{-t} z) has the free unitary Brownian motion moments
    h_k(2t) as coefficients, and rho_{2t}(z) the symmetric-weight traces
    s_k(t).  Each c_k is ``laguerre1`` over x_k = k s, damped by k rate,
    so it is finite wherever its own value is.  A ValueError unless every
    k s is finite.
    """
    if not math.isfinite(s * max(order, 1)):
        raise ValueError(f"the Laguerre argument k s is not finite: s = {s:g}, order = {order}")
    k = np.arange(1, order + 1)
    c = np.zeros(order + 1)
    c[1:] = laguerre1(k * s, k * rate) / k
    return c


def ubm_moment_vector(t: float, order: int) -> np.ndarray:
    """(h_1(t), ..., h_order(t)), the moments h_n(t) = e^{-nt/2}
    L_{n-1}^1(nt) / n of the free unitary Brownian motion (h_0 = 1 and
    h_{-n} = h_n by unitarity), the coefficients of rho_t(e^{-t/2} z) from
    one ``laguerre1`` call; every entry lies in [-1, 1] and is finite for
    every t >= 0 with order * t finite (a ValueError past that)."""
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    if order < 0:
        raise ValueError("order must be >= 0")
    return rho_coefficients(t, t / 2.0, order)[1:]


def s_closed_theta_half(t: float, order: int) -> np.ndarray:
    """(s_1(t), ..., s_order(t)), the closed form s_n(t) = L_{n-1}^1(2nt) / n
    of the symmetric-weight trace system: the coefficients of rho_{2t}.
    n (2t) is the correctly rounded 2nt, as (2n) t is."""
    return rho_coefficients(2.0 * t, 0.0, order)[1:]


class Run(tuple):
    """The result of every integration: (times, values), which unpacks as a
    pair, ``values[q]`` the state at ``times[q]``.  ``steps`` counts the
    RK4 steps the run took, the partial step included (None for a run no
    integration made); ``params`` is a moment run's ``ProcessParams`` (None
    for any other), and ``order``, of a moment run only, the n of its rows
    (m_0, ..., m_n); a trace-system state (s_1, ..., s_n) has no m_0.
    ``at(t)`` is the state at the stored time nearest t, within
    1e-9 max(1, |t|); a KeyError for a time between stored steps, which
    must not snap to a neighbor, and for a NaN or infinite one."""

    def __new__(cls, times: np.ndarray, values: np.ndarray, steps: int | None = None,
                params=None):
        run = super().__new__(cls, (times, values))
        run.steps, run.params = steps, params
        return run

    @property
    def times(self) -> np.ndarray:
        return self[0]

    @property
    def values(self) -> np.ndarray:
        return self[1]

    @property
    def order(self) -> int:
        return self.values.shape[-1] - 1

    def at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if not math.isfinite(t) or abs(self.times[idx] - t) > _drift_tolerance(t):
            raise KeyError(f"time {t} not stored in trajectory")
        return self.values[idx]


# a run takes at most this many steps: after j steps of h the accumulated time
# has drifted by up to j 2^-53 t, and past 1e-9 t (the read-time tolerance of
# ``rk4`` and ``Run.at``) a read time may no longer find its step
_MAX_STEPS = int(1e-9 * 2.0**53)  # 9,007,199


def _full_steps(t_end: float, h: float) -> int:
    """floor(t_end / h + 1e-9), the full steps of a run of step h to t_end:
    a ValueError for a step that is not positive and finite, a t_end that
    is not finite and nonnegative, or a run past the step limit."""
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    span = t_end / h + 1e-9
    if not span <= _MAX_STEPS:
        raise ValueError(
            f"{span:.6g} steps of h={h:g} to t={t_end:g}: a run with read times "
            f"takes at most {_MAX_STEPS} steps"
        )
    return math.floor(span)


def _falls_short(t: float, t_end: float) -> bool:
    """Whether full steps that end at the accumulated time t need a partial
    step to land on t_end."""
    return t_end - t > 1e-12 * max(1.0, t_end)


def step_times(t_end: float, h: float) -> np.ndarray:
    """Every time an ``rk4`` run of step h to t_end stores when read there:
    t = 0, the accumulated time of each full step, and t_end for a partial
    step.  The sum runs in order, as the run's own t += h does, so each
    entry is the run's time bit for bit.  The ValueErrors of ``rk4``."""
    times = np.zeros(_full_steps(t_end, h) + 1)
    np.add.accumulate(np.full(times.size - 1, h), out=times[1:])
    if _falls_short(float(times[-1]), t_end):
        times = np.append(times, t_end)
    return times


def rk4(bind, y0: np.ndarray, t_end: float, h: float, at=None) -> Run:
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
    or several, share nothing.  The state lives in one buffer, which is
    copied into ``states`` after each step that is kept, and each step
    evaluates y + (dt/2) k1, y + (dt/2) k2, y + dt k3 and
    y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) with in-place ufuncs, which
    round exactly as their allocating forms.

    A step's multipliers dt/2, dt and dt/6 are held as 0-d float64 arrays,
    made once for the full steps and once for the partial one, so no
    ufunc converts a Python scalar per call; each holds exactly the Python
    float it is made from.  2 k is formed as k + k: doubling is exact in
    binary floating point, so it equals 2 * k bit for bit, overflow to
    inf, NaN and -0.0 included.  The stage times stay Python floats.
    Every step, the partial one included, runs the one step body.

    ``y0`` may have any shape; an (n, B) state advances B systems in one
    loop, one call per stage for all of them.  The run takes the most full
    steps that end at or before t_end (up to rounding), then a partial
    step that lands on t_end when the accumulated time falls short.
    Returns a ``Run``: (times, states), states of shape
    (len(times),) + y0.shape, and ``steps``.

    The run stores only the states its caller reads: row q holds the step
    nearest the q-th smallest distinct read time in ``at`` (t_end alone by
    default), within 1e-9 max(1, |t|), at its accumulated time (t_end for
    the partial step).  ``step_times(t_end, h)`` reads every step.  A run
    of more than 9,007,199 steps (1e-9 / 2^-53, past which the accumulated
    time can drift beyond that tolerance) raises a ValueError naming its
    step count before the first step.  A read time that no step matches
    (between steps, past t_end, NaN or infinite) raises the KeyError
    ``Run.at`` raises, at the end of the run.  A state that leaves
    float64 raises a ValueError and returns no ``Run``: an overflowing ufunc
    at once, naming its step's start time, and any other inf or NaN (item
    assignment and ``np.correlate`` raise nothing) at the end, naming the
    first kept time not finite, else t_end.  The one integrator of the
    package: the moment hierarchy and the trace system both run through it.
    """
    steps = _full_steps(t_end, h)
    y0 = np.asarray(y0, dtype=float)
    reads = sorted({float(t) for t in ((t_end,) if at is None else at)})
    for t in reads:
        if not math.isfinite(t):
            raise KeyError(f"time {t} not stored in trajectory")
    tols = [_drift_tolerance(t) for t in reads]
    times, states = np.empty(len(reads)), np.empty((len(reads),) + y0.shape)
    nearest = [math.inf] * len(reads)  # distance of each read time's kept step
    first = 0  # the steps have passed the read times before it

    def keep(t):
        # the step is kept for every read time it is the nearest step to so
        # far, within tolerance
        nonlocal first
        for q in range(first, len(reads)):
            dist = abs(t - reads[q])
            if dist <= tols[q]:
                if dist < nearest[q]:
                    nearest[q], times[q], states[q] = dist, t, y
            elif t < reads[q]:
                break
            else:
                first += 1
        # the next step to look at is the first within twice the tolerance
        return reads[first] - 2 * tols[first] if first < len(reads) else math.inf

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
    due = keep(t)
    try:
        with np.errstate(over="raise", invalid="ignore"):
            for _ in range(steps):
                step(t, *full)
                t += h
                if t >= due:
                    due = keep(t)
            if _falls_short(t, t_end):
                step(t, *scalars(t_end - t))
                steps += 1
                keep(t_end)
    except FloatingPointError:
        raise ValueError(f"the state leaves the float64 range by t={t:g}") from None
    kept = np.array(nearest) < math.inf
    bad = times[kept & ~np.isfinite(states.reshape(len(reads), y.size)).all(axis=1)].tolist()
    if bad or not np.isfinite(y).all():
        raise ValueError(f"the state leaves the float64 range by t={(bad + [t_end])[0]:g}")
    for read, dist in zip(reads, nearest):
        if dist == math.inf:
            raise KeyError(f"time {read} not stored in trajectory")
    return Run(times, states, steps)


def _drift_tolerance(t: float) -> float:
    """How far a stored time may lie from the time it is read at."""
    return 1e-9 * max(1.0, abs(t))


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
    its row 0.  The self-convolution is ``np.correlate`` of the state
    with its reversed view, the call ``np.convolve(s, s)`` makes, so it
    has ``np.convolve``'s bits.
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
            if cut:
                multiply(neg_n, correlate(s, mirror, "full")[:cut], tail)
            if forcing:
                multiply(n_float, t, scratch)
                exp(scratch, scratch)
                multiply(scratch, source, scratch)
                out[0] = scratch[0]
                add(tail, scratch_tail, tail)
        return rhs
    return bind


_EXP_LIMIT = math.log(sys.float_info.max)  # 709.78: e^x leaves float64 past it


def s_trajectory(theta: float, t_end: float, order: int, h: float = DEFAULT_STEP, at=None) -> Run:
    """Integrate the trace system (``trace_system``) from s_n(0) = 1 (the
    weight squares to the identity); states[q, n-1] holds s_n at times[q],
    one row per read time in ``at``, t_end alone by default (see ``rk4``).
    Off theta = 1/2 the last stage forms the source e^{nt} at about t_end,
    so a run with order x t_end past 709.78 is a ValueError before the
    first step, after the other input checks; inside that limit ``rk4``
    still refuses a state that leaves float64.
    """
    bind = trace_system(theta, order)
    _full_steps(t_end, h)
    if theta != 0.5 and order * t_end > _EXP_LIMIT:
        raise ValueError(f"order {order} to t={t_end:g} is past the trace system's range off "
                         f"theta = 1/2: its source e^(nt) leaves float64 past order x t = "
                         f"{_EXP_LIMIT:.2f}")
    return rk4(bind, np.ones(order), t_end, h, at)


def damped_traces(s: np.ndarray, t: float) -> np.ndarray:
    """(e^{-t} s_1, ..., e^{-nt} s_n) of a trace-system state s at time t."""
    return np.exp(-np.arange(1, s.size + 1) * t) * s
