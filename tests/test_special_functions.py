import math
import re
import signal
import warnings
from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.special import eval_genlaguerre

from freejacobi import special_functions as sf
from freejacobi.moments import ProcessParams, expansion_moments, integrate_moments
from freejacobi.transforms import rho_series
from test_rk4_bit_identity import reference_rk4


def _laguerre1_scaled_reference(n, x):
    """L_n^1(x) as (mantissa, exponent), L_n^1(x) = mantissa * 2**exponent:
    the scalar form of the recurrence behind ``sf.laguerre1``, one degree
    at a time, and the bit-for-bit reference for it.

    Forward recurrence (k+1) L_{k+1}^1 = (2k + 2 - x) L_k^1 - (k+1) L_{k-1}^1
    from L_{-1}^1 = 0 and L_0^1 = 1.  Once a value, L_1^1 included, passes
    2**500 both carried values are divided by the same power of two.
    """
    exponent = 0
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
        if abs(cur) > 2.0**500:
            shift = math.frexp(cur)[1]
            prev, cur = math.ldexp(prev, -shift), math.ldexp(cur, -shift)
            exponent += shift
    return cur, exponent


def _damped_laguerre1_reference(n, x, decay):
    """L_n^1(x) e^{-decay} from the scalar reference, one value at a time."""
    return sf._damp_scaled(*_laguerre1_scaled_reference(n, x), decay)


def _laguerre1(n, x):
    """L_n^1(x) from ``sf.laguerre1``: entry n of its vector over n + 1 copies of x."""
    return sf.laguerre1(np.full(n + 1, x), np.zeros(n + 1))[n]


def test_laguerre_low_degrees():
    # entry n is L_n^1(x[n]): L_0^1 = 1 and L_1^1 = 2 - x
    assert sf.laguerre1(np.array([7.3, 3.0]), np.zeros(2)).tolist() == [1.0, -1.0]
    assert sf.laguerre1(np.array([]), np.array([])).size == 0
    # L_2^1(x) = 3 - 3x + x^2/2, so L_2^1(2) = -1
    assert _laguerre1(2, 2.0) == pytest.approx(-1.0, abs=1e-14)
    # L_3^1(x) = 4 - 6x + 2x^2 - x^3/6
    for x in (0.0, 0.5, 1.7, 4.0):
        expected = 4 - 6 * x + 2 * x**2 - x**3 / 6
        assert _laguerre1(3, x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(st.integers(0, 40), st.floats(0.0, 120.0))
def test_laguerre_matches_scipy(n, x):
    # every degree up to n at one argument
    for k, ours in enumerate(sf.laguerre1(np.full(n + 1, x), np.zeros(n + 1)).tolist()):
        ref = float(eval_genlaguerre(k, 1, x))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10 * max(1.0, abs(ref)))


def _single_ubm_moment(n, t):
    """h_n(t) = L_{n-1}^1(nt) e^{-nt/2} / n, one moment at a time."""
    return _damped_laguerre1_reference(n - 1, n * t, n * t / 2.0) / n


def test_ubm_moment_basics():
    for t in (0.0, 0.3, 1.0, 2.5):
        assert sf.ubm_moment_vector(t, 1)[0] == pytest.approx(math.exp(-t / 2), rel=1e-14)
    assert sf.ubm_moment_vector(0.0, 9) == pytest.approx(np.ones(9), rel=1e-13)
    # L_1^1(2) = 0
    assert sf.ubm_moment_vector(1.0, 2)[1] == pytest.approx(0.0, abs=1e-15)
    assert sf.ubm_moment_vector(3.0, 0).size == 0


@given(st.integers(1, 12), st.floats(0.0, 4.0))
def test_ubm_moment_bounded_by_one(n, t):
    assert abs(sf.ubm_moment_vector(t, n)[n - 1]) <= 1.0 + 1e-12


def test_s_closed_low_orders():
    # s_1 = 1, s_2 = 1 - 2t, s_3 = 1 - 6t + 6t^2
    for t in (0.0, 0.4, 1.0, 2.0):
        s_1, s_2, s_3 = sf.s_closed_theta_half(t, 3)
        assert s_1 == 1.0
        assert s_2 == pytest.approx(1 - 2 * t, rel=1e-13, abs=1e-13)
        assert s_3 == pytest.approx(1 - 6 * t + 6 * t**2, rel=1e-12, abs=1e-12)


def test_s_trajectory_matches_closed_at_half():
    times, states = sf.s_trajectory(0.5, 1.0, 12, h=2e-4)
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    s_cl = sf.s_closed_theta_half(1.0, 12)
    scale = np.maximum(1.0, np.abs(s_cl))
    assert np.max(np.abs(states[-1] - s_cl) / scale) < 1e-8


def test_scaled_traces_match_ubm_at_double_time():
    times, states = sf.s_trajectory(0.5, 2.0, 10, h=2e-4, at=sf.step_times(2.0, 2e-4)[::1000])
    assert len(times) == 11
    for t, state in zip(times, states):
        lhs = sf.damped_traces(state, t)
        assert lhs == pytest.approx(sf.ubm_moment_vector(2 * t, 10), abs=1e-10)


def test_unitarity_bound_on_scaled_traces():
    times, states = sf.s_trajectory(0.5, 4.0, 12, h=1e-3, at=sf.step_times(4.0, 1e-3)[::200])
    assert len(times) == 21
    for t, state in zip(times, states):
        for n in range(1, 13):
            assert abs(math.exp(-n * t) * state[n - 1]) <= 1.0 + 1e-9


def test_s_system_general_weight_initial_value():
    # s_1(t) = 1 + (2 theta - 1)^2 (e^t - 1) is built into the rhs
    theta = 0.75
    times, states = sf.s_trajectory(theta, 1.0, 4, h=1e-3, at=(0.0, 1.0))
    c = (2 * theta - 1) ** 2
    assert states[-1][0] == pytest.approx(1 + c * (math.e - 1), rel=1e-10)
    assert np.all(states[0] == 1.0)


def test_one_trace_run_holds_each_shorter_run_bit_for_bit():
    # the general-theta suite reads one run to t = 2 at every grid time and
    # at t = 1 for its order-4 Bernoulli gate
    grid = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    run = sf.s_trajectory(0.75, 2.0, 6, h=2e-4, at=grid)
    for t in grid:
        shorter = sf.s_trajectory(0.75, t, 6, h=2e-4)[1][-1]
        assert np.array_equal(run.at(t), shorter)
    order_4 = sf.s_trajectory(0.75, 1.0, 4, h=2e-4)[1][-1]
    assert np.array_equal(run.at(1.0)[:4], order_4)


def test_s_system_degenerate_weight_limit():
    """As theta -> 1 the weight a -> identity, Z_t -> 1 and s_n -> e^{nt}:
    the source n^2 c^2 e^{nt} keeps that solution at c = 1, so the gap
    falls with 1 - theta (0.0144 at 0.999, 0.0014 at 0.9999)."""
    t_end = 0.5
    degenerate = math.exp(3 * t_end)  # s_3 would be e^{3t} if a -> identity
    gaps = [abs(sf.s_trajectory(theta, t_end, 4, h=1e-3)[1][-1][2] - degenerate)
            for theta in (0.999, 0.9999)]
    assert gaps[0] < 0.02
    assert gaps[1] < gaps[0] / 9


def test_invalid_parameters():
    for theta in (0.0, 1.0):
        with pytest.raises(ValueError):
            sf.s_trajectory(theta, 1.0, 4)
        with pytest.raises(ValueError):
            expansion_moments(theta, np.ones(4))
    with pytest.raises(ValueError):
        sf.laguerre1(np.zeros(3), np.zeros(2))  # one decay per argument
    with pytest.raises(ValueError):
        sf.ubm_moment_vector(-0.5, 4)


def _laguerre1_unscaled(n, x):
    prev, cur = 1.0, 2.0 - x
    if n == 0:
        return 1.0
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
    return cur


@pytest.mark.parametrize("n,x", [(3, 1.7), (40, 120.0), (128, 900.0), (199, 1600.0),
                                 (255, 1000.0), (300, 300.0)])
def test_laguerre_scaling_is_bit_exact_where_unscaled_is_finite(n, x):
    plain = _laguerre1_unscaled(n, x)
    assert math.isfinite(plain)
    assert _laguerre1(n, x) == plain
    mantissa, exponent = _laguerre1_scaled_reference(n, x)
    assert math.ldexp(mantissa, exponent) == plain


def test_laguerre_overflow_is_infinite_not_nan():
    # L_255^1(2048) ~ -1e340: the unscaled recurrence overflows
    assert _laguerre1(255, 2048.0) == -math.inf
    mantissa, exponent = sf._laguerre1_scaled(np.full(256, 2048.0))
    assert math.log2(abs(mantissa[255])) + exponent[255] > 1024


def _ubm_moment_exact(n, t):
    """h_n(t) from the explicit Laguerre sum in enough decimal digits to
    absorb its cancellation (terms reach e^{nt} and 2^n)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(int(n * t / 2.3 + 0.31 * n) + 40):
        x = mpmath.mpf(n) * mpmath.mpf(t)
        m = n - 1
        lag = mpmath.fsum(
            (-1) ** j * mpmath.binomial(m + 1, m - j) * x**j / mpmath.factorial(j)
            for j in range(m + 1)
        )
        return float(mpmath.exp(-x / 2) * lag / n)


@pytest.mark.parametrize("n,t", [(1, 2000.0), (5, 420.0), (50, 40.0), (100, 20.0),
                                 (150, 10.0), (200, 8.0), (220, 5.0), (256, 8.0),
                                 (256, 4.0), (300, 7.0), (400, 5.0), (512, 4.0),
                                 (512, 0.5)])
def test_ubm_moment_matches_mpmath_at_large_nt(n, t):
    # n t up to 2100: exp(-nt/2) underflows and L_{n-1}^1(nt) overflows in
    # float64 from n t ~ 1.4e3 on
    ours = sf.ubm_moment_vector(t, n)[n - 1]
    ref = _ubm_moment_exact(n, t)
    assert math.isfinite(ours) and abs(ours) <= 1.0
    assert abs(ours - ref) <= 1e-15
    if abs(ref) > 1e-300:
        assert abs(ours - ref) <= 1e-11 * abs(ref)


def bind_form(rhs):
    """A two-argument rhs(t, y) in rk4's bind(y, out) -> f(t) form."""
    return lambda y, out: lambda t: np.copyto(out, rhs(t, y))


def test_rk4_rejects_an_infinite_step_but_not_one_past_t_end():
    with pytest.raises(ValueError, match="positive and finite"):
        sf.rk4(bind_form(lambda t, y: -y), np.ones(2), 1.0, float("inf"))
    # a step wider than t_end is one partial step that lands on t_end
    times, states = sf.rk4(bind_form(lambda t, y: -y), np.ones(2), 1.0, 2.0,
                           at=sf.step_times(1.0, 2.0))
    assert times.tolist() == [0.0, 1.0]
    assert len(states) == 2


def test_rk4_rejects_nonpositive_step():
    y0 = np.ones(2)
    for h in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            sf.rk4(bind_form(lambda t, y: -y), y0, 1.0, h)
    for t_end in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sf.rk4(bind_form(lambda t, y: -y), y0, t_end, 0.1)


def _inf_by_item_assignment(y, out):
    # writes inf past t = 0.05 by item assignment, which no errstate sees
    def rhs(t):
        np.negative(y, out)
        if t >= 0.05:
            out[1] = math.inf
    return rhs


def _correlate_overflow(y, out):
    # np.correlate is no ufunc: on 1e200 values it returns inf without raising
    return lambda t: np.copyto(out, np.correlate(y, y[::-1], "full")[: y.size])


@pytest.mark.parametrize("bind, y0, first_bad", [
    pytest.param(_inf_by_item_assignment, np.ones(3), 0.05, id="item-assignment"),
    pytest.param(_correlate_overflow, np.full(2, 1e200), 0.01, id="correlate"),
])
@pytest.mark.parametrize("at", ["every", None, (0.0,)])
def test_rk4_refuses_a_state_no_ufunc_saw_leave_float64(bind, y0, first_bad, at):
    # the range rule rests on no ufunc of the right-hand side overflowing: a
    # kept or final state that is not finite raises, naming the first kept
    # time that is not finite (t_end if none is), and no Run is returned
    every = sf.step_times(0.1, 0.01)
    named = first_bad if at == "every" else 0.1
    runs = []
    with pytest.raises(ValueError, match=rf"^the state leaves the float64 range by t={named:g}$"):
        runs.append(sf.rk4(bind, y0, 0.1, 0.01, at=every if at == "every" else at))
    assert runs == []


@pytest.mark.parametrize("at, missing", [
    ((0.5, 0.5005), "0.5005"),  # between two steps
    ((2.0, 0.5), "2.0"),  # past t_end
    ((-0.001,), "-0.001"),  # before t = 0
    ((0.5, math.nan), "nan"),
    ((math.inf,), "inf"),
])
def test_a_read_time_no_step_matches_is_a_key_error(at, missing):
    with pytest.raises(KeyError, match=f"time {missing} not stored in trajectory"):
        integrate_moments(ProcessParams(0.6, 0.5), 1.0, order=4, at=at)
    with pytest.raises(KeyError, match=f"time {missing} not stored in trajectory"):
        sf.s_trajectory(0.75, 1.0, 2, at=at)


def test_read_times_within_drift_find_their_step():
    # stored_index's tolerance: the rows are the full run's, at the stored times
    full = integrate_moments(ProcessParams(0.6, 0.5), 0.5, order=4,
                             at=sf.step_times(0.5, sf.DEFAULT_STEP))
    read = integrate_moments(ProcessParams(0.6, 0.5), 0.5, order=4,
                             at=(0.25 + 5e-10, 0.5 - 5e-10))
    assert read.times.tolist() == [full.times[250], full.times[500]]
    assert read.at(0.25).tobytes() == full.at(0.25).tobytes()
    with pytest.raises(KeyError):
        read.at(0.3)


@contextmanager
def _time_limit(seconds):
    """Raise in the test, instead of hanging tier-1, past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("t_end, h, steps", [
    (1e12, 1e-3, "1e+15"),
    (9_007_200.0, 1.0, "9.0072e+06"),  # one step past the limit
    (1e300, 1e-3, "1e+303"),
    (1e300, 1e-300, "inf"),  # t_end / h overflows
])
def test_a_read_time_run_past_the_step_limit_raises_before_stepping(t_end, h, steps):
    # nothing is allocated per step, so only the limit stops such a run
    message = f"^{re.escape(steps)} steps of h=.* a run with read times takes at most 9007199 steps"
    with _time_limit(20):
        with pytest.raises(ValueError, match=message):
            integrate_moments(ProcessParams(0.6, 0.5), t_end, order=8, h=h, at=(t_end,))
        with pytest.raises(ValueError, match=message):
            sf.s_trajectory(0.75, t_end, 2, h=h, at=(1.0,))
        # read at t_end alone, and asked for every step: the same limit, and
        # the trace system reports it as such, not as an overflow of its state
        with pytest.raises(ValueError, match=message):
            sf.rk4(bind_form(lambda t, y: -y), np.ones(2), t_end, h)
        with pytest.raises(ValueError, match=message):
            sf.s_trajectory(0.75, t_end, 2, h=h)
        with pytest.raises(ValueError, match=message):
            sf.step_times(t_end, h)


@settings(max_examples=60, deadline=None)
@given(h=st.one_of(st.floats(1e-3, 0.5), st.floats(1e-10, 2e-9)), steps=st.integers(0, 200),
       partial=st.sampled_from([0.0, 0.3, 0.9]))
@example(h=0.1, steps=0, partial=0.0)  # t_end = 0
@example(h=1e-10, steps=200, partial=0.3)  # the read tolerance spans ten steps
def test_a_run_read_at_its_step_times_keeps_every_step(h, steps, partial):
    # the accumulated times of the allocating reference loop, bit for bit
    t_end = (steps + partial) * h
    every = sf.step_times(t_end, h)
    rhs = lambda t, y: -y
    run = sf.rk4(bind_form(rhs), np.ones(2), t_end, h, at=every)
    assert run.steps == steps + (partial > 0)
    assert len(run[0]) == len(run[1]) == run.steps + 1
    assert run[0].tobytes() == every.tobytes()
    ref_times, ref_states = reference_rk4(rhs, np.ones(2), t_end, h)
    assert every.tobytes() == ref_times.tobytes()
    assert run[1].tobytes() == ref_states.tobytes()


def test_rk4_steps_and_partial_step():
    times, states = sf.rk4(bind_form(lambda t, y: np.cos(t) * y), np.ones(1), 1.05, 0.1,
                           at=sf.step_times(1.05, 0.1))
    assert len(times) == 12  # t = 0, ten full steps, one partial step
    assert times[-1] == 1.05
    assert states[-1][0] == pytest.approx(math.exp(math.sin(1.05)), rel=1e-6)
    times, _ = sf.rk4(bind_form(lambda t, y: -y), np.ones(1), 0.0, 0.1, at=sf.step_times(0.0, 0.1))
    assert list(times) == [0.0]


@pytest.mark.parametrize("t_end, rows", [(1.0, 11), (1.05, 12), (0.3, 4), (1.06, 12)])
def test_rk4_batched_state_matches_list_loop(t_end, rows):
    rate = np.array([[-1.0], [0.5]])
    rhs = lambda t, y: rate * np.cos(t) * y
    y0 = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.25]])
    every = sf.step_times(t_end, 0.1)
    times, states = sf.rk4(bind_form(rhs), y0, t_end, 0.1, at=every)
    assert states.shape == (rows, 2, 3)
    assert times[-1] == pytest.approx(t_end, abs=1e-15)
    ref_times, ref_states = reference_rk4(rhs, y0, t_end, 0.1)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(states, ref_states)
    for b in range(2):
        _, row = sf.rk4(bind_form(lambda t, y: rate[b, 0] * np.cos(t) * y), y0[b], t_end, 0.1,
                        at=every)
        assert np.array_equal(states[:, b], row)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 5.0, 40.0, 1500.0])
def test_ubm_moment_vector_is_bit_exact_with_single_moments(t):
    vec = sf.ubm_moment_vector(t, 300)
    assert all(vec[k - 1] == _single_ubm_moment(k, t) for k in range(1, 301))


@pytest.mark.parametrize("t", [0.0, 0.7, 2.0, 10.0])
def test_rho_series_is_bit_exact_with_plain_laguerre(t):
    order = 224 if t == 10.0 else 256  # rho_10 leaves float64 at k = 225
    coeffs = rho_series(t, order).coeffs
    for k in range(1, order + 1):
        assert coeffs[k] == _damped_laguerre1_reference(k - 1, k * t, 0.0) / k
        plain = _laguerre1_unscaled(k - 1, k * t) / k
        assert coeffs[k] == plain or not math.isfinite(plain)


def test_damped_laguerre_is_finite_past_the_laguerre_overflow():
    # L_255^1(2048) e^{-1024}: the Laguerre value alone is about -1e340
    value = sf.laguerre1(np.full(256, 2048.0), np.full(256, 1024.0))[255]
    assert math.isfinite(value) and value < 0
    mpmath = pytest.importorskip("mpmath")
    mantissa, exponent = _laguerre1_scaled_reference(255, 2048.0)
    ref = mpmath.mpf(mantissa) * mpmath.mpf(2) ** exponent * mpmath.exp(-1024)
    assert value == pytest.approx(float(ref), rel=1e-12)
    assert _laguerre1(255, 2048.0) == -math.inf


def test_rho_coefficients_are_ubm_moments_at_double_time():
    t = 3.0
    h = sf.rho_coefficients(2.0 * t, t, 64)
    assert h[0] == 0.0
    assert all(h[k] == _single_ubm_moment(k, 2.0 * t) for k in range(1, 65))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 600), st.floats(0.0, 50.0), st.floats(-1.0, 50.0))
def test_rho_coefficients_are_the_scalar_damped_laguerre_bit_for_bit(order, s, rate):
    # rates: none, the free unitary BM's s/2, and an arbitrary one (the
    # decomposition damps at t - log(2 - lambda), which may be negative)
    for decay_rate in (0.0, s / 2.0, rate):
        vec = sf.rho_coefficients(s, decay_rate, order)
        ref = [0.0] + [_damped_laguerre1_reference(k - 1, k * s, k * decay_rate) / k
                       for k in range(1, order + 1)]
        assert _bits(vec) == _bits(ref)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 50.0), st.integers(1, 64))
def test_s_closed_is_the_scalar_laguerre_at_2nt_bit_for_bit(t, order):
    # n (2t) and (2n) t are one correctly rounded product: doubling is exact
    ref = [_damped_laguerre1_reference(n - 1, 2.0 * n * t, 0.0) / n for n in range(1, order + 1)]
    assert _bits(sf.s_closed_theta_half(t, order)) == _bits(ref)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(-100.0, 3000.0), st.floats(-50.0, 3000.0)), max_size=300))
def test_laguerre_vector_carries_the_scalar_mantissa_and_exponent(pairs):
    xs = np.array([x for x, _ in pairs])
    mantissa, exponent = sf._laguerre1_scaled(xs)
    ref = [_laguerre1_scaled_reference(n, x) for n, (x, _) in enumerate(pairs)]
    assert _bits(mantissa) == _bits([m for m, _ in ref])
    assert exponent.tolist() == [e for _, e in ref]
    # and the damped values, at an arbitrary decay per entry
    damped = sf.laguerre1(xs, np.array([d for _, d in pairs]))
    assert _bits(damped) == _bits([_damped_laguerre1_reference(n, x, d)
                                   for n, (x, d) in enumerate(pairs)])


@pytest.mark.parametrize("order, s", [(300, 8.0), (600, 2.0), (64, 500.0)])
def test_laguerre_vector_rescales_exactly_the_scalar_entries(order, s):
    # the rescale has fired for some entries and not for the others
    x = np.arange(1, order + 1) * s
    mantissa, exponent = sf._laguerre1_scaled(x)
    assert 0 < np.count_nonzero(exponent) < order
    ref = [_laguerre1_scaled_reference(n, x[n]) for n in range(order)]
    assert _bits(mantissa) == _bits([m for m, _ in ref])
    assert exponent.tolist() == [e for _, e in ref]


def test_laguerre_vector_rescales_the_entries_beside_a_nan():
    x = np.arange(1, 65) * 500.0
    x[60] = math.nan
    mantissa, exponent = sf._laguerre1_scaled(x)
    ref = [_laguerre1_scaled_reference(n, x[n]) for n in range(64)]
    assert math.isnan(mantissa[60]) and exponent[60] == ref[60][1]
    mantissa[60], ref[60] = 0.0, (0.0, ref[60][1])
    assert _bits(mantissa) == _bits([m for m, _ in ref])
    assert exponent.tolist() == [e for _, e in ref]


def test_first_laguerre_value_is_rescaled_past_the_threshold():
    # L_1^1 = 2 - x is carried as-is up to 2**500 and rescaled past it
    for x, scaled in ((3.0, (-1.0, 0)), (2.0 - 2.0**500, (2.0**500, 0)), (2.0**600, (-0.5, 601))):
        assert _laguerre1_scaled_reference(1, x) == scaled
        mantissa, exponent = sf._laguerre1_scaled(np.array([0.0, x]))
        assert (mantissa.tolist(), exponent.tolist()) == ([1.0, scaled[0]], [0, scaled[1]])


@pytest.mark.parametrize("t, order", [(3.4e153, 4), (5.2e151, 256), (1e300, 4), (1e300, 256)])
def test_ubm_moments_finite_at_huge_time(t, order):
    # the scaled L_1^1 keeps (2k + 2 - x) L_1^1 in range: no NaN where k t is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = sf.ubm_moment_vector(t, order)
    assert np.all(np.isfinite(h)) and np.all(np.abs(h) <= 1.0)


@pytest.mark.parametrize("s, order", [(1e307, 256), (math.inf, 1), (math.nan, 4), (math.inf, 0)])
def test_rho_coefficients_reject_a_non_finite_argument(s, order):
    with pytest.raises(ValueError, match="Laguerre argument k s is not finite"):
        sf.rho_coefficients(s, 0.0, order)
    if math.isfinite(s):
        with pytest.raises(ValueError, match="not finite"):
            sf.ubm_moment_vector(s, order)
