import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from scipy.special import eval_genlaguerre

from freejacobi import special_functions as sf
from freejacobi.moments import expansion_moments
from freejacobi.transforms import rho_series
from test_rk4_bit_identity import reference_rk4


def test_laguerre_low_degrees():
    assert sf.laguerre1(0, 7.3) == 1.0
    assert sf.laguerre1(1, 3.0) == -1.0  # 2 - x
    # L_2^1(x) = 3 - 3x + x^2/2, so L_2^1(2) = -1
    assert sf.laguerre1(2, 2.0) == pytest.approx(-1.0, abs=1e-14)
    # L_3^1(x) = 4 - 6x + 2x^2 - x^3/6
    for x in (0.0, 0.5, 1.7, 4.0):
        expected = 4 - 6 * x + 2 * x**2 - x**3 / 6
        assert sf.laguerre1(3, x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(st.integers(0, 40), st.floats(0.0, 120.0))
def test_laguerre_matches_scipy(n, x):
    ours = sf.laguerre1(n, x)
    ref = float(eval_genlaguerre(n, 1, x))
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10 * max(1.0, abs(ref)))


def _single_ubm_moment(n, t):
    """h_n(t) = L_{n-1}^1(nt) e^{-nt/2} / n, one moment at a time."""
    return sf.damped_laguerre1(n - 1, n * t, n * t / 2.0) / n


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
        assert sf.s_closed_theta_half(1, t) == 1.0
        assert sf.s_closed_theta_half(2, t) == pytest.approx(1 - 2 * t, rel=1e-13, abs=1e-13)
        assert sf.s_closed_theta_half(3, t) == pytest.approx(
            1 - 6 * t + 6 * t**2, rel=1e-12, abs=1e-12
        )


def test_s_trajectory_matches_closed_at_half():
    times, states = sf.s_trajectory(0.5, 1.0, 12, h=2e-4)
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    s_cl = np.array([sf.s_closed_theta_half(n, 1.0) for n in range(1, 13)])
    scale = np.maximum(1.0, np.abs(s_cl))
    assert np.max(np.abs(states[-1] - s_cl) / scale) < 1e-8


def test_scaled_traces_match_ubm_at_double_time():
    times, states = sf.s_trajectory(0.5, 2.0, 10, h=2e-4)
    for j in range(0, len(times), 1000):
        t = times[j]
        lhs = sf.damped_traces(states[j], t)
        assert lhs == pytest.approx(sf.ubm_moment_vector(2 * t, 10), abs=1e-10)


def test_unitarity_bound_on_scaled_traces():
    times, states = sf.s_trajectory(0.5, 4.0, 12, h=1e-3)
    for j in range(0, len(times), 200):
        for n in range(1, 13):
            assert abs(math.exp(-n * times[j]) * states[j][n - 1]) <= 1.0 + 1e-9


def test_s_system_general_weight_initial_value():
    # s_1(t) = 1 + (2 theta - 1)^2 (e^t - 1) is built into the rhs
    theta = 0.75
    times, states = sf.s_trajectory(theta, 1.0, 4, h=1e-3)
    c = (2 * theta - 1) ** 2
    assert states[-1][0] == pytest.approx(1 + c * (math.e - 1), rel=1e-10)
    assert np.all(states[0] == 1.0)


def test_one_trace_run_holds_each_shorter_run_bit_for_bit():
    # the general-theta suite reads one run to t = 2 at every grid time and
    # at t = 1 for its order-4 Bernoulli gate
    times, states = sf.s_trajectory(0.75, 2.0, 6, h=2e-4)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
        shorter = sf.s_trajectory(0.75, t, 6, h=2e-4)[1][-1]
        assert np.array_equal(states[sf.stored_index(times, t)], shorter)
    order_4 = sf.s_trajectory(0.75, 1.0, 4, h=2e-4)[1][-1]
    assert np.array_equal(states[sf.stored_index(times, 1.0)][:4], order_4)


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
        sf.laguerre1(-1, 0.0)
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
    assert sf.laguerre1(n, x) == plain
    mantissa, exponent = sf.laguerre1_scaled(n, x)
    assert math.ldexp(mantissa, exponent) == plain


def test_laguerre_overflow_is_infinite_not_nan():
    # L_255^1(2048) ~ -1e340: the unscaled recurrence overflows
    assert sf.laguerre1(255, 2048.0) == -math.inf
    mantissa, exponent = sf.laguerre1_scaled(255, 2048.0)
    assert math.log2(abs(mantissa)) + exponent > 1024


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
    times, states = sf.rk4(bind_form(lambda t, y: -y), np.ones(2), 1.0, 2.0)
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


@pytest.mark.parametrize("t_end, h, steps", [
    (1e12, 1e-3, "1e+15"),  # numpy cannot allocate it
    (1e300, 1e-3, "1e+303"),  # past numpy's largest dimension
    (1e300, 1e-300, "inf"),  # t_end / h overflows
])
def test_rk4_run_too_long_to_store_is_a_value_error(t_end, h, steps):
    with pytest.raises(ValueError, match=f"^{re.escape(steps)} steps of h="):
        sf.rk4(bind_form(lambda t, y: -y), np.ones(2), t_end, h)
    # the trace system reports it as such, not as an overflow of its state
    with pytest.raises(ValueError, match="bytes of stored times and states"):
        sf.s_trajectory(0.75, t_end, 2, h=h)


def test_rk4_steps_and_partial_step():
    times, states = sf.rk4(bind_form(lambda t, y: np.cos(t) * y), np.ones(1), 1.05, 0.1)
    assert len(times) == 12  # t = 0, ten full steps, one partial step
    assert times[-1] == 1.05
    assert states[-1][0] == pytest.approx(math.exp(math.sin(1.05)), rel=1e-6)
    times, _ = sf.rk4(bind_form(lambda t, y: -y), np.ones(1), 0.0, 0.1)
    assert list(times) == [0.0]


@pytest.mark.parametrize("t_end, rows", [(1.0, 11), (1.05, 12), (0.3, 4), (1.06, 12)])
def test_rk4_batched_state_matches_list_loop(t_end, rows):
    rate = np.array([[-1.0], [0.5]])
    rhs = lambda t, y: rate * np.cos(t) * y
    y0 = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.25]])
    times, states = sf.rk4(bind_form(rhs), y0, t_end, 0.1)
    assert states.shape == (rows, 2, 3)
    assert times[-1] == pytest.approx(t_end, abs=1e-15)
    ref_times, ref_states = reference_rk4(rhs, y0, t_end, 0.1)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(states, ref_states)
    for b in range(2):
        _, row = sf.rk4(bind_form(lambda t, y: rate[b, 0] * np.cos(t) * y), y0[b], t_end, 0.1)
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
        assert coeffs[k] == sf.laguerre1(k - 1, k * t) / k
        plain = _laguerre1_unscaled(k - 1, k * t) / k
        assert coeffs[k] == plain or not math.isfinite(plain)


def test_damped_laguerre_is_finite_past_the_laguerre_overflow():
    # L_255^1(2048) e^{-1024}: the Laguerre value alone is about -1e340
    value = sf.damped_laguerre1(255, 2048.0, 1024.0)
    assert math.isfinite(value) and value < 0
    mpmath = pytest.importorskip("mpmath")
    mantissa, exponent = sf.laguerre1_scaled(255, 2048.0)
    ref = mpmath.mpf(mantissa) * mpmath.mpf(2) ** exponent * mpmath.exp(-1024)
    assert value == pytest.approx(float(ref), rel=1e-12)
    assert sf.damped_laguerre1(255, 2048.0, 0.0) == -math.inf


def test_rho_coefficients_are_ubm_moments_at_double_time():
    t = 3.0
    h = sf.rho_coefficients(2.0 * t, t, 64)
    assert h[0] == 0.0
    assert all(h[k] == _single_ubm_moment(k, 2.0 * t) for k in range(1, 65))
