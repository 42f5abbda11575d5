import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from freejacobi.combinatorics import binomial
from freejacobi.moments import (
    MomentTrajectory,
    ProcessParams,
    closed_form_moments,
    complement_moments,
    expansion_moments,
    integrate_moments,
    integrate_moments_batch,
    lambda_scaling_residual,
    recurrence_rhs,
    symmetric_binomial_moment,
)
from freejacobi.special_functions import rho_coefficients, s_trajectory
from freejacobi.transforms import mgf_closed_lambda1


def arcsine_vector(order):
    return np.array([binomial(2 * k, k) / 4.0**k for k in range(order + 1)])


class TestParams:
    def test_valid(self):
        p = ProcessParams(lam=0.5, theta=0.5)
        assert p.initial_vector(3).tolist() == [1, 1, 1, 1]

    def test_ge_mode_initial(self):
        p = ProcessParams(lam=1.6, theta=0.5, init_mode="nested_P_ge_Q")
        assert p.initial_vector(2)[1] == pytest.approx(1 / 1.6)

    def test_orthogonal_initial(self):
        p = ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal")
        assert p.initial_vector(3).tolist() == [1, 0, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ProcessParams(lam=2.0, theta=0.5)  # lam * theta = 1
        with pytest.raises(ValueError):
            ProcessParams(lam=1.5, theta=0.5, init_mode="nested_P_le_Q")
        with pytest.raises(ValueError):
            ProcessParams(lam=0.5, theta=0.5, init_mode="nested_P_ge_Q")
        with pytest.raises(ValueError):
            ProcessParams(lam=0.5, theta=0.9, init_mode="orthogonal")
        with pytest.raises(ValueError):
            ProcessParams(lam=0.5, theta=0.0)


class TestRhs:
    def test_first_component_is_linear(self):
        m = np.array([1.0, 0.7, 0.5, 0.4])
        out = recurrence_rhs(m, 0.8, 0.4)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(-0.7 + 0.4)

    def test_arcsine_is_stationary(self):
        m = arcsine_vector(16)
        assert np.max(np.abs(recurrence_rhs(m, 1.0, 0.5))) < 1e-14

    def test_all_ones_telescopes(self):
        m = np.ones(13)
        out = recurrence_rhs(m, 0.9, 0.7)
        n = np.arange(1, 13)
        assert np.allclose(out[1:], n * (0.7 - 1.0), atol=1e-13)


class TestIntegration:
    def test_first_moment_exact_solution(self):
        params = ProcessParams(lam=1.0, theta=0.5)
        traj = integrate_moments(params, 1.0, order=4)
        expected = 0.5 + 0.5 * math.exp(-1.0)
        assert traj.at(1.0)[1] == pytest.approx(expected, abs=1e-10)

    def test_converges_to_arcsine(self):
        params = ProcessParams(lam=1.0, theta=0.5)
        traj = integrate_moments(params, 30.0, order=10)
        assert np.max(np.abs(traj.at(30.0) - arcsine_vector(10))) < 1e-8

    def test_truncation_is_bitwise(self):
        params = ProcessParams(lam=0.7, theta=0.5)
        full = integrate_moments(params, 1.0, order=16, h=1e-2)
        half = integrate_moments(params, 1.0, order=8, h=1e-2)
        assert np.array_equal(full.values[:, :9], half.values)

    def test_monotone_contraction_moments(self):
        for init in ("nested_P_le_Q", "orthogonal"):
            params = ProcessParams(lam=0.6, theta=0.5, init_mode=init)
            traj = integrate_moments(params, 3.0, order=12, h=1e-3)
            for j in range(0, len(traj.times), 500):
                m = traj.values[j]
                assert np.all(m >= -1e-10)
                assert np.all(m <= 1 + 1e-10)
                assert np.all(np.diff(m) <= 1e-10)

    def test_time_lookup_is_strict(self):
        params = ProcessParams(lam=1.0, theta=0.5)
        traj = integrate_moments(params, 0.1, order=2, h=1e-3)
        with pytest.raises(KeyError):
            traj.at(0.0505)


class TestClosedForm:
    def test_matches_integration(self):
        params = ProcessParams(lam=1.0, theta=0.5)
        traj = integrate_moments(params, 2.0, order=12)
        for t in (0.25, 1.0, 2.0):
            assert np.max(np.abs(traj.at(t) - closed_form_moments(t, 12))) < 1e-9

    def test_m1(self):
        for t in (0.0, 0.5, 1.0, 3.0):
            assert closed_form_moments(t, 1)[1] == pytest.approx(
                (1 + math.exp(-t)) / 2, rel=1e-14
            )

    def test_t0_is_one(self):
        assert np.allclose(closed_form_moments(0.0, 16), 1.0, atol=1e-12)

    @given(st.integers(1, 16), st.floats(0.05, 4.0))
    def test_symmetric_binomial_identity(self, n, t):
        assert symmetric_binomial_moment(n, t) == pytest.approx(
            closed_form_moments(t, n)[n], abs=1e-12
        )

    @pytest.mark.parametrize("n", [512, 600])
    def test_symmetric_binomial_identity_past_order_511(self, n):
        # 4.0**n overflows float64 from n = 512; the weights must not
        assert abs(symmetric_binomial_moment(n, 1.0) - closed_form_moments(1.0, n)[n]) < 1e-12


class TestExpansion:
    def test_theta_half_reduces_to_closed_form(self):
        for t in (0.0, 0.5, 1.5, 3.0):
            exp_m = expansion_moments(0.5, t, 12)
            assert np.max(np.abs(exp_m - closed_form_moments(t, 12))) < 1e-10

    def test_initial_value_any_theta(self):
        # 4^n theta = 2^{2n-1} + (2 theta - 1) 2^{2n-1} makes m_n(0) = 1
        for theta in (0.25, 0.6, 0.75):
            exp_m = expansion_moments(theta, 0.0, 8)
            assert np.allclose(exp_m, 1.0, atol=1e-12)

    def test_first_moment_any_theta_matches_ode(self):
        # n = 1 never touches the questionable inhomogeneity: s_1 is exact
        theta = 0.75
        params = ProcessParams(lam=1.0, theta=theta)
        traj = integrate_moments(params, 1.0, order=2)
        exp_m = expansion_moments(theta, 1.0, 2, h=2e-4)
        assert exp_m[1] == pytest.approx(traj.at(1.0)[1], abs=1e-9)


class TestComplement:
    def test_initial_value(self):
        src = integrate_moments(
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"), 0.1, order=6
        )
        out = complement_moments(src)
        assert out.params == ProcessParams(lam=1.5, theta=0.5, init_mode="nested_P_ge_Q")
        assert np.allclose(out.at(0.0)[1:], 1 / 1.5, atol=1e-14)

    def test_two_route_consistency(self):
        src = integrate_moments(
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"), 1.0, order=10
        )
        direct = integrate_moments(
            ProcessParams(lam=1.5, theta=0.5, init_mode="nested_P_ge_Q"), 1.0, order=10
        )
        out = complement_moments(src)
        assert np.max(np.abs(out.at(1.0) - direct.at(1.0))) < 1e-8

    def test_matches_the_per_row_loop(self):
        src = integrate_moments(
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"), 1.0, order=10
        )
        out = complement_moments(src)
        for j in range(src.times.size):
            r = 0.25 * src.values[j]  # tau(P'') = lambda''/2 = 0.5/2
            ref = [1.0] + [
                (0.5 + sum((-1) ** k * binomial(n, k) * r[k] for k in range(1, n + 1))) / 0.75
                for n in range(1, 11)
            ]
            assert np.max(np.abs(out.values[j] - ref)) < 1e-14

    def test_parameter_mismatch_rejected(self):
        nested = integrate_moments(ProcessParams(lam=0.5, theta=0.5), 0.1, order=4)
        with pytest.raises(ValueError):
            complement_moments(nested)


def test_lambda_scaling():
    assert lambda_scaling_residual(0.5, 0.5, 2.0, order=12) < 1e-10
    assert lambda_scaling_residual(0.8, 0.4, 2.0, order=12) < 1e-10


@given(st.floats(0.1, 0.9), st.floats(0.1, 0.9))
def test_rhs_triangularity(lam, theta):
    rng = np.random.default_rng(12)
    m = np.concatenate([[1.0], rng.uniform(0, 1, 10)])
    full = recurrence_rhs(m, lam, theta)
    short = recurrence_rhs(m[:6], lam, theta)
    assert np.array_equal(full[:6], short)


def test_closed_form_moments_finite_at_large_order_and_time():
    # the plain L_{k-1}^1(2kt) overflows from n = 220 on at t = 5
    closed = closed_form_moments(5.0, 256)
    assert np.all(np.isfinite(closed))
    for n in (1, 64, 219, 220, 240, 256):
        assert abs(closed[n] - symmetric_binomial_moment(n, 5.0)) < 1e-12


def closed_form_reference(t, order):
    """The closed form as a scalar loop over exact binomials."""
    h = rho_coefficients(2.0 * t, t, order)
    out = np.empty(order + 1)
    out[0] = 1.0
    for n in range(1, order + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += binomial(2 * n, n - k) * h[k]
        out[n] = binomial(2 * n, n) / 4.0**n + 2.0 * acc / 4.0**n
    return out


def expansion_reference(theta, t, order, h=1e-3):
    """The word-count expansion as a scalar loop over exact binomials."""
    if theta == 0.5:
        scaled = rho_coefficients(2.0 * t, t, order)[1:]
    else:
        s = s_trajectory(theta, t, max(order, 1), h)[1][-1]
        scaled = np.exp(-np.arange(1, s.size + 1) * t) * s
    out = np.empty(order + 1)
    out[0] = 1.0
    for n in range(1, order + 1):
        acc = 0.5 * binomial(2 * n, n)
        for k in range(1, n + 1):
            acc += binomial(2 * n, n - k) * scaled[k - 1]
        acc += (2.0 * theta - 1.0) * 2.0 ** (2 * n - 1)
        out[n] = acc / (4.0**n * theta)
    return out


@pytest.mark.parametrize("order", [1, 2, 17, 64])
def test_weight_table_routes_equal_the_binomial_loops(order):
    for t in (0.0, 0.5, 2.0, 5.0):
        assert closed_form_moments(t, order).tobytes() == closed_form_reference(t, order).tobytes()
        assert (expansion_moments(0.5, t, order).tobytes()
                == expansion_reference(0.5, t, order).tobytes())
    for theta in (0.25, 0.75):
        assert (expansion_moments(theta, 0.5, order).tobytes()
                == expansion_reference(theta, 0.5, order).tobytes())


def test_closed_form_moments_finite_past_order_511():
    # 4.0**n overflows from n = 512, C(2n, n-k) as a float from n = 513
    closed = closed_form_moments(1.0, 512)
    assert np.all(np.isfinite(closed))
    assert np.max(np.abs(closed - mgf_closed_lambda1(1.0, 512).coeffs)) < 1e-10


def convolve_rhs(m, lam, theta):
    """The recurrence with the Cauchy product written as np.convolve."""
    order = m.size - 1
    out = np.zeros(order + 1)
    n = np.arange(1, order + 1)
    out[1:] = -n * m[1:] + theta * n * m[:-1]
    if order >= 2:
        conv = np.convolve(m[1:], m[:-1] - m[1:])
        out[2:] += lam * theta * n[1:] * conv[: order - 1]
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 8, 17, 32])
def test_batched_rhs_matches_convolution(order):
    rng = np.random.default_rng(order)
    m = np.concatenate([np.ones((4, 1)), rng.uniform(-1, 1, (4, order))], axis=1)
    lam = tuple(rng.uniform(0.1, 1.9, 4).tolist())
    theta = tuple(rng.uniform(0.05, 0.5, 4).tolist())
    batched = recurrence_rhs(m, lam, theta)
    assert batched.shape == m.shape
    for b in range(4):
        ref = convolve_rhs(m[b], lam[b], theta[b])
        assert np.max(np.abs(batched[b] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(recurrence_rhs(m[b], lam[b], theta[b]), batched[b])


@st.composite
def process_params(draw):
    mode = draw(st.sampled_from(["nested_P_le_Q", "nested_P_ge_Q", "orthogonal"]))
    if mode == "nested_P_le_Q":
        lam = draw(st.floats(0.05, 1.0))
        theta = draw(st.floats(0.05, 0.95))
    elif mode == "nested_P_ge_Q":
        lam = draw(st.floats(1.0, 1.9))
        theta = draw(st.floats(0.05, 0.95 / lam))
    else:
        lam = draw(st.floats(0.05, 1.9))
        theta = draw(st.floats(0.05, 1.0 / (1.0 + lam)))
    return ProcessParams(lam=lam, theta=theta, init_mode=mode)


MIXED = [
    ProcessParams(lam=0.4, theta=0.5),
    ProcessParams(lam=1.5, theta=0.5, init_mode="nested_P_ge_Q"),
    ProcessParams(lam=0.7, theta=0.3, init_mode="orthogonal"),
]


@settings(max_examples=40, deadline=None)
@given(st.lists(process_params(), min_size=1, max_size=4), st.integers(1, 32))
@example(MIXED, 1)
@example(MIXED, 2)
def test_batch_rows_equal_single_runs(params_seq, order):
    batch = integrate_moments_batch(params_seq, 0.05, order=order, h=1e-2)
    assert len(batch) == len(params_seq)
    for params, traj in zip(params_seq, batch):
        single = integrate_moments(params, 0.05, order=order, h=1e-2)
        assert traj.params == params and traj.order == order
        assert np.array_equal(traj.times, single.times)
        assert np.array_equal(traj.values, single.values)


def test_batch_needs_a_parameter_set():
    with pytest.raises(ValueError):
        integrate_moments_batch([], 1.0, order=4)


def test_expansion_moments_finite_at_large_order_and_time():
    # the theta = 1/2 traces are damped before they are stored
    expansion = expansion_moments(0.5, 5.0, 256)
    assert np.all(np.isfinite(expansion))
    assert np.max(np.abs(expansion - closed_form_moments(5.0, 256))) < 1e-12
