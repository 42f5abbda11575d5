import math
import runpy
import sys
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from freejacobi.combinatorics import binomial
from freejacobi.moments import (
    ProcessParams,
    closed_form_moments,
    complement_moments,
    expansion_moments,
    hierarchy,
    integrate_moments,
    integrate_moments_batch,
    lambda_scaling_residual,
    recurrence_rhs,
    symmetric_binomial_moment,
)
from freejacobi.special_functions import (DEFAULT_STEP, Run, damped_traces, rho_coefficients,
                                          rk4, s_trajectory, step_times, ubm_moment_vector)
from freejacobi.transforms import mgf_closed_lambda1


def run_traces(theta, t, order, h=1e-3):
    """Damped traces at t from the last state of one trace-system run."""
    return damped_traces(s_trajectory(theta, t, order, h)[1][-1], t)


# one run of each integrated system, stored at every step to t = 0.1 (h = 1e-3)
LOOKUP_RUNS = {
    "hierarchy": lambda: integrate_moments(ProcessParams(0.6, 0.5), 0.1, order=4,
                                           at=step_times(0.1, 1e-3)),
    "trace": lambda: s_trajectory(0.75, 0.1, 4, at=step_times(0.1, 1e-3)),
}


def arcsine_vector(order):
    return np.array([binomial(2 * k, k) / 4.0**k for k in range(order + 1)])


class TestParams:
    def test_valid(self):
        p = ProcessParams(lam=0.5, theta=0.5)
        assert p.initial_vector(3).tolist() == [1, 1, 1, 1]

    def test_ge_mode_initial(self):
        p = ProcessParams(lam=1.6, theta=0.5, init_mode="p-ge-q")
        assert p.initial_vector(2)[1] == pytest.approx(1 / 1.6)

    def test_orthogonal_initial(self):
        p = ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal")
        assert p.initial_vector(3).tolist() == [1, 0, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ProcessParams(lam=2.0, theta=0.5)  # lam * theta = 1
        with pytest.raises(ValueError):
            ProcessParams(lam=1.5, theta=0.5, init_mode="p-le-q")
        with pytest.raises(ValueError):
            ProcessParams(lam=0.5, theta=0.5, init_mode="p-ge-q")
        with pytest.raises(ValueError):
            ProcessParams(lam=0.5, theta=0.9, init_mode="orthogonal")
        with pytest.raises(ValueError):
            ProcessParams(lam=0.5, theta=0.0)

    def test_old_init_name_is_rejected_with_the_valid_names(self):
        with pytest.raises(ValueError) as exc:
            ProcessParams(lam=0.5, theta=0.5, init_mode="nested_P_le_Q")
        assert all(mode in str(exc.value) for mode in ("p-le-q", "p-ge-q", "orthogonal"))


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
        full = integrate_moments(params, 1.0, order=16, h=1e-2, at=step_times(1.0, 1e-2))
        half = integrate_moments(params, 1.0, order=8, h=1e-2, at=step_times(1.0, 1e-2))
        assert np.array_equal(full.values[:, :9], half.values)

    def test_monotone_contraction_moments(self):
        for init in ("p-le-q", "orthogonal"):
            params = ProcessParams(lam=0.6, theta=0.5, init_mode=init)
            traj = integrate_moments(params, 3.0, order=12, h=1e-3,
                                     at=step_times(3.0, 1e-3)[::500])
            assert len(traj.times) == 7
            for m in traj.values:
                assert np.all(m >= -1e-10)
                assert np.all(m <= 1 + 1e-10)
                assert np.all(np.diff(m) <= 1e-10)

    @pytest.mark.parametrize("system", LOOKUP_RUNS)
    def test_time_lookup_is_strict(self, system):
        run = LOOKUP_RUNS[system]()
        assert np.array_equal(run.at(0.05), run.values[50])
        with pytest.raises(KeyError):
            run.at(0.0505)

    @pytest.mark.parametrize("system", LOOKUP_RUNS)
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_not_stored(self, t, system):
        # argmin over NaN or inf distances picks index 0, the t = 0 state
        run = LOOKUP_RUNS[system]()
        with pytest.raises(KeyError):
            run.at(t)


class TestClosedForm:
    def test_matches_integration(self):
        params = ProcessParams(lam=1.0, theta=0.5)
        traj = integrate_moments(params, 2.0, order=12, at=(0.25, 1.0, 2.0))
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
            exp_m = expansion_moments(0.5, ubm_moment_vector(2.0 * t, 12))
            assert np.max(np.abs(exp_m - closed_form_moments(t, 12))) < 1e-10

    def test_initial_value_any_theta(self):
        # 4^n theta = 2^{2n-1} + (2 theta - 1) 2^{2n-1} makes m_n(0) = 1
        for theta in (0.25, 0.6, 0.75):
            exp_m = expansion_moments(theta, run_traces(theta, 0.0, 8))
            assert np.allclose(exp_m, 1.0, atol=1e-12)

    def test_first_moment_any_theta_matches_ode(self):
        # n = 1 never touches the questionable inhomogeneity: s_1 is exact
        theta = 0.75
        params = ProcessParams(lam=1.0, theta=theta)
        traj = integrate_moments(params, 1.0, order=2)
        exp_m = expansion_moments(theta, run_traces(theta, 1.0, 2, h=2e-4))
        assert exp_m[1] == pytest.approx(traj.at(1.0)[1], abs=1e-9)


class TestComplement:
    def test_initial_value(self):
        src = integrate_moments(
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"), 0.1, order=6, at=(0.0,)
        )
        out = complement_moments(src)
        assert out.params == ProcessParams(lam=1.5, theta=0.5, init_mode="p-ge-q")
        assert np.allclose(out.at(0.0)[1:], 1 / 1.5, atol=1e-14)

    def test_two_route_consistency(self):
        src = integrate_moments(
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"), 1.0, order=10
        )
        direct = integrate_moments(
            ProcessParams(lam=1.5, theta=0.5, init_mode="p-ge-q"), 1.0, order=10
        )
        out = complement_moments(src)
        assert np.max(np.abs(out.at(1.0) - direct.at(1.0))) < 1e-8

    def test_matches_the_per_row_loop(self):
        src = integrate_moments(
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"), 1.0, order=10,
            at=step_times(1.0, DEFAULT_STEP),
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
    assert lambda_scaling_residual([0.5], 0.5, 2.0, order=12)[0] < 1e-10
    assert lambda_scaling_residual([0.8], 0.4, 2.0, order=12)[0] < 1e-10


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
    """The word-count expansion as a scalar loop over exact binomials, in
    the closed form's order: C(2n, n), then 2 sum_k C(2n, n-k) x_k, then
    (2 theta - 1) 4^n, over 4^n 2 theta."""
    if theta == 0.5:
        scaled = rho_coefficients(2.0 * t, t, order)[1:]
    else:
        s = s_trajectory(theta, t, max(order, 1), h)[1][-1]
        scaled = np.exp(-np.arange(1, s.size + 1) * t) * s
    out = np.empty(order + 1)
    out[0] = 1.0
    for n in range(1, order + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += binomial(2 * n, n - k) * scaled[k - 1]
        total = binomial(2 * n, n) + 2.0 * acc + (2.0 * theta - 1.0) * 4.0**n
        out[n] = total / (4.0**n * (2.0 * theta))
    return out


@pytest.mark.parametrize("order", [1, 2, 17, 64])
def test_weight_table_routes_equal_the_binomial_loops(order):
    for t in (0.0, 0.5, 2.0, 5.0):
        assert closed_form_moments(t, order).tobytes() == closed_form_reference(t, order).tobytes()
        assert (expansion_moments(0.5, ubm_moment_vector(2.0 * t, order)).tobytes()
                == expansion_reference(0.5, t, order).tobytes())
    for theta in (0.25, 0.75):
        assert (expansion_moments(theta, run_traces(theta, 0.5, order)).tobytes()
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
    mode = draw(st.sampled_from(["p-le-q", "p-ge-q", "orthogonal"]))
    if mode == "p-le-q":
        lam = draw(st.floats(0.05, 1.0))
        theta = draw(st.floats(0.05, 0.95))
    elif mode == "p-ge-q":
        lam = draw(st.floats(1.0, 1.9))
        theta = draw(st.floats(0.05, 0.95 / lam))
    else:
        lam = draw(st.floats(0.05, 1.9))
        theta = draw(st.floats(0.05, 1.0 / (1.0 + lam)))
    return ProcessParams(lam=lam, theta=theta, init_mode=mode)


MIXED = [
    ProcessParams(lam=0.4, theta=0.5),
    ProcessParams(lam=1.5, theta=0.5, init_mode="p-ge-q"),
    ProcessParams(lam=0.7, theta=0.3, init_mode="orthogonal"),
]


@settings(max_examples=40, deadline=None)
@given(st.lists(process_params(), min_size=1, max_size=4), st.integers(1, 32))
@example(MIXED, 1)
@example(MIXED, 2)
def test_batch_rows_equal_single_runs(params_seq, order):
    every = step_times(0.05, 1e-2)
    batch = integrate_moments_batch(params_seq, 0.05, order=order, h=1e-2, at=every)
    assert len(batch) == len(params_seq)
    for params, traj in zip(params_seq, batch):
        single = integrate_moments(params, 0.05, order=order, h=1e-2, at=every)
        assert traj.params == params and traj.order == order
        assert np.array_equal(traj.times, single.times)
        assert np.array_equal(traj.values, single.values)


@pytest.mark.parametrize("t_end, h, partial", [
    (1.0, 0.1, False), (1.05, 0.1, True), (0.3, 0.1, False), (0.0, 0.1, False),
    (2.0, 1e-3, False), (0.0105, 1e-3, True), (0.05, 1.0, True),
])
@pytest.mark.parametrize("at", [None, (), "ends"])
def test_steps_count_every_rk4_step_whatever_is_stored(t_end, h, partial, at):
    at = (0.0, t_end) if at == "ends" else at
    traj = integrate_moments(ProcessParams(0.6, 0.5), t_end, order=4, h=h, at=at)
    assert traj.steps == math.floor(t_end / h + 1e-9) + partial
    source = integrate_moments(ProcessParams(0.5, 0.5, "orthogonal"), t_end, order=4, h=h, at=at)
    assert complement_moments(source).steps == traj.steps


def test_a_hierarchy_state_past_float64_raises_in_rk4():
    # past the stability interval, with no check of the caller's: rk4 itself
    # refuses the overflow instead of returning m_1 = 1.2e227 and NaN
    y0 = ProcessParams(1.0, 0.5).initial_vector(32)
    with pytest.raises(ValueError, match=r"^the state leaves the float64 range by t=\d"):
        rk4(hierarchy(1.0, 0.5), y0, 1000.0, 5.0)


STABLE = 2.785 / 32


@pytest.mark.parametrize("t_end, h, stable", [
    (200.0, STABLE, True), (200.0, 2.8 / 32, False),
    # a run of one partial step takes t_end as its step
    (STABLE, 1.0, True), (2.8 / 32, 1.0, False),
])
@pytest.mark.parametrize("init, lam", [("p-le-q", 0.6), ("p-ge-q", 1.5), ("orthogonal", 0.6)])
def test_a_hierarchy_step_must_lie_in_rk4s_stability_interval(t_end, h, stable, init, lam):
    params = ProcessParams(lam, 0.4, init)
    if stable:
        values = integrate_moments(params, t_end, order=32, h=h).at(t_end)
        assert np.all((values >= 0.0) & (values <= 1.0))
    else:
        with pytest.raises(ValueError, match=r"needs step x order <= 2\.785$"):
            integrate_moments(params, t_end, order=32, h=h)


def test_lambda_scaling_residual_refuses_an_order_past_the_stability_interval():
    # 2786 x the default step 1e-3
    with pytest.raises(ValueError, match=r"^a step of 0\.001 at order 2786 is past"):
        lambda_scaling_residual([0.5], 0.5, 1.0, order=2786)


def test_a_hand_built_trajectory_counts_no_steps():
    assert Run(np.zeros(1), np.ones((1, 3)), params=ProcessParams(0.6, 0.5)).steps is None


@pytest.mark.parametrize("t_end", [3.0, 30.0])
def test_the_density_suites_integration_stores_one_state(t_end):
    # the density suite reads the lambda scan at t = 30 alone; storing every
    # step took 30,001 x 27 floats (6.5 MB)
    params = [ProcessParams(lam=lam, theta=0.5) for lam in (0.4, 0.6, 0.8)]
    tracemalloc.start()
    try:
        trajs = integrate_moments_batch(params, t_end, order=8, at=(t_end,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    # the accumulated time, within drift of t_end
    assert [traj.times.size for traj in trajs] == [1] * 3
    assert abs(trajs[0].times[0] - t_end) <= 1e-9 * t_end


def test_batch_needs_a_parameter_set():
    with pytest.raises(ValueError):
        integrate_moments_batch([], 1.0, order=4)


def test_expansion_moments_finite_at_large_order_and_time():
    # the theta = 1/2 traces are damped before they are stored
    expansion = expansion_moments(0.5, ubm_moment_vector(10.0, 256))
    assert np.all(np.isfinite(expansion))
    assert np.max(np.abs(expansion - closed_form_moments(5.0, 256))) < 1e-12


def test_bench_layers_script_prints_five_rows_and_the_scan(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--repeats", "1", "--calls", "10",
                                      "--t", "0.01"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    # one reference sample before each of the 2 x 5 x 1 + 2 density timed repeats
    assert lines[0].startswith("reference loop ") and "(median of 12 samples;" in lines[0]
    assert [line.split("  bound")[0] for line in lines[1:6]] == [
        "B=1  order= 8", "B=3  order= 8", "B=1  order=32", "B=3  order=32",
        "trace  order=12"]
    assert all(line.count(" us") == 4 and "at reference speed:" in line for line in lines[1:6])
    assert len(lines) == 9 and lines[6].startswith("three-lambda scan to t=0.01: batched ")
    assert "at reference speed" in lines[6]
