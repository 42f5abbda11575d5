"""The bound, in-place right-hand sides against the allocating ones they
replaced.

``reference_rhs``, ``reference_s_system_rhs`` and ``reference_rk4`` are the
allocating moment-hierarchy right-hand side, trace-system right-hand side
and RK4 loop that the bound right-hand sides (``moments.hierarchy`` and the
one in ``special_functions.s_trajectory``) and preallocated stage buffers
replaced, kept verbatim as the bit-for-bit reference: every operation and
its order are unchanged, so every integrated bit must be too.  The
trace-system reference's source term is the corrected n^2 c^2 e^{nt} in the
same allocating form; at theta = 1/2 (c = 0) it is the replaced one.  The
moment reference takes a row-major (B, order+1) batch, the bound
right-hand side its order-major transpose.  A binding owns its
coefficients and scratch, so integrations running in several threads at
once must give the serial bits as well.
"""

import math
import sys
import threading
from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.lib.stride_tricks import sliding_window_view

from freejacobi.moments import (
    INIT_MODES,
    ProcessParams,
    hierarchy,
    integrate_moments_batch,
    lambda_scaling_residual,
    recurrence_rhs,
)
from freejacobi.special_functions import DEFAULT_STEP, rk4, s_trajectory, step_times, trace_system


@lru_cache(maxsize=16)
def _workspace(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diffs slot of a zero-padded buffer, Toeplitz window over that buffer,
    n = 1..order) for a state shape; see ``recurrence_rhs``."""
    order = shape[-1] - 1
    k = max(order - 1, 1)
    # buf = (0, ..., 0, d_0, ..., d_{k-1}); window[j, i] = buf[k-1+j-i],
    # which is d_{j-i} for i <= j and 0 above the diagonal
    buf = np.zeros(shape[:-1] + (2 * k - 1,))
    window = sliding_window_view(buf, k, axis=-1)[..., ::-1]
    return buf[..., k - 1 :], window, np.arange(1.0, order + 1)


def reference_rhs(m: np.ndarray, lam, theta) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    out = np.zeros(m.shape)
    order = m.shape[-1] - 1
    if order == 0:
        return out
    diffs, window, n = _workspace(m.shape)
    # theta n m_{n-1} - n m_n, written in place
    linear = out[..., 1:]
    np.multiply(theta * n, m[..., :-1], out=linear)
    linear -= n * m[..., 1:]
    if order >= 2:
        np.subtract(m[..., :-2], m[..., 1:-1], out=diffs)
        conv = window @ m[..., 1:-1, None]
        out[..., 2:] += lam * theta * n[1:] * conv[..., 0]
    return out


def reference_s_system_rhs(t: float, s: np.ndarray, theta: float) -> np.ndarray:
    order = s.size
    c = 2.0 * theta - 1.0
    out = np.zeros(order)
    if order >= 2:
        conv = np.convolve(s, s)
        out[1:] = -np.arange(2, order + 1) * conv[: order - 1]
    if c != 0.0:
        n = np.arange(1, order + 1)
        out += np.exp(n * t) * (n * n * (c * c))
    return out


def reference_rk4(rhs, y0: np.ndarray, t_end: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    if not h > 0:
        raise ValueError("step must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    y0 = np.asarray(y0, dtype=float)
    steps = math.floor(t_end / h + 1e-9)
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


def reference_batch(params_seq, t_end, order, h):
    """The batched integration as it ran on the allocating path: (times,
    states of shape (steps, B, order+1))."""
    y0 = np.stack([p.initial_vector(order) for p in params_seq])
    if len(params_seq) == 1:
        y0, lam, theta = y0[0], params_seq[0].lam, params_seq[0].theta
    else:
        lam = np.array([[p.lam] for p in params_seq])
        theta = np.array([[p.theta] for p in params_seq])
    times, states = reference_rk4(lambda t, m: reference_rhs(m, lam, theta), y0, t_end, h)
    return times, states.reshape(times.size, len(params_seq), order + 1)


MIXED = [
    ProcessParams(lam=0.4, theta=0.5),
    ProcessParams(lam=1.5, theta=0.3, init_mode="p-ge-q"),
    ProcessParams(lam=0.6, theta=0.35, init_mode="orthogonal"),
]


def assert_batch_identical(params_seq, t_end, order, h):
    trajs = integrate_moments_batch(params_seq, t_end, order=order, h=h, at=step_times(t_end, h))
    times, states = reference_batch(params_seq, t_end, order, h)
    for b, traj in enumerate(trajs):
        assert traj.times.tobytes() == times.tobytes()
        assert traj.values.tobytes() == states[:, b].tobytes()


@pytest.mark.parametrize("order", [1, 2, 8, 32])
@pytest.mark.parametrize("t_end", [0.3, 0.305])  # 30 steps; 30 steps and a partial one
@pytest.mark.parametrize("rows", [slice(None), slice(1, 2)])
def test_batch_is_bit_identical_to_the_allocating_path(order, t_end, rows):
    assert_batch_identical(MIXED[rows], t_end, order, 1e-2)


def test_density_batch_is_bit_identical_to_the_allocating_path():
    params = [ProcessParams(lam=lam, theta=0.5) for lam in (0.4, 0.6, 0.8)]
    assert_batch_identical(params, 0.5, 8, DEFAULT_STEP)


@pytest.mark.parametrize("lam, theta", [(0.5, 0.5), (0.8, 0.4)])
def test_lambda_scaling_residual_is_bit_identical(lam, theta):
    m0 = ProcessParams(lam=lam, theta=theta).initial_vector(12)
    coupling = np.array([[lam], [1.0]])
    rhs = lambda t, y: reference_rhs(y, coupling, theta)
    _, states = reference_rk4(rhs, np.stack([m0, m0 * lam]), 2.0, DEFAULT_STEP)
    want = float(np.max(np.abs(lam * states[:, 0] - states[:, 1])))
    assert lambda_scaling_residual([lam], theta, 2.0, order=12)[0].hex() == want.hex()


@pytest.mark.parametrize("theta", [0.5, 0.4])
def test_lambda_scaling_residual_batch_is_each_lambda_alone(theta):
    # each row of a two-lambda batch has the bits of its one-lambda batch,
    # which the test above pins to the reference at (0.5, 0.5) and (0.8, 0.4)
    got = lambda_scaling_residual((0.5, 0.8), theta, 2.0, order=12)
    want = [lambda_scaling_residual([lam], theta, 2.0, order=12)[0] for lam in (0.5, 0.8)]
    assert [r.hex() for r in got] == [w.hex() for w in want]


# theta = 1/2 writes d/dt s_1 once and skips the source; 0.75 runs the
# source through the binding's scratch.  t_end = 1.005 ends on a partial
# step, order 12 is the laguerre suite's, order 1 has no convolution.
@pytest.mark.parametrize("theta, t_end, order, h", [
    pytest.param(theta, t_end, order, h, id=f"{theta}{label}")
    for label, t_end, order, h in [("", 1.0, 6, 1e-2), ("-partial-step", 1.005, 6, 1e-2),
                                   ("-order-12", 0.5, 12, 2e-4), ("-order-1", 0.2, 1, 1e-2)]
    for theta in (0.5, 0.75)
])
def test_s_trajectory_is_bit_identical(theta, t_end, order, h):
    times, states = s_trajectory(theta, t_end, order, h=h, at=step_times(t_end, h))
    rhs = lambda t, y: reference_s_system_rhs(t, y, theta)
    ref_times, ref_states = reference_rk4(rhs, np.ones(order), t_end, h)
    assert times.tobytes() == ref_times.tobytes()
    assert states.tobytes() == ref_states.tobytes()


@st.composite
def process_params(draw):
    """A valid parameter set of any start geometry and theta in [0.05, 0.95]."""
    mode = draw(st.sampled_from(INIT_MODES))
    theta = draw(st.floats(0.05, 0.95))
    low, high = {"p-le-q": (0.01, 1.0), "p-ge-q": (1.0, 0.999 / theta),
                 "orthogonal": (0.01, 0.999 * (1.0 / theta - 1.0))}[mode]
    return ProcessParams(draw(st.floats(low, high)), theta, mode)


@settings(max_examples=25, deadline=None)
@given(params=st.lists(process_params(), min_size=1, max_size=6),
       order=st.sampled_from([1, 2, 5, 16]), data=st.data())
def test_a_column_of_a_batch_is_its_set_run_alone(params, order, data):
    # 64 steps of h = 1e-2, every state kept
    every = step_times(0.64, 1e-2)
    b = data.draw(st.integers(0, len(params) - 1))
    column = integrate_moments_batch(params, 0.64, order=order, h=1e-2, at=every)[b]
    alone = integrate_moments_batch([params[b]], 0.64, order=order, h=1e-2, at=every)[0]
    assert column.steps == alone.steps == 64
    assert column.times.tobytes() == alone.times.tobytes()
    assert column.values.tobytes() == alone.values.tobytes()


@settings(max_examples=30, deadline=None)
@given(h=st.sampled_from([1e-2, 2e-2, 0.03, 5e-3]), steps=st.integers(0, 40),
       partial=st.booleans(), data=st.data())
def test_read_times_keep_the_full_runs_rows(h, steps, partial, data):
    # each drawn index j becomes the read time j h (t_end for the partial
    # step), in any order and with repeats; the run keeps one row per
    # distinct read time, with the full run's bits
    t_end = steps * h + (h / 3 if partial else 0.0)
    rows = steps + 1 + partial
    picks = data.draw(st.lists(st.integers(0, rows - 1), max_size=8))
    at = [min(j * h, t_end) for j in picks]
    kept = sorted(set(picks))
    every = step_times(t_end, h)
    full = integrate_moments_batch(MIXED, t_end, order=8, h=h, at=every)
    read = integrate_moments_batch(MIXED, t_end, order=8, h=h, at=at)
    for whole, part in zip(full, read):
        assert whole.times.size == rows
        assert part.times.tobytes() == whole.times[kept].tobytes()
        assert part.values.tobytes() == whole.values[kept].tobytes()
        assert part.steps == whole.steps == steps + partial
    times, states = s_trajectory(0.75, t_end, 6, h=h, at=every)
    part_times, part_states = s_trajectory(0.75, t_end, 6, h=h, at=at)
    assert part_times.tobytes() == times[kept].tobytes()
    assert part_states.tobytes() == states[kept].tobytes()


def test_consecutive_calls_follow_the_parameters():
    # consecutive calls at one shape with different parameters: coefficients
    # kept per shape alone would carry the first call's parameters over
    rng = np.random.default_rng(7)
    m = np.concatenate([np.ones((3, 1)), rng.uniform(0, 1, (3, 8))], axis=1)
    for lam, theta in [((0.4, 0.6, 0.8), (0.5, 0.5, 0.5)),
                       ((0.9, 1.2, 0.3), (0.3, 0.45, 0.7)),
                       ((0.4, 0.6, 0.8), (0.2, 0.5, 0.5))]:
        want = reference_rhs(m, np.array(lam)[:, None], np.array(theta)[:, None])
        assert recurrence_rhs(m, lam, theta).tobytes() == want.tobytes()
    for lam, theta in [(0.4, 0.5), (0.7, 0.5), (0.7, 0.25)]:
        assert recurrence_rhs(m[0], lam, theta).tobytes() == reference_rhs(m[0], lam, theta).tobytes()


def test_concurrent_integrations_give_the_serial_bits():
    # four threads integrate at once, switching as often as the interpreter
    # allows: scratch shared between bindings would mix their stages.  Each
    # runs a hierarchy batch and the theta = 0.75 trace system, whose
    # binding carries e^{nt} times the source in its own scratch
    params = [ProcessParams(lam=lam, theta=0.5) for lam in (0.4, 0.6, 0.8)]

    def run():
        trajs = integrate_moments_batch(params, 1.0, order=16, at=step_times(1.0, DEFAULT_STEP))
        traces = s_trajectory(0.75, 1.0, 12, h=2e-3, at=step_times(1.0, 2e-3))[1]
        return b"".join(traj.values.tobytes() for traj in trajs) + traces.tobytes()

    want = run()
    got = [None] * 4
    start = threading.Barrier(len(got))

    def worker(i):
        start.wait(timeout=60)
        got[i] = run()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [g == want for g in got] == [True] * len(got)


def _closure_arrays(rhs):
    cells = (cell.cell_contents for cell in rhs.__closure__)
    return [value for value in cells if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("factory, shape", [
    pytest.param(lambda: hierarchy((0.4, 0.6, 0.8), (0.5,) * 3), (9, 3), id="hierarchy-batch"),
    pytest.param(lambda: hierarchy(0.6, 0.45), (17,), id="hierarchy-flat"),
    pytest.param(lambda: trace_system(0.75, 12), (12,), id="trace-system"),
])
def test_two_bindings_never_share_a_buffer(factory, shape):
    # what the concurrent test cannot see: scratch shared between bindings
    # gives the serial bits whenever the threads happen not to interleave
    bind = factory()
    first, second = (bind(np.ones(shape), np.empty(shape)) for _ in range(2))
    arrays = _closure_arrays(first), _closure_arrays(second)
    assert all(len(a) >= 5 for a in arrays)
    assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])


def test_float_tuple_and_column_parameters_agree():
    rng = np.random.default_rng(8)
    m = np.concatenate([np.ones((3, 1)), rng.uniform(0, 1, (3, 8))], axis=1)
    want = reference_rhs(m, 0.6, 0.45)
    for lam in (0.6, (0.6,) * 3):
        for theta in (0.45, (0.45,) * 3):
            assert recurrence_rhs(m, lam, theta).tobytes() == want.tobytes()


def test_results_do_not_alias_the_scratch_buffers():
    rng = np.random.default_rng(9)
    m1, m2 = (np.concatenate([np.ones((3, 1)), rng.uniform(0, 1, (3, 8))], axis=1)
              for _ in range(2))
    lam, theta = (0.4, 0.6, 0.8), (0.5, 0.5, 0.5)
    first = recurrence_rhs(m1, lam, theta)
    kept = first.copy()
    second = recurrence_rhs(m2, lam, theta)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
    # the bound kernel on the order-major state: column b is row b of m1
    out = np.full(m1.T.shape, np.nan)
    hierarchy(lam, theta)(np.ascontiguousarray(m1.T), out)()
    assert out.T.tobytes() == kept.tobytes()


def _columns(values):
    return np.array(values)[:, None] if isinstance(values, tuple) else values


LAMS, THETAS = (0.4, 0.9, 1.3, 0.7, 1.1), (0.5, 0.35, 0.6, 0.45, 0.25)


def _order_major(m: np.ndarray) -> np.ndarray:
    """The (order+1, B) state whose column b is row b of m."""
    return np.ascontiguousarray(m.T)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 10, 32])
@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("per_row", [False, True])
def test_bound_kernel_matches_the_reference(order, rows, per_row):
    rng = np.random.default_rng(100 * order + rows)
    m = np.concatenate([np.ones((rows, 1)), rng.uniform(0, 1, (rows, order))], axis=1)
    lam, theta = (LAMS[:rows], THETAS[:rows]) if per_row else (0.7, 0.45)
    # row 1 is the orthogonal start, exact zeros past m_0; row 2 a
    # lambda-scaling row, v_0 = 1.3 != 1
    m[1:2, 1:] = 0.0
    m[2:3, 0] = 1.3
    want = reference_rhs(m, _columns(lam), _columns(theta))
    state = _order_major(m)
    out = np.full(state.shape, np.nan)
    rhs = hierarchy(lam, theta)(state, out)
    rhs(0.0)
    assert out.T.tobytes() == want.tobytes()
    # the bound call reads the state's current contents: negative entries
    # and exact zeros
    m[:, 1:] = rng.uniform(-1, 1, (rows, order)) * (rng.uniform(0, 1, (rows, order)) > 0.2)
    state[...] = m.T
    rhs(0.0)
    want = reference_rhs(m, _columns(lam), _columns(theta))
    assert out.T.tobytes() == want.tobytes()
    # a flat row with float parameters, as decomposition passes one
    for b in range(rows):
        lam_b = lam[b] if per_row else lam
        theta_b = theta[b] if per_row else theta
        assert recurrence_rhs(m[b], lam_b, theta_b).tobytes() == want[b].tobytes()


def test_the_cauchy_sum_adds_in_increasing_index():
    # sum_{i<=j} d_{j-i} m_{i+1}, from +0.0 in increasing i, as a plain loop
    # adds it: a window the matmul hands to BLAS would add in another order
    order, rows = 40, 3
    rng = np.random.default_rng(40)
    m = np.concatenate([np.ones((rows, 1)), rng.uniform(-1, 1, (rows, order))], axis=1)
    lam, theta = LAMS[:rows], THETAS[:rows]
    want = np.zeros(m.shape)
    for b, row in enumerate(m.tolist()):
        d = [row[i] - row[i + 1] for i in range(order - 1)]
        for n in range(1, order + 1):
            conv = 0.0
            for i in range(n - 1):
                conv += d[n - 2 - i] * row[i + 1]
            linear = theta[b] * n * row[n - 1] - n * row[n]
            want[b, n] = linear + lam[b] * theta[b] * n * conv if n >= 2 else linear
    state = _order_major(m)
    out = np.empty(state.shape)
    hierarchy(lam, theta)(state, out)()
    assert out.T.tobytes() == want.tobytes()
    for b in range(rows):
        flat = np.empty(order + 1)
        hierarchy(lam[b], theta[b])(m[b].copy(), flat)()
        assert flat.tobytes() == want[b].tobytes()


def test_mixed_init_modes_through_the_bound_kernel():
    # the three geometries in one batch; the orthogonal start is all zeros
    # past m_0
    order, t_end = 16, 0.2505
    y0 = np.stack([p.initial_vector(order) for p in MIXED])
    lam = tuple(p.lam for p in MIXED)
    theta = tuple(p.theta for p in MIXED)
    times, states = rk4(hierarchy(lam, theta), _order_major(y0), t_end, DEFAULT_STEP,
                        at=step_times(t_end, DEFAULT_STEP))
    rhs = lambda t, m: reference_rhs(m, _columns(lam), _columns(theta))
    ref_times, ref_states = reference_rk4(rhs, y0, t_end, DEFAULT_STEP)
    assert times.tobytes() == ref_times.tobytes()
    assert states.transpose(0, 2, 1).tobytes() == ref_states.tobytes()


@pytest.mark.parametrize("shape", [(9,), (1, 9), (3, 9)])
def test_column_zero_is_positive_zero(shape):
    rng = np.random.default_rng(11)
    m = -rng.uniform(0.1, 1, shape)
    lam, theta = ((0.4, 0.6, 0.8)[: shape[0]], (0.5,) * shape[0]) if len(shape) == 2 else (0.6, 0.5)
    out = recurrence_rhs(m, lam, theta)
    assert not np.signbit(out[..., 0]).any()
    assert (out[..., 0] == 0.0).all()


def test_rows_stay_independent_when_one_overflows():
    rng = np.random.default_rng(12)
    m = np.concatenate([np.ones((2, 1)), rng.uniform(0, 1, (2, 8))], axis=1)
    m[0, -1] = np.inf
    with np.errstate(invalid="ignore"):
        out = recurrence_rhs(m, (0.4, 0.6), (0.5, 0.5))
    assert out[1].tobytes() == reference_rhs(m[1], 0.6, 0.5).tobytes()


@pytest.mark.parametrize("steps", [10, 1000])
def test_rk4_binds_once_per_stage(steps):
    calls = []

    def bind(y, out):
        calls.append((y, out))
        return lambda t: np.multiply(-1.0, y, out)

    t_end = steps * 1e-3
    times, states = rk4(bind, np.ones(3), t_end, 1e-3, at=step_times(t_end, 1e-3))
    assert len(times) == steps + 1
    assert len(calls) == 4
    # each stage binds its own output, and no bound buffer is a stored state
    assert len({id(out) for _, out in calls}) == 4
    assert not any(np.shares_memory(buf, states) for call in calls for buf in call)


def test_bound_arrays_must_be_contiguous():
    # a reshaped copy of a strided output would take the writes and drop them
    m = np.ones((9, 3))
    out = np.empty((3, 9)).T
    with pytest.raises(ValueError, match="C-contiguous"):
        hierarchy((0.4, 0.6, 0.8), (0.5,) * 3)(m, out)
