"""Moment hierarchy of the free Jacobi process.

The moments m_n(t) = tau(J_t^n)/tau(P) close into a triangular ODE system

    d/dt m_n = -n m_n + theta n m_{n-1}
               + lambda theta n sum_{k=0}^{n-2} m_{n-k-1} (m_k - m_{k+1})

valid for any initial data, which this module integrates with fixed-step
classical RK4.  Its right-hand side, ``hierarchy(lam, theta)``, builds its
coefficients and scratch buffers when ``rk4`` binds it, so nothing outlives
one integration and concurrent integrations share no buffer.
``integrate_moments_batch`` stacks several parameter sets (lambda, theta
and start geometry, ``INIT_MODES``, may differ) as the columns of one
order-major (order+1, B) state and advances them in a single RK4 loop, so
a scan over lambda is one integration; ``integrate_moments`` is its batch
of one.  The module also provides the closed-form route at the symmetric
parameter point, the expansion route at rank ratio one, which reads damped
traces it is handed, and the complement transform, which reads a "p-ge-q"
run at rank ratio 2 - lambda'' in [1, 2) off an "orthogonal" run at
lambda''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import binomial, symmetric_weights
from .special_functions import (DEFAULT_STEP, _full_steps, rk4, step_times, stored_index,
                                ubm_moment_vector)

DEFAULT_ORDER = 32

INIT_MODES = ("p-le-q", "p-ge-q", "orthogonal")


@dataclass(frozen=True)
class ProcessParams:
    """Parameter pair (lambda, theta) plus the initial-condition geometry.

    ``lam`` is the rank ratio tau(P)/tau(Q), ``theta`` = tau(Q).  Validity
    requires 0 < theta < 1 and 0 < lam * theta < 1.  ``init_mode`` is one of
    ``INIT_MODES``, the values of ``moments --init``: "p-le-q" (P <= Q, moments
    start at 1), "p-ge-q" (P >= Q, at 1/lam) or "orthogonal" (P Q = 0, at 0).
    """

    lam: float
    theta: float
    init_mode: str = "p-le-q"

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not 0.0 < self.lam * self.theta < 1.0:
            raise ValueError("lambda * theta must lie in (0, 1)")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init_mode!r}; expected one of {INIT_MODES}")
        if self.init_mode == "p-le-q" and self.lam > 1.0:
            raise ValueError("P <= Q requires lambda <= 1")
        if self.init_mode == "p-ge-q" and self.lam < 1.0:
            raise ValueError("P >= Q requires lambda >= 1")
        if self.init_mode == "orthogonal" and self.theta * (1.0 + self.lam) > 1.0:
            raise ValueError("orthogonal P, Q require tau(P) + tau(Q) <= 1")

    def initial_vector(self, order: int) -> np.ndarray:
        """Initial moments (m_0, ..., m_order); m_0 = 1 always."""
        m = np.empty(order + 1)
        m[0] = 1.0
        if self.init_mode == "p-le-q":
            m[1:] = 1.0
        elif self.init_mode == "p-ge-q":
            m[1:] = 1.0 / self.lam
        else:
            m[1:] = 0.0
        return m


def hierarchy(lam, theta):
    """The hierarchy's right-hand side at (lambda, theta), as ``rk4`` takes
    it: ``bind(m, out)`` returns ``rhs(t=None)``, which writes the
    derivative at the current contents of ``m`` into ``out``.

    The state is order-major: row n of an (order+1, B) state holds m_n of
    B parameter sets, column b being set b, and a 1-D state is one set.
    ``lam`` and ``theta`` are floats, or tuples with one value per column.
    ``bind`` builds the coefficients, the scratch buffers and every view
    for its own ``m`` and ``out`` (C-contiguous, same shape, not
    overlapping), so no two bindings share a buffer.  It writes
    dm_0/dt = 0 once and ``rhs`` never writes row 0, so nothing but ``rhs``
    may write ``out``.

    m_{n-1}, m_n and each term of all B sets are contiguous blocks of the
    flat state, so every ufunc runs on one 1-D slice: the linear terms
    theta n m_{n-1} - n m_n, then the Cauchy product
    sum_{k=0}^{n-2} m_{n-k-1} (m_k - m_{k+1}), times (lambda theta) n.  The
    product is one matmul per column of a lower-triangular Toeplitz window
    of the differences with (m_1, ..., m_{order-1}); the window is a
    strided view over a zero-padded buffer, so the matmul runs numpy's
    sequential (non-BLAS) loop, which adds each sum in increasing k.
    """
    lam, theta = (np.asarray(x, dtype=float) for x in (lam, theta))

    def bind(m: np.ndarray, out: np.ndarray):
        if not (m.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("the state and the output must be C-contiguous")
        order, width = m.shape[0] - 1, m[0].size
        m_flat, out_flat = m.reshape(-1), out.reshape(-1)
        out_flat[:width] = 0.0
        multiply, subtract, add, matmul = np.multiply, np.subtract, np.add, np.matmul
        n = np.arange(1.0, order + 1)[:, None]
        # x n for x = theta, 1 and lam theta (lam * theta is rounded first),
        # order-major and flat: entry (n-1) width + b is column b's x times n
        theta_n, n_flat, coupling = (
            (np.broadcast_to(x, m.shape[1:]).reshape(1, width) * n).reshape(-1)
            for x in (theta, 1.0, lam * theta))
        tmp = np.empty(n_flat.shape)
        prev, cur, linear = m_flat[:-width], m_flat[width:], out_flat[width:]
        quadratic = order >= 2
        if quadratic:
            k = order - 1
            coupling = coupling[width:]  # n = 2..order
            # buf = (0, ..., 0, d_0, ..., d_{k-1}) per column; window[b, j, i] =
            # buf[k-1+j-i, b], which is d_{j-i} for i <= j and 0 above the diagonal
            buf = np.zeros((2 * k - 1, width))
            diffs = buf.reshape(-1)[(k - 1) * width :]
            window = sliding_window_view(buf, k, axis=0)[..., ::-1].transpose(1, 0, 2)
            low, mid = m_flat[: -2 * width], m_flat[width:-width]
            mid_col = mid.reshape(k, width).T[..., None]
            conv = np.empty(k * width)
            conv_col = conv.reshape(k, width).T[..., None]
            tail = out_flat[2 * width :]

        def rhs(t=None):
            # theta n m_{n-1} - n m_n, written in place
            multiply(theta_n, prev, linear)
            multiply(n_flat, cur, tmp)
            subtract(linear, tmp, linear)
            if quadratic:
                subtract(low, mid, diffs)
                matmul(window, mid_col, conv_col)
                multiply(coupling, conv, conv)
                add(tail, conv, tail)
        return rhs
    return bind


def _require_stable_run(t_end: float, h: float, order: int) -> None:
    """A ValueError for order < 1, then for a run past ``rk4``'s step limit,
    then unless the run's largest step (h, or t_end for a run of one partial
    step) times order is at most 2.785.  m_n enters its own equation only
    through -n m_n, so the Jacobian is lower-triangular with diagonal
    -1, ..., -order, and RK4's stability interval on the real axis ends at
    -2.7853: past it a run grows without bound."""
    if order < 1:
        raise ValueError("order must be >= 1")
    largest = h if _full_steps(t_end, h) else t_end
    if largest * order > 2.785:
        raise ValueError(f"a step of {largest:g} at order {order} is past RK4's stability "
                         "interval: the moment hierarchy needs step x order <= 2.785")


def recurrence_rhs(m: np.ndarray, lam, theta) -> np.ndarray:
    """Time derivative of the moment vectors (component 0 is +0.0), in a
    new array.

    ``m`` is a float array of shape (..., order+1): one moment vector per
    leading index.  ``lam`` and ``theta`` are floats, or tuples with one
    value per row of a (B, order+1) batch.  Each row's arithmetic does not
    depend on the others, so a row of a batch is bit-identical to the same
    row passed alone.  One call of a fresh ``hierarchy(lam, theta)``
    binding on an order-major copy of ``m``, the right-hand side the
    integrators bind once per stage.

    The quadratic sum is empty for n = 1.  Component 0 of ``m`` is read
    as-is rather than assumed to be 1: the rescaled system v_n = lam m_n has
    lambda replaced by 1 and v_0 = lam, and ``lambda_scaling_residual``
    integrates it at coupling 1.0 beside the m-columns of one batch.
    """
    state = np.ascontiguousarray(np.moveaxis(m, -1, 0), dtype=float)
    out = np.empty(state.shape)
    hierarchy(lam, theta)(state, out)()
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


@dataclass
class MomentTrajectory:
    """Time-indexed moment vectors of one parameter set.

    ``values[q]`` is (m_0, ..., m_order) at ``times[q]``, one row per read
    time of the run (see ``rk4``).  ``steps`` is the number of RK4 steps
    the run took, the partial step included, however few it stored (None
    for a trajectory no run made).  ``at(t)`` is the row at a stored time
    t, a KeyError for any other.
    """

    params: ProcessParams
    times: np.ndarray
    values: np.ndarray
    steps: int | None = None

    @property
    def order(self) -> int:
        return self.values.shape[-1] - 1

    def at(self, t: float) -> np.ndarray:
        return self.values[stored_index(self.times, t)]


def integrate_moments_batch(
    params_seq,
    t_end: float,
    order: int = DEFAULT_ORDER,
    h: float = DEFAULT_STEP,
    at=None,
) -> list[MomentTrajectory]:
    """Integrate several parameter sets in one RK4 loop.

    The initial vectors are the columns of an order-major (order+1, B)
    state, each with its own lambda and theta (init modes may differ too);
    one ``rk4`` call advances them together, ``hierarchy`` bound once to
    each stage's buffers.  Trajectory b holds column b of the stored
    states, bit-identical to ``integrate_moments(params_seq[b], ...)``, as
    a view into one shared (rows, B, order+1) array, a row per read time
    in ``at`` (t_end alone by default, see ``rk4``).  A step past RK4's
    stability interval is a ValueError.
    """
    params_seq = list(params_seq)
    if not params_seq:
        raise ValueError("need at least one parameter set")
    _require_stable_run(t_end, h, order)
    y0 = np.stack([p.initial_vector(order) for p in params_seq], axis=1)
    lam = tuple(p.lam for p in params_seq)
    theta = tuple(p.theta for p in params_seq)
    run = rk4(hierarchy(lam, theta), y0, t_end, h, at)
    times, states = run[0], np.ascontiguousarray(run[1].transpose(0, 2, 1))
    return [
        MomentTrajectory(params=p, times=times, values=states[:, b], steps=run.steps)
        for b, p in enumerate(params_seq)
    ]


def integrate_moments(
    params: ProcessParams,
    t_end: float,
    order: int = DEFAULT_ORDER,
    h: float = DEFAULT_STEP,
    at=None,
) -> MomentTrajectory:
    """Integrate the hierarchy from the params' initial data up to t_end.

    The run stores the state at t_end, or the step at each read time in
    ``at`` (see ``rk4``; ``step_times`` reads every step).  Deterministic
    for fixed (params, order, h).  A batch of one: see
    ``integrate_moments_batch``.
    """
    return integrate_moments_batch([params], t_end, order, h, at)[0]


# ---------------------------------------------------------------------------
# Closed-form and expansion routes (lambda = 1)
# ---------------------------------------------------------------------------

def closed_form_moments(t: float, order: int) -> np.ndarray:
    """Vector (m_0, ..., m_order) of the closed-form route at time t:
    m_n = W[n, 0] + 2 sum_{k=1}^{n} W[n, k] h_k(2t) with the weights
    W = ``symmetric_weights(order)`` and the free unitary Brownian motion
    moments h_k(2t) = L_{k-1}^1(2kt) e^{-kt} / k, finite for every t >= 0
    and every order (``ubm_moment_vector``).  The word-count sum of
    ``expansion_moments`` at theta = 1/2, where it adds 0 and divides by 1.
    """
    return expansion_moments(0.5, ubm_moment_vector(2.0 * t, order))


def weighted_row_sums(x: np.ndarray) -> np.ndarray:
    """S_n = sum_{k=1}^{n} W[n, k] x_k for n = 0..order over
    x = (x_1, ..., x_order), W = ``symmetric_weights``, added term by term
    in increasing k (numpy's pairwise sum would move last bits); S_0 = 0
    and no x_k with k > n enters S_n.
    """
    order = x.size
    w = symmetric_weights(order)
    acc = np.zeros(order + 1)
    for k in range(1, order + 1):
        acc[k:] += w[k:, k] * x[k - 1]
    return acc


def symmetric_binomial_moment(n: int, t: float) -> float:
    """Same moment written as the symmetric binomial average of the free
    unitary Brownian motion moments: sum_{k=-n}^{n} 4^{-n} C(2n, n-k) h_{|k|}(2t),
    with h_0 = 1.  Each weight is one correctly rounded int/int division, so
    no term overflows at any n."""
    if n == 0:
        return 1.0
    h = np.concatenate(([1.0], ubm_moment_vector(2.0 * t, n)))
    acc = 0.0
    scale = 4**n
    for k in range(-n, n + 1):
        acc += math.comb(2 * n, n - k) / scale * h[abs(k)]
    return float(acc)


def expansion_moments(theta: float, damped: np.ndarray) -> np.ndarray:
    """Moment vector (m_0..m_order) from the word-count expansion at
    rank ratio one over ``damped`` = (e^{-kt} s_k(t))_{k=1..order} at one t:

    m_n = [ W[n, 0] + 2 sum_{k=1}^{n} W[n, k] e^{-kt} s_k(t)
            + 2 theta - 1 ] / (2 theta)

    with W = ``symmetric_weights(order)``, summed in that order.  The
    odd-word correction 2 theta - 1 is 0 at theta = 1/2, where the last two
    steps are exact.  The damped traces are tau(Z_t^k), Z_t = a Y_t a Y_t^*
    with a = 2Q - 1, from one trace-system run (``damped_traces``); at
    theta = 1/2 they equal h_k(2t) (``ubm_moment_vector(2t, order)``),
    which ``closed_form_moments`` hands in.  The trace system's source
    n^2 c^2 e^{nt} comes from free Ito calculus through tau(a Z^k) = c =
    2 theta - 1, since a and Y a Y^* square to 1 (see the module notes in
    ``special_functions``).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    w0 = symmetric_weights(damped.size)[:, 0]
    out = (w0 + 2.0 * weighted_row_sums(damped) + (2.0 * theta - 1.0)) / (2.0 * theta)
    out[0] = 1.0
    return out


# ---------------------------------------------------------------------------
# Parameter transforms
# ---------------------------------------------------------------------------

def complement_moments(source: MomentTrajectory) -> MomentTrajectory:
    """Moments for rank ratio lambda' = 2 - lambda'' in [1, 2) from an
    orthogonal-start run at rank ratio lambda''.

    The source must be integrated at theta = 1/2 with orthogonal initial
    data, which forces lambda'' <= 1.  Writing r_k = tau(P'') m_k with
    tau(P'') = lambda''/2, the complement projection 1 - P'' has trace
    lambda'/2 and

        m'_n = [ tau(Q) + sum_{k=1}^n (-1)^k C(n,k) r_k ] / (lambda'/2).
    """
    p = source.params
    if p.theta != 0.5:
        raise ValueError("complement transform requires theta = 1/2")
    if p.init_mode != "orthogonal":
        raise ValueError("source trajectory must use orthogonal initial data")
    lambda_prime = 2.0 - p.lam
    tau_p = p.lam / 2.0
    tau_q = 0.5
    norm = lambda_prime / 2.0
    order = source.order
    # signs[k - 1, n - 1] = (-1)^k C(n, k), zero for k > n: one product for all times
    signs = np.array(
        [[(-1) ** k * binomial(n, k) for n in range(1, order + 1)] for k in range(1, order + 1)],
        dtype=float,
    )
    out = np.empty_like(source.values)
    out[:, 0] = 1.0
    out[:, 1:] = (tau_q + (tau_p * source.values[:, 1:]) @ signs) / norm
    params = ProcessParams(lam=lambda_prime, theta=0.5, init_mode="p-ge-q")
    return MomentTrajectory(params=params, times=source.times.copy(), values=out,
                            steps=source.steps)


def lambda_scaling_residual(lams, theta: float, t_end: float, order: int) -> np.ndarray:
    """Max deviation between lam * m_n(t) and the rescaled system v_n(t),
    one per lambda in ``lams``.

    v_n = lam m_n satisfies the recurrence with the quadratic coupling
    constant set to theta alone (lambda = 1) and v_0 = lam; integrating
    both from the nested P <= Q start at the default step and comparing
    validates the scaling reduction at every step.  Every lambda's m-column
    and v-column run in one (order+1, 2B) batch.
    """
    _require_stable_run(t_end, DEFAULT_STEP, order)
    lams = tuple(lams)
    m0 = np.array([ProcessParams(lam=lam, theta=theta).initial_vector(order) for lam in lams]).T
    scale = np.array(lams)
    # columns 0..B-1: m_n at (lam, theta); B..2B-1: v_n from v_0 = lam, v_n(0) = lam m_n(0)
    coupling = lams + (1.0,) * len(lams)
    _, states = rk4(hierarchy(coupling, theta), np.concatenate([m0, m0 * scale], axis=1), t_end,
                    DEFAULT_STEP, at=step_times(t_end, DEFAULT_STEP))
    m, v = np.split(states, 2, axis=2)
    # |scale m - v|, written over m: no run-sized temporaries
    np.multiply(scale, m, out=m)
    np.subtract(m, v, out=m)
    np.abs(m, out=m)
    return np.max(m, axis=(0, 1))
