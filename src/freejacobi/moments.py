"""Moment hierarchy of the free Jacobi process.

The moments m_n(t) = tau(J_t^n)/tau(P) close into a triangular ODE system

    d/dt m_n = -n m_n + theta n m_{n-1}
               + lambda theta n sum_{k=0}^{n-2} m_{n-k-1} (m_k - m_{k+1})

valid for any initial data, which this module integrates with fixed-step
classical RK4.  Its right-hand side, ``hierarchy(lam, theta)``, builds its
coefficients and scratch buffers when ``rk4`` binds it, so nothing outlives
one integration and concurrent integrations share no buffer.
``integrate_moments_batch`` stacks several parameter sets (lambda, theta
and initial geometry may all differ) into one (B, order+1) state and
advances them in a single RK4 loop, so a scan over lambda is one
integration; ``integrate_moments`` is its batch of one.  The module also
provides the closed-form route at the symmetric parameter point, the
combinatorial-expansion route for rank ratio one, and the complement
transform, which reads rank ratio 2 - lambda'' in [1, 2) off an
orthogonal-start run at lambda''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import binomial, symmetric_weights
from .special_functions import (
    DEFAULT_STEP,
    rho_coefficients,
    rk4,
    s_trajectory,
    ubm_moment,
)

DEFAULT_ORDER = 32

INIT_MODES = ("nested_P_le_Q", "nested_P_ge_Q", "orthogonal")


@dataclass(frozen=True)
class ProcessParams:
    """Parameter pair (lambda, theta) plus the initial-condition geometry.

    ``lam`` is the rank ratio tau(P)/tau(Q), ``theta`` = tau(Q).  Validity
    requires 0 < theta < 1 and 0 < lam * theta < 1.  The three init modes
    encode the projection geometries P <= Q (moments start at 1), P >= Q
    (start at 1/lam) and P orthogonal to Q (start at 0).
    """

    lam: float
    theta: float
    init_mode: str = "nested_P_le_Q"

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not 0.0 < self.lam * self.theta < 1.0:
            raise ValueError("lambda * theta must lie in (0, 1)")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init_mode!r}")
        if self.init_mode == "nested_P_le_Q" and self.lam > 1.0:
            raise ValueError("P <= Q requires lambda <= 1")
        if self.init_mode == "nested_P_ge_Q" and self.lam < 1.0:
            raise ValueError("P >= Q requires lambda >= 1")
        if self.init_mode == "orthogonal" and self.theta * (1.0 + self.lam) > 1.0:
            raise ValueError("orthogonal P, Q require tau(P) + tau(Q) <= 1")

    def initial_vector(self, order: int) -> np.ndarray:
        """Initial moments (m_0, ..., m_order); m_0 = 1 always."""
        m = np.empty(order + 1)
        m[0] = 1.0
        if self.init_mode == "nested_P_le_Q":
            m[1:] = 1.0
        elif self.init_mode == "nested_P_ge_Q":
            m[1:] = 1.0 / self.lam
        else:
            m[1:] = 0.0
        return m


def hierarchy(lam, theta):
    """The hierarchy's right-hand side at (lambda, theta), as ``rk4`` takes
    it: ``bind(m, out)`` returns ``rhs(t=None)``, which writes the
    derivative at the current contents of ``m`` into ``out``.

    ``lam`` and ``theta`` are floats, or tuples with one value per row of a
    (B, order+1) state.  ``bind`` builds the coefficients, the scratch
    buffers and every view for its own ``m`` and ``out`` (C-contiguous,
    same shape, not overlapping), so no two bindings share a buffer.  It
    zeroes column 0 of ``out`` once, so nothing but ``rhs`` may write
    ``out``.

    The linear terms run on the state laid end to end, one row after
    another: position p of the flat output gets theta p' m_{p-1} - p' m_p,
    where p' is p's column, and the coefficients are 0 at the columns
    where a row's m_0 lands.  The Cauchy product
    sum_{k=0}^{n-2} m_{n-k-1} (m_k - m_{k+1}) is one matmul of a
    lower-triangular Toeplitz window of the differences with
    (m_1, ..., m_{order-1}); the window is a strided view over a
    zero-padded buffer, so the matmul runs numpy's sequential (non-BLAS)
    loop.  The sum lands in a zero-padded buffer of the state's shape and
    is added flat as well.
    """
    if isinstance(lam, tuple):
        lam = np.array(lam)[:, None]
    if isinstance(theta, tuple):
        theta = np.array(theta)[:, None]

    def bind(m: np.ndarray, out: np.ndarray):
        if not (m.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("the state and the output must be C-contiguous")
        order, rows = m.shape[-1] - 1, m.shape[:-1]
        col0 = out[..., 0]
        col0.fill(0.0)
        multiply, subtract, add, matmul = np.multiply, np.subtract, np.add, np.matmul
        n = np.arange(1.0, order + 1)
        theta_n, n_flat = np.zeros((2,) + m.shape)
        theta_n[..., 1:] = theta * n
        n_flat[..., 1:] = n
        theta_n, n_flat = theta_n.reshape(-1)[1:], n_flat.reshape(-1)[1:]
        tmp = np.empty(n_flat.shape)
        m_flat, out_flat = m.reshape(-1), out.reshape(-1)
        prev, cur, linear = m_flat[:-1], m_flat[1:], out_flat[1:]
        quadratic = order >= 2
        if quadratic:
            k = order - 1
            # (lam theta) n: lam * theta is rounded first
            coupling = np.ascontiguousarray(np.broadcast_to(lam * theta * n[1:], rows + (k,)))
            # buf = (0, ..., 0, d_0, ..., d_{k-1}); window[j, i] = buf[k-1+j-i],
            # which is d_{j-i} for i <= j and 0 above the diagonal
            buf = np.zeros(rows + (2 * k - 1,))
            diffs = buf[..., k - 1 :]
            window = sliding_window_view(buf, k, axis=-1)[..., ::-1]
            low, mid = m[..., :-2], m[..., 1:-1]
            mid_col = mid[..., None]
            conv = np.empty(rows + (k, 1))
            conv_col = conv[..., 0]
            sums = np.zeros(m.shape)  # columns 0 and 1 stay zero
            quad, quad_flat = sums[..., 2:], sums.reshape(-1)
        # the linear ufuncs write 0 * (previous row's m_order) into every
        # row's column 0 after the first, NaN if that is inf
        several_rows = col0.size > 1

        def rhs(t=None):
            # theta n m_{n-1} - n m_n, written in place
            multiply(theta_n, prev, linear)
            multiply(n_flat, cur, tmp)
            subtract(linear, tmp, linear)
            if quadratic:
                subtract(low, mid, diffs)
                matmul(window, mid_col, conv)
                multiply(coupling, conv_col, quad)
                add(out_flat, quad_flat, out_flat)
            if several_rows:
                col0.fill(0.0)
        return rhs
    return bind


def recurrence_rhs(m: np.ndarray, lam, theta) -> np.ndarray:
    """Time derivative of the moment vectors (component 0 is +0.0), in a
    new array.

    ``m`` is a float array of shape (..., order+1): one moment vector per
    leading index.  ``lam`` and ``theta`` are floats, or tuples with one
    value per row of a (B, order+1) batch.  Each row's arithmetic does not
    depend on the others, so a row of a batch is bit-identical to the same
    row passed alone.  One call of a fresh ``hierarchy(lam, theta)``
    binding, the right-hand side the integrators bind once per stage.

    The quadratic sum is empty for n = 1.  Component 0 of ``m`` is read
    as-is rather than assumed to be 1, so the rescaled system v_n = lam m_n
    (which satisfies the same recurrence with lambda replaced by 1 and
    v_0 = lam) can reuse this function.
    """
    m = np.ascontiguousarray(m, dtype=float)
    out = np.empty(m.shape)
    hierarchy(lam, theta)(m, out)()
    return out


@dataclass
class MomentTrajectory:
    """Time-indexed moment vectors of one parameter set.

    ``values[j]`` is (m_0, ..., m_order) at ``times[j]``.
    """

    params: ProcessParams
    times: np.ndarray
    values: np.ndarray

    @property
    def order(self) -> int:
        return self.values.shape[-1] - 1

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        # tolerance covers float accumulation drift only; a request halfway
        # between stored steps must fail loudly rather than snap to a neighbor
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} not stored in trajectory")
        return idx

    def at(self, t: float) -> np.ndarray:
        return self.values[self.index_of(t)]


def integrate_moments_batch(
    params_seq,
    t_end: float,
    order: int = DEFAULT_ORDER,
    h: float = DEFAULT_STEP,
) -> list[MomentTrajectory]:
    """Integrate several parameter sets in one RK4 loop.

    The initial vectors are stacked into a (B, order+1) state, each row
    with its own lambda and theta (init modes may differ too), and one
    ``rk4`` call advances them together, with the hierarchy's right-hand
    side (``hierarchy``) bound once to each stage's buffers.  Row b of the
    result is bit-identical to ``integrate_moments(params_seq[b], ...)``;
    the trajectories' values are views into one shared (steps, B, order+1)
    array.
    """
    params_seq = list(params_seq)
    if not params_seq:
        raise ValueError("need at least one parameter set")
    if order < 1:
        raise ValueError("order must be >= 1")
    y0 = np.stack([p.initial_vector(order) for p in params_seq])
    lam = tuple(p.lam for p in params_seq)
    theta = tuple(p.theta for p in params_seq)
    times, states = rk4(hierarchy(lam, theta), y0, t_end, h)
    return [
        MomentTrajectory(params=p, times=times, values=states[:, b])
        for b, p in enumerate(params_seq)
    ]


def integrate_moments(
    params: ProcessParams,
    t_end: float,
    order: int = DEFAULT_ORDER,
    h: float = DEFAULT_STEP,
) -> MomentTrajectory:
    """Integrate the hierarchy from the params' initial data up to t_end.

    Every RK4 step is stored, so intermediate times that are multiples of
    ``h`` can be read back exactly.  Deterministic for fixed
    (params, order, h).  A batch of one: see ``integrate_moments_batch``.
    """
    return integrate_moments_batch([params], t_end, order, h)[0]


# ---------------------------------------------------------------------------
# Closed-form and expansion routes (lambda = 1)
# ---------------------------------------------------------------------------

def closed_form_moments(t: float, order: int) -> np.ndarray:
    """Vector (m_0, ..., m_order) of the closed-form route at time t:
    m_n = W[n, 0] + 2 sum_{k=1}^{n} W[n, k] h_k(2t) with the weights
    W = ``symmetric_weights(order)`` and the damped Laguerre terms
    h_k(2t) = L_{k-1}^1(2kt) e^{-kt} / k, finite for every t >= 0 and
    every order (see ``rho_coefficients``).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    h = rho_coefficients(2.0 * t, t, order)  # h[0] = 0: the k = 0 term is W[n, 0]
    return symmetric_weights(order)[:, 0] + 2.0 * weighted_row_sums(h)


def weighted_row_sums(x: np.ndarray) -> np.ndarray:
    """S_n = sum_{k=0}^{n} W[n, k] x_k for n = 0..order, W = ``symmetric_weights``,
    added term by term in increasing k (numpy's pairwise sum would move last
    bits); no x_k with k > n enters S_n.
    """
    w = symmetric_weights(x.size - 1)
    acc = w[:, 0] * x[0]
    for k in range(1, x.size):
        acc[k:] += w[k:, k] * x[k]
    return acc


def symmetric_binomial_moment(n: int, t: float) -> float:
    """Same moment written as the symmetric binomial average of the free
    unitary Brownian motion moments: sum_{k=-n}^{n} 4^{-n} C(2n, n-k) h_{|k|}(2t).
    Each weight is one correctly rounded int/int division, so no term
    overflows at any n."""
    if n == 0:
        return 1.0
    acc = 0.0
    scale = 4**n
    for k in range(-n, n + 1):
        acc += math.comb(2 * n, n - k) / scale * ubm_moment(abs(k), 2.0 * t)
    return acc


def expansion_moments(
    theta: float,
    t: float,
    order: int,
    h: float = DEFAULT_STEP,
) -> np.ndarray:
    """Moment vector (m_0..m_order) from the word-count expansion at
    rank ratio one:

    m_n = [ W[n, 0] + 2 sum_{k=1}^{n} W[n, k] e^{-kt} s_k(t)
            + 2 theta - 1 ] / (2 theta)

    with W = ``symmetric_weights(order)``.  The odd-word correction
    2 theta - 1 enters only away from theta = 1/2.  At theta = 1/2 the
    damped traces e^{-kt} s_k are the Laguerre closed form h_k(2t).
    Elsewhere the s_k come from integrating the stated trace system, whose
    consistency is an open question; treat results as experimental.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    if theta == 0.5:
        scaled = rho_coefficients(2.0 * t, t, order)
    else:
        s = s_trajectory(theta, t, max(order, 1), h)[1][-1]
        scaled = np.exp(-np.arange(order + 1) * t)
        scaled[1:] *= s[:order]
    scaled[0] = 0.5  # the k = 0 term W[n, 0] enters the doubled row sum first, halved
    out = (2.0 * weighted_row_sums(scaled) + (2.0 * theta - 1.0)) / (2.0 * theta)
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
    params = ProcessParams(lam=lambda_prime, theta=0.5, init_mode="nested_P_ge_Q")
    return MomentTrajectory(params=params, times=source.times.copy(), values=out)


def lambda_scaling_residual(
    lam: float,
    theta: float,
    t_end: float,
    order: int,
) -> float:
    """Max deviation between lam * m_n(t) and the rescaled system v_n(t).

    v_n = lam m_n satisfies the recurrence with the quadratic coupling
    constant set to theta alone (lambda = 1) and v_0 = lam; integrating
    both from the nested P <= Q start at the default step and comparing
    validates the scaling reduction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    params = ProcessParams(lam=lam, theta=theta)
    m0 = params.initial_vector(order)
    # row 0: m_n at (lam, theta); row 1: v_n from v_0 = lam, v_n(0) = lam m_n(0)
    coupling = (lam, 1.0)
    y0 = np.stack([m0, m0 * lam])
    _, states = rk4(hierarchy(coupling, theta), y0, t_end, DEFAULT_STEP)
    return float(np.max(np.abs(lam * states[:, 0] - states[:, 1])))
