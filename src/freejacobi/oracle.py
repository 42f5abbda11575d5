"""Finite-dimension Monte Carlo oracle.

Brownian motion on the unitary group is simulated by the geodesic Euler
scheme U <- exp(i sqrt(dt) G) U with G drawn from the Gaussian unitary
ensemble normalized so the expected normalized trace of G^2 is one.  The
exponential is taken through a Hermitian eigendecomposition, so unitarity
is structural rather than asymptotic, and the e^{-t/2} trace drift of the
free limit emerges from the second-order term of the exponential without
an explicit correction.  P and Q are coordinate projections in one of the
hierarchy's start geometries, ``INIT_MODES``; P U Q U* P is one block of U.

Per-trial randomness comes from a counter-based generator keyed by
(master seed, trial index): estimates are identical for a given config no
matter how trials are scheduled.  A run keeps only what it measured; its
estimates, standard errors and worst drift are computed from that.

Each step's GUE increment is drawn on a one-worker ``ThreadPoolExecutor``
while the calling thread runs the previous step's eigendecomposition,
reconstruction and update; the executor lives for one path, and leaving
it joins its worker.  The draw depends only on the trial's generator,
never on U, and runs only RNG and elementwise ufunc code: every
LAPACK/BLAS call stays on the calling thread, so results are
bit-identical to the serial loop at any BLAS thread count.  Draws stay
strictly sequential on the one generator, at most one increment ahead.
The overlap saves time only where BLAS leaves a core idle (one BLAS
thread on a multi-core host); where BLAS already uses every core the
worker only contends with it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .moments import INIT_MODES, ProcessParams

MODES = INIT_MODES + ("bernoulli_weight", "unitary")


@dataclass(frozen=True)
class OracleConfig:
    """Simulation request: matrix size, horizon, discretization, trials,
    seed, process parameters, projection mode and requested moment orders,
    named as the ``oracle`` command's flags that set them (``t`` is ``--t``).
    The field defaults are the acceptance run, as in ``verify --suite oracle``.

    Modes in ``INIT_MODES`` take (lam, theta) where ``ProcessParams`` does,
    if the rounded ranks are positive (and, orthogonal, fit side by side);
    ``bernoulli_weight`` estimates normalized traces of powers of a U a U*
    for a diagonal sign matrix with a fraction theta of +1 entries;
    ``unitary`` those of U itself (no projections involved).
    """

    dim: int = 256
    t: float = 1.0
    steps: int = 200
    trials: int = 8
    seed: int = 20240601
    lam: float = 1.0
    theta: float = 0.5
    mode: str = "p-le-q"
    orders: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("matrix dimension must be >= 2")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2: the standard error needs two")
        if not 0 <= self.t < math.inf:
            raise ValueError("t must be finite and nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if min(self.orders) < 1:
            raise ValueError("moment orders must be >= 1")
        if self.mode not in INIT_MODES:
            if not 0.0 < self.theta < 1.0:
                raise ValueError("theta must lie in (0, 1)")
            return
        ProcessParams(self.lam, self.theta, self.mode)
        # rounded ranks can vanish, or overlap where the nominal traces do not
        if min(self.rank_p(), self.rank_q()) < 1:
            raise ValueError("rank(P) and rank(Q) must be >= 1: raise dim")
        if self.mode == "orthogonal" and self.rank_p() + self.rank_q() > self.dim:
            raise ValueError("orthogonal mode requires rank(P) + rank(Q) <= dim")

    def rank_p(self) -> int:
        return round_half_up(self.lam * self.theta * self.dim)

    def rank_q(self) -> int:
        return round_half_up(self.theta * self.dim)

    def rank_info(self) -> dict:
        """Realized and nominal projection ranks; empty without projections."""
        if self.mode not in INIT_MODES:
            return {}
        rank_p, rank_q = self.rank_p(), self.rank_q()
        nominal_p, nominal_q = self.lam * self.theta * self.dim, self.theta * self.dim
        return {"rank_p": rank_p, "rank_q": rank_q,
                "nominal_rank_p": nominal_p, "nominal_rank_q": nominal_q,
                "rank_rounded": rank_p != nominal_p or rank_q != nominal_q}


@dataclass
class OracleRun:
    """What a run measured; estimates, stderrs and worst drift derive from it."""

    config: OracleConfig
    per_trial: np.ndarray  # shape (trials, len(orders))
    trial_drift: list[float]  # unitarity defect of each trial's endpoint
    trial_seconds: list[float]  # wall time of each trial
    wall_time: float

    @property
    def estimates(self) -> dict[int, float]:
        mean = self.per_trial.mean(axis=0)
        return {n: float(m) for n, m in zip(self.config.orders, mean)}

    @property
    def stderrs(self) -> dict[int, float]:
        stderr = self.per_trial.std(axis=0, ddof=1) / math.sqrt(self.config.trials)
        return {n: float(s) for n, s in zip(self.config.orders, stderr)}

    @property
    def unitarity_drift(self) -> float:
        """The largest trial drift; NaN if any trial's is."""
        return float(np.max(self.trial_drift))


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), trial]))


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals from counter-based uniforms via Box-Muller.

    Computed in place in one buffer of uniforms, whose first half becomes
    the radii and second half the angles, to keep temporaries few: the
    draw runs alongside the previous step's eigendecomposition."""
    n = int(np.prod(shape))
    half = (n + 1) // 2
    out = rng.random(2 * half)  # the same stream as two draws of `half`
    radius, angle = out[:half], out[half:]
    np.subtract(1.0, radius, out=radius)  # (0, 1], keeps the log finite
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    np.multiply(angle, radius, out=angle)
    np.multiply(cos, radius, out=radius)
    return out[:n].reshape(shape)


def _gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Hermitian matrix with E[(1/dim) Tr G^2] = 1: complex off-diagonal
    entries of variance 1/dim, real diagonal of variance 1/dim."""
    normals = _box_muller(rng, (2, dim, dim))
    a = 1j * normals[1]
    a += normals[0]
    a /= math.sqrt(2.0)
    # g takes over the normals' storage: 2 dim^2 float64 = dim^2 complex128
    g = normals.reshape(-1).view(complex).reshape(dim, dim)
    np.conjugate(a.T, out=g)
    g += a  # off-diag complex variance 1
    g /= math.sqrt(2.0)
    g[np.diag_indices(dim)] = _box_muller(rng, (dim,))
    g /= math.sqrt(dim)
    return g


def _unitary_endpoint(rng: np.random.Generator, dim: int, t_end: float, steps: int) -> np.ndarray:
    u = np.eye(dim, dtype=complex)
    if t_end == 0.0:
        return u
    # imported here, so commands and suites that draw no path never load it
    from concurrent.futures import ThreadPoolExecutor

    dt = t_end / steps
    sqrt_dt = math.sqrt(dt)
    # leaving the block joins a draw an exception left running
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(_gue, rng, dim)
        for k in range(steps):
            g = ahead.result()  # re-raises a failed draw here
            # the next draw starts only after this one returned: the
            # generator is used strictly sequentially
            if k + 1 < steps:
                ahead = helper.submit(_gue, rng, dim)
            w, v = np.linalg.eigh(g)
            del g
            scaled = v * np.exp(1j * sqrt_dt * w)
            np.conjugate(v, out=v)
            step = scaled @ v.T
            del scaled, v
            u = step @ u
    return u


def unitarity_defect(u: np.ndarray) -> float:
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


def _trial_estimates(config: OracleConfig, trial: int) -> tuple[np.ndarray, float]:
    rng = _trial_rng(config.seed, trial)
    dim = config.dim
    u = _unitary_endpoint(rng, dim, config.t, config.steps)
    drift = unitarity_defect(u)
    orders = config.orders

    if config.mode in ("unitary", "bernoulli_weight"):
        w = u
        if config.mode == "bernoulli_weight":
            n_plus = config.rank_q()
            signs = np.concatenate([np.ones(n_plus), -np.ones(dim - n_plus)])
            w = (signs[:, None] * u * signs[None, :]) @ u.conj().T  # a U a U*
        eig = np.linalg.eigvals(w)
        vals = np.array([np.mean(eig**n).real for n in orders])
        return vals, drift

    rank_p, rank_q = config.rank_p(), config.rank_q()
    first = rank_q if config.mode == "orthogonal" else 0  # orthogonal: P sits where Q vanishes
    block = u[first : first + rank_p, :rank_q]
    eig = np.linalg.eigvalsh(block @ block.conj().T)
    vals = np.array([np.mean(np.clip(eig, 0.0, None) ** n) for n in orders])
    return vals, drift


def empirical_jacobi_moments(config: OracleConfig) -> OracleRun:
    """Monte Carlo estimates of the requested traced quantities.

    ``INIT_MODES``: moments of P U Q U* P normalized over the realized rank
    of P; bernoulli / unitary: normalized traces as described on the config.
    Standard errors come from the spread over independent trials.
    """
    start = time.perf_counter()
    per_trial = np.empty((config.trials, len(config.orders)))
    trial_drift, trial_seconds = [], []
    for trial in range(config.trials):
        trial_start = time.perf_counter()
        per_trial[trial], drift = _trial_estimates(config, trial)
        trial_seconds.append(time.perf_counter() - trial_start)
        trial_drift.append(drift)
    return OracleRun(
        config=config,
        per_trial=per_trial,
        trial_drift=trial_drift,
        trial_seconds=trial_seconds,
        wall_time=time.perf_counter() - start,
    )
