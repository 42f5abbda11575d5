"""Finite-dimension Monte Carlo oracle.

Brownian motion on the unitary group is simulated by the geodesic Euler
scheme U <- exp(i sqrt(dt) G) U with G drawn from the Gaussian unitary
ensemble normalized so the expected normalized trace of G^2 is one.  The
exponential is taken through a Hermitian eigendecomposition, so unitarity
is structural rather than asymptotic, and the e^{-t/2} trace drift of the
free limit emerges from the second-order term of the exponential without
an explicit correction.

Per-trial randomness comes from a counter-based generator keyed by
(master seed, trial index): estimates are identical for a given config no
matter how trials are scheduled.

Each step's GUE increment is drawn in a helper thread while the calling
thread runs the previous step's eigendecomposition, reconstruction and
update.  The draw depends only on the trial's generator, never on U, and
runs only RNG and elementwise ufunc code: every LAPACK/BLAS call stays on
the calling thread, so results are bit-identical to the serial loop at any
BLAS thread count.  Draws stay strictly sequential on the one generator,
at most one increment ahead.  The overlap saves time only where BLAS
leaves a core idle (one BLAS thread on a multi-core host); where BLAS
already uses every core the helper only contends with it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

MODES = ("nested", "orthogonal", "bernoulli_weight", "unitary")


@dataclass(frozen=True)
class OracleConfig:
    """Simulation request: matrix size, horizon, discretization, trials,
    seed, process parameters, projection mode and requested moment orders.

    ``bernoulli_weight`` estimates normalized traces of powers of
    a U a U* for a diagonal sign matrix with a fraction theta of +1
    entries; ``unitary`` estimates normalized traces of powers of U
    itself (no projections involved).
    """

    dim: int
    t_end: float
    steps: int
    trials: int
    seed: int
    lam: float = 1.0
    theta: float = 0.5
    mode: str = "nested"
    orders: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("matrix dimension must be >= 2")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2: the standard error needs two")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.mode in ("nested", "orthogonal") and not 0.0 < self.lam * self.theta < 1.0:
            raise ValueError("lambda * theta must lie in (0, 1)")
        if min(self.orders) < 1:
            raise ValueError("moment orders must be >= 1")
        if self.mode == "nested" and self.rank_p() > self.rank_q():
            raise ValueError("nested mode requires rank(P) <= rank(Q)")
        if self.mode == "orthogonal" and self.rank_p() + self.rank_q() > self.dim:
            raise ValueError("orthogonal mode requires rank(P) + rank(Q) <= dim")

    def rank_p(self) -> int:
        return round_half_up(self.lam * self.theta * self.dim)

    def rank_q(self) -> int:
        return round_half_up(self.theta * self.dim)


@dataclass
class OracleRun:
    """Estimates with standard errors plus everything needed to reproduce."""

    config: OracleConfig
    estimates: dict[int, float]
    stderrs: dict[int, float]
    per_trial: np.ndarray  # shape (trials, len(orders))
    trial_keys: list[list[int]]
    trial_drift: list[float]  # unitarity defect of each trial's endpoint
    trial_seconds: list[float]  # wall time of each trial
    unitarity_drift: float  # max of trial_drift; NaN if any trial's is
    wall_time: float
    rank_info: dict = field(default_factory=dict)


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


class _DrawAhead:
    """One GUE increment drawn from ``rng`` in a helper thread.

    The helper runs only RNG and elementwise ufunc code (``_gue``), so
    LAPACK/BLAS and everything a tracer wraps stay on the calling thread.
    ``get`` waits for the draw and re-raises on the calling thread any
    exception it raised."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self._result = None
        self._thread = threading.Thread(target=self._draw, args=(rng, dim), daemon=True)
        self._thread.start()

    def _draw(self, rng, dim) -> None:
        try:
            self._result = _gue(rng, dim)
        except BaseException as exc:  # handed to the calling thread by get()
            self._result = exc

    def join(self) -> None:
        self._thread.join()

    def get(self) -> np.ndarray:
        self._thread.join()
        if isinstance(self._result, BaseException):
            raise self._result
        return self._result


def _unitary_endpoint(rng: np.random.Generator, dim: int, t_end: float, steps: int) -> np.ndarray:
    u = np.eye(dim, dtype=complex)
    if t_end == 0.0:
        return u
    dt = t_end / steps
    sqrt_dt = math.sqrt(dt)
    ahead = _DrawAhead(rng, dim)
    try:
        for k in range(steps):
            g = ahead.get()
            # the next draw starts only after this one finished: the
            # generator is used strictly sequentially
            ahead = _DrawAhead(rng, dim) if k + 1 < steps else None
            w, v = np.linalg.eigh(g)
            del g
            scaled = v * np.exp(1j * sqrt_dt * w)
            np.conjugate(v, out=v)
            step = scaled @ v.T
            del scaled, v
            u = step @ u
    finally:
        if ahead is not None:  # an exception left a draw running
            ahead.join()
    return u


def unitarity_defect(u: np.ndarray) -> float:
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


def _trial_estimates(config: OracleConfig, trial: int) -> tuple[np.ndarray, float]:
    rng = _trial_rng(config.seed, trial)
    dim = config.dim
    u = _unitary_endpoint(rng, dim, config.t_end, config.steps)
    drift = unitarity_defect(u)
    orders = config.orders

    if config.mode == "unitary":
        eig = np.linalg.eigvals(u)
        vals = np.array([np.mean(eig**n).real for n in orders])
        return vals, drift

    if config.mode == "bernoulli_weight":
        n_plus = round_half_up(config.theta * dim)
        signs = np.concatenate([np.ones(n_plus), -np.ones(dim - n_plus)])
        w = (signs[:, None] * u * signs[None, :]) @ u.conj().T  # a U a U*
        eig = np.linalg.eigvals(w)
        vals = np.array([np.mean(eig**n).real for n in orders])
        return vals, drift

    rank_p, rank_q = config.rank_p(), config.rank_q()
    if config.mode == "nested":
        block = u[:rank_p, :rank_q]
    else:  # orthogonal: P sits where Q vanishes
        block = u[rank_q : rank_q + rank_p, :rank_q]
    eig = np.linalg.eigvalsh(block @ block.conj().T)
    vals = np.array([np.mean(np.clip(eig, 0.0, None) ** n) for n in orders])
    return vals, drift


def empirical_jacobi_moments(config: OracleConfig) -> OracleRun:
    """Monte Carlo estimates of the requested traced quantities.

    nested / orthogonal: moments of P U Q U* P normalized in the
    compressed space (trace over the realized rank of P); bernoulli /
    unitary: normalized traces as described on the config.  Standard
    errors come from the spread over independent trials.
    """
    start = time.perf_counter()
    per_trial = np.empty((config.trials, len(config.orders)))
    trial_drift, trial_seconds = [], []
    for trial in range(config.trials):
        trial_start = time.perf_counter()
        per_trial[trial], drift = _trial_estimates(config, trial)
        trial_seconds.append(time.perf_counter() - trial_start)
        trial_drift.append(drift)
    mean = per_trial.mean(axis=0)
    stderr = per_trial.std(axis=0, ddof=1) / math.sqrt(config.trials)
    rank_info = {}
    if config.mode in ("nested", "orthogonal"):
        rank_info = {
            "rank_p": config.rank_p(),
            "rank_q": config.rank_q(),
            "nominal_rank_p": config.lam * config.theta * config.dim,
            "nominal_rank_q": config.theta * config.dim,
        }
        rank_info["rank_rounded"] = (
            rank_info["rank_p"] != rank_info["nominal_rank_p"]
            or rank_info["rank_q"] != rank_info["nominal_rank_q"]
        )
    return OracleRun(
        config=config,
        estimates={n: float(m) for n, m in zip(config.orders, mean)},
        stderrs={n: float(s) for n, s in zip(config.orders, stderr)},
        per_trial=per_trial,
        trial_keys=[[config.seed, j] for j in range(config.trials)],
        trial_drift=trial_drift,
        trial_seconds=trial_seconds,
        unitarity_drift=float(np.max(trial_drift)),
        wall_time=time.perf_counter() - start,
        rank_info=rank_info,
    )
