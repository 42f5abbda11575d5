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

Trials' paths run side by side when BLAS runs one thread per call (see
``_workers``): the trials are taken in blocks of ``workers``, the calling
thread runs the first path of a block while a pool runs the others, and
once every path of the block has returned the calling thread computes
their estimates (``unitarity_defect``, ``eigvalsh``/``eigvals``) in trial
order.  Where BLAS may use more than one thread, a second path would only
contend with BLAS for the cores, so a block is one trial and everything
runs on the calling thread.  Every path draws from its own generator in
its own order and makes the same calls as the serial loop, so which
thread runs it changes no bit.  A run holds at most ``workers + 1``
endpoints at a time, whatever the number of trials.  The calling thread
runs a path, rather than waiting on a pool of ``workers`` threads, because
each further thread keeps its own malloc arena: at the benchmark's oracle
configuration that form read 10.6% more peak RSS than the serial loop,
this one 4.0%.
"""

from __future__ import annotations

import math
import os
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
    for a diagonal sign matrix a = 2Q - 1 with round(theta dim) entries +1,
    which must be neither 0 nor dim (a = -I or I makes every estimate 1);
    ``unitary`` those of U itself (no projections involved).  Every mode
    takes a finite positive lam, though only ``INIT_MODES`` read it.
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
            if not 0.0 < self.lam < math.inf:
                raise ValueError("lambda must be finite and positive")
            if not 0.0 < self.theta < 1.0:
                raise ValueError("theta must lie in (0, 1)")
            if self.mode == "bernoulli_weight" and not 0 < self.rank_q() < self.dim:
                raise ValueError("bernoulli_weight needs between 1 and dim - 1 signs +1: "
                                 "round(theta * dim) is 0 or dim")
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
        """Realized and nominal projection ranks: P's and Q's, or for
        ``bernoulli_weight`` Q's alone (the +1 count); empty for ``unitary``."""
        if self.mode == "unitary":
            return {}
        realized = {"rank_q": self.rank_q()}
        nominal = {"rank_q": self.theta * self.dim}
        if self.mode in INIT_MODES:
            realized["rank_p"] = self.rank_p()
            nominal["rank_p"] = self.lam * self.theta * self.dim
        return {**realized, **{f"nominal_{name}": x for name, x in nominal.items()},
                "rank_rounded": realized != nominal}


@dataclass
class OracleRun:
    """What a run measured; estimates, stderrs and worst drift derive from it."""

    config: OracleConfig
    per_trial: np.ndarray  # shape (trials, len(orders))
    trial_drift: list[float]  # unitarity defect of each trial's endpoint
    # wall time of each trial's path on the thread that ran it, plus its
    # estimates; paths that ran side by side overlap in wall_time
    trial_seconds: list[float]
    wall_time: float
    workers: int  # how many paths ran side by side (see _workers)

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
    the radii and second half the angles, to keep temporaries few: paths
    that run side by side each hold their own."""
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
    """U at ``t_end``."""
    u = np.eye(dim, dtype=complex)
    if t_end == 0.0:
        return u
    sqrt_dt = math.sqrt(t_end / steps)
    for _ in range(steps):
        w, v = np.linalg.eigh(_gue(rng, dim))
        scaled = v * np.exp(1j * sqrt_dt * w)
        np.conjugate(v, out=v)
        step = scaled @ v.T
        del scaled, v
        u = step @ u
    return u


def unitarity_defect(u: np.ndarray) -> float:
    gram = u.conj().T @ u
    gram[np.diag_indices(u.shape[0])] -= 1.0  # the bits of gram - eye, without eye
    return float(np.max(np.abs(gram)))


def _trial_estimates(config: OracleConfig, u: np.ndarray) -> tuple[np.ndarray, float]:
    dim = config.dim
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


def _workers(trials: int) -> int:
    """How many trials' paths run side by side: one per CPU the process may
    run on (at most ``trials``) when BLAS runs one thread per call, else 1.

    BLAS runs one thread when the first of these variables that is set
    (OpenBLAS reads them in this order) is 1; unset, BLAS takes every core
    and a second path would only contend with it."""
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    threads = next((os.environ[name] for name in names if os.environ.get(name)), "")
    if threads.strip() != "1":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(trials, cpus)


def _path(config: OracleConfig, trial: int) -> tuple[np.ndarray, float]:
    """The trial's endpoint U and its path's wall time."""
    start = time.perf_counter()
    u = _unitary_endpoint(_trial_rng(config.seed, trial), config.dim, config.t, config.steps)
    return u, time.perf_counter() - start


def _block_paths(pool, config: OracleConfig, block: range) -> list[tuple[np.ndarray, float]]:
    """``_path`` of every trial in ``block``: the first on the calling thread,
    the others side by side on ``pool``.  A failure reaches the caller once
    the calling thread's path has returned; no later block begins."""
    helpers = [pool.submit(_path, config, trial) for trial in block[1:]]
    return [_path(config, block[0])] + [helper.result() for helper in helpers]


def empirical_jacobi_moments(config: OracleConfig) -> OracleRun:
    """Monte Carlo estimates of the requested traced quantities.

    ``INIT_MODES``: moments of P U Q U* P normalized over the realized rank
    of P; bernoulli / unitary: normalized traces as described on the config.
    Standard errors come from the spread over independent trials.
    """
    start = time.perf_counter()
    workers = _workers(config.trials)
    per_trial = np.empty((config.trials, len(config.orders)))
    trial_drift, trial_seconds = [], []
    # imported here, so commands and suites that draw no path never load it
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block joins any path a failure left running
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:  # idle at one worker
        for first in range(0, config.trials, workers):
            block = range(first, min(first + workers, config.trials))
            for trial, (u, path_seconds) in zip(block, _block_paths(pool, config, block)):
                estimate_start = time.perf_counter()
                per_trial[trial], drift = _trial_estimates(config, u)
                trial_seconds.append(path_seconds + time.perf_counter() - estimate_start)
                trial_drift.append(drift)
    return OracleRun(
        config=config,
        per_trial=per_trial,
        trial_drift=trial_drift,
        trial_seconds=trial_seconds,
        wall_time=time.perf_counter() - start,
        workers=workers,
    )
