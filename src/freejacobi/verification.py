"""Verification suites: every acceptance check, runnable standalone.

Each suite returns a list of CheckResult records; the CLI ``verify``
command and the acceptance test module both dispatch through
``run_suite``, and the CLI ``series`` and ``words`` commands call the same
``check_*`` functions the suites are built from, so there is exactly one
implementation of every criterion and every tolerance.  Every check is a
gate: it states a tolerance or its own pass condition.  This module only
computes; the CLI writes every artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import combinatorics as comb
from . import decomposition as dec
from . import oracle as orc
from . import spectral
from . import transforms
from .moments import (
    ProcessParams,
    closed_form_moments,
    complement_moments,
    expansion_moments,
    integrate_moments,
    integrate_moments_batch,
    lambda_scaling_residual,
    symmetric_binomial_moment,
)
from .series import one_minus_z
from .special_functions import damped_traces, s_closed_theta_half, s_trajectory, ubm_moment_vector


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def line(self) -> str:
        parts = [f"{'PASS' if self.passed else 'FAIL'}  {self.suite}/{self.name}"]
        if self.value is not None and self.tolerance is not None:
            parts.append(f"value={self.value:.3g} tol={self.tolerance:.3g}")
        elif self.value is not None:
            parts.append(f"value={self.value:.3g}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


def _check(suite, name, value=None, tol=None, detail="", passed=None) -> CheckResult:
    """The one constructor of a check.  It passes when ``value < tol`` (so
    a NaN value fails) unless the check states ``passed`` itself; a check
    with neither cannot fail, and is a ValueError."""
    if passed is None:
        if tol is None:
            raise ValueError(f"check {suite}/{name} states neither a tolerance nor passed")
        passed = bool(value < tol)
    return CheckResult(
        suite=suite, name=name, passed=passed,
        value=None if value is None else float(value),
        tolerance=None if tol is None else float(tol), detail=detail,
    )


def _worst(pairs) -> float:
    """Largest |a - b| over (a, b) pairs of scalars or arrays.  A NaN in any
    difference makes the result NaN, which fails every ``value < tol``
    (Python's ``max`` would drop it)."""
    return float(np.max([np.max(np.abs(np.subtract(a, b))) for a, b in pairs]))


# a check function's results, with what it computed for export keyed by name
# (series coefficients, or the word-count rows)
Checked = tuple[list[CheckResult], dict]


def _lambda_scan(lams, t_end: float, order: int, at):
    """Nested-start trajectories at theta = 1/2, one per lambda, from one
    batched integration that keeps the read times ``at``."""
    return integrate_moments_batch(
        [ProcessParams(lam=lam, theta=0.5) for lam in lams], t_end, order=order, at=at
    )


# ---------------------------------------------------------------------------
# combinatorics / catalan
# ---------------------------------------------------------------------------

def check_word_counts(n_max: int) -> Checked:
    """Closed-form word counts for n = 1..n_max against 4^n enumeration:
    (c, d, e) at every k <= n (at k = 0 the e-column is the empty word's
    count c_0), the total 4^n and the odd-word total 2^(2n-1).  The rows are
    (n, k, c, d, e) in closed form followed by the enumerated (c, d, e)."""
    if not 1 <= n_max <= comb.BRUTEFORCE_MAX_ORDER:
        raise ValueError(f"word-count order must lie in 1..{comb.BRUTEFORCE_MAX_ORDER}"
                         f" (4^n enumeration), got {n_max}")
    mismatches = 0
    rows = []
    for n in range(1, n_max + 1):
        brute = comb.word_counts_bruteforce(n)
        mismatches += brute.total() != 4**n
        mismatches += brute.odd_total() != 2 ** (2 * n - 1)
        for k in range(0, n + 1):
            closed = comb.word_counts_closed(n, k)
            counts = (brute.c(k), brute.d(k), brute.e(k))
            mismatches += sum(a != b for a, b in zip(counts, closed))
            rows.append((n, k, *closed, *counts))
    result = _check("combinatorics", f"bruteforce-vs-closed-n<={n_max}",
                    mismatches, detail="exact integer comparison incl. odd-word totals 2^(2n-1)",
                    passed=mismatches == 0)
    return [result], {"rows": rows}


def suite_combinatorics() -> list[CheckResult]:
    return check_word_counts(8)[0] + [
        _check("combinatorics", "pascal-combination-n<=20", detail="exact",
               passed=comb.pascal_combination_holds(20)),
        _check("combinatorics", "closed-recurrences-n<=20", detail="exact",
               passed=comb.closed_recurrences_hold(20)),
        _check("combinatorics", "empty-word-generating-function-n<=20",
               detail="exact rational comparison with (1/sqrt(1-4z) - 1)/2",
               passed=comb.empty_word_generating_check(20)),
    ]


def suite_catalan() -> list[CheckResult]:
    ok, failing = comb.verify_catalan_identity(30)
    detail = "30/30 exact" if ok else f"first failure at n={failing}"
    return [_check("catalan", "stationary-recurrence-n<=30", detail=detail, passed=ok)]


# ---------------------------------------------------------------------------
# laguerre (trace system at the symmetric weight)
# ---------------------------------------------------------------------------

# step 2e-4 keeps the RK4 error well below the stated tolerances
# (the default 1e-3 step sits right at the 1e-8 boundary at t = 4)
LAGUERRE_ORDER, LAGUERRE_STEP = 12, 2e-4


def suite_laguerre() -> list[CheckResult]:
    # 81 read times, t = 0, 0.05, ..., 4: every 250th step
    times, states = s_trajectory(0.5, 4.0, LAGUERRE_ORDER, h=LAGUERRE_STEP,
                                 at=[k / 20 for k in range(81)])
    closed = [s_closed_theta_half(t, LAGUERRE_ORDER) for t in times]
    # scaled comparison: the raw values reach 1e13 at n=12, t=4, where an
    # absolute 1e-8 would be below float64 resolution
    worst_closed = _worst((np.abs(s - c) / np.maximum(1.0, np.abs(c)), 0.0)
                          for s, c in zip(states, closed))
    worst_h = _worst((damped_traces(s, t), ubm_moment_vector(2.0 * t, LAGUERRE_ORDER))
                     for t, s in zip(times, states))
    return [
        _check("laguerre", "integrated-vs-closed-form", worst_closed, 1e-8,
               "n<=12, t<=4, scaled by max(1, |closed|)"),  # n<=LAGUERRE_ORDER
        _check("laguerre", "scaled-traces-vs-ubm-moments", worst_h, 1e-10,
               "e^{-nt} s_n(t) vs h_n(2t)"),
    ]


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def suite_routes() -> list[CheckResult]:
    """Moments at lambda = 1, theta = 1/2 by three routes that share no
    step: the hierarchy ODE, the Laguerre closed form over h_k(2t), and the
    word-count expansion over the damped traces of one integrated trace
    system.  Both integrations run at the default step, h = 1e-3."""
    order = 16
    params = ProcessParams(lam=1.0, theta=0.5)
    times = (0.25, 0.5, 1.0, 2.0, 4.0)
    traj = integrate_moments(params, 4.0, order=order, at=times)
    s_run = s_trajectory(0.5, 4.0, order, at=times)
    ode = [traj.at(t) for t in times]
    closed = [closed_form_moments(t, order) for t in times]
    expansion = [expansion_moments(0.5, damped_traces(s_run.at(t), t)) for t in times]
    mgf = [transforms.mgf_closed_lambda1(t, order).coeffs for t in times]
    sym = _worst((m, [symmetric_binomial_moment(n, t) for n in range(order + 1)])
                 for t, m in zip(times, closed) if t in (0.5, 1.0, 2.0))
    scaling = lambda_scaling_residual((0.5, 0.8), 0.5, 2.0, order=12)
    return [
        _check("routes", "ode-vs-closed-form", _worst(zip(ode, closed)), 1e-8,
               "n<=16, t in {0.25,...,4}"),
        _check("routes", "expansion-vs-closed-form", _worst(zip(expansion, closed)), 1e-8),
        _check("routes", "ode-vs-expansion", _worst(zip(ode, expansion)), 1e-8),
        _check("routes", "symmetric-binomial-identity", sym, 1e-12,
               "closed form vs 4^{-n} sum_k C(2n,n-k) h_{|k|}(2t)"),
        _check("routes", "mgf-coefficients-vs-ode", _worst(zip(mgf, ode)), 1e-8,
               "generating-function coefficients, t<=4"),
        _check("routes", "lambda-scaling", _worst((r, 0.0) for r in scaling), 1e-10,
               "v_n = lam m_n transform, lam in {0.5, 0.8}"),
    ]


# ---------------------------------------------------------------------------
# series checks, shared by the series and decomposition suites and by the
# CLI ``series`` command; each returns its results together with the
# coefficients it computed, keyed by series name, for export
# ---------------------------------------------------------------------------

def _require_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")


def check_alpha(order: int) -> Checked:
    _require_order(order)
    a = transforms.alpha_series(order)
    ai = transforms.alpha_inv_series(order)
    ident = np.zeros(order + 1)
    ident[1] = 1.0
    # the inverse-pair check composes inverse(alpha): that direction has
    # bounded intermediate coefficients; alpha(inverse) overflows the
    # float64 cancellation budget by ~1e19 at order 32
    pair = _worst([(ai.compose(a).coeffs, ident)])
    deriv = (one_minus_z(order).sqrt() * a.differentiate()).shift(1)
    deriv_err = _worst([(deriv.coeffs[:order], a.coeffs[:order])])
    results = [
        _check("series", f"alpha-inverse-pair-order-{order}", pair, 1e-13),
        _check("series", "alpha-derivative-identity", deriv_err, 1e-13,
               "z sqrt(1-z) alpha' = alpha"),
    ]
    return results, {"alpha": a.coeffs, "alpha_inverse": ai.coeffs}


def check_rho(t: float, order: int) -> Checked:
    _require_order(order)
    # here, not in rho_series: the stencil at t = 0 reads rho at -delta
    if not 0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    rho = transforms.rho_series(t, order).coeffs  # raises first at t itself
    result = _check("series", "rho-pde-residual", transforms.pde_residual_rho(t, order),
                    1e-6, f"order {order}, t={t:g}")
    return [result], {"rho": rho}


def check_mgf(t: float, order: int) -> Checked:
    """Closed-form generating function at lambda = 1 against the closed-form
    moments, coefficient by coefficient."""
    _require_order(order)
    m = transforms.mgf_closed_lambda1(t, order).coeffs
    err = _worst([(m, closed_form_moments(t, order))])
    return [_check("series", "mgf-vs-closed-form", err, 1e-10,
                   f"order {order}, t={t:g}")], {"mgf": m}


def check_s_pde(lam: float, t: float, order: int) -> Checked:
    """Transport equation of S_t = M_t - M_inf on one trajectory integrated
    to t."""
    _require_order(order)
    traj = integrate_moments(ProcessParams(lam=lam, theta=0.5), t, order=order)
    res = dec.pde_residual_S(traj, t)
    s_coeffs = traj.at(t) - transforms.stationary_mgf(lam, order).coeffs
    return [_check("series", f"s-pde-residual-lam-{lam:g}", res, 1e-6)], {"S": s_coeffs}


def decomposition_c12(decomps, detail: str = "") -> list[CheckResult]:
    """c_1 and c_2 of the remainder vanish: worst over the decompositions
    (c_2 only when every one reaches order 2)."""
    out = [_check("decomposition", "c1-vanishes", _worst((d.c[1], 0.0) for d in decomps), 1e-7,
                  detail)]
    if all(d.order >= 2 for d in decomps):
        out.append(_check("decomposition", "c2-vanishes",
                          _worst((d.c[2], 0.0) for d in decomps), 1e-7))
    return out


def check_decomposition(lam: float, t: float, order: int) -> Checked:
    _require_order(order)
    traj = integrate_moments(ProcessParams(lam=lam, theta=0.5), t, order=order)
    d = dec.decomposition_u(t, order, traj)
    results = decomposition_c12([d], f"lam={lam:g}, t={t:g}")
    # Z_t = (1 - lambda) sum d_n z^n; Z_t vanishes identically at lambda = 1
    source = (np.zeros(order + 1) if lam == 1.0
              else dec.source_series(lam, t, order).coeffs / (1.0 - lam))
    gamma = transforms.radical_series(lam, order).coeffs
    return results, {"gamma": gamma, "psi": d.psi, "c": d.c, "d": source}


# ---------------------------------------------------------------------------
# series / PDE suite
# ---------------------------------------------------------------------------

def suite_series() -> list[CheckResult]:
    out = check_alpha(32)[0]
    out += check_rho(1.0, 24)[0]
    out.append(_check("series", "mgf-pde-residual", transforms.pde_residual_mgf_lambda1(1.0, 16),
                      1e-6, "order 16, t=1"))
    out += check_mgf(1.0, 32)[0]
    for lam, order_s in ((0.5, 12), (1.0, 16)):
        out += check_s_pde(lam, 1.0, order_s)[0]
    return out


# ---------------------------------------------------------------------------
# decomposition suite
# ---------------------------------------------------------------------------

def suite_decomposition() -> list[CheckResult]:
    lams = (0.3, 0.6, 0.9, 0.99, 0.999)
    trajs = dict(zip(lams, _lambda_scan(lams, 1.0, 10, at=(0.5, 1.0))))
    decomps = {(lam, t): dec.decomposition_u(t, 10, trajs[lam])
               for lam in (0.3, 0.6, 0.9) for t in (0.5, 1.0)}
    c3_pairs = [
        (d.c[3], -((1 - lam) / 32.0) * (
            2 * lam * math.exp(-3 * t) + 3 * (1 - lam) * math.exp(-t)))
        for (lam, t), d in decomps.items()
    ]
    out = decomposition_c12(decomps.values(), "lam in {0.3,0.6,0.9}, t in {0.5,1}")
    out.append(_check("decomposition", "c3-closed-form", _worst(c3_pairs), 1e-6))

    for lam in (0.99, 0.999):
        decomps[lam, 1.0] = dec.decomposition_u(1.0, 10, trajs[lam])
    maxima = {lam: float(np.max(np.abs(decomps[lam, 1.0].c))) for lam in (0.9, 0.99, 0.999)}
    out.append(_check("decomposition", "remainder-small-near-lam-1", maxima[0.99], 0.02,
                      f"max|c_n| decreasing: {maxima}",
                      passed=maxima[0.99] < 0.02 and maxima[0.9] > maxima[0.99] > maxima[0.999]))

    res = dec.general_evolution_residual(1.0, (4, 8), trajs[0.6])
    out.append(_check("decomposition", "evolution-equation-n-4-to-8",
                      float(np.max(res)), 1e-5, "lam=0.6, t=1"))

    # gap sequence k_n(lam) -> 0 monotonically in lam, for each n <= 10;
    # k_2 is identically zero, so entries at float-noise level are treated
    # as the zero plateau they represent
    floor = 1e-12
    gaps = {lam: np.abs(dec.k_gap_vector(lam, 10)) for lam in (0.9, 0.99, 0.999)}
    monotone = bool(
        np.all((gaps[0.9] >= gaps[0.99]) | (gaps[0.9] < floor))
        and np.all((gaps[0.99] >= gaps[0.999]) | (gaps[0.99] < floor))
    )
    out.append(_check("decomposition", "stationary-gap-vanishes", np.max(gaps[0.999]),
                      detail="|k_n| decreasing across lam in {0.9, 0.99, 0.999}",
                      passed=monotone))
    return out


# ---------------------------------------------------------------------------
# complement suite
# ---------------------------------------------------------------------------

def suite_complement() -> list[CheckResult]:
    order = 10
    times = (0.5, 1.0, 2.0)
    src, direct, src1, base = integrate_moments_batch(
        [
            ProcessParams(lam=0.5, theta=0.5, init_mode="orthogonal"),
            ProcessParams(lam=1.5, theta=0.5, init_mode="p-ge-q"),
            ProcessParams(lam=1.0, theta=0.5, init_mode="orthogonal"),
            ProcessParams(lam=1.0, theta=0.5),
        ],
        2.0,
        order=order,
        at=times,
    )
    transformed = complement_moments(src)
    lim = complement_moments(src1)
    return [
        _check("complement", "transform-vs-direct-lam-1.5",
               _worst((transformed.at(t), direct.at(t)) for t in times), 1e-8,
               "n<=10, t in {0.5,1,2}"),
        _check("complement", "limit-lam-1-symmetry",
               _worst((lim.at(t), base.at(t)) for t in times), 1e-8,
               "transform of orthogonal lam''=1 run equals direct lam=1 moments"),
    ]


# ---------------------------------------------------------------------------
# density suite
# ---------------------------------------------------------------------------

# the density suite's moment order, and the rank ratios whose stationary
# densities it compares with one batched scan of the hierarchy to t = 30
DENSITY_ORDER, DENSITY_LAMBDAS, DENSITY_SCAN_T = 8, (0.4, 0.6, 0.8), 30.0


def suite_density() -> list[CheckResult]:
    grids = {t: spectral.density_lambda1(t) for t in (0.5, 1.0, 2.0)}
    moments = _worst((spectral.quadrature_moments(grid, DENSITY_ORDER),
                      closed_form_moments(t, DENSITY_ORDER)) for t, grid in grids.items())
    support = grids[2.0].values
    scans = _lambda_scan(DENSITY_LAMBDAS, DENSITY_SCAN_T, DENSITY_ORDER, at=(DENSITY_SCAN_T,))
    stationary = _worst(
        (spectral.quadrature_moments(spectral.stationary_density(lam), DENSITY_ORDER),
         traj.at(DENSITY_SCAN_T)) for lam, traj in zip(DENSITY_LAMBDAS, scans)
    )
    # the details state DENSITY_ORDER and DENSITY_LAMBDAS as literals
    return [
        _check("density", "moment-back-check", moments, 1e-6,
               "n<=8, t in {0.5,1,2}, " f"{spectral.DEFAULT_TERMS} terms"),
        _check("density", "total-mass", _worst((g.total_mass(), 1.0) for g in grids.values()),
               1e-8),
        _check("density", "support-fills-at-t-2", support.min(),
               detail=f"strictly positive on {spectral.DEFAULT_POINTS} interior points",
               passed=bool(np.all(support > 0.0))),
        _check("density", "stationary-vs-t-30-moments", stationary, 1e-4,
               "lam in {0.4,0.6,0.8}, n<=8"),
    ]


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def suite_oracle(dim: int = orc.OracleConfig.dim, steps: int = orc.OracleConfig.steps,
                 trials: int = orc.OracleConfig.trials,
                 seed: int = orc.OracleConfig.seed) -> list[CheckResult]:
    out = []
    config = orc.OracleConfig(dim=dim, steps=steps, trials=trials, seed=seed)
    nested = orc.empirical_jacobi_moments(config)
    _, m1_ref, m2_ref = closed_form_moments(1.0, 2)
    out.append(_check("oracle", "nested-m1", abs(nested.estimates[1] - m1_ref), 0.02,
                      f"estimate {nested.estimates[1]:.5f} vs {m1_ref:.5f}"))
    out.append(_check("oracle", "nested-m2", abs(nested.estimates[2] - m2_ref), 0.03,
                      f"estimate {nested.estimates[2]:.5f} vs {m2_ref:.5f}"))
    out.append(_check("oracle", "unitarity-drift", nested.unitarity_drift, 1e-10))

    unitary = orc.empirical_jacobi_moments(replace(config, seed=seed + 1, mode="unitary"))
    for n, h_ref in zip((1, 2), ubm_moment_vector(1.0, 2)):
        err = abs(unitary.estimates[n] - h_ref)
        out.append(_check("oracle", f"unitary-trace-h{n}-within-3-sigma", err,
                          3.0 * unitary.stderrs[n],
                          f"estimate {unitary.estimates[n]:.5f} vs {h_ref:.5f}"))
    return out


# ---------------------------------------------------------------------------
# general theta
# ---------------------------------------------------------------------------

def suite_general_theta(dim: int = 128, steps: int = 100, trials: int = 6,
                        seed: int = 11) -> list[CheckResult]:
    """Moments at lambda = 1 off theta = 1/2, by the expansion route over
    the trace system and by the ODE hierarchy, and the traces themselves
    against the Bernoulli oracle.

    theta is the oracle's realised weight round(0.75 dim)/dim, so both
    routes and the oracle read one trace-system run (0.75 at the default
    dim).  The trace system's source n^2 c^2 e^{nt} comes from free Ito
    calculus (see the module notes in special_functions), and the two
    routes share no step: the hierarchy integrates the moments, the
    expansion route weights the traces by word counts.  The oracle gate
    divides each |estimate_k - e^{-k} s_k(1)|, k <= 4, by its budget:
    three standard errors of the trial mean plus 4/dim for the finite-N
    bias.
    """
    t_grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    theta = orc.round_half_up(0.75 * dim) / dim
    base, traj = integrate_moments_batch(
        [ProcessParams(lam=1.0, theta=0.5), ProcessParams(lam=1.0, theta=theta)], 2.0, order=6,
        at=t_grid,
    )
    worst_half = _worst((closed_form_moments(t, 6), base.at(t)) for t in t_grid)

    # one trace-system run, read at each grid time and at t = 1; damped at the grid
    # time t, not the stored one, it gives the bits of a separate run to t
    s_run = s_trajectory(theta, 2.0, 6, h=2e-4, at=t_grid)

    def damped(t):
        return damped_traces(s_run.at(t), t)

    worst_ode = _worst((expansion_moments(theta, damped(t)), traj.at(t)) for t in t_grid)

    bern = orc.empirical_jacobi_moments(
        orc.OracleConfig(dim=dim, t=1.0, steps=steps, trials=trials, seed=seed, theta=theta,
                         mode="bernoulli_weight", orders=(1, 2, 3, 4))
    )
    estimates, stderrs = (np.array(list(by_k.values())) for by_k in (bern.estimates, bern.stderrs))
    # np.max keeps a NaN, as _worst does
    worst_ratio = float(np.max(np.abs(estimates - damped(1.0)[:4])
                               / (3.0 * stderrs + 4.0 / dim)))
    return [
        _check("general-theta", "theta-half-sanity", worst_half, 1e-8,
               "expansion vs ODE at theta=1/2, n<=6, t<=2"),
        _check("general-theta", "expansion-vs-ode", worst_ode, 1e-8,
               f"expansion vs ODE at theta={theta:g}, n<=6, t<=2"),
        _check("general-theta", "bernoulli-oracle-within-budget", worst_ratio, 1.0,
               f"max_k |estimate_k - e^{{-k}} s_k(1)| / (3 se_k + 4/N), k<=4, N={dim},"
               f" theta={theta:g}"),
    ]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "combinatorics": suite_combinatorics,
    "catalan": suite_catalan,
    "laguerre": suite_laguerre,
    "routes": suite_routes,
    "series": suite_series,
    "decomposition": suite_decomposition,
    "complement": suite_complement,
    "density": suite_density,
    "oracle": suite_oracle,
    "general-theta": suite_general_theta,
}


def _every_suite() -> list[CheckResult]:
    return [r for suite in _SUITES.values() for r in suite()]


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    """Run one suite with ``kwargs`` (the oracle suite's sizing and seed,
    say), or every suite at its stated defaults for 'all'.  A keyword the
    suite does not take is a TypeError."""
    return (_every_suite if name == "all" else _SUITES[name])(**kwargs)


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES) + ("all",)
