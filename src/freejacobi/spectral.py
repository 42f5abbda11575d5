"""Spectral densities of the free Jacobi process and quadrature back-checks.

Two reconstructions are provided.  The time-t density at the symmetric
parameter point is a Chebyshev series: the law X_t = (2 + Y_2t + Y_2t*)/4
makes 2 X_t - 1 = Re Y_2t, so in y = 2x - 1 the density is the arcsine
weight times 1 + 2 sum_k h_k(2t) T_k(y), with h_k the free unitary Brownian
motion moments.  The series is summed by Clenshaw's backward recurrence,
O(N K) flops and O(N + K) memory for N points and K terms.  The stationary
density for rank ratios in (0, 1] is the Stieltjes inversion of the closed
Cauchy transform.

Both densities are sampled on one kind of grid, ``arc_grid``: the uniform
midpoint rule in the arc substitution x = mid + half * cos(phi) over the
support interval (for the full interval this is x = cos^2(phi/2)), which
cancels the inverse square-root edge factors exactly.  The integrands seen
by the rule are trigonometric polynomials, so moments of the reconstructed
measures are recovered to machine accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .special_functions import ubm_moment_vector
from .transforms import stationary_support

FEJER_TIME_CUTOFF = 0.5
#: the density grid's defaults: arc-grid points and Chebyshev terms
DEFAULT_POINTS, DEFAULT_TERMS = 999, 256

#: smallest rank ratio ``stationary_density`` accepts: below about 6e-16 the
#: support, of width sqrt(2 lambda), is too narrow for float64 and the
#: reconstructed mass drifts past 1e-8
STATIONARY_LAMBDA_MIN = 1e-15


@dataclass
class DensityGrid:
    """Sampled density on (0, 1) with quadrature weights and atom list.

    ``raw_values`` is the signed reconstruction and the one stored array:
    quadrature integrates it (truncated Fourier oscillation cancels exactly
    under the arc rule, whereas integrating the clipped values would bias
    the mass by the clipped amount).  ``values`` clips it at zero for
    presentation and export, and ``preclip_min`` is its most negative
    value, so Gibbs artifacts stay visible.
    """

    xs: np.ndarray
    raw_values: np.ndarray
    weights: np.ndarray
    atoms: list[tuple[float, float]]
    rule: str
    params: dict = field(default_factory=dict)

    @property
    def values(self) -> np.ndarray:
        return np.clip(self.raw_values, 0.0, None)

    @property
    def preclip_min(self) -> float:
        return float(self.raw_values.min())

    def total_mass(self) -> float:
        cont = float(np.dot(self.weights, self.raw_values))
        return cont + sum(m for _, m in self.atoms)


def arc_grid(num_points: int, lo: float = 0.0, hi: float = 1.0):
    """Midpoint grid in the arc variable over [lo, hi].

    Returns (xs increasing, weights) where weights already include the
    |dx/dphi| jacobian, i.e. sum w_j g(x_j) approximates the dx-integral
    of g over [lo, hi].
    """
    if num_points < 1:
        raise ValueError("need at least one grid point")
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("arc must satisfy 0 <= lo < hi <= 1")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    phi = math.pi * (np.arange(num_points) + 0.5) / num_points
    xs = mid + half * np.cos(phi)
    jac = half * np.sin(phi) * (math.pi / num_points)
    order = np.argsort(xs)
    return xs[order], jac[order]


def chebyshev_sum(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{K} coeffs[k-1] T_k(y) by Clenshaw's backward recurrence.

    b_k = c_k + 2y b_{k+1} - b_{k+2} from b_{K+1} = b_{K+2} = 0, evaluated as
    (2y b_{k+1} - b_{k+2}) + c_k in three buffers of len(y) that rotate; the
    sum is y b_1 - b_2.
    """
    two_y = 2.0 * y
    b1, b2, b = np.zeros_like(y), np.zeros_like(y), np.empty_like(y)
    for c in coeffs[::-1].tolist():
        np.multiply(two_y, b1, out=b)
        b -= b2
        b += c
        b1, b2, b = b, b1, b2
    return y * b1 - b2


def density_lambda1(
    t: float,
    num_points: int = DEFAULT_POINTS,
    fourier_terms: int = DEFAULT_TERMS,
    fejer: str = "auto",
) -> DensityGrid:
    """Density of the process law at the symmetric point and time t > 0,
    a Chebyshev series in y = 2x - 1 (2 X_t - 1 = Re Y_2t):

    f_t(x) = [1 + 2 sum_{k<=K} w_k h_k(2t) T_k(2x - 1)] / (pi sqrt(x (1 - x))),

    where T_k(cos phi) = cos(k phi).  The constant term is fixed so the
    reconstruction integrates to one; Fejer weights w_k = 1 - k/(K+1) are
    applied for t below 0.5 (mode 'auto') to damp Gibbs oscillation where
    the series' tail is slow.  At t = 0 the law is a point mass at 1, not a
    density.

    The series in c_k = w_k h_k(2t) is summed by Clenshaw's recurrence
    (``chebyshev_sum``): three in-place ufuncs over the N grid points per
    term, so O(N K) time and O(N + K) memory, with no N x K table and no
    rounded multiple k phi.
    """
    if not 0 < t < math.inf:
        raise ValueError("density requires a finite t > 0 (the t = 0 law is an atom at 1)")
    if fourier_terms < 1:
        raise ValueError("need at least one Fourier term")
    if fejer not in ("auto", "on", "off"):
        raise ValueError("fejer must be one of auto|on|off")
    use_fejer = fejer == "on" or (fejer == "auto" and t < FEJER_TIME_CUTOFF)

    xs, weights = arc_grid(num_points)

    coeffs = ubm_moment_vector(2.0 * t, fourier_terms)
    if use_fejer:
        k = np.arange(1, fourier_terms + 1)
        coeffs = coeffs * (1.0 - k / (fourier_terms + 1.0))

    y = 2.0 * xs - 1.0
    series = 1.0 + 2.0 * chebyshev_sum(coeffs, y)
    raw = series / (math.pi * np.sqrt(xs * (1.0 - xs)))
    return DensityGrid(
        xs=xs,
        raw_values=raw,
        weights=weights,
        atoms=[],
        rule="arc-midpoint[0,1]",
        params={
            "lambda": 1.0,
            "theta": 0.5,
            "t": t,
            "fourier_terms": fourier_terms,
            "fejer": use_fejer,
        },
    )


def atom_masses(lam: float, theta: float = 0.5) -> list[tuple[float, float]]:
    """Masses of the stationary law at 0 and 1: the residues of the closed
    Cauchy transform, max(0, (lam - 1)/lam) and
    max(0, (lam theta + theta - 1)/(lam theta)).

    Each numerator is one rounding of its exact value, so its sign, and with
    it whether the atom exists, is exact: at theta = 1/2 both masses are
    exactly 0.0 for every lam <= 1.
    """
    at0 = lam - 1.0
    at1 = float(Fraction(theta) * (Fraction(lam) + 1) - 1)
    return [(0.0, max(0.0, at0 / lam)), (1.0, max(0.0, at1 / (lam * theta)))]


def stationary_density(lam: float, num_points: int = DEFAULT_POINTS) -> DensityGrid:
    """Stationary density at theta = 1/2 for rank ratio lam in
    [``STATIONARY_LAMBDA_MIN``, 1].

    The continuous part is the Stieltjes inversion of the closed Cauchy
    transform, f(x) = r sqrt((x - x_-)(x_+ - x)) / (2 pi x (1 - x)) with
    r = 1/(lambda theta) on the support [x_-, x_+] (``stationary_support``);
    the factored radicand keeps its relative accuracy as the support narrows.
    The atoms at 0 and 1 (``atom_masses``) are reported even when zero.
    """
    if not STATIONARY_LAMBDA_MIN <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [{STATIONARY_LAMBDA_MIN:g}, 1]")
    theta = 0.5
    lo, hi = stationary_support(lam, theta)

    xs, weights = arc_grid(num_points, lo, hi)

    radicand = np.clip((xs - lo) * (hi - xs), 0.0, None)
    values = np.sqrt(radicand) / (lam * theta * 2.0 * math.pi * xs * (1.0 - xs))
    return DensityGrid(
        xs=xs,
        raw_values=values,
        weights=weights,
        atoms=atom_masses(lam, theta),
        rule=f"arc-midpoint[{lo:.6g},{hi:.6g}]",
        params={"lambda": lam, "theta": theta, "t": math.inf},
    )


def quadrature_moments(grid: DensityGrid, n_max: int) -> np.ndarray:
    """Moments integral x^n dmu for n = 0..n_max from a density grid.

    Continuous part by the grid's arc-substitution weights applied to the
    signed reconstruction, plus the atom contributions.
    """
    powers = np.vander(grid.xs, n_max + 1, increasing=True).T  # row n = xs**n
    cont = powers @ (grid.weights * grid.raw_values)
    atoms = np.zeros(n_max + 1)
    for loc, mass in grid.atoms:
        atoms += mass * np.array([loc**n for n in range(n_max + 1)])
    return cont + atoms
