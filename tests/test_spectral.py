import math
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from freejacobi import spectral
from freejacobi.combinatorics import binomial
from freejacobi.moments import ProcessParams, closed_form_moments, integrate_moments
from freejacobi.special_functions import ubm_moment_vector
from test_transforms import cauchy_stationary_eval


def arcsine_moments(n_max):
    return np.array([binomial(2 * n, n) / 4.0**n for n in range(n_max + 1)])


def test_arc_grid_integrates_arcsine_exactly():
    xs, w = spectral.arc_grid(400)
    f = 1.0 / (math.pi * np.sqrt(xs * (1 - xs)))
    moments = np.array([np.dot(w, xs**n * f) for n in range(9)])
    assert np.max(np.abs(moments - arcsine_moments(8))) < 1e-13


def test_density_requires_positive_time():
    with pytest.raises(ValueError):
        spectral.density_lambda1(0.0)
    with pytest.raises(ValueError):
        spectral.density_lambda1(-1.0)


def test_density_total_mass():
    for t in (0.5, 1.0, 2.0):
        grid = spectral.density_lambda1(t, num_points=999, fourier_terms=256)
        assert abs(grid.total_mass() - 1.0) < 1e-8


def test_density_moments_match_closed_form():
    for t in (0.5, 1.0, 2.0):
        grid = spectral.density_lambda1(t, num_points=999, fourier_terms=256)
        moments = spectral.quadrature_moments(grid, 8)
        assert np.max(np.abs(moments - closed_form_moments(t, 8))) < 1e-6


def test_large_time_tends_to_arcsine():
    grid = spectral.density_lambda1(40.0, num_points=500, fourier_terms=64)
    expected = 1.0 / (math.pi * np.sqrt(grid.xs * (1 - grid.xs)))
    assert np.max(np.abs(grid.values - expected) / expected) < 1e-10


def test_support_fills_at_t2():
    grid = spectral.density_lambda1(2.0, num_points=999, fourier_terms=256)
    assert np.all(grid.values > 0)
    assert grid.preclip_min > 0


def test_small_time_dead_zone_exists():
    """Before t = 2 the law does not fill (0, 1): the reconstruction must
    expose a band of (numerically) vanishing density.  The raw truncated
    sum oscillates around zero there and clips to exact zeros; the Fejer
    smoothing is positive by construction, so its floor is the kernel
    leakage ~1/K, far above zero but still three orders below the bulk."""
    raw = spectral.density_lambda1(0.25, num_points=999, fourier_terms=256, fejer="off")
    band = (raw.xs > 0.02) & (raw.xs < 0.2)
    assert raw.preclip_min < 0
    assert np.any(raw.values[band] == 0.0)

    smoothed = spectral.density_lambda1(0.25, num_points=999, fourier_terms=256)
    assert smoothed.params["fejer"] is True
    bulk = smoothed.values.max()
    assert smoothed.values[band].max() < 1e-2 * bulk


@pytest.mark.xfail(
    reason="Fourier coefficients of the pre-fill law decay only like "
    "k^(-3/2), so no K reachable in float64 drives the smoothed dead-zone "
    "level to 1e-8; the Fejer kernel leaks ~1/K and the raw tail "
    "oscillates at ~K^(-3/2).  Kept at the stated tolerance for the "
    "record.",
    raises=AssertionError,
    strict=True,
)
def test_small_time_dead_zone_below_1e8_after_smoothing():
    smoothed = spectral.density_lambda1(0.25, num_points=999, fourier_terms=256)
    band = (smoothed.xs > 0.02) & (smoothed.xs < 0.2)
    assert smoothed.values[band].min() < 1e-8


def test_fejer_flag_modes():
    on = spectral.density_lambda1(2.0, fourier_terms=32, num_points=50, fejer="on")
    off = spectral.density_lambda1(2.0, fourier_terms=32, num_points=50, fejer="off")
    auto = spectral.density_lambda1(2.0, fourier_terms=32, num_points=50)
    assert on.params["fejer"] and not off.params["fejer"] and not auto.params["fejer"]
    assert not np.allclose(on.values, off.values)


@pytest.mark.parametrize("t, terms, fejer", [
    (0.25, 256, "auto"), (0.25, 256, "off"), (1.0, 256, "auto"), (4.0, 256, "auto"),
    (0.5, 4096, "auto"),
])
def test_density_numerator_matches_a_40_digit_chebyshev_sum(t, terms, fejer):
    mpmath = pytest.importorskip("mpmath")
    grid = spectral.density_lambda1(t, num_points=999, fourier_terms=terms, fejer=fejer)
    coeffs = ubm_moment_vector(2.0 * t, terms)
    if grid.params["fejer"]:
        coeffs = coeffs * (1.0 - np.arange(1, terms + 1) / (terms + 1.0))
    numerator = grid.raw_values * (math.pi * np.sqrt(grid.xs * (1.0 - grid.xs)))
    with mpmath.workdps(40):
        for i in (0, 1, 2, 499, 996, 997, 998):
            # T_k(2x - 1) = cos(k theta) with cos(theta) = 2x - 1, x the grid point
            theta = mpmath.acos(2 * mpmath.mpf(float(grid.xs[i])) - 1)
            exact = 1 + 2 * mpmath.fsum(mpmath.mpf(c) * mpmath.cos(k * theta)
                                        for k, c in enumerate(coeffs.tolist(), start=1))
            assert abs(numerator[i] - exact) < 1e-14


def test_density_allocates_no_points_by_terms_table():
    # an N x K float64 table at 999 x 4096 is 31 MiB
    tracemalloc.start()
    try:
        spectral.density_lambda1(1.0, num_points=999, fourier_terms=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_bench_layers_script_prints_both_term_counts(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--repeats", "1", "--calls", "10",
                                      "--t", "0.01"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()[7:9]
    assert [line.split("  ")[2] for line in lines] == ["terms= 256", "terms=4096"]
    assert all(line.count(" ms") == 2 and line.endswith(" MiB") for line in lines)


class TestStationary:
    def test_arcsine_at_lambda_one(self):
        grid = spectral.stationary_density(1.0, num_points=400)
        expected = 1.0 / (math.pi * np.sqrt(grid.xs * (1 - grid.xs)))
        # edge points lose a couple of digits to cancellation in 4x - 4x^2
        assert np.max(np.abs(grid.values - expected) / expected) < 1e-10
        assert grid.atoms == [(0.0, 0.0), (1.0, 0.0)]

    def test_mass_and_moments(self):
        for lam in (0.4, 0.6, 0.8):
            grid = spectral.stationary_density(lam, num_points=999)
            assert abs(grid.total_mass() - 1.0) < 1e-10
            moments = spectral.quadrature_moments(grid, 8)
            traj = integrate_moments(ProcessParams(lam=lam, theta=0.5), 30.0, order=8)
            assert np.max(np.abs(moments - traj.at(30.0))) < 1e-4

    def test_no_atoms_for_these_ranks(self):
        for lam in (1e-6, 0.4, 0.6, 0.8, 1.0 - 1e-6, math.nextafter(1.0, 0.0), 1.0):
            assert spectral.stationary_density(lam, num_points=50).atoms == [
                (0.0, 0.0),
                (1.0, 0.0),
            ]

    def test_support_matches_quadratic_roots(self):
        from freejacobi.transforms import stationary_support

        lam = 0.6
        lo, hi = stationary_support(lam, 0.5)
        grid = spectral.stationary_density(lam, num_points=200)
        assert grid.xs[0] > lo
        assert grid.xs[-1] < hi
        assert np.all(grid.values >= 0)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            spectral.stationary_density(1.5)

    @pytest.mark.parametrize("lam, theta", [(1.5, 0.5), (1.2, 0.4), (0.9, 0.7)])
    def test_atoms_are_the_cauchy_residues(self, lam, theta):
        atoms = spectral.atom_masses(lam, theta)
        assert any(mass > 0.0 for _, mass in atoms)
        # (z - pole) G(z) just outside the support, next to each pole
        for (pole, mass), z in zip(atoms, (-1e-9, 1.0 + 1e-9)):
            residue = ((z - pole) * cauchy_stationary_eval(lam, theta, z)).real
            assert mass == pytest.approx(residue, abs=1e-7)

    @pytest.mark.parametrize("lam", [spectral.STATIONARY_LAMBDA_MIN, 2e-15, 1e-12, 1e-9])
    def test_mass_as_lambda_tends_to_zero(self, lam):
        # the support narrows to width sqrt(2 lam) around 1/2
        grid = spectral.stationary_density(lam)
        assert abs(grid.total_mass() - 1.0) < 1e-8

    @pytest.mark.parametrize("lam", [math.nextafter(spectral.STATIONARY_LAMBDA_MIN, 0.0),
                                     1e-16, 5e-324])
    def test_rejects_lambda_below_its_range(self, lam):
        with pytest.raises(ValueError, match=r"\[1e-15, 1\]"):
            spectral.stationary_density(lam)

    def test_finite_next_to_lambda_one(self):
        grid = spectral.stationary_density(1.0 - 1e-6)
        assert np.all(np.isfinite(grid.raw_values))

    @pytest.mark.xfail(
        reason="the support edges lie within ~(1 - lam)^2 / 4 of the poles of "
        "1/(x (1 - x)) at 0 and 1, far below the spacing of 999 arc points, so "
        "the rule overestimates the mass by about 1 - lam (1.0e-6 here, 2.4e-4 "
        "at lam = 0.999).  Kept at the stated tolerance for the record.",
        raises=AssertionError,
        strict=True,
    )
    def test_mass_next_to_lambda_one(self):
        grid = spectral.stationary_density(1.0 - 1e-6)
        assert abs(grid.total_mass() - 1.0) < 1e-10


@pytest.mark.parametrize("t", [3.5, 4.0, 8.0, 30.0])
def test_density_finite_at_large_time(t):
    # at 256 terms, n * 2t passes the float64 range of exp(-nt) and of the
    # Laguerre values from t ~ 2.8 on; the law tends to the arcsine law
    grid = spectral.density_lambda1(t, num_points=999, fourier_terms=256)
    assert np.all(np.isfinite(grid.values)) and math.isfinite(grid.preclip_min)
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-8)
    arcsine = 1.0 / (math.pi * np.sqrt(grid.xs * (1.0 - grid.xs)))
    # leading correction 2 h_1(2t) cos(2 phi) = 2 e^{-t} cos(2 phi)
    assert np.max(np.abs(grid.values / arcsine - 1.0)) < 3.0 * math.exp(-t)
