"""Numerical workbench for the free Jacobi process.

The package computes moments of the process by several independent routes
(ODE hierarchy, Laguerre closed forms, combinatorial expansion), checks the
generating-function identities and decompositions behind those routes,
reconstructs spectral densities, and cross-validates everything against a
finite-dimension random-matrix Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .combinatorics import binomial, catalan, stationary_moment
from .moments import ProcessParams, integrate_moments
from .special_functions import Run
from .series import TruncatedSeries

__all__ = [
    "__version__",
    "binomial",
    "catalan",
    "stationary_moment",
    "ProcessParams",
    "Run",
    "integrate_moments",
    "TruncatedSeries",
]
