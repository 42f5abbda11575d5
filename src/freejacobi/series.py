"""Truncated formal power series over float64 coefficients.

A series is a coefficient vector c_0..c_N understood modulo z^{N+1}.  All
arithmetic is closed at the common order: products, reciprocals, square
roots and compositions produce coefficients that are exact images of the
formal operations (up to rounding), never approximations that depend on
values outside the retained window.
"""

from __future__ import annotations

import numpy as np


class SeriesDomainError(ValueError):
    """A series operation was applied outside its domain of definition.

    Carries the offending constant-term coefficient so callers can report
    exactly which precondition failed.
    """

    def __init__(self, message: str, coefficient: float):
        super().__init__(f"{message} (offending coefficient: {coefficient!r})")
        self.coefficient = coefficient


class TruncatedSeries:
    """Real coefficient vector c_0..c_N representing a series mod z^{N+1}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d vector")
        self.coeffs = c

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(np.zeros(order + 1))

    @classmethod
    def constant(cls, value: float, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series z."""
        c = np.zeros(order + 1)
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs.copy())

    def _check_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same_order(other)
            return TruncatedSeries(self.coeffs + other.coeffs)
        out = self.coeffs.copy()
        out[0] += float(other)
        return TruncatedSeries(out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same_order(other)
            return TruncatedSeries(self.coeffs - other.coeffs)
        out = self.coeffs.copy()
        out[0] -= float(other)
        return TruncatedSeries(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same_order(other)
            n = self.order
            return TruncatedSeries(np.convolve(self.coeffs, other.coeffs)[: n + 1])
        return TruncatedSeries(self.coeffs * float(other))

    __rmul__ = __mul__

    # -- nonlinear operations --------------------------------------------

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        if a[0] == 0.0:
            raise SeriesDomainError("reciprocal needs nonzero constant term", a[0])
        n = self.order
        b = np.zeros(n + 1)
        b[0] = 1.0 / a[0]
        for k in range(1, n + 1):
            b[k] = -np.dot(a[1 : k + 1], b[k - 1 :: -1]) / a[0]
        return TruncatedSeries(b)

    def sqrt(self) -> "TruncatedSeries":
        """Square root branch with positive constant term; requires c_0 > 0."""
        a = self.coeffs
        if not a[0] > 0.0:
            raise SeriesDomainError("sqrt needs positive constant term", a[0])
        n = self.order
        b = np.zeros(n + 1)
        b[0] = np.sqrt(a[0])
        for k in range(1, n + 1):
            inner = np.dot(b[1:k], b[k - 1 : 0 : -1]) if k >= 2 else 0.0
            b[k] = (a[k] - inner) / (2.0 * b[0])
        return TruncatedSeries(b)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); the inner series must have zero constant term."""
        self._check_same_order(inner)
        if inner.coeffs[0] != 0.0:
            raise SeriesDomainError(
                "composition needs inner constant term zero", inner.coeffs[0]
            )
        # Horner evaluation over the truncated polynomial ring.
        n = self.order
        acc = TruncatedSeries.constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner + self.coeffs[k]
        return acc

    def differentiate(self) -> "TruncatedSeries":
        """Formal d/dz.  The top retained coefficient becomes unreliable
        (it would need c_{N+1}); it is set from the data that exists, and
        callers comparing derivative identities should compare to order N-1.
        """
        n = self.order
        out = np.zeros(n + 1)
        out[:n] = self.coeffs[1:] * np.arange(1, n + 1)
        return TruncatedSeries(out)

    # -- misc ------------------------------------------------------------

    def shift(self, powers: int = 1) -> "TruncatedSeries":
        """Multiply by z**powers."""
        if powers < 0:
            raise ValueError("negative shifts are not defined here")
        out = np.zeros(self.order + 1)
        if powers <= self.order:
            out[powers:] = self.coeffs[: self.order + 1 - powers]
        return TruncatedSeries(out)

    def __call__(self, z: complex) -> complex:
        """Evaluate the truncated polynomial at a point (Horner)."""
        acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


def geometric(order: int) -> TruncatedSeries:
    """1/(1-z): the all-ones series."""
    return TruncatedSeries(np.ones(order + 1))


def one_minus_z(order: int) -> TruncatedSeries:
    c = np.zeros(order + 1)
    c[0] = 1.0
    if order >= 1:
        c[1] = -1.0
    return TruncatedSeries(c)
