import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freejacobi.series import TruncatedSeries, geometric, one_minus_z

coeff = st.floats(-2.0, 2.0, allow_nan=False)


def series_of(order):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(TruncatedSeries)


@st.composite
def series_pair(draw, max_order=8):
    order = draw(st.integers(1, max_order))
    return draw(series_of(order)), draw(series_of(order))


@st.composite
def series_triple(draw, max_order=6):
    order = draw(st.integers(1, max_order))
    return tuple(draw(series_of(order)) for _ in range(3))


def test_constructors():
    assert TruncatedSeries.identity(4).coeffs.tolist() == [0, 1, 0, 0, 0]
    assert TruncatedSeries.constant(3.0, 2).coeffs.tolist() == [3, 0, 0]
    assert geometric(3).coeffs.tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        TruncatedSeries([])


@given(series_pair())
def test_addition_commutes(pair):
    f, g = pair
    assert np.array_equal((f + g).coeffs, (g + f).coeffs)


@given(series_triple())
def test_multiplication_associates(triple):
    f, g, h = triple
    left = (f * g) * h
    right = f * (g * h)
    scale = max(1.0, np.max(np.abs(left.coeffs)), np.max(np.abs(right.coeffs)))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-10 * scale)


@given(series_triple())
def test_multiplication_distributes(triple):
    f, g, h = triple
    left = f * (g + h)
    right = f * g + f * h
    scale = max(1.0, np.max(np.abs(left.coeffs)))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-10 * scale)


def test_multiplication_truncates():
    f = TruncatedSeries([1.0, 1.0, 1.0])
    g = TruncatedSeries([1.0, 2.0, 3.0])
    assert (f * g).coeffs.tolist() == [1.0, 3.0, 6.0]


def test_reciprocal_of_geometric():
    # 1/(1-z) has all-ones coefficients
    assert np.allclose(one_minus_z(10).reciprocal().coeffs, 1.0, atol=1e-15)


@given(series_of(8))
def test_reciprocal_roundtrip(f):
    c = f.coeffs.copy()
    c[0] = 1.5  # keep well away from zero
    f = TruncatedSeries(c)
    prod = f * f.reciprocal()
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.allclose(prod.coeffs, expected, atol=1e-9)


def test_reciprocal_requires_nonzero_constant():
    with pytest.raises(ValueError, match=r"offending coefficient: (np\.float64\()?0\.0\b"):
        TruncatedSeries([0.0, 1.0]).reciprocal()


def test_sqrt_of_one_minus_z():
    # coefficients beta_n of sqrt(1-z): 1, -1/2, -1/8, -1/16
    beta = one_minus_z(5).sqrt().coeffs
    assert beta[0] == 1.0
    assert beta[1] == pytest.approx(-0.5)
    assert beta[2] == pytest.approx(-0.125)
    assert beta[3] == pytest.approx(-1 / 16)


@given(series_of(8))
def test_sqrt_roundtrip(f):
    c = f.coeffs.copy()
    c[0] = 2.0
    f = TruncatedSeries(c)
    root = f.sqrt()
    assert np.allclose((root * root).coeffs, f.coeffs, atol=1e-9)


def test_sqrt_domain():
    with pytest.raises(ValueError, match="sqrt needs positive constant term"):
        TruncatedSeries([-1.0, 0.0]).sqrt()
    with pytest.raises(ValueError, match="sqrt needs positive constant term"):
        TruncatedSeries([0.0, 1.0]).sqrt()


@given(series_of(8))
def test_compose_with_identity(f):
    composed = f.compose(TruncatedSeries.identity(8))
    assert np.allclose(composed.coeffs, f.coeffs, atol=1e-12)


def test_compose_requires_zero_constant():
    f = geometric(4)
    with pytest.raises(ValueError, match="composition needs inner constant term zero"):
        f.compose(TruncatedSeries.constant(0.5, 4))


def test_compose_known_case():
    # (1/(1-z)) o (z^2) = 1 + z^2 + z^4
    f = geometric(4)
    inner = TruncatedSeries([0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.allclose(f.compose(inner).coeffs, [1, 0, 1, 0, 1], atol=1e-14)


@given(series_pair(max_order=6))
def test_compose_is_ring_homomorphism(pair):
    f, g = pair
    order = f.order
    inner_c = np.zeros(order + 1)
    inner_c[1:] = 0.3
    inner = TruncatedSeries(inner_c)
    lhs = (f * g).compose(inner)
    rhs = f.compose(inner) * g.compose(inner)
    scale = max(1.0, np.max(np.abs(lhs.coeffs)))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9 * scale)


def test_differentiate():
    f = TruncatedSeries([5.0, 1.0, 2.0, 3.0])
    assert f.differentiate().coeffs.tolist() == [1.0, 4.0, 9.0, 0.0]


@given(series_pair(max_order=6))
def test_differentiate_leibniz(pair):
    f, g = pair
    order = f.order
    lhs = (f * g).differentiate()
    rhs = f.differentiate() * g + f * g.differentiate()
    # top coefficient of a truncated derivative is unreliable by design
    scale = max(1.0, np.max(np.abs(lhs.coeffs)))
    assert np.allclose(lhs.coeffs[:order], rhs.coeffs[:order], atol=1e-10 * scale)


def test_shift():
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert f.shift(1).coeffs.tolist() == [0.0, 1.0, 2.0]


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, 2.0]) * TruncatedSeries([1.0, 2.0, 3.0])
