import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from freejacobi import combinatorics as comb


def test_binomial_values():
    assert comb.binomial(4, 2) == 6
    assert comb.binomial(3, 1) == 3
    assert comb.binomial(6, -1) == 0
    assert comb.binomial(6, 7) == 0
    assert comb.binomial(0, 0) == 1


@given(st.integers(0, 80), st.integers(-5, 85))
def test_binomial_matches_pascal(n, k):
    if 0 < k <= n:
        assert comb.binomial(n, k) == comb.binomial(n - 1, k - 1) + comb.binomial(n - 1, k)
    assert comb.binomial(n, k) == comb.binomial(n, n - k)


def test_catalan_values():
    assert [comb.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


@given(st.integers(0, 30))
def test_catalan_recurrence(n):
    total = sum(comb.catalan(k) * comb.catalan(n - k) for k in range(n + 1))
    assert comb.catalan(n + 1) == total


def test_stationary_moments():
    assert comb.stationary_moment(0) == 1
    assert comb.stationary_moment(1) == Fraction(1, 2)
    assert comb.stationary_moment(2) == Fraction(3, 8)


def test_stationary_difference_is_scaled_catalan():
    # m_k - m_{k+1} = C_k / 2^{2k+1}; at k = 1: 1/2 - 3/8 = 1/8
    def difference(k):
        return comb.stationary_moment(k) - comb.stationary_moment(k + 1)

    assert difference(1) == Fraction(1, 8)
    for k in range(12):
        assert difference(k) == Fraction(comb.catalan(k), 2 ** (2 * k + 1))


def test_catalan_identity_exact_to_30():
    ok, failing = comb.verify_catalan_identity(30)
    assert ok and failing is None


def test_catalan_identity_small_cases_by_hand():
    # n=1: 1/2 = 1 * (1 - 1/2); n=2: 3/8 = (1/2)(1/2) + 1*(1/8)
    m = [comb.stationary_moment(n) for n in range(4)]
    assert m[1] == m[0] * (m[0] - m[1])
    assert m[2] == m[1] * (m[0] - m[1]) + m[0] * (m[1] - m[2])


def test_word_reduction():
    assert comb.reduce_word("aa") == ""
    assert comb.reduce_word("abba") == ""
    assert comb.reduce_word("abab") == "abab"
    assert comb.reduce_word("aab") == "b"
    assert comb.reduce_word("baab") == ""


def test_word_counts_order_one():
    table = comb.word_counts_bruteforce(1)
    assert table.counts == {"": 1, "a": 1, "b": 1, "ab": 1}


def test_word_counts_order_two_by_hand():
    # all 16 products of {1,a,b,ab}^2, reduced, tallied by hand
    table = comb.word_counts_bruteforce(2)
    assert table.count("") == 3
    assert table.count("ab") == 3
    assert table.count("abab") == 1
    assert table.count("a") == 3
    assert table.count("aba") == 1
    assert table.count("b") == 3
    assert table.count("bab") == 1
    assert table.count("ba") == 1


def test_closed_form_base_cases():
    # c(1,k) = delta_{k0} + delta_{k1}; e(2,k) = 3 delta_{k0} + delta_{k1}
    assert comb.word_counts_closed(1, 0)[0] == 1
    assert comb.word_counts_closed(1, 1)[0] == 1
    assert comb.word_counts_closed(1, 2)[0] == 0
    assert comb.word_counts_closed(2, 0)[2] == 3
    assert comb.word_counts_closed(2, 1)[2] == 1
    assert comb.word_counts_closed(2, 1)[0] == 3


@given(st.integers(1, 6))
def test_bruteforce_total_and_symmetry(n):
    table = comb.word_counts_bruteforce(n)
    assert table.total() == 4**n
    assert table.odd_total() == 2 ** (2 * n - 1)
    # d(n, k-1) = c(n, k)
    for k in range(1, n + 1):
        assert table.d(k - 1) == table.c(k)


@pytest.mark.parametrize("n", range(1, 9))
def test_bruteforce_matches_closed_forms(n):
    table = comb.word_counts_bruteforce(n)
    for k in range(0, n + 1):
        c_cl, d_cl, e_cl = comb.word_counts_closed(n, k)
        assert table.c(k) == c_cl
        assert table.d(k) == d_cl
        if k >= 1:
            assert table.e(k) == e_cl
        else:
            # the e-column at k = 0 counts the empty word
            assert table.c(0) == e_cl
        assert comb.combined_weight(n, k) == c_cl + e_cl


def test_symmetric_weights_are_the_word_count_weights():
    w = comb.symmetric_weights(26)  # 4**26 = 2**52: every product below is exact
    for n in range(27):
        for k in range(n + 1):
            assert w[n, k] * 4**n == comb.combined_weight(n, k)
        assert not w[n, n + 1 :].any()
    assert not w.flags.writeable
    assert comb.symmetric_weights(26) is w


def test_symmetric_weight_rows_sum_to_one_past_float64_powers_of_four():
    # 4.0**n overflows from n = 512; the two-sided weights of each row sum to 1
    w = comb.symmetric_weights(600)
    assert np.all(np.isfinite(w))
    two_sided = w[:, 0] + 2.0 * w[:, 1:].sum(axis=1)
    assert np.max(np.abs(two_sided - 1.0)) < 1e-15


def test_empty_word_count_is_half_central_binomial():
    for n in range(1, 9):
        assert comb.word_counts_bruteforce(n).c(0) == math.comb(2 * n, n) // 2


def test_bruteforce_cap():
    with pytest.raises(comb.OrderTooLargeError):
        comb.word_counts_bruteforce(13)


def test_closed_recurrences_and_pascal():
    assert comb.closed_recurrences_hold(20)
    assert comb.pascal_combination_holds(20)


def test_empty_word_generating_function():
    assert comb.empty_word_generating_check(20)
