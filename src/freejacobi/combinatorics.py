"""Exact combinatorial kernel: binomials, Catalan numbers, stationary
moments, and enumeration of reduced words over a two-letter involution
alphabet.

Everything in this module is computed in exact integer/rational arithmetic;
no floating point enters any identity checked here.  The word enumeration
forms all 4**n expansion terms in one int8 array and reduces them by
cancellation alone (``word_counts_bruteforce``); ``reduce_word`` is the
string reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: Hard cap on brute-force enumeration: 4**12 is ~16.8M expansion terms,
#: one byte each.
BRUTEFORCE_MAX_ORDER = 12

#: Cells per ``np.bincount`` call in the tally; each call casts its block to
#: int64, 64 KB at a time.
_TALLY_BLOCK = 1 << 13


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(k: int) -> int:
    """k-th Catalan number C(2k, k) / (k + 1)."""
    if k < 0:
        raise ValueError("catalan is defined for k >= 0")
    return math.comb(2 * k, k) // (k + 1)


def stationary_moment(n: int) -> Fraction:
    """n-th moment of the arcsine law on [0, 1]: C(2n, n) / 4**n, exactly.

    These are the large-time moments of the free Jacobi process at the
    symmetric parameter point; n = 0 gives 1.
    """
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    return Fraction(math.comb(2 * n, n), 4**n)


def verify_catalan_identity(n_max: int) -> tuple[bool, int | None]:
    """Check m_n = sum_{k<n} m_{n-k-1} (m_k - m_{k+1}) in exact rationals.

    Returns (True, None) when the identity holds for every 1 <= n <= n_max,
    else (False, first failing n).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = [stationary_moment(n) for n in range(n_max + 2)]
    for n in range(1, n_max + 1):
        rhs = sum((m[n - k - 1] * (m[k] - m[k + 1]) for k in range(n)), Fraction(0))
        if rhs != m[n]:
            return False, n
    return True, None


# ---------------------------------------------------------------------------
# Reduced-word enumeration
# ---------------------------------------------------------------------------

def reduce_word(letters) -> str:
    """Normal form of a word over {a, b} under aa -> empty, bb -> empty.

    Since the two letters satisfy no other relation, cancelling adjacent
    equal letters to a fixpoint yields a unique alternating word.
    """
    stack: list[str] = []
    for ch in letters:
        if stack and stack[-1] == ch:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


@dataclass(frozen=True)
class WordCountTable:
    """Exact counts of reduced words in the expansion of [(1+a)(1+b)]^n.

    ``counts`` maps each reduced alternating word (including the empty
    word ``""``) to the number of the 4**n expansion terms that reduce
    to it.
    """

    n: int
    counts: dict[str, int]

    def count(self, word: str) -> int:
        return self.counts.get(word, 0)

    def c(self, k: int) -> int:
        """Number of terms reducing to (ab)^k; k = 0 is the empty word."""
        return self.count("ab" * k)

    def d(self, k: int) -> int:
        """Number of terms reducing to (ab)^k a."""
        return self.count("ab" * k + "a")

    def e(self, k: int) -> int:
        """Number of terms reducing to (ba)^k; k = 0 is the empty word."""
        return self.count("ba" * k)

    def total(self) -> int:
        return sum(self.counts.values())

    def odd_total(self) -> int:
        return sum(v for w, v in self.counts.items() if len(w) % 2 == 1)


def word_counts_bruteforce(n: int) -> WordCountTable:
    """Tally reduced words over all 4**n factor choices of [(1+a)(1+b)]^n.

    Each of the n factors contributes one of {1, a, b, ab}; the chosen
    pieces are concatenated and reduced with aa = bb = identity.  This is
    the independent oracle for the closed-form counts: it never consults
    a binomial formula, a recurrence or a transfer matrix.

    The 4**n terms are the cells of one int8 array; digit j of a cell's
    index in base 4 is factor j's piece (0 = 1, 1 = a, 2 = b, 3 = ab, a
    applied before b).  A cell holds its term's reduced word as a signed
    position x: |x| alternating letters, starting with a if x > 0 and with
    b if x < 0.  Appending a letter is one cancellation step of
    ``reduce_word``: a maps x to x ^ 1 and b maps x to ((x - 1) ^ 1) + 1,
    each removing the last letter when it equals the new one and appending
    it otherwise.  Factor j extends the 4**j reduced prefixes of factors
    0..j-1 to the 4**(j+1) prefixes of factors 0..j, letter by letter, so
    every term is formed and reduced in its own cell.  A reduced word has
    at most 2n <= 24 letters, so int8 holds every position, and the tally
    counts x + 2n in [0, 4n] in blocks of ``_TALLY_BLOCK`` cells.  At the
    cap that is 16.8 MB of cells plus one 64 KB block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > BRUTEFORCE_MAX_ORDER:
        raise ValueError(
            f"brute-force enumeration capped at n <= {BRUTEFORCE_MAX_ORDER}"
            f" (4**{n} terms requested)"
        )
    cells = np.zeros(4**n, dtype=np.int8)
    for j in range(n):
        block = cells[: 4 ** (j + 1)].reshape(4, 4**j)  # row = factor j's piece
        block[1:] = block[0]
        block[1::2] ^= 1  # a, in pieces a and ab
        with_b = block[2:]  # b, in pieces b and ab
        with_b -= 1
        with_b ^= 1
        with_b += 1
    cells += 2 * n
    tally = np.zeros(4 * n + 1, dtype=np.int64)
    for start in range(0, cells.size, _TALLY_BLOCK):
        tally += np.bincount(cells[start : start + _TALLY_BLOCK], minlength=4 * n + 1)
    counts = {}
    for x, count in enumerate(tally.tolist(), start=-2 * n):
        if count:
            counts[("ab" * n)[:x] if x >= 0 else ("ba" * n)[:-x]] = count
    return WordCountTable(n=n, counts=counts)


def word_counts_closed(n: int, k: int) -> tuple[int, int, int]:
    """Closed-form counts (c, d, e) for order n and alternation depth k.

    c(n,k) = C(2n-1, n-k) counts (ab)^k, d(n,k) = C(2n-1, n-k-1) counts
    (ab)^k a, and e(n,k) = d(n,k) counts (ba)^k (for k >= 1; at k = 0 the
    e-column refers to the empty word, where C(2n-1, n-1) = C(2n-1, n)
    makes the two conventions agree).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c = binomial(2 * n - 1, n - k)
    d = binomial(2 * n - 1, n - k - 1)
    return c, d, d


@lru_cache(maxsize=8)
def symmetric_weights(order: int) -> np.ndarray:
    """Read-only W[n, k] = (c(n,k) + e(n,k)) / 4^n = C(2n, n-k) / 4^n for 0 <= k <= n <= order,
    zero above the diagonal: the one place these weights become floats, each
    by one correctly rounded int/int division, so none overflows at any order."""
    table = np.zeros((order + 1, order + 1))
    for n in range(order + 1):
        four_n = 4**n
        c = math.comb(2 * n, n)
        for k in range(n + 1):
            table[n, k] = c / four_n
            c = c * (n - k) // (n + k + 1)  # C(2n, n-k-1), exact
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Identity checks used by the verification suites
# ---------------------------------------------------------------------------

def closed_recurrences_hold(n_max: int) -> bool:
    """Closed forms satisfy the one-step expansion recurrences, exactly.

    c(n,k) = c(n-1,k) + d(n-1,k) + d(n-1,k-1) + c(n-1,k-1)       n >= 2, k >= 1
    d(n,k) = d(n-1,k) + c(n-1,k) + c(n-1,k+1) + d(n-1,k+1)       n >= 2, k >= 0
    e(n,k) = e(n-1,k) + d(n-1,k) + d(n-1,k-1) + e(n-1,k+1)       n >= 3, k >= 1

    The counts are read from ``word_counts_closed``, so an error there fails
    this check.
    """
    def c(n, k):
        return word_counts_closed(n, k)[0]

    def d(n, k):
        return word_counts_closed(n, k)[1]

    def e(n, k):
        return word_counts_closed(n, k)[2]

    for n in range(2, n_max + 1):
        for k in range(0, n + 1):
            if k >= 1 and c(n, k) != c(n - 1, k) + d(n - 1, k) + d(n - 1, k - 1) + c(n - 1, k - 1):
                return False
            if d(n, k) != d(n - 1, k) + c(n - 1, k) + c(n - 1, k + 1) + d(n - 1, k + 1):
                return False
            # all e-indices here are >= 1, where e is the (ba)^k count
            if n >= 3 and k >= 1 and e(n, k) != (
                e(n - 1, k) + d(n - 1, k) + d(n - 1, k - 1) + e(n - 1, k + 1)
            ):
                return False
    return True


def pascal_combination_holds(n_max: int) -> bool:
    """4 C(2n-2, n-1-k) - C(2n, n-k) telescopes into four C(2n-2, .) terms.

    Exact for all n >= 2, 1 <= k <= n-1; this is the identity that drives
    the vanishing of the stationary coefficient gaps as the rank ratio
    tends to one.
    """
    for n in range(2, n_max + 1):
        for k in range(1, n):
            lhs = 4 * binomial(2 * n - 2, n - 1 - k) - binomial(2 * n, n - k)
            rhs = (
                binomial(2 * n - 2, n - k - 1)
                - binomial(2 * n - 2, n - k - 2)
                + binomial(2 * n - 2, n - k - 1)
                - binomial(2 * n - 2, n - k)
            )
            if lhs != rhs:
                return False
    return True


def inverse_sqrt_4z_coefficients(order: int) -> list[Fraction]:
    """Exact coefficients of (1 - 4z)^(-1/2) via the binomial recurrence.

    Used as an independent route to the empty-word generating function:
    the n-th coefficient here equals C(2n, n), derived without invoking
    binomials directly.
    """
    coeffs = [Fraction(1)]
    for n in range(order):
        # (1+u)^p with p = -1/2, u = -4z: a_{n+1} = a_n * (-4)(p - n)/(n + 1)
        coeffs.append(coeffs[-1] * Fraction(2 * (2 * n + 1), n + 1))
    return coeffs


def empty_word_generating_check(order: int) -> bool:
    """Empty-word counts c(n, 0) of ``word_counts_closed`` match the
    coefficients of (1/2)(1/sqrt(1-4z) - 1), exactly."""
    inv = inverse_sqrt_4z_coefficients(order)
    for n in range(1, order + 1):
        c_n0 = Fraction(word_counts_closed(n, 0)[0])
        target = inv[n] / 2
        if c_n0 != target:
            return False
    return True
