"""Closed-form exact counts for bracket strings, lattice paths and island diagrams.

Everything returns plain Python ints (arbitrary precision) or raises
ValueError on a violated precondition.  Out-of-range indices follow the usual
zero convention so that the summation formulas guard themselves.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import Iterator

from .errors import DivisibilityFailure


def _motzkin_numbers() -> Iterator[int]:
    """M_0, M_1, M_2, ... from the P-recurrence
    (k+2) M_k = (2k+1) M_{k-1} + 3(k-1) M_{k-2}, kept in two registers."""
    prev, cur = 1, 1  # M_0, M_1
    yield prev
    for k in count(2):
        yield cur
        nxt, rem = divmod((2 * k + 1) * cur + 3 * (k - 1) * prev, k + 2)
        if rem:
            raise DivisibilityFailure(f"Motzkin recurrence: non-integral M_{k}")
        prev, cur = cur, nxt


def _motzkin_pair(n: int) -> tuple[int, int]:
    """(M_n, M_{n+1})."""
    numbers = islice(_motzkin_numbers(), n, None)
    return next(numbers), next(numbers)


class ExactCounts:
    """Counting functions, each returning its closed form directly.

    The class is stateless: there is no cache, so results never depend on
    call history and one instance may be shared freely between threads.
    """

    # -- binomial-family basics ---------------------------------------------

    def binomial(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside 0..n, error for negative n."""
        if n < 0:
            raise ValueError(f"binomial: n must be nonnegative, got {n}")
        if k < 0 or k > n:
            return 0
        return math.comb(n, k)

    def catalan(self, k: int) -> int:
        """Number of Dyck paths with k up steps: C(2k, k) / (k + 1)."""
        if k < 0:
            raise ValueError(f"catalan: k must be nonnegative, got {k}")
        return math.comb(2 * k, k) // (k + 1)

    def narayana(self, n: int, k: int) -> int:
        """Matched strings of n bracket pairs with k occurrences of "()".

        N(n, k) = (1/n) C(n, k) C(n, k-1); zero outside 1 <= k <= n.
        """
        if n < 1:
            raise ValueError(f"narayana: n must be positive, got {n}")
        if k < 1 or k > n:
            return 0
        return math.comb(n, k) * math.comb(n, k - 1) // n

    def catalan_convolution(self, u: int, p: int) -> int:
        """Dyck paths of u up steps with exactly p irreducible factors.

        C(u; p) = (p/u) C(2u - p - 1, u - 1); zero outside 1 <= p <= u.
        """
        if u < 1:
            raise ValueError(f"catalan_convolution: u must be positive, got {u}")
        if p < 1 or p > u:
            return 0
        return p * math.comb(2 * u - p - 1, u - 1) // u

    def fib_poly_coeff(self, a: int, b: int) -> int:
        """C(a - b - 1, b) under the zero-outside-range convention."""
        top = a - b - 1
        if b < 0 or top < 0 or b > top:
            return 0
        return math.comb(top, b)

    # -- Motzkin-path counts --------------------------------------------------

    def motzkin_poly_coeff(self, n: int, k: int) -> int:
        """Motzkin paths of size n with k up steps: C(n, 2k) C_k."""
        if n < 0:
            raise ValueError(f"motzkin_poly_coeff: n must be nonnegative, got {n}")
        if k < 0 or 2 * k > n:
            return 0
        return math.comb(n, 2 * k) * self.catalan(k)

    def motzkin_number(self, n: int) -> int:
        """Number of Motzkin paths of size n, from the P-recurrence
        (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}."""
        if n < 0:
            raise ValueError(f"motzkin_number: n must be nonnegative, got {n}")
        return _motzkin_pair(n)[0]

    # -- level-0 horizontal-step refinements ---------------------------------

    def level0_count(self, r0: int, n: int, u: int) -> int:
        """Motzkin paths of size n, u up steps, r0 horizontals at level 0.

        Closed form ((r0+1)/(n+1)) C(n+1, u) C(n-r0-u-1, u-1).
        """
        if u < 1:
            raise ValueError(f"level0_count: u must be positive, got {u}")
        if r0 < 0 or n < 0:
            raise ValueError("level0_count: r0 and n must be nonnegative")
        prod = (r0 + 1) * math.comb(n + 1, u) * self.fib_poly_coeff(n - r0 - 1, u - 1)
        q, rem = divmod(prod, n + 1)
        if rem:
            raise DivisibilityFailure(f"level0_count({r0},{n},{u}): non-integral value")
        return q

    def level0_total(self, r0: int, n: int) -> int:
        """Motzkin paths of size n with r0 horizontals at level 0.

        Sums the level0_count terms T(u), u = 1..s//2 with s = n - r0, by
        their ratio: T(1) = r0 + 1 and
        T(u+1) = T(u) (n+1-u)(s-2u)(s-2u-1) / ((u+1) u (s-u-1)).
        """
        if r0 < 0 or n < 0:
            raise ValueError("level0_total: r0 and n must be nonnegative")
        if r0 > n:
            raise ValueError(f"level0_total: r0 = {r0} exceeds n = {n}")
        s = n - r0
        if s == 0:
            return 1  # the all-horizontal path (empty path when n = 0)
        if s == 1:
            return 0
        term = total = r0 + 1
        for u in range(1, s // 2):
            term, rem = divmod(term * (n + 1 - u) * (s - 2 * u) * (s - 2 * u - 1),
                               (u + 1) * u * (s - u - 1))
            if rem:
                raise DivisibilityFailure(
                    f"level0_total({r0},{n}): non-integral term at u = {u + 1}")
            total += term
        return total

    def level0_weighted_sum(self, n: int) -> int:
        """Sum of r0 over all Motzkin paths of size n.

        Equals the Motzkin self-convolution sum_{i+j=n-1} M_i M_j, which is
        M_{n+1} - M_n because M = 1 + wM + w^2 M^2.
        """
        if n < 0:
            raise ValueError(f"level0_weighted_sum: n must be nonnegative, got {n}")
        m_n, m_next = _motzkin_pair(n)
        return m_next - m_n

    # -- island diagrams ------------------------------------------------------

    def island_count(self, h: int, islands: int, ell: int) -> int:
        """Island diagrams with h hairpins, a given island count, ell pairs.

        The diagrams with ell pairs and h hairpins come from the N(ell, h)
        bracket strings: each hairpin foundation takes one mandatory blank
        (h + 1 islands so far) and each of the remaining 2*ell - 1 - h
        internal gaps optionally takes one more, so exactly islands - h - 1
        extra blanks can be placed in C(2*ell - 1 - h, islands - h - 1) ways.
        """
        if h < 1:
            raise ValueError(f"island_count: h must be positive, got {h}")
        if ell < 1:
            raise ValueError(f"island_count: ell must be positive, got {ell}")
        return self.narayana(ell, h) * self.binomial(2 * ell - 1 - h, islands - h - 1)
