"""Closed-form exact counts for bracket strings, lattice paths and island diagrams.

Everything returns plain Python ints (arbitrary precision) or raises
ValueError on a violated precondition.  Out-of-range indices follow the usual
zero convention so that the summation formulas guard themselves.
"""

from __future__ import annotations

import math
import threading

from .errors import DivisibilityFailure


class ExactCounts:
    """Counting functions, most of them memoized in a per-instance cache.

    Each instance owns a single cache dict guarded by a re-entrant lock, so
    an instance may be shared between threads; results never depend on cache
    state.  Create separate instances for isolated cache lifetimes.
    level0_count and the fib_poly_coeff binomial it calls are not cached:
    the compatible-shape tables visit each of their values once, so caching
    them only adds a lookup.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._cache: dict = {}

    def _memo(self, key, compute):
        with self._lock:
            try:
                return self._cache[key]
            except KeyError:
                value = self._cache[key] = compute()
                return value

    # -- binomial-family basics ---------------------------------------------

    def binomial(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside 0..n, error for negative n."""
        if n < 0:
            raise ValueError(f"binomial: n must be nonnegative, got {n}")
        if k < 0 or k > n:
            return 0
        return self._memo(("binom", n, k), lambda: math.comb(n, k))

    def catalan(self, k: int) -> int:
        """Number of Dyck paths with k up steps: C(2k, k) / (k + 1)."""
        if k < 0:
            raise ValueError(f"catalan: k must be nonnegative, got {k}")
        return self._memo(("catalan", k), lambda: math.comb(2 * k, k) // (k + 1))

    def narayana(self, n: int, k: int) -> int:
        """Matched strings of n bracket pairs with k occurrences of "()".

        N(n, k) = (1/n) C(n, k) C(n, k-1); zero outside 1 <= k <= n.
        """
        if n < 1:
            raise ValueError(f"narayana: n must be positive, got {n}")
        if k < 1 or k > n:
            return 0
        return self._memo(
            ("narayana", n, k),
            lambda: math.comb(n, k) * math.comb(n, k - 1) // n,
        )

    def catalan_convolution(self, u: int, p: int) -> int:
        """Dyck paths of u up steps with exactly p irreducible factors.

        C(u; p) = (p/u) C(2u - p - 1, u - 1); zero outside 1 <= p <= u.
        """
        if u < 1:
            raise ValueError(f"catalan_convolution: u must be positive, got {u}")
        if p < 1 or p > u:
            return 0
        return self._memo(
            ("conv", u, p),
            lambda: p * math.comb(2 * u - p - 1, u - 1) // u,
        )

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
        return self._memo(
            ("motz", n, k),
            lambda: math.comb(n, 2 * k) * self.catalan(k),
        )

    def motzkin_number(self, n: int) -> int:
        """Number of Motzkin paths of size n, from the P-recurrence
        (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}."""
        if n < 0:
            raise ValueError(f"motzkin_number: n must be nonnegative, got {n}")
        with self._lock:
            m = self._cache.setdefault("motznum", [1, 1])
            for k in range(len(m), n + 1):
                m.append(((2 * k + 1) * m[k - 1] + 3 * (k - 1) * m[k - 2]) // (k + 2))
            return m[n]

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

    def level0_count_sumform(self, r0: int, n: int, u: int) -> int:
        """Same count as level0_count, built from the convolution formula.

        Sums C(r0+p, r0) C(n-r0-p-1, n-2u-r0) C(u; p) over the number p of
        irreducible Dyck factors; kept separate as a cross-check route.
        """
        if u < 1:
            raise ValueError(f"level0_count_sumform: u must be positive, got {u}")
        if r0 < 0 or n < 0:
            raise ValueError("level0_count_sumform: r0 and n must be nonnegative")

        def compute():
            total = 0
            for p in range(1, u + 1):
                top = n - r0 - p - 1
                if top < 0:
                    continue
                total += (
                    self.binomial(r0 + p, r0)
                    * self.binomial(top, n - 2 * u - r0)
                    * self.catalan_convolution(u, p)
                )
            return total

        return self._memo(("lvl0sum", r0, n, u), compute)

    def level0_total(self, r0: int, n: int) -> int:
        """Motzkin paths of size n with r0 horizontals at level 0."""
        if r0 < 0 or n < 0:
            raise ValueError("level0_total: r0 and n must be nonnegative")
        if r0 > n:
            raise ValueError(f"level0_total: r0 = {r0} exceeds n = {n}")
        if r0 == n:
            return 1  # the all-horizontal path (empty path when n = 0)
        return self._memo(
            ("lvl0tot", r0, n),
            lambda: sum(
                self.level0_count(r0, n, u) for u in range(1, (n - r0) // 2 + 1)
            ),
        )

    def level0_weighted_sum(self, n: int) -> int:
        """Sum of r0 over all Motzkin paths of size n.

        Equals the Motzkin self-convolution sum_{i+j=n-1} M_i M_j, which
        avoids summing r0 * level0_total over r0 at large n.
        """
        if n < 0:
            raise ValueError(f"level0_weighted_sum: n must be nonnegative, got {n}")
        if n == 0:
            return 0
        return self._memo(
            ("lvl0w", n),
            lambda: sum(
                self.motzkin_number(i) * self.motzkin_number(n - 1 - i)
                for i in range(n)
            ),
        )

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
        return self._memo(
            ("island", h, islands, ell),
            lambda: self.narayana(ell, h)
            * self.binomial(2 * ell - 1 - h, islands - h - 1),
        )
