"""Brute-force enumeration oracles, independent of the package internals.

These deliberately re-derive everything from first principles (recursive
enumeration, direct counting on step strings) so the closed formulas and
generating functions are checked against a second route.  Two oracles
are formulas instead: level0_count_sumform sums the level-0 convolution
formula, a second closed route to the package's level0_count, and
island_gf_by_sqrt solves the island GF's quadratic by the package's series
square root, so that the two-variable sqrt path stays checked against the
recurrence the package uses.  level0_gf_by_inverse likewise builds the
level-0 GF from the Motzkin square root, two series inverses and a series
product, against the package's linear recurrence, and poly_product_naive
multiplies polynomials term by term, against the package's monomial
shortcuts.
"""

import math
from collections import Counter
from fractions import Fraction

from shapeforge import Poly, TruncatedSeries, expand_motzkin_gf


def pascal_binomial(n, k):
    """C(n, k) from the Pascal triangle recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def level0_count_sumform(r0, n, u):
    """Motzkin paths of size n, u up steps, r0 horizontals at level 0, from
    the convolution formula: the sum over the number p of irreducible Dyck
    factors of C(r0+p, r0) C(n-r0-p-1, n-2u-r0) C(u; p), with the Catalan
    convolution C(u; p) = (p/u) C(2u-p-1, u-1)."""
    def binomial(top, k):
        return math.comb(top, k) if 0 <= k <= top else 0

    total = 0
    for p in range(1, u + 1):
        top = n - r0 - p - 1
        if top < 0:
            continue
        total += (
            binomial(r0 + p, r0)
            * binomial(top, n - 2 * u - r0)
            * (p * binomial(2 * u - p - 1, u - 1) // u)
        )
    return total


def dyck_paths(u):
    """All Dyck paths with u up steps, as strings over UD."""
    def rec(s, h, ups, downs):
        if ups == 0 and downs == 0:
            yield s
            return
        if ups:
            yield from rec(s + "U", h + 1, ups - 1, downs)
        if downs and h > 0:
            yield from rec(s + "D", h - 1, ups, downs - 1)
    yield from rec("", 0, u, u)


def motzkin_paths(n, horizontals="H"):
    """All Motzkin paths of size n; pass horizontals="RB" for 2-Motzkin."""
    def rec(s, h, remaining):
        if remaining == 0:
            if h == 0:
                yield s
            return
        if h + 1 <= remaining - 1:
            yield from rec(s + "U", h + 1, remaining - 1)
        if h > 0:
            yield from rec(s + "D", h - 1, remaining - 1)
        if h <= remaining - 1:
            for c in horizontals:
                yield from rec(s + c, h, remaining - 1)
    yield from rec("", 0, n)


def balanced_strings(pairs):
    """All matched bracket strings with the given number of pairs."""
    if pairs == 0:
        yield ""
        return
    for inner in range(pairs):
        for a in balanced_strings(inner):
            for b in balanced_strings(pairs - 1 - inner):
                yield "(" + a + ")" + b


def step_counts(path):
    """(u, r, r0) of a step string: ups, horizontals, horizontals at level 0."""
    h = u = r = r0 = 0
    for ch in path:
        if ch == "U":
            u += 1
            h += 1
        elif ch == "D":
            h -= 1
        else:
            r += 1
            if h == 0:
                r0 += 1
    return u, r, r0


def irreducible_factors(dyck):
    """Number of returns to the axis of a Dyck path string."""
    h = f = 0
    for ch in dyck:
        h += 1 if ch == "U" else -1
        if h == 0:
            f += 1
    return f


def hairpin_count(bracket_string):
    """Occurrences of "()" in a matched bracket string."""
    return bracket_string.count("()")


def count_by(iterable, key):
    return Counter(key(x) for x in iterable)


def island_gf_by_sqrt(order):
    """The island GF in z to the given order as the root of its quadratic:
    (1 - c1 z - sqrt(1 - 2 c1 z + c2 z^2)) y / (2 (1+y)^3 z), with
    c1 = (1+y)(1+y+xy) and c2 = ((1+y)(1+y-xy))^2, dividing each
    coefficient exactly by 2 (1+y)^3."""
    variables = ("x", "y")
    zero = Poly.zero(variables)
    one = Poly.one(variables)
    x = Poly.var(variables, "x")
    y = Poly.var(variables, "y")
    oy = one + y
    c1 = oy * (oy + x * y)
    c2 = (oy * (oy - x * y)) ** 2
    radicand = TruncatedSeries("z", [one, -2 * c1, c2], order + 1, zero)
    linear = TruncatedSeries("z", [one, -c1], order + 1, zero)
    shifted = (linear - radicand.sqrt()).shift_down(1)
    divisor = 2 * oy ** 3
    coeffs = [zero] + [
        (y * shifted.coefficient(ell)).exact_div(divisor) for ell in range(1, order + 1)
    ]
    return TruncatedSeries("z", coeffs, order, zero)


def level0_gf_by_inverse(order, t=None):
    """The level-0 GF in w to the given order as A / (1 - t w A), with
    A = 1 / (1 - w^2 M) from the Motzkin series M.  Coefficients are
    polynomials in t, or scalars at a rational t = p/q; there the series in
    q w at t = p is expanded in integers and coefficient n divided by q^n."""
    m1 = expand_motzkin_gf(order, with_v=False)
    a = TruncatedSeries("w", [1, 0] + [-c for c in m1.coeffs[: order - 1]], order).inverse()
    if t is None:
        p, q = Poly.var(("t",), "t"), 1
        zero = Poly.zero(("t",))
    else:
        p, q = Fraction(t).as_integer_ratio()
        zero = 0
    q_pows = [q ** n for n in range(order + 1)]
    a_q = [c * qn for c, qn in zip(a.coeffs, q_pows)]
    a_t = TruncatedSeries("w", [zero + c for c in a_q], order, zero)
    twa = TruncatedSeries("w", [zero] + [p * c for c in a_q[:order]], order, zero)
    scaled = a_t * (TruncatedSeries("w", [zero + 1], order, zero) - twa).inverse()
    coeffs = []
    for c, qn in zip(scaled.coeffs, q_pows):
        if isinstance(c, Poly):
            coeffs.append(c)
        else:
            value = Fraction(c, qn)
            coeffs.append(value.numerator if value.denominator == 1 else value)
    return TruncatedSeries("w", coeffs, order, zero)


def poly_product_naive(a, b):
    """The term dict of a * b for two Polys, by the double loop over their
    terms, with zero sums dropped and integral values as int."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * Fraction(cb)
    return {e: c.numerator if c.denominator == 1 else c for e, c in out.items() if c}
