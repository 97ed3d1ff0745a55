"""Independent routes for the package's exact results.

Most oracles are brute-force enumerations from first principles
(recursive enumeration, direct counting on step strings), against which
the closed formulas and generating functions are checked.  The rest are
formulas by a second route:

- level0_count_sumform sums the level-0 convolution formula, against the
  package's level0_count.
- The series kernels work on plain coefficient lists (ints, Fractions or
  Polys): series_mul, series_inverse, the exact square root scaled_sqrt
  and series_sqrt, and shift_down.  The Poly kernels are poly_exact_div
  (long division by a polynomial), poly_substitute, poly_evaluate and
  poly_degree, and eval_poly evaluates an ascending coefficient list by
  Horner's rule.  The package has none of them: its generating functions
  run linear recurrences instead.
- motzkin_gf_by_sqrt and island_gf_by_sqrt solve the quadratics of the
  Motzkin and island GFs by the series square root and long division,
  against the package's recurrences.
- island_gf_by_products builds the "narayana" and "motzkin2" forms of the
  island GF, and coker1_sides_by_products and coker2_sides_by_products
  both sides of Coker's identities, from sums of Poly products and powers,
  against the package's expansion of each term from Pascal rows.  level0_gf_by_inverse builds the
  level-0 GF from motzkin_gf_by_sqrt, two series inverses and a series
  product, against the package's linear recurrence.
- poly_product_naive multiplies polynomials term by term, against the
  package's monomial shortcuts.
- The structure pipeline by vertex: pairing_by_vertex maps the package's
  bracket matcher to 1-based vertices directly, and analyze_elements_by_vertex,
  island_text_by_vertex and pi_prime_text_by_vertex read only that pairing,
  one vertex at a time, against the package's stack-level walk over the
  parsed text.  check_island_text is the island-diagram validation with a
  per-pair hairpin loop, against the package's substring test.
- dot_brackets enumerates every secondary structure of a length with a
  minimum hairpin loop, and pi_shapes_by_components abstracts each through
  parse_structure, to_pi_prime and to_pi and counts the distinct pi shapes
  by component number: the paper's classification read off the structures
  themselves, against the pi-shape counts of the series layer, which come
  from Motzkin paths or from the square root of the singular polynomial.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from shapeforge import ElementReport, Poly, parse_structure, pi_stats, to_pi, to_pi_prime
from shapeforge.errors import (
    AdjacentPair,
    DivisibilityFailure,
    IllegalCharacter,
    NonUnitConstantTerm,
    SelfCheckFailure,
)
from shapeforge.structures import match_brackets


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


# ---------------------------------------------------------------------------
# series and polynomial kernels


def exact_quotient(a, b):
    """a / b for an int b: exact for a Poly (DivisibilityFailure on a
    remainder), else an int when integral and a Fraction otherwise."""
    if isinstance(a, Poly):
        return a.exact_div(b)
    value = Fraction(a, b)
    return value.numerator if value.denominator == 1 else value


def series_mul(a, b):
    """The product of two coefficient lists, to the order of the shorter."""
    zero = 0 * a[0]
    return [sum((a[i] * b[n - i] for i in range(n + 1)), zero)
            for n in range(min(len(a), len(b)))]


def shift_down(a, k):
    """a divided by the k-th power of its variable; the dropped
    coefficients must vanish."""
    if any(a[:k]):
        raise DivisibilityFailure(f"a coefficient below order {k} is nonzero")
    return a[k:]


def series_inverse(a):
    """1 / a, for a coefficient list with constant term 1."""
    if a[0] != 1:
        raise NonUnitConstantTerm("series inverse needs constant term 1")
    out = [a[0]]
    for n in range(1, len(a)):
        out.append(-sum((a[k] * out[n - k] for k in range(1, n + 1)), 0 * a[0]))
    return out


def scaled_sqrt(a):
    """Y_n = 4^n y_n for y = sqrt(a), a[0] = 1, by the recurrence
    2 Y_n = 4^n a_n - sum_{0<k<n} Y_k Y_{n-k}; Y is integral whenever a is.
    Self-check, by the series product rather than the recurrence:
    Y * Y = (4^n a_n), else SelfCheckFailure."""
    if a[0] != 1:
        raise NonUnitConstantTerm("series sqrt needs constant term 1")
    target = [4 ** n * c for n, c in enumerate(a)]
    root = [a[0]]
    for n in range(1, len(a)):
        rest = sum((root[k] * root[n - k] for k in range(1, n)), 0 * a[0])
        root.append(exact_quotient(target[n] - rest, 2))
    if series_mul(root, root) != target:
        raise SelfCheckFailure("sqrt self-check failed: y * y differs from the series")
    return root


def series_sqrt(a):
    """sqrt(a) for a[0] = 1: each Y_n of scaled_sqrt divided by 4^n."""
    return [exact_quotient(c, 4 ** n) for n, c in enumerate(scaled_sqrt(a))]


def poly_exact_div(p, divisor):
    """p / divisor for a Poly or int divisor, by long division under lex
    order; DivisibilityFailure on any remainder."""
    if not isinstance(divisor, Poly):
        divisor = Poly.const(p.variables, divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    # When the dividend is an exact multiple its leading term is always
    # reducible, so an irreducible leading term proves a nonzero remainder.
    lead_d = max(divisor.terms)
    lc_d = divisor.terms[lead_d]
    rem = dict(p.terms)
    quo = {}
    while rem:
        lead_r = max(rem)
        diff = tuple(a - b for a, b in zip(lead_r, lead_d))
        c, r = divmod(rem[lead_r], lc_d)
        if r or any(d < 0 for d in diff):
            raise DivisibilityFailure(f"{p} is not divisible by {divisor}")
        quo[diff] = c
        for eb, cb in divisor.terms.items():
            e = tuple(a + b for a, b in zip(diff, eb))
            s = rem.get(e, 0) - c * cb
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return Poly(p.variables, quo)


def poly_substitute(p, **values):
    """p with ints substituted for some variables, keeping the rest."""
    keep = [i for i, v in enumerate(p.variables) if v not in values]
    out = {}
    for expo, c in p.terms.items():
        for i, v in enumerate(p.variables):
            if v in values:
                c *= values[v] ** expo[i]
        e = tuple(expo[i] for i in keep)
        out[e] = out.get(e, 0) + c
    return Poly([p.variables[i] for i in keep], out)


def poly_evaluate(p, **values):
    """p at a full assignment of its variables, ints or Fractions."""
    missing = [v for v in p.variables if v not in values]
    if missing:
        raise ValueError(f"missing values for {missing}")
    values = {v: Fraction(value) for v, value in values.items()}
    return sum(c * math.prod(values[v] ** e for v, e in zip(p.variables, expo))
               for expo, c in p.terms.items())


def poly_degree(p, name=None):
    """Total degree, or the degree in one variable; the zero poly has -1."""
    if not p.terms:
        return -1
    if name is None:
        return max(sum(e) for e in p.terms)
    i = p.variables.index(name)
    return max(e[i] for e in p.terms)


def eval_poly(coeffs, x):
    """An ascending coefficient list at x, by Horner's rule."""
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# generating functions by the square root


def motzkin_gf_by_sqrt(order, with_v=True):
    """The Motzkin GF in w to the given order as
    (1 - w - sqrt((1 - w)^2 - 4 v w^2)) / (2 v w^2): polynomials in v, or
    the Motzkin numbers when ``with_v`` is false."""
    v, one = (Poly.var(("v",), "v"), Poly.one(("v",))) if with_v else (1, 1)
    zero = 0 * one
    radicand = [one, -2 * one, one - 4 * v] + [zero] * order
    linear = [one, -one] + [zero] * (order + 1)
    shifted = shift_down([a - b for a, b in zip(linear, series_sqrt(radicand))], 2)
    return [poly_exact_div(c, 2 * v) if with_v else exact_quotient(c, 2) for c in shifted]


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
    radicand = ([one, -2 * c1, c2] + [zero] * order)[: order + 2]
    linear = [one, -c1] + [zero] * order
    shifted = shift_down([a - b for a, b in zip(linear, series_sqrt(radicand))], 1)
    divisor = 2 * oy ** 3
    return [zero] + [poly_exact_div(y * c, divisor) for c in shifted[1:]]


def _powers(base, n):
    out = [Poly.one(base.variables)]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def island_gf_by_products(order, form, counts):
    """The coefficients of the island GF in z to the given order by the
    "narayana" or "motzkin2" step-weight sum, each term a product of Polys:
    N(ell, h) x^h y^(h+1) (1+y)^(2 ell-1-h), or x y^2 times
    M(ell-1, u) (x y (1+y)^3)^u ((1+y)(1+y+xy))^(ell-1-2u)."""
    variables = ("x", "y")
    zero = Poly.zero(variables)
    one = Poly.one(variables)
    x = Poly.var(variables, "x")
    y = Poly.var(variables, "y")
    oy = one + y

    if form == "narayana":
        oy_pows = _powers(oy, max(0, 2 * order - 2))
        coeffs = [zero]
        for ell in range(1, order + 1):
            acc = zero
            for h in range(1, ell + 1):
                acc = acc + counts.narayana(ell, h) * (x ** h) * (y ** (h + 1)) * oy_pows[2 * ell - 1 - h]
            coeffs.append(acc)
        return coeffs

    up_weight = x * y * oy ** 3            # new bracket pair plus hairpin
    flat_weight = oy * (oy + x * y)        # blue nesting or red hairpin
    up_pows = _powers(up_weight, order // 2 + 1)
    flat_pows = _powers(flat_weight, max(0, order - 1))
    start = x * y * y
    coeffs = [zero]
    for ell in range(1, order + 1):
        n = ell - 1
        acc = zero
        for u in range(n // 2 + 1):
            acc = acc + counts.motzkin_poly_coeff(n, u) * up_pows[u] * flat_pows[n - 2 * u]
        coeffs.append(start * acc)
    return coeffs


_XVARS = ("x",)


def coker1_sides_by_products(n, counts):
    """Both sides of Coker's first identity as sums of Poly products:
    sum_k N(n, k) x^(k-1) and sum_k M(n-1, k) x^k (1+x)^(n-2k-1)."""
    x = Poly.var(_XVARS, "x")
    one = Poly.one(_XVARS)
    lhs = Poly.zero(_XVARS)
    for k in range(1, n + 1):
        lhs = lhs + counts.narayana(n, k) * x ** (k - 1)
    rhs = Poly.zero(_XVARS)
    for k in range((n - 1) // 2 + 1):
        rhs = rhs + counts.motzkin_poly_coeff(n - 1, k) * x ** k * (one + x) ** (n - 2 * k - 1)
    return lhs, rhs


def coker2_sides_by_products(n, counts):
    """Both sides of Coker's second identity as sums of Poly products:
    sum_k N(n, k) x^(2k-2) (1+x)^(2n-2k) and
    sum_k C_k C(n-1, k-1) (x (1+x))^(k-1)."""
    x = Poly.var(_XVARS, "x")
    one = Poly.one(_XVARS)
    lhs = Poly.zero(_XVARS)
    for k in range(1, n + 1):
        lhs = lhs + counts.narayana(n, k) * x ** (2 * (k - 1)) * (one + x) ** (2 * (n - k))
    rhs = Poly.zero(_XVARS)
    for k in range(1, n + 1):
        rhs = rhs + counts.catalan(k) * counts.binomial(n - 1, k - 1) * (x * (one + x)) ** (k - 1)
    return lhs, rhs


def level0_gf_by_inverse(order, t=None):
    """The level-0 GF in w to the given order as A / (1 - t w A), with
    A = 1 / (1 - w^2 M) from the Motzkin series M.  Coefficients are
    polynomials in t, or scalars at a rational t = p/q; there the series in
    q w at t = p is expanded in integers and coefficient n divided by q^n."""
    m1 = motzkin_gf_by_sqrt(order, with_v=False)
    a = series_inverse(([1, 0] + [-c for c in m1[: order - 1]])[: order + 1])
    if t is None:
        p, q = Poly.var(("t",), "t"), 1
        zero = Poly.zero(("t",))
    else:
        p, q = Fraction(t).as_integer_ratio()
        zero = 0
    a_q = [c * q ** n for n, c in enumerate(a)]
    a_t = [zero + c for c in a_q]
    one_minus_twa = [zero + 1] + [-(p * c) for c in a_q[:order]]
    scaled = series_mul(a_t, series_inverse(one_minus_twa))
    return [c if t is None else exact_quotient(c, q ** n) for n, c in enumerate(scaled)]


def poly_product_naive(a, b):
    """The term dict of a * b for two Polys, by the double loop over their
    terms, with zero sums dropped."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# the structure pipeline, one vertex at a time


def pairing_by_vertex(text):
    """The 1-based pairing tuple of a dot-bracket string (entry 0 unused),
    raising IllegalCharacter, UnbalancedBrackets or AdjacentPair in that
    order."""
    bad = set(text) - set(".()")
    if bad:
        i = min(map(text.index, bad))
        raise IllegalCharacter(f"character {text[i]!r} at position {i + 1}")
    partner = match_brackets(text)
    if "()" in text:
        i = text.index("()") + 1
        raise AdjacentPair(f"pair ({i},{i + 1}) joins adjacent vertices")
    return tuple([None] + [None if j is None else j + 1 for j in partner])


def analyze_elements_by_vertex(pairing):
    """The ElementReport of a pairing, from the children of every pair."""
    n = len(pairing) - 1
    pairs = tuple(
        (i, pairing[i]) for i in range(1, n + 1)
        if pairing[i] is not None and pairing[i] > i
    )
    children = {p: [] for p in pairs}
    top = []
    open_stack = []
    for i in range(1, n + 1):
        j = pairing[i]
        if j is None:
            continue
        if j > i:
            p = (i, j)
            if open_stack:
                children[open_stack[-1]].append(p)
            else:
                top.append(p)
            open_stack.append(p)
        else:
            open_stack.pop()

    hairpins = []
    bulges = []
    interior = []
    multis = []
    for (i, j), kids in children.items():
        gaps = []
        prev = i
        for a, b in kids:
            gaps.append((prev + 1, a - 1))
            prev = b
        gaps.append((prev + 1, j - 1))
        runs = [(a, b) for a, b in gaps if a <= b]
        if not kids:
            hairpins.append(((i, j), j - i - 1))
        elif len(kids) == 1:
            if len(runs) == 2:
                interior.append((runs[0], runs[1]))
            elif len(runs) == 1:
                bulges.append(runs[0])
            # no runs: the pair simply stacks on its child
        else:
            lengths = tuple(sorted(max(0, b - a + 1) for a, b in gaps))
            multis.append((len(kids) + 1, lengths))

    tails = []
    external_runs = []
    if top:
        first = top[0][0]
        last = top[-1][1]
        if first > 1:
            tails.append((1, first - 1))
        if last < n:
            tails.append((last + 1, n))
        prev_end = None
        for a, b in top:
            if prev_end is not None and a > prev_end + 1:
                external_runs.append((prev_end + 1, a - 1))
            prev_end = b
    elif n:
        external_runs.append((1, n))

    stacks = []
    for i, j in pairs:
        if i >= 2 and pairing[i - 1] == j + 1:
            continue  # interior pair of a stack already reported
        k = 1
        while i + k < j - k and pairing[i + k] == j - k:
            k += 1
        stacks.append(((i, j), k))

    islands = []
    start = None
    for i in range(1, n + 2):
        paired = i <= n and pairing[i] is not None
        if paired and start is None:
            start = i
        elif not paired and start is not None:
            islands.append((start, i - 1))
            start = None

    return ElementReport(
        hairpins=tuple(hairpins),
        bulges=tuple(bulges),
        tails=tuple(tails),
        interior_loops=tuple(interior),
        multiloops=tuple(multis),
        external_runs=tuple(external_runs),
        external_components=len(top),
        stacks=tuple(stacks),
        islands=tuple(islands),
    )


def island_text_by_vertex(pairing):
    """The island diagram text of a pairing: tails dropped, every unpaired
    run between islands one "_"."""
    n = len(pairing) - 1
    paired = [i for i in range(1, n + 1) if pairing[i] is not None]
    if not paired:
        return ""
    first, last = paired[0], paired[-1]
    chunks = []
    i = first
    while i <= last:
        j = pairing[i]
        if j is None:
            chunks.append("_")
            while i <= last and pairing[i] is None:
                i += 1
        else:
            chunks.append("(" if j > i else ")")
            i += 1
    return "".join(chunks)


def pi_prime_text_by_vertex(pairing):
    """The pi-prime text of a pairing: one "[]" per maximal stack, one "_"
    per unpaired run."""
    n = len(pairing) - 1
    chunks = []
    i = 1
    while i <= n:
        j = pairing[i]
        if j is None:
            chunks.append("_")
            while i <= n and pairing[i] is None:
                i += 1
            continue
        if j > i:
            if pairing[i - 1] != j + 1:
                chunks.append("[")
        else:
            if pairing[j - 1] != i + 1:
                chunks.append("]")
        i += 1
    return "".join(chunks)


def check_island_text(t):
    """Raise what an invalid island diagram text raises; every pair's
    interior of length 1 or 2 must be the single blank "_"."""
    bad = set(t) - set("()_")
    if bad:
        raise IllegalCharacter(f"island diagram characters {sorted(bad)}")
    partner = match_brackets(t)
    if t.startswith("_") or t.endswith("_"):
        raise ValueError(f"island diagram has a tail blank: {t!r}")
    if "__" in t:
        raise ValueError(f"island diagram has consecutive blanks: {t!r}")
    for i, j in enumerate(partner):
        if j is not None and 0 < j - i <= 2 and t[i + 1 : j] != "_":
            raise ValueError(f"hairpin without a single blank at {i} in {t!r}")


def dot_brackets(length, hairpin):
    """Every dot-bracket string of the length whose hairpin loops have at
    least ``hairpin`` >= 1 unpaired bases: a leading "." or a leading pair
    "(" inner ")" followed by the rest, where the inner part holds a pair or
    at least ``hairpin`` bases.  Each shorter length is built once per call."""

    @cache
    def strings(n):
        if n == 0:
            return ("",)
        out = ["." + rest for rest in strings(n - 1)]
        for k in range(n - 1):
            inner = [t for t in strings(k) if k >= hairpin or "(" in t]
            out += ["(" + t + ")" + rest for t in inner for rest in strings(n - 2 - k)]
        return tuple(out)

    return strings(length)


def pi_shapes_by_components(length, hairpin):
    """The number of distinct pi shapes of the structures of dot_brackets,
    keyed by component number minus one (r0).  An unpaired base changes no
    pi shape, so every shape of minimum length up to ``length`` appears."""
    shapes = {}
    for text in dot_brackets(length, hairpin):
        if "(" in text:
            shape = to_pi(to_pi_prime(parse_structure(text)))
            shapes.setdefault(pi_stats(shape).components - 1, set()).add(shape.text)
    return {r0: len(texts) for r0, texts in shapes.items()}
