"""Exact truncated power series and the generating functions built from them.

A TruncatedSeries holds the coefficients of a series in one variable up
to a stated order: ints, or Polys in the other variables.  Each generating
function here is algebraic, hence D-finite, so its coefficients follow a
short linear recurrence whose multipliers are polynomials in the index.
The Motzkin GF, the island closed form and the level-0 GF run such a
recurrence in integers, and each of its divisions is exact: a remainder
raises DivisibilityFailure.  The Narayana and 2-Motzkin forms of the
island GF, and both sides of Coker's identities, are finite sums of
c * x^a * (1 + y)^b terms, each power read off a row of Pascal's triangle
into one term dict.  There is no series square root, inverse or product
kernel (sqrt(p) below also runs its recurrence), and no product of Polys
outside the recurrences.  Fraction appears only in the level-0 GF at a
rational t, where a coefficient is not integral.

compatible_counts tabulates the pi-shape counts by an (n, u, r0) loop over
Motzkin path classes; _pi_counts reads a total, weighted sum or row at one
nu off S = sqrt(p), p = singular_polynomial(lam), in O(nu) per quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Sequence

from .counting import ExactCounts, _motzkin_numbers
from .errors import IDENTITY_NAMES, DivisibilityFailure, ResourceGuardExceeded, UnknownIdentity
from .poly import Poly, _build


class TruncatedSeries:
    """Coefficients c[0..order] of a power series in one variable."""

    __slots__ = ("variable", "order", "coeffs", "zero")

    def __init__(self, variable: str, coeffs: Sequence, order: int | None = None, zero=0):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        while len(coeffs) < order + 1:
            coeffs.append(zero)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))
        object.__setattr__(self, "zero", zero)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and list(self.coeffs) == list(other.coeffs)

    __hash__ = None


# ---------------------------------------------------------------------------
# generating-function expansions


# the largest Motzkin GF order: about 1 s of CPU and 60 MB at 2 vCPUs
MOTZKIN_GF_LIMIT = 1000


def expand_motzkin_gf(order: int = 64, with_v: bool = True,
                      counts: ExactCounts | None = None) -> TruncatedSeries:
    """Expand the Motzkin generating function in w to the given order.

    The coefficient of w^n is the Motzkin polynomial M_n in v (coefficient
    of v^k equals motzkin_poly_coeff(n, k)), or the Motzkin number at
    v = 1 when ``with_v`` is false.  M = (1 - w - sqrt((1 - w)^2 - 4 v w^2))
    / (2 v w^2) is algebraic, so its coefficients follow the P-recurrence
    (n+2) M_n = (2n+1) M_{n-1} + (n-1)(4v-1) M_{n-2} from M_0 = M_1 = 1,
    one exact int division per coefficient.  At v = 1, where 4v - 1 = 3,
    these are the Motzkin numbers of the counting module.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MOTZKIN_GF_LIMIT:
        raise ResourceGuardExceeded(f"motzkin gf order {order} exceeds guard {MOTZKIN_GF_LIMIT}")
    if not with_v:
        return TruncatedSeries("w", list(islice(_motzkin_numbers(), order + 1)), order)
    one = Poly.one(("v",))
    a = 4 * Poly.var(("v",), "v") - 1
    coeffs = [one, one][: order + 1]
    for n in range(2, order + 1):
        coeffs.append(((2 * n + 1) * coeffs[-1] + (n - 1) * (a * coeffs[-2])).exact_div(n + 2))
    return TruncatedSeries("w", coeffs, order, Poly.zero(("v",)))


def _binomial_sum(variables: tuple, triples) -> Poly:
    """The Poly sum of c * m * (1 + v)^b over (c, exponents of m, b) triples,
    v the last variable, each power expanded from one row of Pascal's
    triangle straight into the term dict."""
    triples = list(triples)
    rows = [[1]]
    for _ in range(max((b for _, _, b in triples), default=0)):
        rows.append([1] + [a + b for a, b in zip(rows[-1], rows[-1][1:])] + [1])
    terms: dict[tuple, int] = {}
    for c, (*head, e), b in triples:
        for j, r in enumerate(rows[b]):
            key = (*head, e + j)
            terms[key] = terms.get(key, 0) + c * r
    return _build(variables, terms)


ISLAND_GF_FORMS = ("narayana", "closed", "motzkin2")


def expand_island_gf(order: int = 24, form: str = "closed",
                     counts: ExactCounts | None = None,
                     limit: int = 24) -> TruncatedSeries:
    """Expand the island-diagram generating function in z to the given order.

    Coefficients are polynomials in x (hairpins) and y (islands); the
    coefficient of x^h y^I z^ell equals island_count(h, I, ell).  Three
    equivalent routes are provided.  The "narayana" and "motzkin2" forms
    both sum w_h x^h y^(h+1) (1+y)^(2 ell-1-h) over h, each power of 1+y
    from a Pascal row.  The Narayana sum has w_h = N(ell, h).  The 2-Motzkin
    step-weight sum, its flat step (1+y)(1+y+xy) expanded binomially, has
    w_h = sum_u M(ell-1, u) C(ell-1-2u, h-1-u), M(n, u) = motzkin_poly_coeff.
    The "closed" form is the root of a quadratic in F, expanded by the
    three-term linear recurrence of that algebraic root in integers, with
    no square root and no product of two series coefficients.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > limit:
        raise ResourceGuardExceeded(f"island gf order {order} exceeds guard {limit}")
    if form not in ISLAND_GF_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {ISLAND_GF_FORMS}")
    counts = counts or ExactCounts()
    variables = ("x", "y")
    zero = Poly.zero(variables)
    one = Poly.one(variables)
    x = Poly.var(variables, "x")
    y = Poly.var(variables, "y")
    oy = one + y

    if form != "closed":
        # coefficient ell is the sum over h of w_h x^h y^(h+1) (1+y)^(2 ell-1-h)
        coeffs = [zero]
        for ell in range(1, order + 1):
            if form == "narayana":
                weights = [counts.narayana(ell, h) for h in range(1, ell + 1)]
            else:
                # u up steps x y (1+y)^3 and j red flat steps x y of the
                # n - 2u flat steps (1+y)(1+y+xy), after the start x y^2
                n = ell - 1
                motzkin = [counts.motzkin_poly_coeff(n, u) for u in range(n // 2 + 1)]
                weights = [sum(m * counts.binomial(n - 2 * u, h - 1 - u)
                               for u, m in enumerate(motzkin)) for h in range(1, ell + 1)]
            coeffs.append(_binomial_sum(variables, ((w, (h, h + 1), 2 * ell - 1 - h)
                                                    for h, w in enumerate(weights, 1))))
        return TruncatedSeries("z", coeffs, order, zero)

    # closed form: F = (1 - c1 z - sqrt(1 - 2 c1 z + c2 z^2)) y / (2 (1+y)^3 z)
    # with c1 = (1+y)(1+y+xy) and c2 = ((1+y)(1+y-xy))^2.  The square root S
    # solves (1 - 2 c1 z + c2 z^2) S' = (c2 z - c1) S, and for m >= 1 each F_m
    # is a fixed multiple of S_{m+1}, so from F_1 = x y^2 and F_2 = c1 x y^2:
    # (m+1) F_m = (2m-1) c1 F_{m-1} + (2-m) c2 F_{m-2} for m >= 3.
    c1 = oy * (oy + x * y)
    c2 = (oy * (oy - x * y)) ** 2
    start = x * y * y
    coeffs = [zero, start, c1 * start][: order + 1]
    for m in range(3, order + 1):
        coeffs.append(((2 * m - 1) * (c1 * coeffs[-1])
                       + (2 - m) * (c2 * coeffs[-2])).exact_div(m + 1))
    return TruncatedSeries("z", coeffs, order, zero)


def expand_level0_gf(order: int = 64, counts: ExactCounts | None = None,
                     limit: int = 200, t=None,
                     numeric_limit: int = 2000) -> TruncatedSeries:
    """Expand the level-0 refinement of the Motzkin generating function.

    The coefficient of t^r0 w^n equals level0_total(r0, n).  The paths with
    no level-0 horizontal step have A = 1 / (1 - w^2 M) = (1 + w M) / (1 + w),
    since M = 1 + w M + w^2 M^2, so L = A / (1 - t w A) reduces to
    L = (1 - t + w M) / (1 - t + (1 - t + t^2) w).  Its coefficients follow
    from L_0 = 1 and (1 - t) L_n = M_{n-1} - (1 - t + t^2) L_{n-1}, with no
    square root, series inverse or product.

    With ``t`` left out the coefficients are polynomials in t, and the
    division by 1 - t is a running prefix sum.  Passing a rational
    ``t = p/q`` makes them scalars (ints, or Fractions when a value is not
    integral), which allows much larger orders than the polynomial guard:
    l_n = q^n L_n runs in integers by
    (q - p) l_n = q^(n+1) M_{n-1} - (q^2 - p q + p^2) l_{n-1}, and each l_n
    is divided by q^n once at the end.  At t = 1 the coefficients are the
    Motzkin numbers.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    cap = limit if t is None else numeric_limit
    if order > cap:
        raise ResourceGuardExceeded(f"level0 gf order {order} exceeds guard {cap}")
    motzkin = list(islice(_motzkin_numbers(), order + 1))  # M_0 .. M_order
    if t is None:
        return _level0_gf_in_t(motzkin[:order], order)
    p, q = Fraction(t).as_integer_ratio()
    if p == q:
        return TruncatedSeries("w", motzkin, order)
    scaled = [1]  # l_n = q^n L_n
    for n, m in enumerate(motzkin[:order], 1):
        l_n, rem = divmod(q ** (n + 1) * m - (q * q - p * q + p * p) * scaled[-1], q - p)
        if rem:
            raise DivisibilityFailure(f"level0 gf at t = {p}/{q}: non-integral l_{n}")
        scaled.append(l_n)
    return TruncatedSeries("w", [_quotient(c, q ** n) for n, c in enumerate(scaled)], order)


def _quotient(a: int, b: int) -> int | Fraction:
    """a / b as an int when b divides a, else as a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _level0_gf_in_t(motzkin: list, order: int) -> TruncatedSeries:
    """The level-0 GF in t, each L_n held as the int list of its
    coefficients.  The prefix sums of R divide it by 1 - t; their last
    entry is R(1), which must vanish."""
    variables = ("t",)
    level = [1]
    out = [Poly.one(variables)]
    for m in motzkin:
        # R = M_{n-1} - (1 - t + t^2) L_{n-1}, of degree n + 1 in t
        rest = [0] * (len(level) + 2)
        for k, c in enumerate(level):
            rest[k] -= c
            rest[k + 1] += c
            rest[k + 2] -= c
        rest[0] += m
        level = list(accumulate(rest))
        if level.pop():
            raise DivisibilityFailure("level0 gf: R(1) is nonzero, 1 - t does not divide R")
        out.append(_build(variables, {(k,): c for k, c in enumerate(level)}))
    return TruncatedSeries("w", out, order, Poly.zero(variables))


# ---------------------------------------------------------------------------
# compatible pi-shape counts


@dataclass(frozen=True)
class CompatibleTable:
    """Counts of pi shapes compatible with backbones up to a given length.

    ``counts[r0][nu]`` is the number of pi shapes with r0 + 1 components
    whose minimum backbone length is at most nu, under a minimum hairpin
    loop of lam - 1 unpaired vertices.
    """

    lam: int
    nu_max: int
    counts: tuple

    @property
    def r0_max(self) -> int:
        return len(self.counts) - 1

    def count(self, r0: int, nu: int) -> int:
        if nu < 0 or nu > self.nu_max:
            raise IndexError(f"nu = {nu} outside 0..{self.nu_max}")
        if r0 < 0:
            raise IndexError("r0 must be nonnegative")
        if r0 >= len(self.counts):
            return 0
        return self.counts[r0][nu]

    def total(self, nu: int) -> int:
        return sum(self.count(r0, nu) for r0 in range(len(self.counts)))

    def weighted_sum(self, nu: int) -> int:
        return sum(r0 * self.count(r0, nu) for r0 in range(len(self.counts)))


def singular_polynomial(lam: int) -> list:
    """Ascending coefficients of p(z) = z^(2 lam + 2) - 4 z^(lam + 3)
    - 2 z^(lam + 1) + 1; exponents collide when lam = 1."""
    if lam < 1:
        raise ValueError(f"lam must be positive, got {lam}")
    coeffs = [0] * (2 * lam + 3)
    coeffs[0] += 1
    coeffs[lam + 1] -= 2
    coeffs[lam + 3] -= 4
    coeffs[2 * lam + 2] += 1
    return coeffs


def _pi_counts(lam: int, nu: int, r0s=(), limit: int = 2000) -> tuple[int, int, dict]:
    """The cumulative total, weighted sum and rows r0 in ``r0s`` at nu of
    compatible_counts(lam, nu), without the table.

    With a = lam + 1, a flat step weighs x^a and an up-down pair x^(a+2),
    so the shapes by minimum backbone length have the GF u = x^a M, where
    M = 1 + x^a M + x^(a+2) M^2.  Its discriminant is p(x), so with
    S = sqrt(p) = 1 - x^a - 2 x^(a+2) M:

    - S follows from 2 p S' = p' S: S_0 = 1 and
      2n S_n = sum_k (3k - 2n) p_k S_(n-k) over the nonzero p_k, k >= 1.
    - M_k = -S_(k+a+2) / 2, and the total at nu is sum_(k <= nu-a) M_k.
    - Marking each of the r0 + 1 components by t, the table is the running
      sum of R = sum_r0 t^r0 K^(r0+1) = u / (1 + (1 - t) u), K = u / (1 + u).
      The weighted sum is the running sum of dR/dt at t = 1, which is u^2,
      and x^2 u^2 = (1 - x^a) u - x^a gives [x^j] u^2 =
      M_(j-a+2) - M_(j-2a+2) for j >= 2a, so it is a sum of M alone.
    - K solves (1 + x^2) K^2 - (1 + x^a) K + x^a = 0, so
      K = (1 + x^a - S) / (2 (1 + x^2)) = (x^a + x^(a+2) M) / (1 + x^2),
      and (1 + x^2) K^(j+2) = (1 + x^a) K^(j+1) - x^a K^j.  Row r0 is the
      running sum of K^(r0+1); K^j starts at x^(a j), so rows with
      a (r0 + 1) > nu are 0, and division by 1 + x^2 is
      c_i = b_i - c_(i-2).

    Every division is exact; a remainder raises DivisibilityFailure.
    """
    if lam < 1:
        raise ValueError(f"lam must be positive, got {lam}")
    if nu < 0:
        raise ValueError("nu_max must be nonnegative")
    if nu > limit:
        raise ResourceGuardExceeded(f"nu_max = {nu} exceeds guard {limit}")
    rows = dict.fromkeys(r0s, 0)
    if rows and min(rows) < 0:
        raise IndexError("r0 must be nonnegative")
    a = lam + 1
    terms = [(k, c) for k, c in enumerate(singular_polynomial(lam)) if k and c]
    s = [1]
    for n in range(1, nu + 5):
        s_n, rem = divmod(sum((3 * k - 2 * n) * c * s[n - k] for k, c in terms if k <= n), 2 * n)
        if rem:
            raise DivisibilityFailure(f"pi counts: S_{n} of sqrt(p) is not an integer")
        s.append(s_n)
    m = []  # M_0 .. M_(nu-a+2)
    for c in s[a + 2:]:
        m_k, rem = divmod(-c, 2)
        if rem:
            raise DivisibilityFailure(f"pi counts: M_{len(m)} is not an integer")
        m.append(m_k)
    prefix = list(accumulate(m, initial=0))

    def span(lo: int, hi: int) -> int:  # M_lo + ... + M_hi
        return prefix[hi + 1] - prefix[lo] if hi >= lo else 0

    total = span(0, nu - a)
    weighted = span(a + 2, nu - a + 2) - span(2, nu - 2 * a + 2)
    top = min(max(rows, default=-1) + 1, nu // a)  # the last power of K below x^(nu+1)
    if top >= 1:
        power = [0] * (nu + 1)  # K
        for i in range(a, nu + 1):
            power[i] = (i == a) + (m[i - a - 2] if i >= a + 2 else 0) - power[i - 2]
        below = [1] + [0] * nu  # K^0
        for e in range(1, top + 1):
            if e - 1 in rows:
                rows[e - 1] = sum(power)
            if e < top:
                nxt = [0] * (nu + 1)
                for i in range(a * (e + 1), nu + 1):
                    nxt[i] = power[i] + power[i - a] - below[i - a] - nxt[i - 2]
                below, power = power, nxt
    return total, weighted, rows


def compatible_counts(lam: int, nu_max: int, counts: ExactCounts | None = None,
                      limit: int = 2000) -> CompatibleTable:
    """Tabulate compatible pi-shape counts by component number.

    A Motzkin path of size n with u up steps stands for a pi shape with
    2(n + 1) bracket vertices and n - u + 1 hairpin loops of lam - 1
    unpaired vertices each, so its minimum backbone length is
    (lam + 1)(n + 1) - (lam - 1) u.  Summing the closed path counts per
    (n, u, r0) class and cumulating over length realises the table without
    any Laurent-series substitution.
    """
    if lam < 1:
        raise ValueError(f"lam must be positive, got {lam}")
    if nu_max < 0:
        raise ValueError("nu_max must be nonnegative")
    if nu_max > limit:
        raise ResourceGuardExceeded(f"nu_max = {nu_max} exceeds guard {limit}")
    counts = counts or ExactCounts()
    rows: dict[int, dict[int, int]] = {}

    def add(r0: int, nu: int, c: int):
        row = rows.setdefault(r0, {})
        row[nu] = row.get(nu, 0) + c

    n = 0
    while True:
        base = (lam + 1) * (n + 1)
        if base - (lam - 1) * (n // 2) > nu_max:
            break
        if lam == 1:
            # length does not depend on u, so whole-size totals suffice
            if base <= nu_max:
                for r0 in range(n + 1):
                    c = counts.level0_total(r0, n)
                    if c:
                        add(r0, base, c)
        else:
            if base <= nu_max:
                add(n, base, 1)  # the all-horizontal path
            for u in range(1, n // 2 + 1):
                nu = base - (lam - 1) * u
                if nu > nu_max:
                    continue
                for r0 in range(n - 2 * u + 1):
                    c = counts.level0_count(r0, n, u)
                    if c:
                        add(r0, nu, c)
        n += 1

    r0_max = max(rows) if rows else 0
    table = []
    for r0 in range(r0_max + 1):
        row = rows.get(r0, {})
        cum = []
        acc = 0
        for nu in range(nu_max + 1):
            acc += row.get(nu, 0)
            cum.append(acc)
        table.append(tuple(cum))
    return CompatibleTable(lam, nu_max, tuple(table))


# ---------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity over a parameter range."""

    name: str
    range_checked: str
    instances: tuple  # (instance description, ok) pairs

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.instances)

    @property
    def counterexample(self) -> str | None:
        for desc, ok in self.instances:
            if not ok:
                return desc
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "range": self.range_checked,
            "status": "pass" if self.passed else "fail",
            "counterexample": self.counterexample,
        }


_XVARS = ("x",)


def _coker1_sides(n: int, counts: ExactCounts) -> tuple[Poly, Poly]:
    lhs = _binomial_sum(_XVARS, ((counts.narayana(n, k), (k - 1,), 0) for k in range(1, n + 1)))
    rhs = _binomial_sum(_XVARS, ((counts.motzkin_poly_coeff(n - 1, k), (k,), n - 2 * k - 1)
                                 for k in range((n - 1) // 2 + 1)))
    return lhs, rhs


def _coker2_sides(n: int, counts: ExactCounts) -> tuple[Poly, Poly]:
    lhs = _binomial_sum(_XVARS, ((counts.narayana(n, k), (2 * k - 2,), 2 * n - 2 * k)
                                 for k in range(1, n + 1)))
    rhs = _binomial_sum(_XVARS, ((counts.catalan(k) * counts.binomial(n - 1, k - 1),
                                  (k - 1,), k - 1) for k in range(1, n + 1)))
    return lhs, rhs


# smallest, default and largest bound per identity, in the order of
# IDENTITY_NAMES: the smallest is the first that checks an instance, and
# each ceiling finishes within about a second of CPU and 45 MB on a 2-vCPU
# machine.  The ceilings were sized when the island GF sums and Coker's
# identities multiplied Polys; at them narayana_motzkin, coker1, coker2 and
# island_gf_forms_agree now take 0.02-0.03, 0.014-0.024, 0.015-0.024 and
# 0.03-0.06 s of CPU (best of 5 calls, CPython 3.11, a CPU whose speed
# drifts up to 1.8x)
IDENTITY_BOUNDS = {
    "narayana_motzkin": (1, 12, 28),
    "coker1": (1, 12, 60),
    "coker2": (1, 12, 36),
    "touchard": (1, 12, 550),
    "chu_vandermonde": (0, 6, 30),
    "parity_m0m1": (1, 30, 450),
    "pi_parity": (0, 50, 180),
    "island_gf_forms_agree": (0, 10, 18),
}


def verify_identity(name: str, bound: int | None = None,
                    counts: ExactCounts | None = None) -> IdentityReport:
    """Check one named identity by exact arithmetic over its range.

    ``bound`` caps the range (ell, n, the chu_vandermonde box side, the
    pi_parity k, or the series order, depending on the identity).
    """
    if name not in IDENTITY_NAMES:
        raise UnknownIdentity(f"unknown identity {name!r}; known: {IDENTITY_NAMES}")
    minimum, default, _ = IDENTITY_BOUNDS[name]
    bound = default if bound is None else bound
    if bound < minimum:
        raise ValueError(f"verify {name}: bound {bound} is below {minimum}")
    counts = counts or ExactCounts()
    instances: list[tuple[str, bool]] = []

    if name == "narayana_motzkin":
        # the Narayana sum and the 2-Motzkin step-weight sum of the island
        # GF, compared coefficient by coefficient
        lhs = expand_island_gf(bound, "narayana", counts, limit=bound)
        rhs = expand_island_gf(bound, "motzkin2", counts, limit=bound)
        for ell in range(1, bound + 1):
            instances.append((f"ell={ell}", lhs.coefficient(ell) == rhs.coefficient(ell)))
        rng = f"ell = 1..{bound}"
    elif name == "coker1":
        for n in range(1, bound + 1):
            lhs, rhs = _coker1_sides(n, counts)
            instances.append((f"n={n}", lhs == rhs))
        rng = f"n = 1..{bound}"
    elif name == "coker2":
        for n in range(1, bound + 1):
            lhs, rhs = _coker2_sides(n, counts)
            instances.append((f"n={n}", lhs == rhs))
        rng = f"n = 1..{bound}"
    elif name == "touchard":
        for n in range(1, bound + 1):
            rhs = sum(
                counts.catalan(k) * counts.binomial(n - 1, 2 * k) * 2 ** (n - 2 * k - 1)
                for k in range((n - 1) // 2 + 1)
            )
            instances.append((f"n={n}", counts.catalan(n) == rhs))
        rng = f"n = 1..{bound}"
    elif name == "chu_vandermonde":
        for m in range(bound + 1):
            for t in range(m + 1):
                for n in range(bound + 1):
                    rhs = sum(
                        counts.binomial(m + n - t - alpha, n - alpha)
                        * counts.binomial(t + alpha, alpha)
                        for alpha in range(n + 1)
                    )
                    ok = counts.binomial(m + n + 1, n) == rhs
                    instances.append((f"m={m},t={t},n={n}", ok))
        rng = f"0 <= t <= m <= {bound}, n <= {bound}"
    elif name == "parity_m0m1":
        for n in range(1, bound + 1):
            diff = counts.level0_total(0, n) - counts.level0_total(1, n)
            instances.append((f"n={n}", diff == (-1) ** n))
        rng = f"n = 1..{bound}"
    elif name == "pi_parity":
        for lam in (1, 3):
            table = compatible_counts(lam, 2 * bound + 1, counts)
            for k in range(bound + 1):
                ok = table.total(2 * k) == table.total(2 * k + 1)
                instances.append((f"lam={lam},k={k}", ok))
        rng = f"lam in (1, 3), k = 0..{bound}"
    else:  # island_gf_forms_agree
        series = {f: expand_island_gf(bound, f, counts) for f in ISLAND_GF_FORMS}
        for ell in range(bound + 1):
            ok = (
                series["narayana"].coefficient(ell)
                == series["closed"].coefficient(ell)
                == series["motzkin2"].coefficient(ell)
            )
            instances.append((f"ell={ell}", ok))
        rng = f"z order 0..{bound}"

    return IdentityReport(name, rng, tuple(instances))
