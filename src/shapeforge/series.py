"""Exact truncated power series and the generating functions built from them.

Coefficients live in an exact ring: int and Fraction scalars, or Poly for
multivariate expansions.  A series with integral coefficients stays in
integers throughout, the square root included, so Fraction appears only
where a value is not integral.  Series are immutable; all operations
truncate at the stated order and never consult coefficients beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Callable, Sequence

from .counting import ExactCounts, _motzkin_numbers
from .errors import (
    DivisibilityFailure,
    NonUnitConstantTerm,
    ResourceGuardExceeded,
    SelfCheckFailure,
    UnknownIdentity,
)
from .poly import Poly, exact_quotient, exact_scalar


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

    @property
    def one(self):
        return self.zero + 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def map_coeffs(self, f: Callable, zero=None) -> "TruncatedSeries":
        return TruncatedSeries(
            self.variable,
            [f(c) for c in self.coeffs],
            self.order,
            self.zero if zero is None else zero,
        )

    def _wrap(self, coeffs) -> "TruncatedSeries":
        return TruncatedSeries(self.variable, coeffs, self.order, self.zero)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            self.variable,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            order,
            self.zero,
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            self.variable,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            order,
            self.zero,
        )

    def __neg__(self) -> "TruncatedSeries":
        return self._wrap([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._wrap([c * other for c in self.coeffs])
        order = min(self.order, other.order)
        out = [self.zero] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == self.zero:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b != other.zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.variable, out, order, self.zero)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and list(self.coeffs) == list(other.coeffs)

    __hash__ = None

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by the k-th power of the variable; the dropped coefficients
        must vanish."""
        for n in range(k):
            if self.coeffs[n] != self.zero:
                raise DivisibilityFailure(
                    f"coefficient of order {n} is nonzero, cannot shift by {k}"
                )
        return TruncatedSeries(self.variable, self.coeffs[k:], self.order - k, self.zero)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term 1."""
        if self.coeffs[0] != self.one:
            raise NonUnitConstantTerm("series inverse needs constant term 1")
        out = [self.one]
        for n in range(1, self.order + 1):
            acc = self.zero
            for k in range(1, n + 1):
                a = self.coeffs[k]
                if a != self.zero:
                    acc = acc + a * out[n - k]
            out.append(-acc)
        return self._wrap(out)

    def sqrt(self) -> "TruncatedSeries":
        """Square root by the coefficient recurrence, exact and in integers
        when the coefficients are integral.

        Requires constant term 1.  The recurrence runs on the scaled series
        Y_n = 4^n y_n, which is integral whenever the a_n are:
        2 Y_n = 4^n a_n - sum_{0<k<n} Y_k Y_{n-k}.  Each y_n is Y_n / 4^n,
        divided once at the end.  Self-check, by the series product rather
        than the recurrence: sum_{k<=n} Y_k Y_{n-k} = 4^n a_n for every n up
        to the order, which is y * y == a; a mismatch raises
        SelfCheckFailure.
        """
        if self.coeffs[0] != self.one:
            raise NonUnitConstantTerm("series sqrt needs constant term 1")
        scaled_a = self._wrap([4 ** n * a for n, a in enumerate(self.coeffs)])
        scaled = [self.one]
        for n in range(1, self.order + 1):
            half = self.zero
            for k in range(1, (n + 1) // 2):
                half = half + scaled[k] * scaled[n - k]
            rest = 2 * half
            if n % 2 == 0:
                rest = rest + scaled[n // 2] * scaled[n // 2]
            scaled.append(exact_quotient(scaled_a.coeffs[n] - rest, 2))
        root = self._wrap(scaled)
        if root * root != scaled_a:
            raise SelfCheckFailure("sqrt self-check failed: y * y differs from the series")
        return self._wrap([exact_quotient(c, 4 ** n) for n, c in enumerate(scaled)])


# ---------------------------------------------------------------------------
# generating-function expansions


def expand_motzkin_gf(order: int = 64, with_v: bool = True,
                      counts: ExactCounts | None = None) -> TruncatedSeries:
    """Expand the Motzkin generating function from its closed form.

    The coefficient of w^n is the Motzkin polynomial in v (coefficient of
    v^k equals motzkin_poly_coeff(n, k)), or the Motzkin number at v = 1
    when ``with_v`` is false.  Goes through the square root and the exact
    division by 2 v w^2, which cross-validates the series machinery against
    the closed counting formulas.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if with_v:
        v = Poly.var(("v",), "v")
        zero = Poly.zero(("v",))
    else:
        v = 1
        zero = 0
    one = zero + 1
    radicand = TruncatedSeries("w", [one, -2 * one, one - 4 * v], order + 2, zero)
    linear = TruncatedSeries("w", [one, -one], order + 2, zero)
    shifted = (linear - radicand.sqrt()).shift_down(2)
    return shifted.map_coeffs(lambda c: exact_quotient(c, 2 * v))


def _powers(base: Poly, n: int) -> list:
    out = [Poly.one(base.variables)]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


ISLAND_GF_FORMS = ("narayana", "closed", "motzkin2")


def expand_island_gf(order: int = 24, form: str = "closed",
                     counts: ExactCounts | None = None,
                     limit: int = 24) -> TruncatedSeries:
    """Expand the island-diagram generating function in z to the given order.

    Coefficients are polynomials in x (hairpins) and y (islands); the
    coefficient of x^h y^I z^ell equals island_count(h, I, ell).  Three
    equivalent routes are provided: a direct Narayana sum, the closed form,
    and the 2-Motzkin step-weight sum.  The closed form is the root of a
    quadratic in F, expanded by the coefficient recurrence of that
    quadratic in integers, with no square root and no polynomial division.
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

    if form == "narayana":
        oy_pows = _powers(oy, max(0, 2 * order - 2))
        coeffs = [zero]
        for ell in range(1, order + 1):
            acc = zero
            for h in range(1, ell + 1):
                acc = acc + counts.narayana(ell, h) * (x ** h) * (y ** (h + 1)) * oy_pows[2 * ell - 1 - h]
            coeffs.append(acc)
        return TruncatedSeries("z", coeffs, order, zero)

    if form == "motzkin2":
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
        return TruncatedSeries("z", coeffs, order, zero)

    # closed form: F = (1 - c1 z - sqrt(1 - 2 c1 z + c2 z^2)) y / (2 (1+y)^3 z)
    # with c1 = (1+y)(1+y+xy) and c2 = ((1+y)(1+y-xy))^2.  As
    # c1^2 - c2 = 4 x y (1+y)^3, F solves F = z (x y^2 + c1 F + (1+y)^3 F^2 / y):
    # F_1 = x y^2 and F_{n+1} = c1 F_n + (1+y)^3 sum_{0<i<n} F_i F_{n-i} / y.
    # Every F_i has y^2 in each term, so the division by y is exact.
    c1 = oy * (oy + x * y)
    cube = oy ** 3
    coeffs = [zero, x * y * y][: order + 1]
    for n in range(1, order):
        half = zero
        for i in range(1, (n + 1) // 2):
            half = half + coeffs[i] * coeffs[n - i]
        conv = 2 * half
        if n % 2 == 0:
            conv = conv + coeffs[n // 2] * coeffs[n // 2]
        coeffs.append(c1 * coeffs[n] + cube * _divide_by_y(conv))
    return TruncatedSeries("z", coeffs, order, zero)


def _divide_by_y(p: Poly) -> Poly:
    """p / y for p in (x, y), as a shift of the y exponent."""
    terms = {}
    for (i, j), c in p.terms.items():
        if not j:
            raise DivisibilityFailure(f"{p} is not divisible by y")
        terms[(i, j - 1)] = c
    return Poly(p.variables, terms)


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
    p, q = exact_scalar(t).as_integer_ratio()
    if p == q:
        return TruncatedSeries("w", motzkin, order)
    scaled = [1]  # l_n = q^n L_n
    for n, m in enumerate(motzkin[:order], 1):
        l_n, rem = divmod(q ** (n + 1) * m - (q * q - p * q + p * p) * scaled[-1], q - p)
        if rem:
            raise DivisibilityFailure(f"level0 gf at t = {p}/{q}: non-integral l_{n}")
        scaled.append(l_n)
    return TruncatedSeries("w", [exact_quotient(c, q ** n) for n, c in enumerate(scaled)], order)


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
        out.append(Poly(variables, {(k,): c for k, c in enumerate(level) if c}))
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
    x = Poly.var(_XVARS, "x")
    one = Poly.one(_XVARS)
    lhs = Poly.zero(_XVARS)
    for k in range(1, n + 1):
        lhs = lhs + counts.narayana(n, k) * x ** (k - 1)
    rhs = Poly.zero(_XVARS)
    for k in range((n - 1) // 2 + 1):
        rhs = rhs + counts.motzkin_poly_coeff(n - 1, k) * x ** k * (one + x) ** (n - 2 * k - 1)
    return lhs, rhs


def _coker2_sides(n: int, counts: ExactCounts) -> tuple[Poly, Poly]:
    x = Poly.var(_XVARS, "x")
    one = Poly.one(_XVARS)
    lhs = Poly.zero(_XVARS)
    for k in range(1, n + 1):
        lhs = lhs + counts.narayana(n, k) * x ** (2 * (k - 1)) * (one + x) ** (2 * (n - k))
    rhs = Poly.zero(_XVARS)
    for k in range(1, n + 1):
        rhs = rhs + counts.catalan(k) * counts.binomial(n - 1, k - 1) * (x * (one + x)) ** (k - 1)
    return lhs, rhs


# smallest, default and largest bound per identity: the smallest is the
# first that checks an instance, and each ceiling finishes within about a
# second of CPU and 45 MB on a 2-vCPU machine
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

IDENTITY_NAMES = tuple(IDENTITY_BOUNDS)


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
