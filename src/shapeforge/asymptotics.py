"""Dominant singularities and closed-form asymptotics for the shape counts.

The growth of compatible pi-shape counts under minimum arc-length lam is
governed by the smallest positive root zeta of

    p(z) = z^(2 lam + 2) - 4 z^(lam + 3) - 2 z^(lam + 1) + 1.

For odd lam the polynomial is even and the roots come in a pair +-zeta.
p has two sign changes, p(0) = 1 and p(1) = -4, so by Descartes' rule its
root in (0, 1) is unique, and it is irrational.  The bracket is the cell of
the 1/1000 grid, halved until no wider than 1e-12, that holds the root: a
float Newton estimate names the cell and two exact integer signs prove it.
The estimate only chooses where signs are read; otherwise floats appear in
the witness zeta and the quantities derived from it.  The deflated cofactor
at zeta is the closed form -zeta p'(zeta), halved for odd lam.

p is the discriminant of the shapes' generating function, so the exact pi
counts come from S = sqrt(p) at one nu (series._pi_counts, O(nu) and O(nu)
per row, no compatible_counts table) and zeta from its root; this module
re-exports singular_polynomial from series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count

from .counting import ExactCounts
from .errors import ASYM_TARGETS, LargeRemainder, NoRootFound, UnsupportedTarget
from .series import _pi_counts, singular_polynomial

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class DominantSingularity:
    """Isolated smallest positive root of the singular polynomial.

    ``low``/``high`` bracket the root with opposite exact signs; ``zeta``
    is the float midpoint witness.  After deflation, ``cofactor_at_zeta``
    holds Q(zeta) for even lam or R(zeta) for odd lam.
    """

    lam: int
    low: Fraction
    high: Fraction
    zeta: float
    parity: str  # "even" or "odd"
    cofactor_at_zeta: float | None = None


def _terms(lam: int) -> list:
    """p's nonzero terms (i, c_i), ascending; the last is the leading one."""
    return [(i, c) for i, c in enumerate(singular_polynomial(lam)) if c]


def _sign_at(terms, a: int, b: int) -> int:
    """Exact sign of p(a/b), b > 0: b^deg p(a/b) = sum c_i a^i b^(deg - i)."""
    deg = terms[-1][0]
    value = sum(c * a ** i * b ** (deg - i) for i, c in terms)
    return (value > 0) - (value < 0)


_SCAN_STEPS = 1000
_WIDTH = Fraction(1, 10 ** 12)
# the bracket is a cell of the 1/1000 grid halved until no wider than _WIDTH
_CELLS = _SCAN_STEPS << next(k for k in count() if Fraction(1, _SCAN_STEPS << k) <= _WIDTH)


def _cell(m: int, above) -> int:
    """The k with k/_CELLS below the root and (k + 1)/_CELLS above it, where
    above(k) says whether k/_CELLS lies above the root: a gallop outward
    from m (steps 1, 2, 4, ...), then bisection.  A right m costs two calls."""
    lo, hi, step = m, m + 1, 1
    while above(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while not above(hi):
        lo, hi, step = hi, min(hi + step, _CELLS), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return lo


def find_zeta(lam: int) -> DominantSingularity:
    """Isolate the unique root of p(z) on (0, 1).

    By Descartes' rule p has exactly one root in (0, 1), and it is
    irrational, so exactly one cell [k, k + 1]/_CELLS shows a sign change:
    the cell that a binary search of the 1/1000 grid and a bisection to
    ``_WIDTH`` end in.  A float Newton estimate names the cell, and two
    exact integer signs prove it; a wrong estimate only costs more signs.
    ``zeta`` is the float midpoint of the bracket.
    """
    if not 1 <= lam <= 32:
        raise ValueError(f"lam must be in 1..32, got {lam}")
    terms = _terms(lam)
    if not _sign_at(terms, 0, 1) > 0 > _sign_at(terms, 1, 1):
        raise NoRootFound(f"no sign change of p on (0, 1) for lam = {lam}")
    # Newton from z = 1: p is decreasing and concave on (0, 1], so the
    # iterates fall to the root; stop when rounding ends the fall
    z = 1.0
    while z - (step := sum(c * z ** i for i, c in terms)
               / sum(i * c * z ** (i - 1) for i, c in terms if i)) < z:
        z -= step
    k = _cell(min(max(int(z * _CELLS), 0), _CELLS - 1),
              lambda k: _sign_at(terms, k, _CELLS) < 0)
    return DominantSingularity(lam=lam, low=Fraction(k, _CELLS), high=Fraction(k + 1, _CELLS),
                               zeta=float(Fraction(2 * k + 1, 2 * _CELLS)),
                               parity="odd" if lam % 2 else "even")


def deflate(lam: int, sing: DominantSingularity) -> DominantSingularity:
    """Store the value at zeta of p's cofactor after dividing out its root(s).

    For even lam p(z) = Q(z) (1 - z/zeta), so Q(zeta) = -zeta p'(zeta); for
    odd lam p(z) = R(z) (1 - z/zeta)(1 + z/zeta), so R(zeta) =
    -zeta p'(zeta) / 2.  The witness is checked first: its bracket must show
    an exact sign change of p inside [0, 1], which proves it holds the
    unique root there, and it must hold the float zeta.
    """
    terms = _terms(lam)
    if not (0 <= sing.low < sing.high <= 1
            and _sign_at(terms, *sing.low.as_integer_ratio()) > 0
            > _sign_at(terms, *sing.high.as_integer_ratio())):
        raise LargeRemainder(
            f"bracket [{sing.low}, {sing.high}] shows no sign change of p in [0, 1]")
    if not sing.low <= Fraction(sing.zeta) <= sing.high:
        raise LargeRemainder(
            f"zeta = {sing.zeta!r} lies outside its bracket [{sing.low}, {sing.high}]")
    z = sing.zeta
    value = -z * sum(k * c * z ** (k - 1) for k, c in terms if k)
    if sing.parity == "odd":
        value /= 2
    return replace(sing, cofactor_at_zeta=value)


# ---------------------------------------------------------------------------
# limit distributions


def asym_level0(r0: int) -> float:
    """Limit of M(r0; n) / M_n: (r0 + 1) / 2^(r0 + 2)."""
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    return (r0 + 1) / 2 ** (r0 + 2)


def _pi_constants(lam: int, sing: DominantSingularity | None) -> tuple[float, float, DominantSingularity]:
    sing = sing if sing is not None and sing.lam == lam else find_zeta(lam)
    z = sing.zeta
    a = z * z / (1 + z * z)
    b = (1 + z ** (lam + 1)) / (2 * (1 + z * z))
    return a, b, sing


def asym_pi(lam: int, r0: int, sing: DominantSingularity | None = None) -> float:
    """Limit of pi(r0; nu) / pi(nu): (r0 + 1) a b^r0 with a = (1 - b)^2."""
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    a, b, _ = _pi_constants(lam, sing)
    return (r0 + 1) * a * b ** r0


def asym_pi_expected(lam: int, sing: DominantSingularity | None = None) -> float:
    """Limit of the expected r0 over compatible shapes: (1 - zeta^(lam+1)) / zeta^2."""
    _, _, sing = _pi_constants(lam, sing)
    z = sing.zeta
    return (1 - z ** (lam + 1)) / (z * z)


# ---------------------------------------------------------------------------
# leading-order count asymptotics
#
# Every formula folds Gamma(-1/2) = -2 sqrt(pi), so the constants below are
# positive whenever the counts are.


def _log_asym_motzkin(n: int) -> float:
    return (n + 1.5) * math.log(3) - math.log(2 * SQRT_PI) - 1.5 * math.log(n)


def _log_asym_level0_total(r0: int, n: int) -> float:
    return (
        math.log(r0 + 1)
        + (n + 1.5) * math.log(3)
        - (r0 + 3) * math.log(2)
        - math.log(SQRT_PI)
        - 1.5 * math.log(n)
    )


def _log_asym_level0_weighted(n: int) -> float:
    return (n + 1.5) * math.log(3) - math.log(SQRT_PI) - 1.5 * math.log(n)


def _require_cofactor(lam, sing):
    sing = sing if sing is not None and sing.lam == lam else deflate(lam, find_zeta(lam))
    if sing.cofactor_at_zeta is None:
        sing = deflate(lam, sing)
    return sing


def _parity_bracket(sing: DominantSingularity, nu: int) -> float:
    """1/(1-z) for even lam; the two-singularity sum for odd lam."""
    z = sing.zeta
    if sing.parity == "even":
        return 1 / (1 - z)
    return 1 / (1 - z) + (-1) ** nu / (1 + z)

def _sqrt_cofactor(sing: DominantSingularity) -> float:
    c = sing.cofactor_at_zeta
    if sing.parity == "odd":
        c = 2 * c
    if c <= 0:
        raise LargeRemainder(f"cofactor {c} at zeta is not positive")
    return math.sqrt(c)


def _log_asym_pi_total(lam: int, nu: int, sing: DominantSingularity) -> float:
    z = sing.zeta
    const = _sqrt_cofactor(sing) * _parity_bracket(sing, nu) / (4 * SQRT_PI)
    return (nu + 2) * math.log(1 / z) + math.log(const) - 1.5 * math.log(nu)


def _log_asym_pi_weighted(lam: int, nu: int, sing: DominantSingularity) -> float:
    z = sing.zeta
    const = (
        (1 - z ** (lam + 1))
        * _sqrt_cofactor(sing)
        * _parity_bracket(sing, nu)
        / (4 * SQRT_PI)
    )
    return (nu + 4) * math.log(1 / z) + math.log(const) - 1.5 * math.log(nu)


def _log_asym_pi_r0(lam: int, nu: int, r0: int, sing: DominantSingularity) -> float:
    z = sing.zeta
    try:
        const = (
            (r0 + 1)
            * (1 + z ** (lam + 1)) ** r0
            * _sqrt_cofactor(sing)
            * _parity_bracket(sing, nu)
            / (2 ** (r0 + 2) * SQRT_PI * (1 + z * z) ** (r0 + 1))
        )
    except OverflowError:
        const = math.nan
    if 0 < const < math.inf:
        log_const = math.log(const)
    else:  # the direct product left the float range; sum its logarithms
        log_const = (
            math.log(r0 + 1)
            + r0 * math.log(1 + z ** (lam + 1))
            + math.log(_sqrt_cofactor(sing) * _parity_bracket(sing, nu) / SQRT_PI)
            - (r0 + 2) * math.log(2)
            - (r0 + 1) * math.log(1 + z * z)
        )
    return nu * math.log(1 / z) + log_const - 1.5 * math.log(nu)


@dataclass(frozen=True)
class AsymptoticReport:
    """An exact count, its leading asymptotic and their ratio.

    ``asymptotic`` is inf above the float range, and 0 or a subnormal float
    below it; ``log_asymptotic``, its natural logarithm, is finite at every
    size, and the CLI prints such a value from it.
    """

    target: str
    params: dict
    exact: int
    asymptotic: float
    ratio: float
    log_asymptotic: float


def _exp(logv: float) -> float:
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


def asym_count(target: str, *, n: int | None = None, lam: int | None = None,
               nu: int | None = None, r0: int | None = None,
               counts: ExactCounts | None = None,
               sing: DominantSingularity | None = None,
               limit: int = 2000) -> AsymptoticReport:
    """Pair an exact count with its closed-form leading asymptotic.

    The ratio exact/asymptotic is computed through logarithms so that huge
    exact counts never overflow.
    """
    if target not in ASYM_TARGETS:
        raise UnsupportedTarget(f"unknown target {target!r}; known: {ASYM_TARGETS}")
    counts = counts or ExactCounts()
    params: dict = {}
    if target == "motzkin_number":
        if n is None or n < 1:
            raise ValueError("motzkin_number needs n >= 1")
        exact = counts.motzkin_number(n)
        log_asym = _log_asym_motzkin(n)
        params = {"n": n}
    elif target == "level0_total":
        if n is None or n < 1 or r0 is None:
            raise ValueError("level0_total needs n >= 1 and r0")
        exact = counts.level0_total(r0, n)
        log_asym = _log_asym_level0_total(r0, n)
        params = {"n": n, "r0": r0}
    elif target == "level0_weighted_sum":
        if n is None or n < 1:
            raise ValueError("level0_weighted_sum needs n >= 1")
        exact = counts.level0_weighted_sum(n)
        log_asym = _log_asym_level0_weighted(n)
        params = {"n": n}
    else:
        if lam is None or nu is None or nu < 1:
            raise ValueError(f"{target} needs lam and nu >= 1")
        sing = _require_cofactor(lam, sing)
        wanted = (r0,) if target == "pi_r0" and r0 is not None else ()
        total, weighted, rows = _pi_counts(lam, nu, wanted, limit)
        if target == "pi_total":
            exact = total
            log_asym = _log_asym_pi_total(lam, nu, sing)
            params = {"lam": lam, "nu": nu}
        elif target == "pi_weighted_sum":
            exact = weighted
            log_asym = _log_asym_pi_weighted(lam, nu, sing)
            params = {"lam": lam, "nu": nu}
        else:
            if r0 is None:
                raise ValueError("pi_r0 needs r0")
            exact = rows[r0]
            log_asym = _log_asym_pi_r0(lam, nu, r0, sing)
            params = {"lam": lam, "nu": nu, "r0": r0}

    asym = _exp(log_asym)
    ratio = _exp(math.log(exact) - log_asym) if exact > 0 else 0.0
    return AsymptoticReport(target, params, exact, asym, ratio, log_asym)


# ---------------------------------------------------------------------------
# finite-size convergence data


def expected_level0(n: int, counts: ExactCounts | None = None) -> Fraction:
    """Exact expected r0 over Motzkin paths of size n."""
    counts = counts or ExactCounts()
    return Fraction(counts.level0_weighted_sum(n), counts.motzkin_number(n))


def expected_pi_r0(lam: int, nu: int, counts: ExactCounts | None = None) -> Fraction:
    """Exact expected r0 over compatible pi shapes of backbone length nu."""
    total, weighted, _ = _pi_counts(lam, nu)
    return Fraction(weighted, total)


def convergence_report(family: str, *, n: int | None = None, lam: int | None = None,
                       nu: int | None = None, r0_max: int = 8,
                       counts: ExactCounts | None = None, limit: int = 2000) -> list:
    """Rows (r0, exact frequency, asymptotic value, absolute deviation).

    family "level0" compares M(r0; n)/M_n with its limit; family "pi"
    compares pi(r0; nu)/pi(nu) at the given lam.  Exact frequencies are
    computed with integer arithmetic and only converted to float at the end.
    """
    counts = counts or ExactCounts()
    rows = []
    if family == "level0":
        if n is None or n < 0:
            raise ValueError("level0 family needs n >= 0")
        total = counts.motzkin_number(n)
        for r0 in range(r0_max + 1):
            exact = Fraction(counts.level0_total(r0, n), total) if r0 <= n else Fraction(0)
            asym = asym_level0(r0)
            rows.append((r0, float(exact), asym, abs(float(exact) - asym)))
    elif family == "pi":
        if lam is None or nu is None:
            raise ValueError("pi family needs lam and nu")
        total, _, by_r0 = _pi_counts(lam, nu, range(r0_max + 1), limit)
        if total == 0:
            raise ValueError(f"no compatible shapes up to nu = {nu}")
        sing = find_zeta(lam)
        for r0 in range(r0_max + 1):
            exact = Fraction(by_r0[r0], total)
            asym = asym_pi(lam, r0, sing)
            rows.append((r0, float(exact), asym, abs(float(exact) - asym)))
    else:
        raise ValueError(f"unknown family {family!r}; expected 'level0' or 'pi'")
    return rows
