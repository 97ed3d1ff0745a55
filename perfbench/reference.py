"""Independent routes to the values the benchmark checks.

Nothing here imports shapeforge.  Counts come from the generating
functions on plain int lists, from the Motzkin P-recurrence and from
closed forms via math.comb; the dominant singularity is bracketed by exact
sign evaluation of p(z).  Series products use Kronecker substitution into
one big int, which is valid because every series multiplied here has
nonnegative coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Mismatch(Exception):
    """An output of the program disagrees with its reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# truncated int series with nonnegative coefficients


def mul(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of a * b."""
    a = a[: n + 1]
    b = b[: n + 1]
    if not a or not b:
        return [0] * (n + 1)
    bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    pa = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    raw = (pa * pb).to_bytes(width * (len(a) + len(b)), "little")
    out = [int.from_bytes(raw[i * width:(i + 1) * width], "little")
           for i in range(min(n + 1, len(a) + len(b) - 1))]
    return out + [0] * (n + 1 - len(out))


def geometric(f: list, n: int) -> list:
    """Coefficients 0..n of 1 / (1 - f) for f with f[0] == 0."""
    out = [1]
    for k in range(1, n + 1):
        out.append(sum(f[i] * out[k - i] for i in range(1, min(k, len(f) - 1) + 1)))
    return out


def shift(f: list, k: int, n: int) -> list:
    """Coefficients 0..n of x^k f."""
    out = [0] * k + f
    return (out + [0] * (n + 1))[: n + 1]


def cumulative(f: list) -> list:
    out = []
    acc = 0
    for c in f:
        acc += c
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Motzkin numbers and level-0 refinements


def motzkin_numbers(n: int) -> list:
    """M_0..M_n by (k+2) M_k = (2k+1) M_(k-1) + 3(k-1) M_(k-2)."""
    m = [1, 1]
    for k in range(2, n + 1):
        value, rem = divmod((2 * k + 1) * m[k - 1] + 3 * (k - 1) * m[k - 2], k + 2)
        if rem:
            raise ArithmeticError("Motzkin recurrence left a remainder")
        m.append(value)
    return m[: n + 1]


def level0_base(n: int) -> list:
    """A = 1 / (1 - w^2 M(w)): Motzkin paths without a level-0 horizontal."""
    return geometric(shift(motzkin_numbers(n), 2, n), n)


def level0_rows(n: int, r0_max: int) -> list:
    """rows[r0][k] = Motzkin paths of size k with r0 level-0 horizontals,
    the coefficient of w^k in w^r0 A^(r0 + 1)."""
    a = level0_base(n)
    rows = []
    power = a
    for r0 in range(r0_max + 1):
        rows.append(shift(power, r0, n))
        power = mul(power, a, n)
    return rows


def level0_weighted(n: int) -> int:
    """Sum of r0 over Motzkin paths of size n: [w^n] A y / (1 - y)^2, y = w A."""
    a = level0_base(n)
    y = shift(a, 1, n)
    g = geometric(y, n)
    return mul(mul(a, y, n), mul(g, g, n), n)[n]


def level0_total(r0: int, n: int) -> int:
    """Closed form: sum over u of ((r0+1)/(n+1)) C(n+1, u) C(n-r0-u-1, u-1)."""
    if r0 == n:
        return 1
    total = 0
    for u in range(1, (n - r0) // 2 + 1):
        top = n - r0 - u - 1
        if top < u - 1:
            continue
        total += (r0 + 1) * math.comb(n + 1, u) * math.comb(top, u - 1)
    value, rem = divmod(total, n + 1)
    if rem:
        raise ArithmeticError("level-0 closed form is not integral")
    return value


# ---------------------------------------------------------------------------
# compatible pi-shape counts from M = 1 + x^(lam+1) M + x^(lam+3) M^2


class PiReference:
    """Cumulative compatible pi-shape counts up to nu for one lam.

    Row r0 is x^((lam+1)(r0+1)) A^(r0+1) with A = 1 / (1 - x^(lam+3) M);
    the total is T = x^(lam+1) M and the r0-weighted sum is T^2.
    """

    def __init__(self, lam: int, nu: int, rows: int = 9):
        a_exp, b_exp = lam + 1, lam + 3
        m = [1] + [0] * nu
        for k in range(1, nu + 1):
            c = m[k - a_exp] if k >= a_exp else 0
            if k >= b_exp:
                c += sum(m[i] * m[k - b_exp - i] for i in range(k - b_exp + 1))
            m[k] = c
        a = geometric(shift(m, b_exp, nu), nu)
        self.rows = []
        power = a
        for r0 in range(rows):
            self.rows.append(cumulative(shift(power, a_exp * (r0 + 1), nu)))
            power = mul(power, a, nu)
        t = shift(m, a_exp, nu)
        self.totals = cumulative(t)
        self.weighted = cumulative(mul(t, t, nu))
        self.r0_max = max(0, nu // a_exp - 1)


def check_compatible(table, lam: int, nu: int) -> None:
    ref = PiReference(lam, nu)
    expect(table.lam == lam and table.nu_max == nu, "compatible table has the wrong parameters")
    expect(table.r0_max == ref.r0_max, f"r0_max {table.r0_max} != {ref.r0_max}")
    for r0, row in enumerate(ref.rows):
        if r0 <= table.r0_max:
            expect(list(table.counts[r0]) == row, f"lam={lam} nu={nu}: row r0={r0} differs")
    for k in range(nu + 1):
        expect(table.total(k) == ref.totals[k], f"lam={lam}: total at nu={k} differs")
        expect(table.weighted_sum(k) == ref.weighted[k], f"lam={lam}: weighted sum at nu={k} differs")


# ---------------------------------------------------------------------------
# the dominant singularity


def singular_poly(lam: int) -> list:
    coeffs = [0] * (2 * lam + 3)
    coeffs[0] += 1
    coeffs[lam + 1] -= 2
    coeffs[lam + 3] -= 4
    coeffs[2 * lam + 2] += 1
    return coeffs


def evaluate(coeffs: list, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def zeta_float(lam: int) -> float:
    """The root of p in (0, 1) by float bisection.

    p has two sign changes, so by Descartes' rule at most two positive
    roots; p(0) = 1 and p(1) = -4 leave exactly one in (0, 1)."""
    coeffs = singular_poly(lam)
    low, high = 0.0, 1.0
    for _ in range(80):
        mid = (low + high) / 2
        if evaluate(coeffs, mid) > 0:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def check_zeta(sing, lam: int) -> None:
    """The bracket holds the unique root of p in (0, 1), certified by exact
    signs, and the cofactor equals -zeta p'(zeta) (even lam) or half of it
    (odd lam)."""
    coeffs = singular_poly(lam)
    low, high = Fraction(sing.low), Fraction(sing.high)
    expect(0 <= low < high <= 1, f"lam={lam}: bracket [{low}, {high}] not inside [0, 1]")
    expect(high - low <= Fraction(1, 10 ** 12), f"lam={lam}: bracket wider than 1e-12")
    expect(evaluate(coeffs, low) > 0 > evaluate(coeffs, high), f"lam={lam}: no sign change in bracket")
    expect(float(low) <= sing.zeta <= float(high), f"lam={lam}: zeta outside its bracket")
    expect(sing.parity == ("odd" if lam % 2 else "even"), f"lam={lam}: wrong parity")
    z = sing.zeta
    deriv = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k)
    cofactor = -z * deriv / (2 if lam % 2 else 1)
    expect(sing.cofactor_at_zeta is not None
           and math.isclose(sing.cofactor_at_zeta, cofactor, rel_tol=1e-8),
           f"lam={lam}: cofactor {sing.cofactor_at_zeta} != {cofactor}")


def pi_limit(lam: int, r0: int) -> float:
    z = zeta_float(lam)
    a = z * z / (1 + z * z)
    b = (1 + z ** (lam + 1)) / (2 * (1 + z * z))
    return (r0 + 1) * a * b ** r0


# ---------------------------------------------------------------------------
# closed forms of the series coefficients


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def island_terms(ell: int) -> dict:
    """{(h, islands): count} of the island diagrams with ell pairs."""
    out = {}
    for h in range(1, ell + 1):
        for islands in range(h + 1, 2 * ell + 1):
            c = narayana(ell, h) * math.comb(2 * ell - 1 - h, islands - h - 1)
            if c:
                out[(h, islands)] = c
    return out


def motzkin_terms(n: int) -> dict:
    """{(k,): count} of the Motzkin paths of size n with k up steps."""
    return {(k,): math.comb(n, 2 * k) * math.comb(2 * k, k) // (k + 1) for k in range(n // 2 + 1)}


def level0_terms(n: int) -> dict:
    """{(r0,): count} of the Motzkin paths of size n by level-0 horizontals."""
    out = {}
    for r0 in range(n + 1):
        c = level0_total(r0, n)
        if c:
            out[(r0,)] = c
    return out


def poly_terms(poly) -> dict:
    """The terms of a Poly as {exponents: int}; fails on a non-integer."""
    out = {}
    for expo, c in poly.terms.items():
        expect(Fraction(c).denominator == 1, f"non-integral coefficient {c}")
        out[expo] = int(c)
    return out
