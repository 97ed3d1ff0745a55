from fractions import Fraction

import pytest

from oracles import eval_poly
from shapeforge import (
    asym_count,
    asym_level0,
    asym_pi,
    asym_pi_expected,
    asymptotics,
    convergence_report,
    deflate,
    expected_level0,
    find_zeta,
    singular_polynomial,
)
from shapeforge.errors import UnsupportedTarget

# ---------------------------------------------------------------------------
# root isolation


def test_singular_polynomial_merges_colliding_exponents():
    # lam = 1 makes the quartic terms collide: -3 z^4 - 2 z^2 + 1
    assert singular_polynomial(1) == [1, 0, -2, 0, -3]


def test_zeta_lambda_one_is_inverse_sqrt_three():
    sing = find_zeta(1)
    assert abs(sing.zeta - 3 ** -0.5) < 1e-11
    assert sing.parity == "odd"


def test_zeta_lambda_four_window():
    sing = find_zeta(4)
    assert 0.7562 <= sing.zeta <= 0.7564
    assert sing.parity == "even"


def _integer_value(coeffs, x):
    """b^deg p(a/b) as an exact integer; it has the sign of p(x) for x = a/b."""
    a, b = x.numerator, x.denominator
    deg = len(coeffs) - 1
    return sum(c * a ** i * b ** (deg - i) for i, c in enumerate(coeffs))


def test_enclosure_properties():
    for lam in range(1, 33):
        sing = find_zeta(lam)
        coeffs = singular_polynomial(lam)
        assert sing.high - sing.low <= Fraction(1, 10 ** 12)
        assert _integer_value(coeffs, sing.low) > 0 > _integer_value(coeffs, sing.high)
        assert 0 < sing.zeta < 1
        assert sing.low <= Fraction(sing.zeta) <= sing.high
        residual = abs(eval_poly([float(c) for c in coeffs], sing.zeta))
        assert residual <= 1e-10


def test_odd_lambda_pairs_negative_root():
    for lam in (1, 3, 5, 7):
        sing = find_zeta(lam)
        coeffs = [float(c) for c in singular_polynomial(lam)]
        assert abs(eval_poly(coeffs, -sing.zeta)) <= 1e-10


def test_no_sign_change_before_the_bracket():
    # p stays positive on every grid point below the bracket
    for lam in (1, 2, 3, 4):
        sing = find_zeta(lam)
        coeffs = singular_polynomial(lam)
        k = 1
        while Fraction(k, 1000) <= sing.low:
            assert eval_poly(coeffs, Fraction(k, 1000)) > 0
            k += 1


def _scan_then_bisect(lam):
    """Reference isolation: scan p at k/1000 with Fraction Horner up to the
    first negative value, then bisect to width 1e-12."""
    coeffs = singular_polynomial(lam)
    low, high = Fraction(0), None
    for k in range(1, 1001):
        x = Fraction(k, 1000)
        if eval_poly(coeffs, x) < 0:
            high = x
            break
        low = x
    while high - low > Fraction(1, 10 ** 12):
        mid = (low + high) / 2
        if eval_poly(coeffs, mid) > 0:
            low = mid
        else:
            high = mid
    return low, high, float((low + high) / 2)


def _synthetic_cofactor(lam, zeta):
    """Reference cofactor: divide p by (z - zeta), and by (z + zeta) for odd
    lam, in floats, and evaluate the scaled quotient at zeta."""
    def divide(ascending, root):
        out = [ascending[-1]]
        for c in reversed(ascending[:-1]):
            out.append(c + out[-1] * root)
        out.pop()
        return list(reversed(out))

    quotient = divide([float(c) for c in singular_polynomial(lam)], zeta)
    scale = -zeta
    if lam % 2:
        quotient = divide(quotient, -zeta)
        scale = -zeta * zeta
    return scale * eval_poly(quotient, zeta)


def test_find_zeta_matches_scan_then_bisect():
    # the bracket is defined by the 1/1000 grid; every printed digit of the
    # pi asymptotics depends on it, so it must not move by a single bit
    for lam in range(1, 33):
        sing = find_zeta(lam)
        assert (sing.low, sing.high, sing.zeta) == _scan_then_bisect(lam), lam


def _above(lam):
    """k -> whether k/_CELLS lies above the root, from p's exact sign."""
    coeffs = singular_polynomial(lam)
    return lambda k: _integer_value(coeffs, Fraction(k, asymptotics._CELLS)) < 0


def test_cell_search_recovers_the_bracket_from_bad_guesses():
    cells = asymptotics._CELLS
    assert cells == 1000 * 2 ** 30  # the 1/1000 grid halved to width 1e-12
    for lam in range(1, 33):
        sing = find_zeta(lam)
        m = int(sing.low * cells)
        assert (sing.low, sing.high) == (Fraction(m, cells), Fraction(m + 1, cells))
        above = _above(lam)
        for start in (0, cells - 1, m - 1, m + 1, m - 10 ** 6, m + 10 ** 6):
            assert asymptotics._cell(start, above) == m, (lam, start)


def test_find_zeta_reads_at_most_four_exact_signs(monkeypatch):
    # the endpoints 0 and 1, then the two ends of the cell the float
    # estimate names
    calls = []
    sign_at = asymptotics._sign_at

    def counting(*args):
        calls.append(args)
        return sign_at(*args)

    monkeypatch.setattr(asymptotics, "_sign_at", counting)
    for lam in range(1, 33):
        calls.clear()
        find_zeta(lam)
        assert len(calls) <= 4, (lam, len(calls))


def test_find_zeta_range_validation():
    with pytest.raises(ValueError):
        find_zeta(0)
    with pytest.raises(ValueError):
        find_zeta(33)


# ---------------------------------------------------------------------------
# deflation


def test_deflate_reconstructs_lambda_one():
    # p1(z) = (1 + z^2)(1 - z/zeta)(1 + z/zeta) with zeta = 1/sqrt(3)
    sing = deflate(1, find_zeta(1))
    z0 = sing.zeta
    assert abs(sing.cofactor_at_zeta - (1 + z0 * z0)) < 1e-9
    coeffs = [float(c) for c in singular_polynomial(1)]
    for z in (0.0, 0.25, 0.5):
        rebuilt = (1 + z * z) * (1 - z / z0) * (1 + z / z0)
        assert abs(rebuilt - eval_poly(coeffs, z)) < 1e-8


def test_deflate_cofactor_sign_supports_positive_counts():
    for lam in range(1, 9):
        sing = deflate(lam, find_zeta(lam))
        assert sing.cofactor_at_zeta > 0


def test_deflate_closed_form_matches_synthetic_division():
    for lam in range(1, 33):
        sing = deflate(lam, find_zeta(lam))
        expected = _synthetic_cofactor(lam, sing.zeta)
        assert abs(sing.cofactor_at_zeta - expected) <= 1e-13 * expected, lam


def test_deflate_rejects_inaccurate_root():
    from dataclasses import replace

    from shapeforge.errors import LargeRemainder

    good = find_zeta(4)
    bad = (
        replace(good, zeta=0.5),  # outside its bracket
        replace(good, zeta=float(good.high) + 1e-9),
        replace(good, low=Fraction(1, 2), high=Fraction(3, 4), zeta=0.6),  # no sign change
        replace(good, low=Fraction(-1), high=Fraction(9, 10), zeta=0.5),  # leaves [0, 1]
    )
    for sing in bad:
        with pytest.raises(LargeRemainder):
            deflate(4, sing)


# ---------------------------------------------------------------------------
# limit distributions


def test_asym_level0_values():
    assert asym_level0(0) == 0.25
    assert asym_level0(1) == 0.25
    assert abs(sum(asym_level0(r0) for r0 in range(200)) - 1) < 1e-12


def test_asym_pi_paper_numbers():
    sing = find_zeta(4)
    a = asym_pi(4, 0, sing)
    b = asym_pi(4, 1, sing) / (2 * a)
    assert abs(a - 0.3639) <= 5e-4
    assert abs(b - 0.3968) <= 5e-4
    assert abs(asym_pi_expected(4, sing) - 1.316) <= 2e-3
    assert abs(asym_pi_expected(4, sing) + 1 - 2.316) <= 2e-3


def test_asym_pi_normalisation():
    for lam in range(1, 9):
        sing = find_zeta(lam)
        total = sum(asym_pi(lam, r0, sing) for r0 in range(400))
        assert abs(total - 1) < 1e-9


def test_expected_r0_formulas_agree():
    # 2b/(1-b) and (1 - zeta^(lam+1))/zeta^2 are two routes to the same limit
    for lam in range(1, 9):
        sing = find_zeta(lam)
        z = sing.zeta
        b = (1 + z ** (lam + 1)) / (2 * (1 + z * z))
        assert abs(2 * b / (1 - b) - asym_pi_expected(lam, sing)) < 1e-6


# ---------------------------------------------------------------------------
# count asymptotics


def test_asym_count_motzkin():
    report = asym_count("motzkin_number", n=100)
    assert report.exact > 0
    assert 0.95 <= report.ratio <= 1.05
    assert report.asymptotic > 0


def test_asym_count_huge_n_does_not_overflow():
    report = asym_count("motzkin_number", n=2000)
    assert 0.99 <= report.ratio <= 1.01


def test_asym_count_level0():
    report = asym_count("level0_total", n=200, r0=1)
    assert 0.9 <= report.ratio <= 1.1
    report = asym_count("level0_weighted_sum", n=200)
    assert 0.9 <= report.ratio <= 1.1


def test_asym_count_pi_targets():
    for target in ("pi_total", "pi_r0", "pi_weighted_sum"):
        report = asym_count(target, lam=4, nu=120, r0=0)
        assert report.exact > 0
        assert 0.8 <= report.ratio <= 1.2, (target, report.ratio)


def test_asym_count_rejects_unknown_target():
    with pytest.raises(UnsupportedTarget):
        asym_count("zeta_only")


# ---------------------------------------------------------------------------
# convergence data


def test_expected_level0_approaches_two(counts):
    errors = [abs(float(expected_level0(n, counts)) - 2) for n in (40, 80, 160)]
    assert errors[0] > errors[1] > errors[2]


def test_convergence_report_level0(counts):
    rows = convergence_report("level0", n=60, r0_max=6, counts=counts)
    assert [r[0] for r in rows] == list(range(7))
    assert max(r[3] for r in rows) < 0.01
    total = sum(counts.level0_total(r0, 60) for r0 in range(61))
    assert total == counts.motzkin_number(60)


def test_convergence_report_degenerate():
    rows = convergence_report("level0", n=0, r0_max=3)
    assert rows[0][1] == 1.0
    assert all(r[1] == 0.0 for r in rows[1:])


def test_convergence_report_pi(counts):
    rows = convergence_report("pi", lam=4, nu=80, r0_max=5, counts=counts)
    assert max(r[3] for r in rows) < 0.05


def test_convergence_report_rejects_unknown_family():
    with pytest.raises(ValueError):
        convergence_report("nonsense", n=10)
