from fractions import Fraction

import pytest

from oracles import poly_product_naive
from shapeforge import Poly
from shapeforge.errors import DivisibilityFailure

XY = ("x", "y")


def test_construction_drops_zero_terms():
    p = Poly(XY, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(1)}
    assert Poly.zero(XY).is_zero


def test_arithmetic_and_scalars():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) - x == 1
    assert 2 * x == x + x
    assert -(x - y) == y - x


def test_pow_matches_repeated_multiplication():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    base = 1 + x * y + y
    acc = Poly.one(XY)
    for k in range(6):
        assert base ** k == acc
        acc = acc * base


def test_coefficient_and_degree():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = 3 * x ** 2 * y + Fraction(1, 2) * y - 7
    assert p.coefficient(x=2, y=1) == 3
    assert p.coefficient(y=1) == Fraction(1, 2)
    assert p.coefficient() == -7
    assert p.degree() == 3
    assert p.degree("y") == 1
    assert Poly.zero(XY).degree() == -1


def test_substitute_and_evaluate():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = (1 + x) * (1 + y) ** 2
    q = p.substitute(y=1)
    assert q.variables == ("x",)
    assert q == 4 * (1 + Poly.var(("x",), "x"))
    assert p.evaluate(x=2, y=Fraction(1, 2)) == 3 * Fraction(9, 4)
    with pytest.raises(ValueError):
        p.evaluate(x=1)


def test_exact_division_round_trip():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    d = (1 + y) ** 3 * 2
    p = (x ** 2 + 3 * y + 5) * d
    assert p.exact_div(d) == x ** 2 + 3 * y + 5
    assert p.exact_div(2) == (x ** 2 + 3 * y + 5) * (1 + y) ** 3


def test_exact_division_failure():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    with pytest.raises(DivisibilityFailure):
        (x + 1).exact_div(y + 1)


def test_mixed_variable_sets_rejected():
    with pytest.raises(ValueError):
        Poly.var(XY, "x") + Poly.var(("z",), "z")


def _typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


@pytest.mark.parametrize("coeff", [3, -2, Fraction(3, 2), Fraction(-4, 2)])
def test_monomial_products_and_powers_match_the_naive_product(coeff):
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    mono = Poly(XY, {(2, 1): coeff})
    poly = 1 + Fraction(1, 3) * x * y - 2 * y ** 3 + x
    zero = Poly.zero(XY)
    for a, b in [(mono, poly), (poly, mono), (mono, mono), (mono, zero), (zero, mono),
                 (Poly.one(XY), poly), (mono, Poly.const(XY, Fraction(1, 2)))]:
        assert _typed((a * b).terms) == _typed(poly_product_naive(a, b)), (a, b)
    power = Poly.one(XY)
    for n in range(6):
        assert _typed((mono ** n).terms) == _typed(power.terms), n
        power = Poly(XY, poly_product_naive(power, mono))
    assert (zero ** 0).terms == {(0, 0): 1}
    assert all((zero ** n).is_zero for n in range(1, 4))
