from fractions import Fraction

import pytest

from oracles import (
    poly_degree,
    poly_evaluate,
    poly_exact_div,
    poly_product_naive,
    poly_substitute,
)
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
    p = 3 * x ** 2 * y + 5 * y - 7
    assert p.coefficient(x=2, y=1) == 3
    assert p.coefficient(y=1) == 5
    assert p.coefficient() == -7
    assert poly_degree(p) == 3
    assert poly_degree(p, "y") == 1
    assert poly_degree(Poly.zero(XY)) == -1


def test_substitute_and_evaluate():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = (1 + x) * (1 + y) ** 2
    q = poly_substitute(p, y=1)
    assert q.variables == ("x",)
    assert q == 4 * (1 + Poly.var(("x",), "x"))
    assert poly_evaluate(p, x=2, y=Fraction(1, 2)) == 3 * Fraction(9, 4)
    with pytest.raises(ValueError):
        poly_evaluate(p, x=1)


def test_exact_division_round_trip():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    d = (1 + y) ** 3 * 2
    p = (x ** 2 + 3 * y + 5) * d
    assert poly_exact_div(p, d) == x ** 2 + 3 * y + 5
    assert p.exact_div(2) == (x ** 2 + 3 * y + 5) * (1 + y) ** 3


def test_exact_division_failure():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    with pytest.raises(DivisibilityFailure):
        poly_exact_div(x + 1, y + 1)
    with pytest.raises(DivisibilityFailure):
        (x + 3 * y).exact_div(3)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(0)


def test_coefficients_and_scalars_are_ints_only():
    x = Poly.var(XY, "x")
    for value in (Fraction(1, 2), Fraction(2, 1), 1.0, "1"):
        with pytest.raises(TypeError):
            Poly(XY, {(1, 0): value})
        with pytest.raises(TypeError):
            Poly.const(XY, value)
        with pytest.raises(TypeError):
            x * value
        with pytest.raises(TypeError):
            value * x
        with pytest.raises(TypeError):
            x + value
        with pytest.raises(TypeError):
            value - x
        with pytest.raises(TypeError):
            x.exact_div(value)
    assert all(type(c) is int for c in (3 * x * x - x + 2).terms.values())


def test_mixed_variable_sets_rejected():
    with pytest.raises(ValueError):
        Poly.var(XY, "x") + Poly.var(("z",), "z")


def _typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


@pytest.mark.parametrize("coeff", [3, -2])
def test_monomial_products_and_powers_match_the_naive_product(coeff):
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    mono = Poly(XY, {(2, 1): coeff})
    poly = 1 + 3 * x * y - 2 * y ** 3 + x
    zero = Poly.zero(XY)
    for a, b in [(mono, poly), (poly, mono), (mono, mono), (mono, zero), (zero, mono),
                 (Poly.one(XY), poly), (mono, Poly.const(XY, 5))]:
        assert _typed((a * b).terms) == _typed(poly_product_naive(a, b)), (a, b)
    power = Poly.one(XY)
    for n in range(6):
        assert _typed((mono ** n).terms) == _typed(power.terms), n
        power = Poly(XY, poly_product_naive(power, mono))
    assert (zero ** 0).terms == {(0, 0): 1}
    assert all((zero ** n).is_zero for n in range(1, 4))
