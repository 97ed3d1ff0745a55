"""Sparse multivariate polynomials over the rationals, computed in integers.

A polynomial keeps a fixed tuple of variable names and a dict mapping
exponent tuples to nonzero coefficients.  A coefficient is stored as an
int whenever it is integral and as a Fraction only otherwise, so
polynomials with integer coefficients multiply in plain big-int
arithmetic.  All arithmetic is exact; zero coefficients are never stored
and no float is ever produced.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping

from .errors import DivisibilityFailure

Scalar = int | Fraction


def exact_scalar(value) -> Scalar:
    """``value`` as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_quotient(a, b):
    """a / b exactly, for a scalar or Poly ``a``.

    Integer division goes through divmod, so an int quotient stays an int
    and a Fraction is built only on a nonzero remainder.
    """
    if isinstance(a, Poly):
        return a.exact_div(b)
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact_scalar(Fraction(a) / b)


def _clean(terms: dict) -> dict:
    """Accumulated terms with zeros dropped and integral values as int."""
    return {e: c if type(c) is int else exact_scalar(c) for e, c in terms.items() if c}


def _build(variables: tuple, terms: dict) -> "Poly":
    """A Poly from accumulated terms, skipping the exponent validation."""
    p = object.__new__(Poly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "terms", _clean(terms))
    return p


class Poly:
    """Immutable sparse polynomial with int or Fraction coefficients.

    Arithmetic requires both operands to share the same variable tuple;
    plain ints and Fractions coerce to constant polynomials.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar] | None = None):
        variables = tuple(variables)
        width = len(variables)
        acc: dict[tuple, Scalar] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != width or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent {expo} for variables {variables}")
                acc[expo] = acc.get(expo, 0) + exact_scalar(coeff)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", _clean(acc))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Iterable[str], value: Scalar) -> "Poly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def one(cls, variables: Iterable[str]) -> "Poly":
        return cls.const(variables, 1)

    @classmethod
    def var(cls, variables: Iterable[str], name: str) -> "Poly":
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): 1})

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError("mixed variable sets")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.variables, other)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant(self) -> Scalar:
        """Coefficient of the constant monomial."""
        return self.terms.get((0,) * len(self.variables), 0)

    def coefficient(self, **exponents: int) -> Scalar:
        """Coefficient of the monomial with the given exponents (others 0)."""
        expo = tuple(exponents.get(v, 0) for v in self.variables)
        return self.terms.get(expo, 0)

    def degree(self, name: str | None = None) -> int:
        """Total degree, or the degree in one variable; zero poly has -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        i = self.variables.index(name)
        return max(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0) + c
        return _build(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return _build(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _build(self.variables, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(other.terms) == 1 or len(self.terms) == 1:
            # a monomial factor shifts the exponents of the other operand
            poly, mono = (self, other) if len(other.terms) == 1 else (other, self)
            (em, cm), = mono.terms.items()
            return _build(self.variables, {tuple(map(add, e, em)): c * cm
                                           for e, c in poly.terms.items()})
        out: dict[tuple, Scalar] = {}
        get = out.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        return _build(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return _build(self.variables, {tuple(k * n for k in e): c ** n})
        result = Poly.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    __hash__ = None

    # -- substitution and division ----------------------------------------

    def substitute(self, **values: Scalar) -> "Poly":
        """Substitute rationals for some variables, keeping the rest."""
        values = {v: exact_scalar(val) for v, val in values.items()}
        keep = tuple(v for v in self.variables if v not in values)
        idx = [self.variables.index(v) for v in keep]
        out: dict[tuple, Scalar] = {}
        for expo, c in self.terms.items():
            for v, val in values.items():
                c *= val ** expo[self.variables.index(v)]
            e = tuple(expo[i] for i in idx)
            out[e] = out.get(e, 0) + c
        return _build(keep, out)

    def evaluate(self, **values: Scalar) -> Scalar:
        """Evaluate at a full assignment of the variables."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        return self.substitute(**values).constant()

    def exact_div(self, divisor: "Poly | Scalar") -> "Poly":
        """Divide exactly, raising DivisibilityFailure on any remainder."""
        if isinstance(divisor, (int, Fraction)):
            if not divisor:
                raise ZeroDivisionError("division by zero")
            return _build(self.variables,
                          {e: exact_quotient(c, divisor) for e, c in self.terms.items()})
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        # Long division by a single divisor under lex order.  When the
        # dividend is an exact multiple the leading term is always reducible,
        # so hitting an irreducible leading term proves a nonzero remainder.
        lead_d = max(divisor.terms)
        lc_d = divisor.terms[lead_d]
        rem = dict(self.terms)
        quo: dict[tuple, Scalar] = {}
        while rem:
            lead_r = max(rem)
            diff = tuple(map(sub, lead_r, lead_d))
            if any(d < 0 for d in diff):
                raise DivisibilityFailure(f"{self} is not divisible by {divisor}")
            c = exact_quotient(rem[lead_r], lc_d)
            quo[diff] = quo.get(diff, 0) + c
            for eb, cb in divisor.terms.items():
                e = tuple(map(add, diff, eb))
                s = rem.get(e, 0) - c * cb
                if s:
                    rem[e] = s
                elif e in rem:
                    del rem[e]
        return _build(self.variables, quo)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, expo)
                if e
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)
