"""Sparse multivariate polynomials with integer coefficients.

A polynomial keeps a fixed tuple of variable names and a dict mapping
exponent tuples to nonzero int coefficients, so every product runs in
plain big-int arithmetic.  A coefficient or scalar that is not an int
raises TypeError.  The one division is exact division by a nonzero int,
which raises DivisibilityFailure on a remainder.  Zero coefficients are
never stored and no float is ever produced.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping

from .errors import DivisibilityFailure


def _check_int(value) -> int:
    if not isinstance(value, int):
        raise TypeError(f"Poly coefficients are ints, got {type(value).__name__} {value!r}")
    return value


def _build(variables: tuple, terms: dict) -> "Poly":
    """A Poly from accumulated int terms, skipping the exponent validation."""
    p = object.__new__(Poly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
    return p


class Poly:
    """Immutable sparse polynomial with int coefficients.

    Arithmetic requires both operands to share the same variable tuple;
    plain ints coerce to constant polynomials.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, int] | None = None):
        variables = tuple(variables)
        width = len(variables)
        acc: dict[tuple, int] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != width or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent {expo} for variables {variables}")
                acc[expo] = acc.get(expo, 0) + _check_int(coeff)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", {e: c for e, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Iterable[str], value: int) -> "Poly":
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

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError("mixed variable sets")
            return other
        return Poly.const(self.variables, other)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant(self) -> int:
        """Coefficient of the constant monomial."""
        return self.terms.get((0,) * len(self.variables), 0)

    def coefficient(self, **exponents: int) -> int:
        """Coefficient of the monomial with the given exponents (others 0)."""
        expo = tuple(exponents.get(v, 0) for v in self.variables)
        return self.terms.get(expo, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0) + c
        return _build(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return _build(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _check_int(other)
            return _build(self.variables, {e: a * c for e, a in self.terms.items()})
        other = self._coerce(other)
        if len(other.terms) == 1 or len(self.terms) == 1:
            # a monomial factor shifts the exponents of the other operand
            poly, mono = (self, other) if len(other.terms) == 1 else (other, self)
            (em, cm), = mono.terms.items()
            return _build(self.variables, {tuple(map(add, e, em)): c * cm
                                           for e, c in poly.terms.items()})
        out: dict[tuple, int] = {}
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
        if not isinstance(other, (Poly, int)):
            return NotImplemented
        return self.terms == self._coerce(other).terms

    __hash__ = None

    def exact_div(self, divisor: int) -> "Poly":
        """Divide every coefficient by a nonzero int, raising
        DivisibilityFailure on any remainder."""
        if not _check_int(divisor):
            raise ZeroDivisionError("division by zero")
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, divisor)
            if r:
                raise DivisibilityFailure(f"{self} is not divisible by {divisor}")
            out[e] = q
        return _build(self.variables, out)

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
