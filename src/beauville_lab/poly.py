"""Sparse multivariate polynomials over the Gaussian rationals.

A fixed global variable tuple keeps every polynomial in one flat
exponent-dict representation:

    N   : multiplication weight on an abelian fibration
    d   : edge decoration variable of boundary-term polynomials
    a   : ansatz coefficient of a kappa-class term
    b   : ansatz coefficient of a boundary-class term

Keys are exponent tuples, values are nonzero GaussianRational coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .lincomb import add_into, mul_terms, power
from .scalars import GaussianRational, Rational

VARS: Tuple[str, ...] = ("N", "d", "a", "b")
_NVARS = len(VARS)
_VAR_INDEX = {v: k for k, v in enumerate(VARS)}
_ZERO_EXP = (0,) * _NVARS

Monomial = Tuple[int, ...]


class Poly:
    """Polynomial in VARS with GaussianRational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, GaussianRational] | None = None):
        clean: Dict[Monomial, GaussianRational] = {}
        if terms:
            for exp, coeff in terms.items():
                c = GaussianRational.coerce(coeff)
                if len(exp) != _NVARS or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp!r}")
                if c:
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    @staticmethod
    def const(c) -> "Poly":
        c = GaussianRational.coerce(c)
        return _make({_ZERO_EXP: c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        exp = [0] * _NVARS
        exp[_VAR_INDEX[name]] = 1
        return Poly({tuple(exp): GaussianRational(1)})

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self:
            return GaussianRational(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[_ZERO_EXP]

    def degree(self, name: str) -> int:
        # degree -1 for the zero polynomial
        if not self.terms:
            return -1
        idx = _VAR_INDEX[name]
        return max(exp[idx] for exp in self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = Poly.coerce(other)
        return _make(add_into(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _make({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        # a scalar scales each coefficient; over a field the product of two
        # nonzero values is nonzero, so only a zero scalar empties the result
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                return _make({})
            return _make({exp: c * other for exp, c in self.terms.items()})
        o = Poly.coerce(other)
        return _make(mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def scale(self, factor) -> "Poly":
        return self * factor

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, n, Poly.const(1))

    def __eq__(self, other):
        try:
            o = Poly.coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- coefficient access ----------------------------------------------------

    def coefficient(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a polynomial in the other variables."""
        idx = _VAR_INDEX[name]
        terms = {}
        for exp, coeff in self.terms.items():
            if exp[idx] == power:
                reduced = list(exp)
                reduced[idx] = 0
                terms[tuple(reduced)] = coeff
        return Poly(terms)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            mono = "*".join(
                f"{VARS[i]}^{e}" if e > 1 else VARS[i]
                for i, e in enumerate(exp)
                if e
            )
            cs = str(coeff)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            pieces.append(f"{cs}*{mono}" if mono and cs not in ("1", "-1")
                          else (mono if cs == "1" and mono
                                else (f"-{mono}" if cs == "-1" and mono else cs)))
        out = pieces[0]
        for p in pieces[1:]:
            out += ("+" + p) if not p.startswith("-") else p
        return out

    def __repr__(self):
        return f"Poly({self})"


_new = object.__new__
_set_terms = Poly.terms.__set__


def _make(terms: Dict[Monomial, GaussianRational]) -> Poly:
    """The engine's own constructor for a dict of exponent tuples and
    nonzero GaussianRational coefficients, such as one add_into builds from
    other polynomials' terms; unlike Poly(terms) it checks and copies
    nothing."""
    p = _new(Poly)
    _set_terms(p, terms)
    return p


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _quadratic(poly: Poly, name: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(c0, c1, c2, c1^2 - 4 c2 c0) of poly read as c0 + c1 name + c2 name^2;
    a coefficient that is not rational raises ValueError."""
    c0, c1, c2 = (poly.coefficient(name, k).constant_value().rational() for k in range(3))
    return c0, c1, c2, c1 * c1 - 4 * c2 * c0


def rational_roots(poly: Poly, name: str = "b") -> list[Rational]:
    """Exact rational roots of a univariate polynomial of degree <= 2.

    Certification for the quadratic case: a reduced discriminant n/d has a
    rational square root iff n >= 0 and n*d is a perfect integer square
    (gcd(n, d) = 1 forces n and d individually square).
    """
    for var in VARS:
        if var != name and poly.degree(var) > 0:
            raise ValueError(f"polynomial involves {var}, not univariate in {name}")
    if poly.degree(name) > 2:
        raise ValueError("degree > 2 not supported")
    c0, c1, c2, disc = _quadratic(poly, name)
    if c2 == 0:
        if c1 == 0:
            if c0 == 0:
                raise ValueError("zero polynomial has every rational as a root")
            return []
        return [-c0 / c1]
    root = _fraction_sqrt(disc)
    if root is None:
        return []
    lo = (-c1 - root) / (2 * c2)
    hi = (-c1 + root) / (2 * c2)
    return sorted({lo, hi})


def discriminant_is_square(poly: Poly, name: str = "b") -> tuple[Fraction, bool]:
    """(discriminant, has rational square root) for a quadratic in name."""
    _, _, c2, disc = _quadratic(poly, name)
    if c2 == 0:
        raise ValueError("not a quadratic")
    return disc, _fraction_sqrt(disc) is not None
