"""Sparse multivariate polynomials over the Gaussian rationals.

A fixed global variable tuple keeps every polynomial in one flat
exponent-dict representation:

    N   : multiplication weight on an abelian fibration
    d   : edge decoration variable of boundary-term polynomials
    a   : ansatz coefficient of a kappa-class term
    b   : ansatz coefficient of a boundary-class term

A polynomial is held as a sparse matrix is: one positive integer
denominator `den` and `terms = {exponent tuple: (re, im)}`, nonzero
Gaussian-integer numerators, the coefficient of a monomial being
(re + im*i)/den.  Every value is in lowest terms (`scalars.lowest_terms`),
so == and hash are structural.  Sums, negation, scalings and products work
on ints over the lcm or the product of the denominators, and a product of
real polynomials costs one integer multiplication per term pair.  A
coefficient is built as a GaussianRational only where it is read: `str`,
`constant_value` and the rational-root certificates.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import add
from typing import Dict, Tuple

from .lincomb import Labelled
from .scalars import (GaussianRational, Rational, common_denominator, integer_parts,
                      lowest_terms)

VARS: Tuple[str, ...] = ("N", "d", "a", "b")
_NVARS = len(VARS)
_VAR_INDEX = {v: k for k, v in enumerate(VARS)}
_ZERO_EXP = (0,) * _NVARS

Monomial = Tuple[int, ...]
Numerators = Dict[Monomial, Tuple[int, int]]


class Poly(Labelled):
    """Polynomial in VARS with Gaussian-rational coefficients, numerators
    over one denominator; a scalar adds as a constant and multiplies
    coefficient by coefficient."""

    __slots__ = ("den",)
    kind = "scalar"

    def __init__(self, terms: Dict[Monomial, object] | None = None):
        """The polynomial {exponent tuple: coefficient}, for int, Fraction
        or GaussianRational coefficients."""
        parts = {}
        for exp, coeff in (terms or {}).items():
            re, im, den = integer_parts(coeff)
            if len(exp) != _NVARS or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp!r}")
            if re or im:
                parts[tuple(exp)] = (re, im, den)
        den, num = common_denominator(parts)
        object.__setattr__(self, "terms", num)
        _set_den(self, den)

    def _like(self, terms: Numerators, den: int) -> "Poly":
        """As Labelled._like, over den: terms are nonzero numerators that
        have no factor common to den and all of them."""
        out = Labelled._like(self, terms)
        _set_den(out, den)
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    @staticmethod
    def const(c) -> "Poly":
        re, im, den = integer_parts(c)
        return _ZERO._like({_ZERO_EXP: (re, im)}, den) if re or im else _ZERO

    @staticmethod
    def var(name: str) -> "Poly":
        exp = [0] * _NVARS
        exp[_VAR_INDEX[name]] = 1
        return _ZERO._like({tuple(exp): (1, 0)}, 1)

    def one(self) -> "Poly":
        return _ONE

    def _operand(self, other):
        if type(other) is Poly:
            return other
        if isinstance(other, _SCALARS):
            return Poly.const(other)
        return NotImplemented

    # -- coefficient access ----------------------------------------------------

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        re, im = self.terms.get(_ZERO_EXP, (0, 0))
        return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))

    def degree(self, name: str) -> int:
        # degree -1 for the zero polynomial
        if not self.terms:
            return -1
        idx = _VAR_INDEX[name]
        return max(exp[idx] for exp in self.terms)

    def coefficient(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, a polynomial in the other variables."""
        idx = _VAR_INDEX[name]
        terms = {}
        for exp, parts in self.terms.items():
            if exp[idx] == power:
                reduced = list(exp)
                reduced[idx] = 0
                terms[tuple(reduced)] = parts
        return _lowest(self.den, terms)

    # -- ring operations -----------------------------------------------------

    def _sum(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, on numerators over the lcm of the
        denominators."""
        den = lcm(self.den, other.den)
        k, m = den // self.den, sign * (den // other.den)
        acc = dict(self.terms) if k == 1 else {
            exp: (a * k, b * k) for exp, (a, b) in self.terms.items()}
        get = acc.get
        for exp, (a, b) in other.terms.items():
            a, b = a * m, b * m
            old = get(exp)
            if old is not None:
                a, b = old[0] + a, old[1] + b
                if not (a or b):
                    del acc[exp]
                    continue
            acc[exp] = (a, b)
        return _lowest(den, acc)

    def __add__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self._sum(other, -1)

    def __neg__(self):
        return self._like({exp: (-a, -b) for exp, (a, b) in self.terms.items()}, self.den)

    def scale(self, factor):
        p, q, s = integer_parts(factor)
        if not (p or q):
            return _ZERO
        if q:
            num = {exp: (a * p - b * q, a * q + b * p) for exp, (a, b) in self.terms.items()}
        else:
            num = {exp: (a * p, b * p) for exp, (a, b) in self.terms.items()}
        return _lowest(self.den * s, num)

    def __mul__(self, other):
        if type(other) is Poly:
            return _lowest(self.den * other.den, _product(self.terms, other.terms))
        return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            re, im = self.terms[exp]
            coeff = GaussianRational(Fraction(re, self.den), Fraction(im, self.den))
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


_SCALARS = (int, Fraction, GaussianRational)
_set_den = Poly.den.__set__
# the prototype from which the constructors take their kind
_ZERO = Poly()
_ONE = Poly.const(1)


def _lowest(den: int, num: Numerators) -> Poly:
    """The polynomial num/den, for num without zero numerators, in lowest
    terms."""
    den, num = lowest_terms(den, num)
    return _ZERO._like(num, den)


def _is_real(terms: Numerators) -> bool:
    for _, im in terms.values():
        if im:
            return False
    return True


def _product(left: Numerators, right: Numerators) -> Numerators:
    """The numerators of the product of two polynomials' numerators:
    exponents add and numerators multiply, with one integer product per
    term pair when both factors are real."""
    acc: dict = {}
    get = acc.get
    if _is_real(left) and _is_real(right):
        for e1, (a, _) in left.items():
            for e2, (x, _) in right.items():
                key = tuple(map(add, e1, e2))
                acc[key] = get(key, 0) + a * x
        return {key: (re, 0) for key, re in acc.items() if re}
    for e1, (a, b) in left.items():
        for e2, (x, y) in right.items():
            key = tuple(map(add, e1, e2))
            old = get(key)
            if old is None:
                acc[key] = [a * x - b * y, a * y + b * x]
            else:
                old[0] += a * x - b * y
                old[1] += a * y + b * x
    return {key: (re, im) for key, (re, im) in acc.items() if re or im}


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
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
