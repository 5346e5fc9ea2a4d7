"""Exact scalar arithmetic over the Gaussian rationals Q(i).

All engine computations happen over Q or Q(i); there is no floating point
anywhere. Rational numbers are stdlib fractions (always reduced, positive
denominator); Gaussian rationals are implemented here.

The sparse values of the engine (`SparseMat`, `Poly`) hold their
coefficients as one positive integer denominator and Gaussian-integer
numerators {key: (re, im)}; `integer_parts` splits a scalar that way,
`common_denominator` brings such parts over one denominator and
`lowest_terms` is the normal form they share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def rational(self) -> Fraction:
        if self.im:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    # -- field operations --------------------------------------------------

    # int and Fraction operands are taken as they are: Fraction arithmetic
    # with them returns a Fraction.  A zero imaginary part is never
    # multiplied or negated, so rational values cost one Fraction operation.
    # A non-scalar operand (a Poly) falls through to its reflected operator.
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            im, other_im = self.im, other.im
            return _make(self.re + other.re, im + other_im if other_im else im)
        if isinstance(other, (int, Fraction)):
            return _make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        im = self.im
        return _make(-self.re, -im if im else im)

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            c, d = other.re, other.im
        elif isinstance(other, (int, Fraction)):
            c, d = other, 0
        else:
            return NotImplemented
        a, b = self.re, self.im
        if not d:
            return _make(a * c, b * c if b else b)
        if not b:
            return _make(a * c, a * d)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _make(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                imag = "i"
            elif self.im == -1:
                imag = "-i"
            else:
                imag = f"{self.im}i"
            if parts and not imag.startswith("-"):
                parts.append("+" + imag)
            else:
                parts.append(imag)
        return "".join(parts)

    def __repr__(self):
        return f"GaussianRational({self})"


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """The engine's own constructor: re and im are already Fractions, so
    unlike GaussianRational(re, im) it checks nothing."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def integer_parts(x) -> Tuple[int, int, int]:
    """(re, im, den) with x = (re + im*i)/den and den the lcm of the
    denominators of x's parts, so that den and the two numerators have no
    common factor; TypeError for a value that is not a scalar."""
    kind = type(x)
    if kind is int:
        return x, 0, 1
    if kind is Fraction:
        return x.numerator, 0, x.denominator
    z = GaussianRational.coerce(x)
    den = lcm(z.re.denominator, z.im.denominator)
    return (z.re.numerator * (den // z.re.denominator),
            z.im.numerator * (den // z.im.denominator), den)


def common_denominator(parts: Dict) -> Tuple[int, Dict]:
    """(den, num) for a dict of nonzero integer_parts (re, im, d): every
    numerator over den, the lcm of the d.  The parts are in lowest terms, so
    den and the numerators have no common factor: the normal form of
    lowest_terms."""
    den = lcm(*(d for _, _, d in parts.values()))
    return den, {key: (re * (den // d), im * (den // d)) for key, (re, im, d) in parts.items()}


def lowest_terms(den: int, num: Dict) -> Tuple[int, Dict]:
    """(den, num) for the coefficients (re + im*i)/den of num, a dict of
    nonzero (re, im) numerators, divided by the gcd of den and every
    numerator: the normal form, in which equal values have equal parts.
    num itself comes back when there is no common factor."""
    g = den
    for re, im in num.values():
        g = gcd(g, re, im)
        if g == 1:
            return den, num
    return den // g, {key: (re // g, im // g) for key, (re, im) in num.items()}


ONE = GaussianRational(1)
I = GaussianRational(0, 1)

