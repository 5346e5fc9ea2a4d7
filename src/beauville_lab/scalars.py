"""Exact scalar arithmetic over the Gaussian rationals Q(i).

All engine computations happen over Q or Q(i); there is no floating point
anywhere. Rational numbers are stdlib fractions (always reduced, positive
denominator); Gaussian rationals are implemented here.
"""

from __future__ import annotations

from fractions import Fraction

from .lincomb import power

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

    def is_rational(self) -> bool:
        return not self.im

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

    def conjugate(self) -> "GaussianRational":
        return _make(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _make(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, ONE)

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


ONE = GaussianRational(1)
I = GaussianRational(0, 1)

