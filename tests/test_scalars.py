"""Gaussian rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from beauville_lab.scalars import GaussianRational, I, ONE, ZERO

rationals = st.fractions(min_value=Fraction(-60), max_value=Fraction(60),
                         max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_frozen_square():
    # (1/2 + 1/2 i)^2 = i/2, fixed oracle value
    x = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert x * x == GaussianRational(0, Fraction(1, 2))


def test_constants():
    assert ZERO.is_zero()
    assert ONE == GaussianRational(1)
    assert I * I == GaussianRational(-1)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    b = GaussianRational(Fraction(1, 6), Fraction(5, 4))
    assert a + b == GaussianRational(Fraction(5, 6), Fraction(3, 4))
    assert a - b == GaussianRational(Fraction(1, 2), Fraction(-7, 4))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a / b * b == a


def test_division_and_inverse():
    a = GaussianRational(3, 4)
    assert a * a.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_norm_and_rationality():
    a = GaussianRational(3, 4)
    assert a.norm() == Fraction(25)
    assert not a.is_rational()
    b = GaussianRational(Fraction(-7, 2))
    assert b.is_rational()
    assert b.rational() == Fraction(-7, 2)
    with pytest.raises(ValueError):
        a.rational()


def test_power():
    a = GaussianRational(1, 1)
    assert a ** 2 == GaussianRational(0, 2)
    assert a ** 0 == ONE
    assert a ** -1 == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert (a ** -2) * (a ** 2) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_immutability_and_hash():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(GaussianRational(Fraction(-3, 2))) == "-3/2"
    assert str(I) == "i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-1, 2))) == "1/2-1/2i"


@given(gaussians, gaussians)
def test_mul_commutes_and_norm_multiplicative(a, b):
    assert a * b == b * a
    assert (a * b).norm() == a.norm() * b.norm()


@given(gaussians)
def test_inverse_property(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE
