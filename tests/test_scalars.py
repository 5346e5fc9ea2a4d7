"""Gaussian rational arithmetic."""

from fractions import Fraction

import operator

import pytest
from hypothesis import assume, given, strategies as st

from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational, I, ONE

rationals = st.fractions(min_value=Fraction(-60), max_value=Fraction(60),
                         max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_frozen_square():
    # (1/2 + 1/2 i)^2 = i/2, fixed oracle value
    x = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert x * x == GaussianRational(0, Fraction(1, 2))


def test_constants():
    assert GaussianRational(0).is_zero()
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
        GaussianRational(0).inverse()


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
        GaussianRational(0) ** -1


def test_immutability_and_hash():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_str_forms():
    assert str(GaussianRational(0)) == "0"
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


# about half of these have a zero imaginary part, the fast path's case
fast_gaussians = st.builds(GaussianRational, rationals,
                           st.one_of(st.just(Fraction(0)), rationals))
operands = st.one_of(fast_gaussians, st.integers(-60, 60), rationals)


def parts(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def assert_is(z, re, im):
    assert isinstance(z, GaussianRational)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    expected = GaussianRational(re, im)
    assert z == expected and hash(z) == hash(expected)


@given(operands, operands)
def test_operators_match_the_textbook_formulas(x, y):
    assume(isinstance(x, GaussianRational) or isinstance(y, GaussianRational))
    (a, b), (c, d) = parts(x), parts(y)
    assert_is(x + y, a + c, b + d)
    assert_is(x - y, a - c, b - d)
    assert_is(x * y, a * c - b * d, a * d + b * c)
    for z in (x, y):
        if isinstance(z, GaussianRational):
            assert_is(-z, -z.re, -z.im)


def test_poly_operands_fall_through_to_poly():
    b = Poly.var("b")
    two = GaussianRational(2)
    for value, expected in ((two * b, b.scale(2)), (b * two, b.scale(2)),
                            (two + b, b + 2), (two - b, Poly.const(2) - b)):
        assert isinstance(value, Poly)
        assert value == expected
    for op in (operator.add, operator.sub, operator.mul):
        assert getattr(GaussianRational, f"__{op.__name__}__")(two, b) is NotImplemented
    with pytest.raises(TypeError):
        two + "x"
    with pytest.raises(TypeError):
        two * "x"
