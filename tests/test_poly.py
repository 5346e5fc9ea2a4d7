"""Sparse polynomials and the rational-root certificate."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from beauville_lab.poly import (Poly, VARS, discriminant_is_square,
                                rational_roots)
from beauville_lab.scalars import GaussianRational

coeffs = st.fractions(min_value=Fraction(-30), max_value=Fraction(30),
                      max_denominator=8)


def small_polys():
    monos = st.tuples(*(st.integers(0, 2) for _ in VARS))
    return st.dictionaries(monos, coeffs, max_size=4).map(
        lambda d: Poly({m: GaussianRational(c) for m, c in d.items()}))


def test_constructors_and_predicates():
    z = Poly()
    assert z.is_zero() and z.is_constant()
    assert z.constant_value() == GaussianRational(0)
    c = Poly.const(Fraction(3, 2))
    assert c.is_constant() and c.constant_value() == GaussianRational(Fraction(3, 2))
    b = Poly.var("b")
    assert b.degree("b") == 1 and b.degree("a") == 0
    assert not b.is_constant()
    with pytest.raises(ValueError):
        b.constant_value()


def test_ring_arithmetic():
    b = Poly.var("b")
    p = (b + 1) * (b - 1)
    assert p == b * b - 1
    assert p.coefficient("b", 2) == Poly.const(1)
    assert p.coefficient("b", 0) == Poly.const(-1)
    assert (b + 1) ** 2 == b * b + b.scale(2) + 1
    assert b.scale(Fraction(1, 2)) + b.scale(Fraction(1, 2)) == b


def test_degree():
    d, n = Poly.var("d"), Poly.var("N")
    p = d * n ** 3 + n
    assert p.degree("N") == 3
    assert p.degree("d") == 1
    assert Poly().degree("N") == -1


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


gaussian_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in VARS)), st.tuples(coeffs, coeffs),
    max_size=4).map(lambda d: Poly({m: GaussianRational(*c) for m, c in d.items()}))
scalars = st.one_of(
    st.integers(-50, 50), coeffs, st.just(0), st.just(Fraction(0)), st.just(GaussianRational(0)),
    st.builds(GaussianRational, coeffs, coeffs.filter(bool)))


@given(gaussian_polys, scalars)
def test_scalar_product_matches_the_constant_product(p, s):
    scaled = p * s
    assert scaled == p * Poly.const(s) == s * p == p.scale(s)
    assert all(scaled.terms.values())
    assert all(type(c) is GaussianRational for c in scaled.terms.values())


def test_rational_roots_linear_and_quadratic():
    b = Poly.var("b")
    assert rational_roots(b.scale(6) + Poly.const(Fraction(1, 8))) == \
        [Fraction(-1, 48)]
    # (b - 1/2)(b + 3) = b^2 + 5/2 b - 3/2
    p = (b - Poly.const(Fraction(1, 2))) * (b + 3)
    assert rational_roots(p) == [Fraction(-3), Fraction(1, 2)]
    # double root collapses to one entry
    sq = (b - Poly.const(Fraction(1, 2))) ** 2
    assert rational_roots(sq) == [Fraction(1, 2)]


def test_rational_roots_errors_and_empty():
    b = Poly.var("b")
    assert rational_roots(b * b + 1) == []
    assert rational_roots(Poly.const(5)) == []
    with pytest.raises(ValueError):
        rational_roots(Poly())
    with pytest.raises(ValueError):
        rational_roots(b ** 3)
    with pytest.raises(ValueError):
        rational_roots(b + Poly.var("a"))
    # both readers refuse a coefficient that is not rational
    for reader in (rational_roots, discriminant_is_square):
        with pytest.raises(ValueError, match="imaginary"):
            reader(b * b + Poly.const(GaussianRational(0, 1)))
    with pytest.raises(ValueError, match="not a quadratic"):
        discriminant_is_square(b + 1)


def test_frozen_obstruction_discriminants():
    b = Poly.var("b")
    # genus 3: 191/224 - 2b - 36b^2, disc = 1775/14; 1775*14 = 24850 lies
    # strictly between 157^2 = 24649 and 158^2 = 24964
    g3 = Poly.const(Fraction(191, 224)) - b.scale(2) - (b * b).scale(36)
    disc, is_sq = discriminant_is_square(g3)
    assert disc == Fraction(1775, 14)
    assert 157 ** 2 < 1775 * 14 < 158 ** 2
    assert not is_sq
    assert rational_roots(g3) == []
    # genus 2: 11/960 - b/32 - b^2, disc = 719/15360; 719*15360 = 11043840
    # lies strictly between 3323^2 and 3324^2
    g2 = Poly.const(Fraction(11, 960)) - b.scale(Fraction(1, 32)) - b * b
    disc, is_sq = discriminant_is_square(g2)
    assert disc == Fraction(719, 15360)
    assert 3323 ** 2 < 719 * 15360 < 3324 ** 2
    assert not is_sq
    assert rational_roots(g2) == []


@given(st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                    max_denominator=6),
       st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                    max_denominator=6))
def test_quadratic_roots_from_factored_form(r1, r2):
    b = Poly.var("b")
    p = (b - Poly.const(r1)) * (b - Poly.const(r2))
    assert rational_roots(p) == sorted({r1, r2})


def test_str_round_readable():
    b = Poly.var("b")
    p = Poly.const(Fraction(191, 224)) - b.scale(2) - (b * b).scale(36)
    assert str(p) == "-36*b^2-2*b+191/224"
