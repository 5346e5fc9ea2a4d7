"""Sparse polynomials, their integer kernel and the rational-root
certificate."""

from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, strategies as st

from beauville_lab.dsl import evaluate, make_context, parse
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


def in_lowest_terms(p: Poly) -> bool:
    """Whether p holds nonzero int numerators over a positive int
    denominator with no factor common to all of them."""
    parts = [x for pair in p.terms.values() for x in pair]
    return (type(p.den) is int and p.den > 0 and all(type(x) is int for x in parts)
            and all(re or im for re, im in p.terms.values()) and gcd(p.den, *parts) == 1)


@given(gaussian_polys, scalars)
def test_scalar_product_matches_the_constant_product(p, s):
    scaled = p * s
    assert scaled == p * Poly.const(s) == s * p == p.scale(s)
    assert in_lowest_terms(scaled)


# -- the integer kernel against a per-coefficient GaussianRational reference ----------

def coefficients(p: Poly) -> dict:
    """p as {exponent tuple: GaussianRational}."""
    return {exp: GaussianRational(Fraction(re, p.den), Fraction(im, p.den))
            for exp, (re, im) in p.terms.items()}


def nonzero(coeffs: dict) -> dict:
    return {exp: c for exp, c in coeffs.items() if c}


def reference_sum(x: dict, y: dict, sign: int) -> dict:
    out = dict(x)
    for exp, c in y.items():
        out[exp] = out.get(exp, GaussianRational(0)) + c * sign
    return nonzero(out)


def reference_product(x: dict, y: dict) -> dict:
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out.get(exp, GaussianRational(0)) + c1 * c2
    return nonzero(out)


# coefficients with denominators up to 8 in each part, and imaginary parts
mixed_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in VARS)),
    st.builds(GaussianRational, coeffs, coeffs), max_size=4)


@given(mixed_polys, mixed_polys, scalars)
def test_the_kernel_agrees_with_gaussian_rational_coefficients(x, y, s):
    p, q = Poly(x), Poly(y)
    x, y = nonzero(x), nonzero(y)
    assert coefficients(p) == x
    results = {
        "+": (p + q, reference_sum(x, y, 1)),
        "-": (p - q, reference_sum(x, y, -1)),
        "neg": (-p, {exp: -c for exp, c in x.items()}),
        "*": (p * q, reference_product(x, y)),
        "scale": (p.scale(s), nonzero({exp: c * s for exp, c in x.items()})),
        "scalar *": (s * p, nonzero({exp: c * s for exp, c in x.items()})),
        "+ scalar": (p + s, reference_sum(x, {(0,) * len(VARS): GaussianRational.coerce(s)}, 1)),
    }
    for op, (got, want) in results.items():
        assert coefficients(got) == want, op
        assert in_lowest_terms(got), op
        assert got == Poly(want) and hash(got) == hash(Poly(want)), op


def test_one_value_has_one_normal_form():
    b = Poly.var("b")
    half = Poly.const(Fraction(1, 2))
    pairs = [
        (Poly.const(Fraction(2, 4)), half),
        (Poly({(0,) * len(VARS): GaussianRational(Fraction(3, 6), Fraction(2, 4))}),
         Poly.const(GaussianRational(Fraction(1, 2), Fraction(1, 2)))),
        # 1/6 + 1/3 cancels the 3 of the common denominator 6
        (b.scale(Fraction(1, 6)) + b.scale(Fraction(1, 3)), b.scale(Fraction(1, 2))),
        # the 1/2 that set the denominator to 6 goes away again
        ((b.scale(Fraction(1, 3)) + half) - half, b.scale(Fraction(1, 3))),
        (b.scale(Fraction(2, 3)) * Poly.const(Fraction(3, 4)), b.scale(Fraction(1, 2))),
        (Poly.const(GaussianRational(1, 1)) * Poly.const(GaussianRational(1, -1)), Poly.const(2)),
    ]
    for built, plain in pairs:
        assert (built.den, built.terms, hash(built)) == (plain.den, plain.terms, hash(plain))
    assert (half.den, half.terms) == (2, {(0,) * len(VARS): (1, 0)})
    assert (b.scale(Fraction(1, 6)) + b.scale(Fraction(1, 3))).den == 2
    assert (Poly().den, Poly().terms) == (Poly.const(0).den, Poly.const(0).terms) == (1, {})


def test_a_gaussian_coefficient_keeps_its_imaginary_part_in_taut():
    value = evaluate(parse("(1+i)*b^2"), make_context("taut"))
    assert value == Poly.var("b") ** 2 * GaussianRational(1, 1)
    assert value.terms == {(0, 0, 0, 2): (1, 1)} and value.den == 1
    assert str(value) == "(1+i)*b^2"
    assert str(evaluate(parse("1/2*(1-i)*(1+i)*b^2"), make_context("taut"))) == "b^2"


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
