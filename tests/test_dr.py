"""Weight-deficit certificates and the boundary coefficient extraction."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_taut import coefficient_of

from beauville_lab.dr import (TOP_WEIGHT_RELATION, AffineInt,
                              ExclusionCertificate, alpha_terms,
                              boundary_substitution, corollary_theta_push,
                              default_twist_polynomial)
from beauville_lab.poly import Poly
from beauville_lab.taut import TautExpr, abelian_push, gen


small_fractions = st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                               max_denominator=4)


def test_affine_int_basics():
    aff = AffineInt(Fraction(1, 2), -1)
    assert aff.p * 4 + aff.q == Fraction(1)
    assert (aff.p, aff.q) == (Fraction(1, 2), Fraction(-1))
    assert str(aff) == "1/2*g + -1"


@given(small_fractions, small_fractions)
def test_affine_positivity_matches_brute_force(p, q):
    # for |p| >= 1/4 and |q| <= 20 any sign change happens before g = 400
    aff = AffineInt(p, q)
    brute = all(aff.p * g + aff.q > 0 for g in range(2, 401))
    assert aff.is_positive_for_all_genus() == brute


def test_exclusion_certificate():
    assert ExclusionCertificate("x", AffineInt(0, 2), "").holds()
    assert not ExclusionCertificate("x", AffineInt(0, 0), "").holds()
    # positive at small genus but eventually negative does not certify
    assert not ExclusionCertificate("x", AffineInt(-1, 100), "").holds()


def test_default_twist_polynomial_frozen():
    f = default_twist_polynomial()
    assert f.coefficient("d", 4) == Poly.const(Fraction(-1, 48))
    assert f.coefficient("d", 2) == Poly.const(Fraction(1, 24))
    assert f.coefficient("d", 0) == Poly.const(Fraction(-1, 240))
    # f(1): the sum of the coefficients
    assert sum((f.coefficient("d", k) for k in range(5)), Poly()) == Poly.const(Fraction(1, 60))


def test_top_weight_relation_default():
    relation = TOP_WEIGHT_RELATION
    assert relation.coefficient == Fraction(1, 48)
    # minus the quartic coefficient of the twist polynomial
    assert default_twist_polynomial().coefficient("d", 4) == Poly.const(-relation.coefficient)
    assert relation.all_exclusions_hold()
    assert tuple(cert.family for cert in relation.certificates) == (
        "product-type", "binomial-subleading", "psi-decorated-boundary")


def test_alpha_terms():
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    assert alpha_terms(2) == psi_sum.scale(Fraction(1, 480))
    expected3 = (gen("theta", locus="boundary") * psi_sum).scale(Fraction(1, 480)) \
        - gen("xi2", 2, locus="boundary").scale(Fraction(1, 8960))
    assert alpha_terms(3) == expected3
    assert alpha_terms(4) is None
    assert alpha_terms(12) is None


def test_boundary_substitution_genus2_frozen():
    lead = boundary_substitution(2)
    expr = lead + alpha_terms(2)
    assert expr.locus == "boundary"
    assert coefficient_of(expr, theta=1) == Poly.const(Fraction(1, 48))
    # psi coefficient: (1/48)*(1/2) from the shift plus 1/480 recorded
    assert coefficient_of(expr, psi1=1) == Poly.const(Fraction(1, 80))
    assert coefficient_of(lead, psi1=1) == Poly.const(Fraction(1, 96))
    with pytest.raises(ValueError, match="at least 2"):
        boundary_substitution(1)


def test_corollary_theta_push():
    cor = corollary_theta_push()
    assert cor.coefficient == Fraction(1, 48)
    assert all(cert.holds() for cert in cor.certificates)
    assert cor.concrete_checks == ((2, True), (3, True), (4, True), (5, True))


def test_the_one_forty_eighth_push_matches_sympy():
    sympy = pytest.importorskip("sympy")
    d, theta, psi1, psi2 = sympy.symbols("d theta psi1 psi2")
    # the relation coefficient from the twist polynomial: both unit twists,
    # the half automorphism factor, and the sign of moving across
    twist = -d**4 / 48 + d**2 / 24 - sympy.Rational(1, 240)
    quartic = sympy.Poly(twist, d).coeff_monomial(d**4)
    coefficient = -sum(sympy.Rational(1, 2) * quartic * s**4 for s in (1, -1))
    assert coefficient == sympy.Rational(1, 48)
    unit = (0,) * 6
    for g in range(2, 11):
        lead = sympy.expand(coefficient * (theta + (psi1 + psi2) / 2)**(g - 1)
                            / sympy.factorial(g - 1))
        top = sympy.factorial(g - 1) * sympy.Poly(lead, theta, psi1, psi2).coeff_monomial(
            theta**(g - 1))
        pushed = abelian_push(boundary_substitution(g), g - 1)
        assert set(pushed.terms) == {unit}, g
        assert pushed.terms[unit] == Poly.const(Fraction(int(top.p), int(top.q))), g
    assert corollary_theta_push().coefficient == Fraction(int(coefficient.p), int(coefficient.q))


def test_corollary_theta_push_custom_genera():
    # the concrete check of the corollary at genera beyond its own 2..5
    expected = TautExpr.const(corollary_theta_push().coefficient, "boundary-base")
    for g in (7, 9):
        assert abelian_push(boundary_substitution(g), g - 1) == expected, g
