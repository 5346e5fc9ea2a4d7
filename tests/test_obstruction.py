"""Theta-divisor extension pipelines and their named geometric inputs."""

from fractions import Fraction
from math import factorial

import pytest
from test_taut import coefficient_of

from beauville_lab.obstruction import (genus2_obstruction, genus3_obstruction,
                                       high_genus_obstruction,
                                       kappa_exclusion_check,
                                       single_node_theta, theta_delta_push)
from beauville_lab.poly import Poly
from beauville_lab.report import AXIOMS, assume, assumptions
from beauville_lab.taut import TautExpr, gen


def expected_poly(*, const=0, b1=0, b2=0, var="b"):
    x = Poly.var(var)
    return Poly.const(Fraction(const)) + x.scale(Fraction(b1)) \
        + (x * x).scale(Fraction(b2))


def assumed(pipeline, *args):
    """What pipeline(*args) returns, with the sorted names it assumed."""
    with assumptions() as used:
        out = pipeline(*args)
    return out, sorted(used)


def test_assumption_ledger():
    with assumptions() as used:
        assume("unit-relation")
        assume("delta-nonzero")
        assume("unit-relation")
    assert sorted(used) == ["delta-nonzero", "unit-relation"]
    with pytest.raises(KeyError, match="unknown assumption"):
        assume("riemann-hypothesis")


def test_axioms_catalog_is_non_trivial():
    assert all(isinstance(text, str) and text for text in AXIOMS.values())


# -- the k-dispatch of theta^k delta^j pushforwards ----------------------------------


def test_push_below_top_power_vanishes():
    pushed, used = assumed(theta_delta_push, 3, 2, 1)
    assert pushed.is_zero() and pushed.locus == "base"
    assert used == ["theta-power-vanishing"]


def test_push_at_top_power_gives_factorial():
    pushed, used = assumed(theta_delta_push, 3, 3, 1)
    assert pushed == gen("delta", locus="base").scale(6)
    assert used == ["unit-relation"]


def test_push_above_top_power_routes_through_the_boundary():
    pushed, used = assumed(theta_delta_push, 2, 3, 0)
    assert pushed == TautExpr.const(Fraction(1, 8), "boundary-base")
    assert used == ["alpha0-input"]


def test_push_second_power_above_top_keeps_psi_symmetry():
    pushed = theta_delta_push(2, 4, 0)
    assert pushed.locus == "boundary-base"
    assert coefficient_of(pushed, psi1=1) == coefficient_of(pushed, psi2=1)
    assert not coefficient_of(pushed, psi1=1).is_zero()


def test_push_consumes_the_xi_trade_only_when_needed():
    assert "theta-xi-relation" in assumed(theta_delta_push, 3, 5, 0)[1]
    assert "theta-xi-relation" not in assumed(theta_delta_push, 2, 4, 0)[1]


def test_push_validates_inputs():
    with pytest.raises(ValueError):
        theta_delta_push(1, 2, 0)
    with pytest.raises(ValueError):
        theta_delta_push(2, -1, 0)


# -- genus 3 ------------------------------------------------------------------------


def test_genus3_obstruction():
    result, used = assumed(genus3_obstruction)
    assert result.constant == expected_poly(const=Fraction(191, 224), b1=-2, b2=-36)
    assert result.discriminant == Fraction(1775, 14)
    assert result.discriminant_is_square is False
    assert result.rational_roots == []
    assert result.base_class == "iota_*(psi1 + psi2)"
    assert all(ok for _, ok, _ in result.checks)
    assert used == [
        "alpha2-input",
        "boundary-irreducibility",
        "boundary-self-intersection",
        "h3-M3-vanishing",
        "psi-sum-nonvanishing-M22",
        "theta-power-vanishing",
        "theta-xi-relation",
        "unit-relation",
    ]


# -- genus 2, integral locus -----------------------------------------------------------


def test_genus2_obstruction():
    result, used = assumed(genus2_obstruction)
    assert result.constant == expected_poly(
        const=Fraction(11, 960), b1=Fraction(-1, 32), b2=-1)
    assert result.discriminant == Fraction(719, 15360)
    assert result.discriminant_is_square is False
    assert result.rational_roots == []
    assert result.base_class == "R"
    assert all(ok for _, ok, _ in result.checks)
    assert used == [
        "alpha0-input",
        "boundary-irreducibility",
        "delta2-mumford-g2",
        "psi-boundary-descent-g2",
        "r-int-nonzero",
        "theta-power-vanishing",
        "unit-relation",
    ]


# -- genus 2, at most one node ----------------------------------------------------------


def test_single_node_theta():
    result, used = assumed(single_node_theta)
    assert result.constant == expected_poly(const=Fraction(1, 8), b1=6)
    assert result.rational_roots == [Fraction(-1, 48)]
    assert result.theta_class == "theta - (1/48)*delta"
    assert all(ok for _, ok, _ in result.checks)
    assert used == [
        "alpha0-input",
        "boundary-irreducibility",
        "delta-nonzero",
        "theta-power-vanishing",
        "unit-relation",
    ]


# -- genus at least 4 ---------------------------------------------------------------------


@pytest.mark.parametrize("g", range(4, 25))
def test_high_genus_contradiction(g):
    result, used = assumed(high_genus_obstruction, g)
    assert result.contradiction == (Fraction(1, 2), Fraction(-1, 48))
    assert all(ok for _, ok, _ in result.checks)
    assert used == [
        "boundary-irreducibility",
        "bsz-psi-square-nonvanishing",
        "delta-nonzero",
        "theta-power-vanishing",
        "unit-relation",
    ]


def test_high_genus_needs_genus_four():
    with pytest.raises(ValueError, match="at least 4"):
        high_genus_obstruction(3)


# -- smooth locus kappa exclusion -----------------------------------------------------------


@pytest.mark.parametrize("g,factor", [(g, factorial(g + 1)) for g in range(2, 17)])
def test_kappa_exclusion(g, factor):
    result, used = assumed(kappa_exclusion_check, g)
    assert result.constant == Poly.var("a").scale(factor)
    assert result.rational_roots == [Fraction(0)]
    assert all(ok for _, ok, _ in result.checks)
    assert used == [
        "boundary-irreducibility",
        "h2-span-theta-kappa",
        "kappa1-nonzero",
        "unit-relation",
    ]


def test_kappa_exclusion_needs_genus_two():
    with pytest.raises(ValueError, match="at least 2"):
        kappa_exclusion_check(1)
