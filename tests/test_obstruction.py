"""Theta-divisor extension pipelines and their named geometric inputs."""

from fractions import Fraction
from math import factorial

import pytest
from test_taut import coefficient_of

from beauville_lab.obstruction import (AXIOMS, AssumptionLedger,
                                       genus2_obstruction, genus3_obstruction,
                                       high_genus_obstruction,
                                       kappa_exclusion_check,
                                       single_node_theta, theta_delta_push)
from beauville_lab.poly import Poly
from beauville_lab.taut import TautExpr, gen


def expected_poly(*, const=0, b1=0, b2=0, var="b"):
    x = Poly.var(var)
    return Poly.const(Fraction(const)) + x.scale(Fraction(b1)) \
        + (x * x).scale(Fraction(b2))


def test_assumption_ledger():
    ledger = AssumptionLedger()
    ledger.use("unit-relation")
    ledger.use("delta-nonzero")
    ledger.use("unit-relation")
    assert ledger.names() == ["delta-nonzero", "unit-relation"]
    with pytest.raises(KeyError, match="unknown assumption"):
        ledger.use("riemann-hypothesis")


def test_axioms_catalog_is_non_trivial():
    assert len(AXIOMS) == 20
    assert all(isinstance(text, str) and text for text in AXIOMS.values())


# -- the k-dispatch of theta^k delta^j pushforwards ----------------------------------


def test_push_below_top_power_vanishes():
    ledger = AssumptionLedger()
    pushed = theta_delta_push(3, 2, 1, ledger)
    assert pushed.is_zero() and pushed.locus == "base"
    assert ledger.names() == ["theta-power-vanishing"]


def test_push_at_top_power_gives_factorial():
    ledger = AssumptionLedger()
    pushed = theta_delta_push(3, 3, 1, ledger)
    assert pushed == gen("delta", locus="base").scale(6)
    assert ledger.names() == ["unit-relation"]


def test_push_above_top_power_routes_through_the_boundary():
    ledger = AssumptionLedger()
    pushed = theta_delta_push(2, 3, 0, ledger)
    assert pushed == TautExpr.const(Fraction(1, 8), "boundary-base")
    assert ledger.names() == ["alpha0-input"]


def test_push_second_power_above_top_keeps_psi_symmetry():
    ledger = AssumptionLedger()
    pushed = theta_delta_push(2, 4, 0, ledger)
    assert pushed.locus == "boundary-base"
    assert coefficient_of(pushed, psi1=1) == coefficient_of(pushed, psi2=1)
    assert not coefficient_of(pushed, psi1=1).is_zero()


def test_push_consumes_the_xi_trade_only_when_needed():
    ledger = AssumptionLedger()
    theta_delta_push(3, 5, 0, ledger)
    assert "theta-xi-relation" in ledger.names()
    ledger = AssumptionLedger()
    theta_delta_push(2, 4, 0, ledger)
    assert "theta-xi-relation" not in ledger.names()


def test_push_validates_inputs():
    ledger = AssumptionLedger()
    with pytest.raises(ValueError):
        theta_delta_push(1, 2, 0, ledger)
    with pytest.raises(ValueError):
        theta_delta_push(2, -1, 0, ledger)


# -- genus 3 ------------------------------------------------------------------------


def test_genus3_obstruction():
    result = genus3_obstruction()
    assert result.constant == expected_poly(const=Fraction(191, 224), b1=-2, b2=-36)
    assert result.discriminant == Fraction(1775, 14)
    assert result.discriminant_is_square is False
    assert result.rational_roots == []
    assert result.base_class == "iota_*(psi1 + psi2)"
    assert all(ok for _, ok, _ in result.checks)
    assert result.assumptions == [
        "alpha2-input",
        "boundary-irreducibility",
        "boundary-self-intersection",
        "h3-M3-vanishing",
        "psi-sum-nonvanishing-M22",
        "theta-power-vanishing",
        "theta-xi-relation",
        "unit-relation",
    ]


def test_genus3_never_needs_the_delta_cube():
    # delta^3 and delta^4 terms die at k < g, so that input stays catalog-only
    result = genus3_obstruction()
    assert "delta3-vanishing-g3" not in result.assumptions


# -- genus 2, integral locus -----------------------------------------------------------


def test_genus2_obstruction():
    result = genus2_obstruction()
    assert result.constant == expected_poly(
        const=Fraction(11, 960), b1=Fraction(-1, 32), b2=-1)
    assert result.discriminant == Fraction(719, 15360)
    assert result.discriminant_is_square is False
    assert result.rational_roots == []
    assert result.base_class == "R"
    assert all(ok for _, ok, _ in result.checks)
    assert result.assumptions == [
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
    result = single_node_theta()
    assert result.constant == expected_poly(const=Fraction(1, 8), b1=6)
    assert result.rational_roots == [Fraction(-1, 48)]
    assert result.theta_class == "theta - (1/48)*delta"
    assert all(ok for _, ok, _ in result.checks)
    assert result.assumptions == [
        "alpha0-input",
        "boundary-irreducibility",
        "delta-nonzero",
        "theta-power-vanishing",
        "unit-relation",
    ]


# -- genus at least 4 ---------------------------------------------------------------------


@pytest.mark.parametrize("g", range(4, 25))
def test_high_genus_contradiction(g):
    result = high_genus_obstruction(g)
    assert result.contradiction == (Fraction(1, 2), Fraction(-1, 48))
    assert all(ok for _, ok, _ in result.checks)
    assert result.assumptions == [
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
    result = kappa_exclusion_check(g)
    assert result.constant == Poly.var("a").scale(factor)
    assert result.rational_roots == [Fraction(0)]
    assert all(ok for _, ok, _ in result.checks)
    assert result.assumptions == [
        "boundary-irreducibility",
        "h2-span-theta-kappa",
        "kappa1-nonzero",
        "unit-relation",
    ]


def test_kappa_exclusion_needs_genus_two():
    with pytest.raises(ValueError, match="at least 2"):
        kappa_exclusion_check(1)
