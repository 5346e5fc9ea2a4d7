"""Tautological expressions, locus tags, and the abelian pushforward."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from beauville_lab.dr import (alpha_terms, boundary_substitution,
                              top_weight_boundary_relation)
from beauville_lab.errors import OutsideModelError
from beauville_lab.obstruction import AssumptionLedger, theta_delta_push
from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational
from beauville_lab.taut import (GENS, TautExpr, abelian_push, boundary_pull,
                                gen, monomial_weight, open_restrict,
                                weight_part)


def test_construction_and_validation():
    with pytest.raises(ValueError, match="unknown locus"):
        TautExpr({}, "projective")
    with pytest.raises(ValueError, match="bad monomial"):
        TautExpr({(1, 0): Poly.const(1)})
    with pytest.raises(ValueError, match="bad monomial"):
        TautExpr({(-1, 0, 0, 0, 0, 0): Poly.const(1)})
    with pytest.raises(ValueError, match="unknown generator"):
        gen("lambda1")
    assert TautExpr({(1, 0, 0, 0, 0, 0): Poly.const(0)}).is_zero()
    assert TautExpr.zero("open").locus == "open"
    assert TautExpr.const(Fraction(1, 2)).coefficient_of() == Poly.const(Fraction(1, 2))


def test_immutability():
    expr = gen("theta")
    with pytest.raises(AttributeError):
        expr.locus = "open"


def test_ring_operations():
    theta, delta = gen("theta"), gen("delta")
    assert (theta + delta) - delta == theta
    assert (theta - theta).is_zero()
    assert theta * delta == delta * theta
    assert (theta + delta) ** 2 == theta ** 2 + 2 * theta * delta + delta ** 2
    assert theta.scale(Fraction(3, 2)) == Fraction(3, 2) * theta
    b = Poly.var("b")
    assert theta.scale(b).coefficient_of(theta=1) == b
    with pytest.raises(ValueError, match="exponent"):
        theta ** -1


def test_scale_matches_the_validating_constructor():
    b = Poly.var("b")
    expr = gen("theta", 2).scale(b) + gen("delta").scale(Fraction(-1, 3)) + TautExpr.const(2)
    for value in (3, Fraction(-5, 7), GaussianRational(Fraction(1, 2), -2), b,
                  b * b - Poly.const(GaussianRational(0, 1)), 0, Fraction(0),
                  GaussianRational(0), Poly.const(0)):
        expected = TautExpr({m: c * Poly.coerce(value) for m, c in expr.terms.items()},
                            expr.locus)
        scaled = expr.scale(value)
        assert scaled == expected, value
        assert all(scaled.terms.values()), value
    assert gen("xi2", locus="open").scale(0) == TautExpr.zero("open")


def test_locus_mismatch_rejected():
    theta = gen("theta")
    other = gen("theta", locus="open")
    with pytest.raises(ValueError, match="locus mismatch"):
        theta + other
    with pytest.raises(ValueError, match="locus mismatch"):
        theta * other


def test_coefficient_of():
    expr = gen("theta", 2) + gen("psi1") * gen("xi2", 3)
    assert expr.coefficient_of(theta=2) == Poly.const(1)
    assert expr.coefficient_of(psi1=1, xi2=3) == Poly.const(1)
    assert expr.coefficient_of(delta=1).is_zero()
    with pytest.raises(ValueError, match="unknown generators"):
        expr.coefficient_of(tau=1)


def test_str_frozen():
    expr = gen("theta", 2) + gen("delta")
    assert str(expr) == "(1)*delta + (1)*theta^2 [total]"
    assert str(TautExpr.zero("base")) == "0 [base]"


def test_weights():
    mono = tuple(2 if name == "theta" else (1 if name == "xi2" else 0)
                 for name in GENS)
    assert monomial_weight(mono) == 5
    expr = gen("theta", 2) + gen("xi2", 2) + gen("kappa1")
    assert weight_part(expr, 4) == gen("theta", 2)
    assert weight_part(expr, 2) == gen("xi2", 2)
    assert weight_part(expr, 0) == gen("kappa1")


def test_open_restrict():
    expr = gen("theta", 2) + gen("theta") * gen("delta")
    restricted = open_restrict(expr)
    assert restricted == gen("theta", 2, locus="open")
    with pytest.raises(ValueError, match="total family"):
        open_restrict(restricted)


def test_boundary_pull_frozen():
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    assert boundary_pull(gen("theta")) == \
        gen("theta", locus="boundary") + psi_sum.scale(Fraction(1, 2))
    assert boundary_pull(gen("delta")) == -psi_sum
    assert boundary_pull(gen("delta", 2)) == psi_sum ** 2
    assert boundary_pull(gen("kappa1")) == gen("kappa1", locus="boundary")
    with pytest.raises(ValueError, match="total family"):
        boundary_pull(gen("theta", locus="open"))


def test_boundary_pull_is_a_ring_map():
    x = gen("theta") + gen("delta").scale(Fraction(-1, 3))
    y = gen("theta") * gen("delta")
    assert boundary_pull(x * y) == boundary_pull(x) * boundary_pull(y)
    assert boundary_pull(x + y) == boundary_pull(x) + boundary_pull(y)


def naive_boundary_pull(expr: TautExpr) -> TautExpr:
    """The reference for boundary_pull: substitute each generator's image
    one factor at a time, then scale by the monomial's coefficient."""
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    images = {"theta": gen("theta", locus="boundary") + psi_sum.scale(Fraction(1, 2)),
              "delta": -psi_sum}
    out = TautExpr.zero("boundary")
    for mono, coeff in expr.terms.items():
        part = TautExpr.const(coeff, "boundary")
        for name, e in zip(GENS, mono):
            for _ in range(e):
                part = part * images.get(name, gen(name, locus="boundary"))
        out = out + part
    return out


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
coefficients = st.builds(
    lambda c0, c1, c2: Poly.const(c0) + Poly.var("b").scale(c1) + Poly.var("a").scale(c2),
    small_fractions, small_fractions, small_fractions)
monomials = st.tuples(*[st.integers(0, 3)] * len(GENS))
taut_exprs = st.dictionaries(monomials, coefficients, max_size=4).map(TautExpr)


@settings(max_examples=40, deadline=None)
@given(taut_exprs)
def test_boundary_pull_matches_factor_by_factor_substitution(expr):
    assert boundary_pull(expr) == naive_boundary_pull(expr)


def test_boundary_pull_of_high_powers_with_gaussian_coefficients():
    # the strategy above stops at exponent 3; here the theta ladder reaches
    # rung 9, and each monomial divides its coefficient by up to 2^9
    b = Poly.var("b")
    terms = {}
    for k in range(10):
        for j in range(5):
            mono = tuple(k if name == "theta" else j if name == "delta"
                         else (k + j) % 2 if name == "kappa1" else 0 for name in GENS)
            terms[mono] = (Poly.const(GaussianRational(Fraction(k + 1, j + 2), k - j))
                           + b.scale(GaussianRational(j, Fraction(1, k + 1))))
    expr = TautExpr(terms)
    assert boundary_pull(expr) == naive_boundary_pull(expr)
    assert boundary_pull(gen("theta", 9)) == naive_boundary_pull(gen("theta", 9))


def naive_boundary_substitution(g: int, include_alpha: bool) -> TautExpr:
    """The reference for dr.boundary_substitution: the power
    (theta + psi/2)^(g-1) written out on the boundary family."""
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    lead = (gen("theta", locus="boundary") + psi_sum.scale(Fraction(1, 2))) ** (g - 1)
    expr = lead.scale(top_weight_boundary_relation().coefficient / factorial(g - 1))
    alpha = alpha_terms(g) if include_alpha else None
    return expr if alpha is None else expr + alpha


def naive_theta_delta_push(g: int, k: int, j: int):
    """The reference for obstruction.theta_delta_push: each image written
    out and multiplied factor by factor.  Returns the pushforward and the
    names of the inputs it consumed."""
    ledger = AssumptionLedger()
    if k < g:
        ledger.use("theta-power-vanishing")
        return TautExpr.zero("base"), ledger.names()
    if k == g:
        ledger.use("unit-relation")
        out = TautExpr.const(factorial(g), "base")
        for _ in range(j):
            out = out * gen("delta", locus="base")
        return out, ledger.names()
    inner = naive_boundary_substitution(g, include_alpha=True)
    if alpha_terms(g) is not None:
        ledger.use("alpha2-input" if g == 3 else "alpha0-input")
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    theta_b = gen("theta", locus="boundary") + psi_sum.scale(Fraction(1, 2))
    expr = inner
    for _ in range(k - g - 1):
        expr = expr * theta_b
    for _ in range(j):
        expr = expr * -psi_sum
    if any(m[GENS.index("xi2")] >= 2 and monomial_weight(m) == 2 * (g - 1)
           for m in expr.terms):
        ledger.use("theta-xi-relation")
    return abelian_push(expr, g - 1).scale(factorial(g + 1)), ledger.names()


def test_boundary_substitution_matches_the_written_out_power():
    for g in range(2, 11):
        for include_alpha in (True, False):
            assert boundary_substitution(g, include_alpha=include_alpha) == \
                naive_boundary_substitution(g, include_alpha), (g, include_alpha)


def test_theta_delta_push_matches_the_written_out_images():
    for g in range(2, 9):
        for k in range(g + 4):
            for j in range(4):
                ledger = AssumptionLedger()
                pushed = theta_delta_push(g, k, j, ledger)
                expected, names = naive_theta_delta_push(g, k, j)
                assert pushed == expected, (g, k, j)
                assert ledger.names() == names, (g, k, j)


def test_boundary_pull_of_the_candidate_power_in_closed_form():
    # (theta + b*delta) pulls back to theta + (1/2 - b)(psi1 + psi2); in its
    # (g+1)-st power only the binomial term with theta^(g-1) has weight 2(g-1)
    b = Poly.var("b")
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    candidate = gen("theta") + gen("delta").scale(b)
    for g in range(4, 13):
        part = weight_part(boundary_pull(candidate ** (g + 1)), 2 * (g - 1))
        expected = (gen("theta", g - 1, locus="boundary") * psi_sum * psi_sum).scale(
            (b - Fraction(1, 2)) * (b - Fraction(1, 2)) * comb(g + 1, 2))
        assert part == expected, g


# -- abelian pushforward -----------------------------------------------------------


def test_push_of_the_top_theta_power():
    for n in (1, 2, 3, 5):
        pushed = abelian_push(gen("theta", n), n)
        assert pushed == TautExpr.const(Fraction(1) * _factorial(n), "base")


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_push_drops_off_weight_powers():
    assert abelian_push(gen("theta", 2), 3).is_zero()
    assert abelian_push(gen("theta", 4), 3).is_zero()
    assert abelian_push(gen("kappa1"), 2).is_zero()


def test_push_carries_weight_zero_remainders():
    expr = gen("theta", 2) * gen("delta", 3)
    pushed = abelian_push(expr, 2)
    assert pushed == gen("delta", 3, locus="base").scale(2)
    b = Poly.var("b")
    pushed_b = abelian_push(gen("theta", 3).scale(b), 3)
    assert pushed_b == TautExpr.const(b * Poly.const(6), "base")


def test_push_trades_xi_pairs_for_theta_psi():
    pushed = abelian_push(gen("theta") * gen("xi2", 2), 2)
    assert pushed == -(gen("psi1", locus="base") + gen("psi2", locus="base"))


def test_push_xi_without_theta_leaves_model():
    with pytest.raises(OutsideModelError, match="no theta"):
        abelian_push(gen("xi2", 2), 1)


def test_push_locus_routing():
    boundary_expr = gen("theta", 2, locus="boundary")
    assert abelian_push(boundary_expr, 2).locus == "boundary-base"
    with pytest.raises(ValueError, match="cannot push"):
        abelian_push(TautExpr.const(1, "base"), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        abelian_push(gen("theta"), -1)
