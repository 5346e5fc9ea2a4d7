"""Tautological expressions, locus tags, and the abelian pushforward."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from beauville_lab.dr import (TOP_WEIGHT_RELATION, alpha_terms,
                              boundary_substitution)
from beauville_lab.errors import OutsideModelError
from beauville_lab.obstruction import theta_delta_push
from beauville_lab.poly import VARS, Poly
from beauville_lab.report import assumptions
from beauville_lab.scalars import GaussianRational
from beauville_lab.taut import (GENS, LOCI, TautExpr, abelian_push,
                                boundary_pull, gen, monomial_weight, multiple,
                                open_restrict, weight_part)


def coefficient_of(expr: TautExpr, **powers: int) -> Poly:
    """The coefficient of the monomial with the given generator powers."""
    unknown = set(powers) - set(GENS)
    if unknown:
        raise ValueError(f"unknown generators {sorted(unknown)}")
    return expr.terms.get(tuple(powers.get(name, 0) for name in GENS), Poly.const(0))


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
    assert coefficient_of(TautExpr.const(Fraction(1, 2))) == Poly.const(Fraction(1, 2))


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
    assert coefficient_of(theta.scale(b), theta=1) == b
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
    assert coefficient_of(expr, theta=2) == Poly.const(1)
    assert coefficient_of(expr, psi1=1, xi2=3) == Poly.const(1)
    assert coefficient_of(expr, delta=1).is_zero()
    with pytest.raises(ValueError, match="unknown generators"):
        coefficient_of(expr, tau=1)


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


@settings(max_examples=40, deadline=None)
@given(taut_exprs)
def test_boundary_pull_at_one_weight_is_that_part_of_the_full_pull(expr):
    full = boundary_pull(expr)
    top = max((monomial_weight(m) for m in expr.terms), default=0)
    for weight in range(top + 2):
        assert boundary_pull(expr, weight) == weight_part(full, weight), weight


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
    expr = lead.scale(TOP_WEIGHT_RELATION.coefficient / factorial(g - 1))
    alpha = alpha_terms(g) if include_alpha else None
    return expr if alpha is None else expr + alpha


def naive_theta_delta_push(g: int, k: int, j: int):
    """The reference for obstruction.theta_delta_push: each image written
    out and multiplied factor by factor.  Returns the pushforward and the
    sorted names of the inputs it consumed."""
    if k < g:
        return TautExpr.zero("base"), ["theta-power-vanishing"]
    if k == g:
        out = TautExpr.const(factorial(g), "base")
        for _ in range(j):
            out = out * gen("delta", locus="base")
        return out, ["unit-relation"]
    inner = naive_boundary_substitution(g, include_alpha=True)
    names = []
    if alpha_terms(g) is not None:
        names.append("alpha2-input" if g == 3 else "alpha0-input")
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    theta_b = gen("theta", locus="boundary") + psi_sum.scale(Fraction(1, 2))
    expr = inner
    for _ in range(k - g - 1):
        expr = expr * theta_b
    for _ in range(j):
        expr = expr * -psi_sum
    if any(m[GENS.index("xi2")] >= 2 and monomial_weight(m) == 2 * (g - 1)
           for m in expr.terms):
        names.append("theta-xi-relation")
    return abelian_push(expr, g - 1).scale(factorial(g + 1)), sorted(names)


def test_boundary_substitution_matches_the_written_out_power():
    for g in range(2, 11):
        # the engine's substitution is the lead; genus 2 and 3 add alpha_terms
        alpha = alpha_terms(g)
        assert boundary_substitution(g) == naive_boundary_substitution(g, False), g
        if alpha is not None:
            assert boundary_substitution(g) + alpha == naive_boundary_substitution(g, True), g


def test_theta_delta_push_matches_the_written_out_images():
    for g in range(2, 9):
        for k in range(g + 4):
            for j in range(4):
                with assumptions() as used:
                    pushed = theta_delta_push(g, k, j)
                expected, names = naive_theta_delta_push(g, k, j)
                assert pushed == expected, (g, k, j)
                assert sorted(used) == names, (g, k, j)


def test_boundary_pull_of_the_candidate_power_in_closed_form():
    # (theta + b*delta) pulls back to theta + (1/2 - b)(psi1 + psi2); in its
    # (g+1)-st power only the binomial term with theta^(g-1) has weight 2(g-1)
    b = Poly.var("b")
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    candidate = gen("theta") + gen("delta").scale(b)
    for g in range(4, 25):
        power = candidate ** (g + 1)
        part = weight_part(boundary_pull(power), 2 * (g - 1))
        expected = (gen("theta", g - 1, locus="boundary") * psi_sum * psi_sum).scale(
            (b - Fraction(1, 2)) * (b - Fraction(1, 2)) * comb(g + 1, 2))
        assert part == expected, g
        assert boundary_pull(power, 2 * (g - 1)) == expected, g


def test_top_weight_of_the_pulled_candidate_power_matches_sympy():
    # an independent route: substitute the two images into theta + b delta in
    # sympy, raise it to the power g+1 with sympy's polynomial arithmetic, and
    # read off the theta^(g-1) part
    sympy = pytest.importorskip("sympy")
    theta, delta, psi1, psi2, b = sympy.symbols("theta delta psi1 psi2 b")
    images = {theta: theta + (psi1 + psi2) / 2, delta: -(psi1 + psi2)}
    pulled_candidate = sympy.Poly((theta + b * delta).subs(images, simultaneous=True),
                                  theta, psi1, psi2, b)
    candidate = gen("theta") + gen("delta").scale(Poly.var("b"))
    i_psi1, i_psi2, i_b = GENS.index("psi1"), GENS.index("psi2"), VARS.index("b")
    for g in range(4, 17):
        expected = {(e1, e2, eb): c for (et, e1, e2, eb), c
                    in (pulled_candidate ** (g + 1)).terms() if et == g - 1}
        got = {}
        for mono, coeff in boundary_pull(candidate ** (g + 1), 2 * (g - 1)).terms.items():
            assert [e for k, e in enumerate(mono) if k not in (i_psi1, i_psi2)] == \
                [g - 1, 0, 0, 0], (g, mono)
            for exps, (re, im) in coeff.terms.items():
                assert not im
                got[mono[i_psi1], mono[i_psi2], exps[i_b]] = sympy.Rational(re, coeff.den)
        assert got == expected, g


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


def _pairwise_push(expr, n):
    """The pushforward as the engine once computed it, trading one xi2 pair
    per stack child (2^j pops for xi2^(2j)): the oracle of the trade of all
    pairs at once."""
    i_theta, i_psi1, i_psi2, i_xi = (GENS.index(g) for g in ("theta", "psi1", "psi2", "xi2"))
    out = {}
    stack = list(expr.terms.items())
    while stack:
        mono, coeff = stack.pop()
        if monomial_weight(mono) != 2 * n:
            continue
        k, e = mono[i_theta], mono[i_xi]
        if e >= 2:
            if k == 0:
                raise OutsideModelError("xi2 power with no theta to trade against")
            for psi_idx in (i_psi1, i_psi2):
                new = list(mono)
                new[i_xi] -= 2
                new[i_theta] += 1
                new[psi_idx] += 1
                stack.append((tuple(new), coeff * Fraction(-1, 2)))
            continue
        if e == 1:
            raise OutsideModelError("odd xi2 power at even weight leaves the model")
        new = list(mono)
        new[i_theta] = 0
        out[tuple(new)] = out.get(tuple(new), Poly.const(0)) + coeff * factorial(n)
    return TautExpr(out, "boundary-base" if expr.locus == "boundary" else "base")


def _outcome(push, expr, n):
    try:
        return push(expr, n)
    except OutsideModelError as err:
        return str(err)


def test_push_trades_all_xi_pairs_as_the_pairwise_stack_did():
    a = Poly.var("a")
    rests = (TautExpr.const(1), gen("psi1"), gen("kappa1", 2) * gen("delta"))
    for e in range(13):
        for k in range(4):
            for rest in rests:
                for locus in ("total", "boundary"):
                    total = (gen("theta", k) * gen("xi2", e) * rest * (a + 3)
                             + gen("theta", k + e // 2 + 1) * rest.scale(Fraction(-2, 3)))
                    expr = TautExpr(total.terms, locus)
                    for n in {k + e // 2, k + e // 2 + 1, (2 * k + e + 1) // 2}:
                        assert _outcome(abelian_push, expr, n) == \
                            _outcome(_pairwise_push, expr, n), (e, k, rest, locus, n)
    assert _outcome(abelian_push, gen("xi2", 4), 2) == "xi2 power with no theta to trade against"


def test_push_of_many_xi_pairs_sums_to_the_top_theta_push():
    # at psi1 = psi2 = 1 the binomial trade of j pairs sums to (-1)^j, so
    # theta * xi2^(2j) pushes to (-1)^j (j+1)! there, where the oracle pops
    # 2^j times
    for j in (20, 40):
        pushed = abelian_push(gen("theta") * gen("xi2", 2 * j), j + 1)
        assert sum((c.constant_value() for c in pushed.terms.values()),
                   GaussianRational(0)) == (-1) ** j * factorial(j + 1)
        assert len(pushed.terms) == j + 1


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


# -- reading a class as a multiple of another ------------------------------------------


nonzero_scalars = st.one_of(
    small_fractions, st.builds(GaussianRational, small_fractions, small_fractions)
).filter(bool)
# polynomials in a and b, the zero polynomial among them
ab_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), nonzero_scalars, max_size=3
).map(lambda terms: sum((Poly.var("a") ** i * Poly.var("b") ** j * c
                         for (i, j), c in terms.items()), Poly()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LOCI), st.dictionaries(monomials, nonzero_scalars, min_size=1, max_size=4),
       ab_polys, monomials, st.sampled_from(LOCI), ab_polys.filter(bool))
def test_multiple_inverts_scaling_and_refuses_every_other_class(
        locus, of_terms, p, extra, other_locus, perturbation):
    of = TautExpr(of_terms, locus)
    expr = of.scale(p)
    assert multiple(expr, of) == p
    assume(extra not in of.terms)
    off_support = TautExpr({extra: 1}, locus)
    # a nonzero class where the multiple would be zero, and one monomial too many
    for wrong in (off_support, expr + off_support.scale(perturbation)):
        with pytest.raises(OutsideModelError):
            multiple(wrong, of)
    # one coefficient perturbed: its ratio differs from the others'
    if len(of.terms) >= 2:
        mono = sorted(of.terms)[0]
        with pytest.raises(OutsideModelError):
            multiple(expr + TautExpr({mono: perturbation}, locus), of)
    if other_locus != locus:
        with pytest.raises(OutsideModelError, match="not a multiple"):
            multiple(TautExpr(expr.terms, other_locus), of)


def test_multiple_reads_the_pushes_of_the_theta_pipelines():
    psi_sum = gen("psi1", locus="boundary-base") + gen("psi2", locus="boundary-base")
    b = Poly.var("b")
    assert multiple((psi_sum * psi_sum).scale(b - 1), psi_sum * psi_sum) == b - 1
    assert multiple(TautExpr.zero("base"), gen("kappa1", locus="base")) == Poly()
    with pytest.raises(OutsideModelError):
        multiple(psi_sum, psi_sum * psi_sum)
    with pytest.raises(ValueError, match="zero class"):
        multiple(psi_sum, TautExpr.zero("boundary-base"))
