"""Obstructions to generalized theta divisors on nodal Jacobian families.

A candidate extension Theta = theta + b*delta of the theta divisor across
the boundary is fed through exact pushforward pipelines.  Powers theta^k
with k <= g push directly along the g-dimensional fibration; powers with
k >= g+1 are first rewritten through the top-weight boundary relation and
pushed along the (g-1)-dimensional boundary fibration.  Each pipeline
assumes the named geometric inputs (report.AXIOMS) where it uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, Dict, List, Optional, Tuple

from .dr import TOP_WEIGHT_RELATION, alpha_terms, corollary_theta_push
from .errors import OutsideModelError
from .poly import Poly, discriminant_is_square, rational_roots
from .report import Check, Report, assume, check_report
from .taut import GENS, TautExpr, abelian_push, boundary_pull, gen, multiple, \
    open_restrict, weight_part

@dataclass
class ObstructionResult:
    name: str
    conclusion: str
    constant: Optional[Poly] = None
    base_class: Optional[str] = None
    discriminant: Optional[Fraction] = None
    discriminant_is_square: Optional[bool] = None
    rational_roots: List[Fraction] = field(default_factory=list)
    contradiction: Optional[Tuple[Fraction, Fraction]] = None
    theta_class: Optional[str] = None
    checks: List[Check] = field(default_factory=list)


def theta_delta_push(g: int, k: int, j: int) -> TautExpr:
    """Pushforward of theta^k delta^j along the g-dimensional fibration.

    For k <= g the power pushes directly: g! delta^j at k = g and zero
    below.  For k >= g+1 the relation theta^(g+1) = (g+1)! times the pushed
    boundary substitution applies; the leftover theta^e delta^j pulls back
    to the boundary family (boundary_pull) as (theta + psi/2)^e
    (-psi1-psi2)^j and the result lives on the boundary base.

    Only the weight-2(g-1) part of the product reaches the push.  The
    pullback is a ring map, so the lead term of the substitution times the
    pulled theta^e delta^j is the relation coefficient over (g-1)! times the
    pull of theta^(g-1+e) delta^j, of which only that weight is built; the
    decorated terms of genus 2 and 3 multiply the whole small pull.
    """
    if g < 2 or k < 0 or j < 0:
        raise ValueError("need g >= 2 and nonnegative exponents")
    if k <= g:
        if k == g:
            assume("unit-relation")
            return gen("delta", j, locus="base").scale(factorial(g))
        assume("theta-power-vanishing")
        return TautExpr.zero("base")
    e, top = k - g - 1, 2 * (g - 1)
    expr = boundary_pull(gen("theta", g - 1 + e) * gen("delta", j), top).scale(
        TOP_WEIGHT_RELATION.coefficient / factorial(g - 1))
    alpha = alpha_terms(g)
    if alpha is not None:
        assume("alpha2-input" if g == 3 else "alpha0-input")
        pulled = boundary_pull(gen("theta", e) * gen("delta", j))
        expr = expr + weight_part(alpha * pulled, top)
    xi_idx = GENS.index("xi2")
    if any(m[xi_idx] >= 2 for m in expr.terms):
        assume("theta-xi-relation")
    pushed = abelian_push(expr, g - 1)
    return pushed.scale(factorial(g + 1))


def _theta_candidate() -> TautExpr:
    """theta + b delta, with the extension coefficient b a variable."""
    return gen("theta") + gen("delta").scale(Poly.var("b"))


# the classes each pipeline reads its push as a multiple of, built once
_UNIT = TautExpr.const(1, "boundary-base")
_PSI_SUM = gen("psi1", locus="boundary-base") + gen("psi2", locus="boundary-base")
_PSI_SUM_SQUARE = _PSI_SUM * _PSI_SUM
_DELTA, _DELTA_SQUARE = gen("delta", locus="base"), gen("delta", 2, locus="base")
_KAPPA1 = gen("kappa1", locus="base")


def _push_theta_mixed_power(g: int, power: int, extra_theta: int) -> Tuple[TautExpr, TautExpr]:
    """Push theta^extra * (theta + b delta)^power, split by target locus.

    Returns (base part, boundary-base part); the boundary-base part still
    needs the genus-specific boundary descent applied by the caller.  Only
    theta^g delta^j has a nonzero base push, so the base part is a multiple
    of delta^(power + extra - g).
    """
    integrand = gen("theta") ** extra_theta * _theta_candidate() ** power
    base_total = TautExpr.zero("base")
    boundary_total = TautExpr.zero("boundary-base")
    i_theta = GENS.index("theta")
    i_delta = GENS.index("delta")
    for mono, coeff in sorted(integrand.terms.items()):
        k, j = mono[i_theta], mono[i_delta]
        pushed = theta_delta_push(g, k, j)
        if pushed.locus == "base":
            base_total = base_total + pushed.scale(coeff)
        else:
            boundary_total = boundary_total + pushed.scale(coeff)
    return base_total, boundary_total


def _pushed_delta_coefficient(g: int) -> Poly:
    """The multiple of the boundary divisor that (theta + b delta)^(g+1)
    pushes to; iota_* of the boundary-base unit is that divisor."""
    base_part, boundary_part = _push_theta_mixed_power(g, g + 1, 0)
    coeff = multiple(boundary_part, _UNIT) + multiple(base_part, _DELTA)
    assume("delta-nonzero")
    assume("boundary-irreducibility")
    return coeff


def _push_theta_times_candidate(g: int) -> Tuple[Poly, Poly]:
    """Push theta * (theta + b delta)^(g+1) and read it as (the multiple of
    the boundary-base psi sum, the multiple of delta^2 on the base)."""
    base_part, boundary_part = _push_theta_mixed_power(g, g + 1, 1)
    return multiple(boundary_part, _PSI_SUM), multiple(base_part, _DELTA_SQUARE)


def _no_root_result(name: str, conclusion: str, base_class: str, constant: Poly,
                    expected: Poly) -> ObstructionResult:
    """The certificate of a quadratic obstruction constant in b: it is the
    expected one, and its discriminant is no rational square."""
    disc, is_sq = discriminant_is_square(constant, "b")
    roots = rational_roots(constant, "b")
    checks = [
        ("constant", constant == expected, str(constant)),
        ("no-rational-root", not roots and not is_sq, f"disc={disc}"),
    ]
    return ObstructionResult(
        name=name, conclusion=conclusion, constant=constant, base_class=base_class,
        discriminant=disc, discriminant_is_square=is_sq, rational_roots=roots, checks=checks)


def genus3_obstruction() -> ObstructionResult:
    """Obstruction constant for extending the theta divisor in genus 3.

    Pushes theta * (theta + b delta)^4 along the 3-dimensional fibration;
    the result is a multiple of the pushed psi sum, and the multiple has no
    rational root in b.
    """
    psi_mult, delta2 = _push_theta_times_candidate(3)
    # base part: delta^2 restricts through the boundary as -(psi1 + psi2)
    if delta2:
        assume("boundary-self-intersection")
    assume("psi-sum-nonvanishing-M22")
    assume("h3-M3-vanishing")
    assume("boundary-irreducibility")
    return _no_root_result(
        "genus3-obstruction",
        "no rational b extends the theta divisor: the pushed obstruction "
        "class is a nonzero multiple of the psi sum for every rational b",
        "iota_*(psi1 + psi2)", psi_mult - delta2, _expected_genus3_constant())


def _expected_genus3_constant() -> Poly:
    b = Poly.var("b")
    return (Poly.const(Fraction(191, 224)) - b.scale(2)
            - (b * b).scale(36))


def _expected_genus2_constant() -> Poly:
    b = Poly.var("b")
    return (Poly.const(Fraction(11, 960)) - b.scale(Fraction(1, 32))
            - (b * b))


def genus2_obstruction() -> ObstructionResult:
    """Obstruction constant on the integral genus-2 locus.

    Pushes theta * (theta + b delta)^3; boundary-base psi terms descend to
    the stratum class R with factor 1/12 and the base delta^2 converts by
    the Mumford relation; the resulting multiple of R has no rational root.
    """
    psi_mult, delta2 = _push_theta_times_candidate(2)
    assume("psi-boundary-descent-g2")
    if delta2:
        assume("delta2-mumford-g2")
    assume("r-int-nonzero")
    assume("boundary-irreducibility")
    r_coeff = psi_mult.scale(Fraction(1, 12)) + delta2.scale(Fraction(-1, 6))
    return _no_root_result(
        "genus2-obstruction",
        "no rational b extends the theta divisor over integral curves: the "
        "pushed obstruction class is a nonzero multiple of the stratum class "
        "R for every rational b",
        "R", r_coeff, _expected_genus2_constant())


def single_node_theta() -> ObstructionResult:
    """Genus 2 with at most one node: the extension exists and is pinned.

    Pushing (theta + b delta)^3 gives (1/8 + 6b) times the boundary
    divisor, forcing b = -1/48.
    """
    delta_coeff = _pushed_delta_coefficient(2)
    roots = rational_roots(delta_coeff, "b")
    solved = roots[0] if len(roots) == 1 else None
    checks = [
        ("delta-coefficient",
         delta_coeff == Poly.const(Fraction(1, 8)) + Poly.var("b").scale(6),
         str(delta_coeff)),
        ("unique-solution", solved == Fraction(-1, 48), f"b={solved}"),
    ]
    theta_class = "theta - (1/48)*delta" if solved == Fraction(-1, 48) else None
    return ObstructionResult(
        name="single-node-theta",
        conclusion=("a unique extension exists over curves with at most one "
                    "node"),
        constant=delta_coeff,
        base_class="delta",
        rational_roots=roots,
        theta_class=theta_class,
        checks=checks,
    )


def high_genus_obstruction(g: int) -> ObstructionResult:
    """Contradictory constraints on the extension coefficient for g >= 4.

    The boundary pullback of (theta + b delta)^(g+1) pushes to a nonzero
    multiple of (1/2 - b)^2, forcing b = 1/2; the direct pushforward of the
    same power forces 1/48 + b = 0.  The two values disagree.
    """
    if g < 4:
        raise ValueError("this obstruction needs genus at least 4")

    # boundary constraint: weight-2(g-1) part of the pulled-back power
    pulled = boundary_pull(_theta_candidate() ** (g + 1), 2 * (g - 1))
    square_coeff = multiple(abelian_push(pulled, g - 1), _PSI_SUM_SQUARE)
    assume("bsz-psi-square-nonvanishing")
    boundary_roots = rational_roots(square_coeff, "b")
    b_boundary = boundary_roots[0] if len(boundary_roots) == 1 else None

    # direct constraint: push (theta + b delta)^(g+1)/(g+1)!
    delta_coeff = _pushed_delta_coefficient(g).scale(Fraction(1, factorial(g + 1)))
    direct_roots = rational_roots(delta_coeff, "b")
    b_direct = direct_roots[0] if len(direct_roots) == 1 else None

    contradiction = None
    if b_boundary is not None and b_direct is not None and b_boundary != b_direct:
        contradiction = (b_boundary, b_direct)
    checks = [
        ("boundary-value", b_boundary == Fraction(1, 2), f"b={b_boundary}"),
        ("direct-value", b_direct == Fraction(-1, 48), f"b={b_direct}"),
        ("contradiction", contradiction is not None,
         f"{b_boundary} vs {b_direct}"),
    ]
    return ObstructionResult(
        name=f"high-genus-obstruction-g{g}",
        conclusion=("no extension exists: the boundary constraint and the "
                    "direct pushforward pin incompatible values of b"),
        constant=delta_coeff,
        base_class="delta",
        contradiction=contradiction,
        checks=checks,
    )


def kappa_exclusion_check(g: int) -> ObstructionResult:
    """Over smooth curves no kappa1 correction is allowed.

    Pushing (theta + a kappa1)^(g+1) along the g-dimensional fibration
    leaves (g+1)! a kappa1, which must vanish.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    candidate = gen("theta") + gen("kappa1").scale(Poly.var("a"))
    expr = open_restrict(candidate ** (g + 1))
    part = weight_part(expr, 2 * g)
    coeff = multiple(abelian_push(part, g), _KAPPA1)
    assume("unit-relation")
    assume("h2-span-theta-kappa")
    assume("kappa1-nonzero")
    assume("boundary-irreducibility")
    roots = rational_roots(coeff, "a")
    solved = roots[0] if len(roots) == 1 else None
    checks = [
        ("kappa-coefficient",
         coeff == Poly.var("a").scale(factorial(g + 1)), str(coeff)),
        ("forced-value", solved == Fraction(0), f"a={solved}"),
    ]
    return ObstructionResult(
        name=f"kappa-exclusion-g{g}",
        conclusion="over smooth curves the candidate divisor carries no "
                   "kappa1 correction",
        constant=coeff,
        base_class="kappa1",
        rational_roots=roots,
        checks=checks,
    )


# -- the suite ----------------------------------------------------------------------------


def _result_checks(result: ObstructionResult) -> Tuple[List[Check], Dict[str, object]]:
    """The checks of an obstruction result, with the report fields it sets:
    its name and its headline value."""
    witness = str(result.constant) if result.constant is not None else ""
    if result.theta_class:
        witness = result.theta_class
    if result.contradiction:
        witness = f"b = {result.contradiction[0]} vs b = {result.contradiction[1]}"
    return result.checks, {"params": {"name": result.name}, "witness": witness}


def _power_push_checks() -> Tuple[List[Check], Dict[str, object]]:
    cor = corollary_theta_push()
    failing = [cert.family for cert in cor.certificates if not cert.holds()]
    checks = [
        ("coefficient = 1/48", cor.coefficient == Fraction(1, 48), str(cor.coefficient)),
        ("weight-deficit certificates", not failing, ", ".join(failing)),
        ("concrete genera", all(ok for _, ok in cor.concrete_checks), str(cor.concrete_checks)),
    ]
    return checks, {"params": {"genera": [g for g, _ in cor.concrete_checks]}}


def run_theta_suite(extra_genus: Optional[int] = None) -> List[Report]:
    """Every obstruction pipeline, also at extra_genus, then the theta-power
    push; a pipeline that leaves the model ends the suite as unsupported."""
    high = [4, 5] + ([extra_genus] if extra_genus is not None and extra_genus >= 6 else [])
    kappa = [2, 3] + ([extra_genus] if extra_genus not in (None, 2, 3) else [])
    pipelines: List[Tuple[str, Callable[[], ObstructionResult]]] = [
        ("theta-genus3", genus3_obstruction),
        ("theta-genus2-integral", genus2_obstruction),
        ("theta-single-node", single_node_theta),
        *((f"theta-high-genus-g{g}", partial(high_genus_obstruction, g)) for g in high),
        *((f"theta-kappa-exclusion-g{g}", partial(kappa_exclusion_check, g)) for g in kappa),
    ]
    reports = []
    try:
        for check, pipeline in pipelines:
            reports.append(check_report(
                check, lambda pipeline=pipeline: _result_checks(pipeline())))
    except OutsideModelError as err:
        reports.append(Report(check="theta-pipeline", status="unsupported",
                              params={}, witness=str(err)))
        return reports
    reports.append(check_report("theta-power-push", _power_push_checks))
    return reports
