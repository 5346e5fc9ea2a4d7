"""Relative triple squares: multiplicativity of the decomposition and the
absolute pushforward of the relative Beauville-Voisin expression.

Triple cycles on S x_P1 S x_P1 S are spanned by
  - point monomials (x1, x2, x3) in {one, s, c}^3 times an optional common
    fiber class F3 (all three slot pullbacks of f agree),
  - partial diagonals dg(j,k) decorated on the remaining slot,
  - the small diagonal sm.

Normal-form identifications: F3^2 = 0; c and F3 in one slot vanish; s_i * F3
folds to c_i; two c slots vanish (pulled back from the pair model); the mixed
forms c_i s_j and s_i c_j are identified (z-identification, flagged).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Set, Tuple

from .errors import OutsideModelError
from .k3 import (REP, RelCycle, _bv_mul_labels, _diag_push_internal, bv,
                 bv_theta, pair_to_rel, rel, rel_mul, sl2_cycles,
                 verify_fourier_stability, verify_projectors,
                 verify_sl2_action, verify_weight_operator)
from .lincomb import add_into, add_term, bilinear, linear, tensor
from .report import Check, Report, check_report

TriKey = Tuple
TriCycle = Dict[TriKey, Fraction]
AbsKey = Tuple
AbsCycle = Dict[AbsKey, Fraction]

PAIRS = ((1, 2), (1, 3), (2, 3))


def _other_slot(j: int, k: int) -> int:
    return 6 - j - k


def _norm_pt(slots: List[str], fdeg: int, flags: Set[str]) -> Tuple[TriKey, Fraction] | None:
    out = []
    for x in slots:
        if x == "f":
            fdeg += 1
            out.append("one")
        else:
            out.append(x)
    if fdeg >= 2:
        return None
    if fdeg == 1:
        if "c" in out:
            return None
        s_slots = [i for i, x in enumerate(out) if x == "s"]
        if s_slots:
            if len(s_slots) > 1:
                flags.add("z-identification")
            out[s_slots[0]] = "c"
            fdeg = 0
    if sum(1 for x in out if x == "c") >= 2:
        return None
    # z-identification canonical form: c before s among mixed slots
    cs = [i for i, x in enumerate(out) if x in ("s", "c")]
    if len(cs) == 2 and out[cs[0]] == "s" and out[cs[1]] == "c":
        flags.add("z-identification")
        out[cs[0]], out[cs[1]] = "c", "s"
    return ("pt", tuple(out), fdeg), Fraction(1)


def tri_pt(x1: str = "one", x2: str = "one", x3: str = "one",
           fdeg: int = 0, coeff=1, flags: Set[str] | None = None) -> TriCycle:
    flags = set() if flags is None else flags
    normed = _norm_pt([x1, x2, x3], fdeg, flags)
    if normed is None:
        return {}
    key, scale = normed
    return {key: Fraction(coeff) * scale}


def tri_dg(j: int, k: int, dec: str = "one", coeff=1) -> TriCycle:
    if (j, k) not in PAIRS:
        raise ValueError("slots must be one of (1,2), (1,3), (2,3)")
    if dec not in ("one", "s", "c"):
        raise ValueError(f"unsupported diagonal decoration {dec}")
    return {("dg", (j, k), dec): Fraction(coeff)}


def tri_sm(coeff=1) -> TriCycle:
    return {("sm",): Fraction(coeff)}


def tri_add(x: TriCycle, y: TriCycle, scale=1) -> TriCycle:
    scale = Fraction(scale)
    return add_into(dict(x), ((key, scale * c) for key, c in y.items()))


def tri_from_pair(pair: RelCycle, slots: Tuple[int, int],
                  flags: Set[str]) -> TriCycle:
    """Pullback of a pair cycle through the projection onto two slots."""
    j, k = slots
    if (j, k) not in PAIRS:
        raise ValueError("slots must be increasing and within 1..3")

    def pulled(label: str) -> TriCycle:
        if label == "delta":
            return tri_dg(j, k)
        assign = dict.fromkeys((1, 2, 3), "one")
        assign[j], assign[k] = REP[label]
        return tri_pt(assign[1], assign[2], assign[3], flags=flags)

    return linear(pair, pulled)


def _mul_pt_pt(k1: TriKey, k2: TriKey, flags: Set[str]) -> TriCycle:
    (_, s1, f1), (_, s2, f2) = k1, k2
    return linear(tensor(map(_bv_mul_labels, s1, s2)),
                  lambda slots: tri_pt(*slots, fdeg=f1 + f2, flags=flags))


def _mul_pt_dg(pt_key: TriKey, dg_key: TriKey, flags: Set[str]) -> TriCycle:
    _, slots, fdeg = pt_key
    _, (j, k), dec = dg_key
    i = _other_slot(j, k)
    # slot-i parts multiply the diagonal decoration
    dec_prod = _bv_mul_labels(dec, slots[i - 1])
    if not dec_prod:
        return {}
    # slots j, k (and the common fiber power) pull through the pair diagonal
    pair_part = rel_mul(rel("delta"), pair_to_rel(bv(slots[j - 1]), bv(slots[k - 1])))
    for _ in range(fdeg):
        pair_part = rel_mul(pair_part, rel("F"))
    base = tri_from_pair(pair_part, (j, k), flags)

    def decorate(dec_lab: str, key: TriKey) -> TriCycle:
        """A term of base times the class dec_lab in slot i."""
        if key[0] == "dg":
            prod = _bv_mul_labels(key[2], dec_lab)
            if "f" in prod:
                raise OutsideModelError("fiber decoration left on a diagonal")
            return {("dg", key[1], lab): c for lab, c in prod.items()}
        _, pslots, pf = key
        return linear(_bv_mul_labels(pslots[i - 1], dec_lab),
                      lambda lab: tri_pt(*pslots[:i - 1], lab, *pslots[i:], fdeg=pf, flags=flags))

    return bilinear(dec_prod, base, decorate)


def _mul_keys(k1: TriKey, k2: TriKey, flags: Set[str]) -> TriCycle:
    kinds = (k1[0], k2[0])
    if kinds == ("pt", "pt"):
        return _mul_pt_pt(k1, k2, flags)
    if kinds == ("pt", "dg"):
        return _mul_pt_dg(k1, k2, flags)
    if kinds == ("dg", "pt"):
        return _mul_pt_dg(k2, k1, flags)
    if kinds == ("dg", "dg"):
        if k1[1] == k2[1]:
            raise OutsideModelError("square of a partial diagonal leaves the model")
        if k1[2] != "one" or k2[2] != "one":
            raise OutsideModelError("product of decorated partial diagonals")
        return tri_sm()
    raise OutsideModelError(f"product {kinds} leaves the model")


def tri_mul(x: TriCycle, y: TriCycle, flags: Set[str]) -> TriCycle:
    return bilinear(x, y, lambda k1, k2: _mul_keys(k1, k2, flags))


# -- the multiplicativity identity -------------------------------------------------------


def small_diagonal_compose_product(u: RelCycle, v: RelCycle,
                                   flags: Set[str]) -> TriCycle:
    """[small diagonal] o (u x v) = q13-pull of u times q23-pull of v."""
    return tri_mul(tri_from_pair(u, (1, 3), flags), tri_from_pair(v, (2, 3), flags), flags)


def weight_compose_small_diagonal(h_pair: RelCycle, flags: Set[str]) -> TriCycle:
    """h o [small diagonal]: a tensor term a (x) b becomes
    q12-pull of the pair-diagonal pushforward of a, times b in slot 3."""

    def image(label: str) -> TriCycle:
        if label == "delta":
            return tri_sm()
        a, b = REP[label]
        diag = tri_from_pair(_diag_push_internal(bv(a)), (1, 2), flags)
        return tri_mul(diag, tri_pt("one", "one", b, flags=flags), flags)

    return linear(h_pair, image)


def relbv_expression(flags: Set[str] | None = None) -> TriCycle:
    """[sm] - sum_i q_i(s).q_jk(diag) + sum_{i<j} q_i(s).q_j(s)."""
    flags = set() if flags is None else flags
    out = tri_sm()
    for (j, k) in PAIRS:
        i = _other_slot(j, k)
        dec = tri_mul(tri_pt(**{f"x{i}": "s"}, flags=flags), tri_dg(j, k), flags)
        out = tri_add(out, dec, -1)
    for (i, j) in PAIRS:
        slots = {f"x{i}": "s", f"x{j}": "s"}
        out = tri_add(out, tri_pt(**slots, flags=flags))
    return out


def multiplicativity_difference() -> Tuple[TriCycle, Fraction, TriCycle, List[str]]:
    """LHS - RHS of the multiplicativity identity for the weight operator.

    Returns (difference, lam, residual, flags): the difference of
    [sm] o (h x delta + delta x h + delta x delta) and h o [sm], the multiple
    lam of the relative Beauville-Voisin expression it equals, and the
    residual after subtracting lam times that expression (zero on success).
    """
    flags: Set[str] = set()
    _, _, h0 = sl2_cycles()
    delta = rel("delta")
    lhs = small_diagonal_compose_product(h0, delta, flags)
    lhs = tri_add(lhs, small_diagonal_compose_product(delta, h0, flags))
    lhs = tri_add(lhs, small_diagonal_compose_product(delta, delta, flags))

    # h0 as difference of slot pullbacks of Theta; also check the s-only route
    theta = bv_theta()
    h_theta = add_into(pair_to_rel(bv("one"), theta),
                       ((lab, -c) for lab, c in pair_to_rel(theta, bv("one")).items()))
    rhs = weight_compose_small_diagonal(h_theta, flags)
    rhs_plain = weight_compose_small_diagonal(h0, flags)
    if rhs != rhs_plain:
        raise AssertionError("weight-operator route dependence in h o [sm]")

    diff = tri_add(lhs, rhs, -1)
    relbv = relbv_expression(flags)
    lam = diff.get(("sm",), Fraction(0))
    residual = tri_add(diff, relbv, -lam)
    return diff, lam, residual, sorted(flags)


# -- absolute pushforward -----------------------------------------------------------------


def _fiber_push(slots: Tuple[str, ...], places: Tuple[Tuple[int, ...], ...]) -> AbsCycle:
    """The sum over the slot sets in places of the point monomial slots with
    f multiplied into each slot of the set."""

    def push(where: Tuple[int, ...]) -> AbsCycle:
        factors = (_bv_mul_labels(x, "f") if pos in where else {x: Fraction(1)}
                   for pos, x in enumerate(slots, start=1))
        return {("t", built): c for built, c in tensor(factors).items()}

    return linear(dict.fromkeys(places, Fraction(1)), push)


def abs_pair_push(pair: RelCycle) -> AbsCycle:
    """Pushforward of a pair cycle to the absolute product.

    The fundamental class pushes to f (x) one + one (x) f; a point monomial
    with presentation (a, b) pushes to (a.f) (x) b + a (x) (b.f); the relative
    diagonal pushes to the absolute diagonal symbol.
    """
    return linear(pair, lambda label: {("D",): Fraction(1)} if label == "delta"
                  else _fiber_push(REP[label], ((1,), (2,))))


def abs_tri_push(tri: TriCycle) -> AbsCycle:
    """Pushforward of a triple cycle to the absolute triple product.

    The fundamental class pushes to the sum of the three fiber-square
    conditions; a partial diagonal dg(j,k) pushes to f_i times the absolute
    diagonal in slots (j,k) plus the diagonal pushforward of f spread over
    slots (j,k); the small diagonal pushes to the absolute small-diagonal
    symbol.
    """

    def push(key: TriKey) -> AbsCycle:
        if key[0] == "pt":
            # f lands on two slots, or with the common fiber class on all three
            return _fiber_push(key[1], PAIRS if key[2] == 0 else ((1, 2, 3),))
        if key[0] == "sm":
            return {("SM",): Fraction(1)}
        if key[0] != "dg":
            raise OutsideModelError(f"cannot push {key}")
        _, (j, k), dec = key
        i = _other_slot(j, k)
        out = {("D", (j, k), lab): cl for lab, cl in _bv_mul_labels(dec, "f").items()}
        for cpos, fpos in ((j, k), (k, j)):
            slots = dict.fromkeys((1, 2, 3), "one")
            slots[cpos], slots[fpos], slots[i] = "c", "f", dec
            add_term(out, ("t", (slots[1], slots[2], slots[3])), Fraction(1))
        return out

    return linear(tri, push)


def bv_absolute_expression() -> AbsCycle:
    """[absolute small diagonal] - sum_i c_i . D_jk + sum_{i<j} c_i c_j."""
    out: AbsCycle = {("SM",): Fraction(1)}
    for (j, k) in PAIRS:
        add_term(out, ("D", (j, k), "c"), Fraction(-1))
    for (i, j) in PAIRS:
        slots = dict.fromkeys((1, 2, 3), "one")
        slots[i] = slots[j] = "c"
        add_term(out, ("t", (slots[1], slots[2], slots[3])), Fraction(1))
    return out


def verify_multiplicativity(flags: Set[str]) -> List[Check]:
    """The multiplicativity difference is the relative Beauville-Voisin
    expression; the identifications it used are added to flags."""
    _, lam, residual, used = multiplicativity_difference()
    flags.update(used)
    return [
        ("difference is a multiple of the relative expression", not residual, f"lambda={lam}"),
        ("lambda = 1", lam == Fraction(1), f"lambda={lam}"),
    ]


def verify_absolute_push() -> List[Check]:
    """The relative expression pushes to the absolute one, coherently."""
    pushed = abs_tri_push(relbv_expression())
    pair_push = abs_pair_push(rel_mul(rel("delta"), rel("F")))
    return [
        ("pushforward matches the absolute expression", pushed == bv_absolute_expression(), ""),
        ("diagonal-fiber pushforward coherence",
         pair_push == {("t", ("c", "f")): Fraction(1), ("t", ("f", "c")): Fraction(1)}, ""),
    ]


def run_k3_suite() -> List[Report]:
    """The motivic decomposition of the elliptic K3 and its multiplicativity."""

    def multiplicativity():
        flags = {"relbv-axiom"}
        return verify_multiplicativity(flags), {"assumptions": sorted(flags)}

    return [
        check_report("k3-projectors", verify_projectors),
        check_report("k3-sl2", verify_sl2_action),
        check_report("k3-weight-operator", verify_weight_operator),
        check_report("k3-fourier-stability", verify_fourier_stability),
        check_report("k3-multiplicativity", multiplicativity),
        check_report("k3-absolute-push", verify_absolute_push,
                     assumptions=["bv-absolute-relation"]),
    ]
