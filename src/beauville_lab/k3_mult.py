"""Relative triple squares: multiplicativity of the decomposition and the
absolute pushforward of the relative Beauville-Voisin expression.

Triple cycles on S x_P1 S x_P1 S are spanned by
  - point monomials (x1, x2, x3) in {one, s, c}^3 times an optional common
    fiber class F3 (all three slot pullbacks of f agree),
  - partial diagonals dg(j,k) decorated on the remaining slot,
  - the small diagonal sm.

Normal-form identifications: F3^2 = 0; c and F3 in one slot vanish; s_i * F3
folds to c_i; two c slots vanish (pulled back from the pair model); the mixed
forms c_i s_j and s_i c_j are identified (the assumed z-identification).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import OutsideModelError
from .k3 import (_DIAG_PUSH, DELTA, ONE, REP, THETA, RelativeCycle,
                 _bv_mul_labels, bv, pair_to_rel, rel, sl2_cycles,
                 verify_fourier_stability, verify_projectors,
                 verify_sl2_action, verify_weight_operator)
from .lincomb import Labelled, add_term, bilinear, linear, tensor
from .report import Check, Report, assume, assumptions, check_report

PAIRS = ((1, 2), (1, 3), (2, 3))
_SM = ("sm",)


class TripleCycle(Labelled):
    """A triple cycle as a value: a combination of normal-form keys, such as
    ('pt', (x1, x2, x3), fdeg), ('dg', (j, k), dec) and ('sm',).  Its
    product records identifications, so it is tri_mul, not '*'."""

    __slots__ = ()
    kind = "triple-cycle"


class AbsoluteCycle(Labelled):
    """A cycle on the absolute triple (or pair) product as a value: tensor
    monomials ('t', slots), absolute diagonals ('D', ...) and ('SM',)."""

    __slots__ = ()
    kind = "absolute-cycle"


TRI_SM = TripleCycle({_SM: 1})


def _other_slot(j: int, k: int) -> int:
    return 6 - j - k


def _norm_pt(slots: List[str], fdeg: int) -> Dict[Tuple, int]:
    """The normal form of a point monomial as {key: 1}, or {} if it vanishes."""
    out = []
    for x in slots:
        if x == "f":
            fdeg += 1
            out.append("one")
        else:
            out.append(x)
    if fdeg >= 2:
        return {}
    if fdeg == 1:
        if "c" in out:
            return {}
        s_slots = [i for i, x in enumerate(out) if x == "s"]
        if s_slots:
            if len(s_slots) > 1:
                assume("z-identification")
            out[s_slots[0]] = "c"
            fdeg = 0
    if sum(1 for x in out if x == "c") >= 2:
        return {}
    # z-identification canonical form: c before s among mixed slots
    cs = [i for i, x in enumerate(out) if x in ("s", "c")]
    if len(cs) == 2 and out[cs[0]] == "s" and out[cs[1]] == "c":
        assume("z-identification")
        out[cs[0]], out[cs[1]] = "c", "s"
    return {("pt", tuple(out), fdeg): 1}


def tri_pt(x1: str = "one", x2: str = "one", x3: str = "one", fdeg: int = 0) -> TripleCycle:
    return TripleCycle(_norm_pt([x1, x2, x3], fdeg))


def tri_dg(j: int, k: int, dec: str = "one") -> TripleCycle:
    if (j, k) not in PAIRS:
        raise ValueError("slots must be one of (1,2), (1,3), (2,3)")
    if dec not in ("one", "s", "c"):
        raise ValueError(f"unsupported diagonal decoration {dec}")
    return TripleCycle({("dg", (j, k), dec): 1})


def tri_from_pair(pair: RelativeCycle, slots: Tuple[int, int]) -> TripleCycle:
    """Pullback of a pair cycle through the projection onto two slots."""
    j, k = slots
    if (j, k) not in PAIRS:
        raise ValueError("slots must be increasing and within 1..3")

    def pulled(label: str) -> Dict:
        if label == "delta":
            return {("dg", (j, k), "one"): 1}
        assign = dict.fromkeys((1, 2, 3), "one")
        assign[j], assign[k] = REP[label]
        return _norm_pt([assign[1], assign[2], assign[3]], 0)

    return TripleCycle(linear(pair.terms, pulled))


def _mul_pt_pt(k1: Tuple, k2: Tuple) -> Dict:
    (_, s1, f1), (_, s2, f2) = k1, k2
    return linear(tensor(map(_bv_mul_labels, s1, s2)),
                  lambda slots: _norm_pt(list(slots), f1 + f2))


def _mul_pt_dg(pt_key: Tuple, dg_key: Tuple) -> Dict:
    _, slots, fdeg = pt_key
    _, (j, k), dec = dg_key
    i = _other_slot(j, k)
    # slot-i parts multiply the diagonal decoration
    dec_prod = _bv_mul_labels(dec, slots[i - 1])
    if not dec_prod:
        return {}
    # slots j, k (and the common fiber power) pull through the pair diagonal
    pair_part = DELTA * pair_to_rel(bv(slots[j - 1]), bv(slots[k - 1]))
    for _ in range(fdeg):
        pair_part = pair_part * rel("F")
    base = tri_from_pair(pair_part, (j, k))

    def decorate(dec_lab: str, key: Tuple) -> Dict:
        """A term of base times the class dec_lab in slot i."""
        if key[0] == "dg":
            prod = _bv_mul_labels(key[2], dec_lab)
            if "f" in prod:
                raise OutsideModelError("fiber decoration left on a diagonal")
            return {("dg", key[1], lab): c for lab, c in prod.items()}
        _, pslots, pf = key
        return linear(_bv_mul_labels(pslots[i - 1], dec_lab),
                      lambda lab: _norm_pt([*pslots[:i - 1], lab, *pslots[i:]], pf))

    return bilinear(dec_prod, base.terms, decorate)


def _mul_keys(k1: Tuple, k2: Tuple) -> Dict:
    kinds = (k1[0], k2[0])
    if kinds == ("pt", "pt"):
        return _mul_pt_pt(k1, k2)
    if kinds == ("pt", "dg"):
        return _mul_pt_dg(k1, k2)
    if kinds == ("dg", "pt"):
        return _mul_pt_dg(k2, k1)
    if kinds == ("dg", "dg"):
        if k1[1] == k2[1]:
            raise OutsideModelError("square of a partial diagonal leaves the model")
        if k1[2] != "one" or k2[2] != "one":
            raise OutsideModelError("product of decorated partial diagonals")
        return {_SM: 1}
    raise OutsideModelError(f"product {kinds} leaves the model")


def tri_mul(x: TripleCycle, y: TripleCycle) -> TripleCycle:
    """The product of two triple cycles; it assumes the identifications it uses."""
    return TripleCycle(bilinear(x.terms, y.terms, _mul_keys))


# -- the multiplicativity identity -------------------------------------------------------


def small_diagonal_compose_product(u: RelativeCycle, v: RelativeCycle) -> TripleCycle:
    """[small diagonal] o (u x v) = q13-pull of u times q23-pull of v."""
    return tri_mul(tri_from_pair(u, (1, 3)), tri_from_pair(v, (2, 3)))


def weight_compose_small_diagonal(h_pair: RelativeCycle) -> TripleCycle:
    """h o [small diagonal]: a tensor term a (x) b becomes
    q12-pull of the pair-diagonal pushforward of a, times b in slot 3."""

    def image(label: str) -> Dict:
        if label == "delta":
            return {_SM: 1}
        a, b = REP[label]
        diag = tri_from_pair(RelativeCycle(_DIAG_PUSH[a]), (1, 2))
        return tri_mul(diag, tri_pt("one", "one", b)).terms

    return TripleCycle(linear(h_pair.terms, image))


def relbv_expression() -> TripleCycle:
    """[sm] - sum_i q_i(s).q_jk(diag) + sum_{i<j} q_i(s).q_j(s)."""
    out = TRI_SM
    for (j, k) in PAIRS:
        i = _other_slot(j, k)
        out = out - tri_mul(tri_pt(**{f"x{i}": "s"}), tri_dg(j, k))
    for (i, j) in PAIRS:
        out = out + tri_pt(**{f"x{i}": "s", f"x{j}": "s"})
    return out


def multiplicativity_difference() -> Tuple[TripleCycle, int, TripleCycle, List[str]]:
    """LHS - RHS of the multiplicativity identity for the weight operator.

    Returns (difference, lam, residual, used): the difference of
    [sm] o (h x delta + delta x h + delta x delta) and h o [sm], the multiple
    lam of the relative Beauville-Voisin expression it equals, the residual
    after subtracting lam times that expression (zero on success), and the
    sorted names of the identifications it assumed.
    """
    with assumptions() as used:
        _, _, h0 = sl2_cycles()
        lhs = (small_diagonal_compose_product(h0, DELTA)
               + small_diagonal_compose_product(DELTA, h0)
               + small_diagonal_compose_product(DELTA, DELTA))

        # h0 as difference of slot pullbacks of Theta; also check the s-only route
        h_theta = pair_to_rel(ONE, THETA) - pair_to_rel(THETA, ONE)
        rhs = weight_compose_small_diagonal(h_theta)
        if rhs != weight_compose_small_diagonal(h0):
            raise AssertionError("weight-operator route dependence in h o [sm]")

        diff = lhs - rhs
        lam = diff.terms.get(_SM, 0)
        residual = diff - relbv_expression().scale(lam)
    return diff, lam, residual, sorted(used)


# -- absolute pushforward -----------------------------------------------------------------


def _fiber_push(slots: Tuple[str, ...], places: Tuple[Tuple[int, ...], ...]) -> Dict:
    """The sum over the slot sets in places of the point monomial slots with
    f multiplied into each slot of the set."""

    def push(where: Tuple[int, ...]) -> Dict:
        factors = (_bv_mul_labels(x, "f") if pos in where else {x: 1}
                   for pos, x in enumerate(slots, start=1))
        return {("t", built): c for built, c in tensor(factors).items()}

    return linear(dict.fromkeys(places, 1), push)


def abs_pair_push(pair: RelativeCycle) -> AbsoluteCycle:
    """Pushforward of a pair cycle to the absolute product.

    The fundamental class pushes to f (x) one + one (x) f; a point monomial
    with presentation (a, b) pushes to (a.f) (x) b + a (x) (b.f); the relative
    diagonal pushes to the absolute diagonal symbol.
    """
    return AbsoluteCycle(linear(pair.terms, lambda label: {("D",): 1} if label == "delta"
                                else _fiber_push(REP[label], ((1,), (2,)))))


def abs_tri_push(tri: TripleCycle) -> AbsoluteCycle:
    """Pushforward of a triple cycle to the absolute triple product.

    The fundamental class pushes to the sum of the three fiber-square
    conditions; a partial diagonal dg(j,k) pushes to f_i times the absolute
    diagonal in slots (j,k) plus the diagonal pushforward of f spread over
    slots (j,k); the small diagonal pushes to the absolute small-diagonal
    symbol.
    """

    def push(key: Tuple) -> Dict:
        if key[0] == "pt":
            # f lands on two slots, or with the common fiber class on all three
            return _fiber_push(key[1], PAIRS if key[2] == 0 else ((1, 2, 3),))
        if key[0] == "sm":
            return {("SM",): 1}
        if key[0] != "dg":
            raise OutsideModelError(f"cannot push {key}")
        _, (j, k), dec = key
        i = _other_slot(j, k)
        out = {("D", (j, k), lab): cl for lab, cl in _bv_mul_labels(dec, "f").items()}
        for cpos, fpos in ((j, k), (k, j)):
            slots = dict.fromkeys((1, 2, 3), "one")
            slots[cpos], slots[fpos], slots[i] = "c", "f", dec
            add_term(out, ("t", (slots[1], slots[2], slots[3])), 1)
        return out

    return AbsoluteCycle(linear(tri.terms, push))


def bv_absolute_expression() -> AbsoluteCycle:
    """[absolute small diagonal] - sum_i c_i . D_jk + sum_{i<j} c_i c_j."""
    out = {("SM",): 1}
    for (j, k) in PAIRS:
        add_term(out, ("D", (j, k), "c"), -1)
    for (i, j) in PAIRS:
        slots = dict.fromkeys((1, 2, 3), "one")
        slots[i] = slots[j] = "c"
        add_term(out, ("t", (slots[1], slots[2], slots[3])), 1)
    return AbsoluteCycle(out)


def verify_multiplicativity() -> List[Check]:
    """The multiplicativity difference is the relative Beauville-Voisin
    expression, which vanishes by assumption."""
    assume("relbv-axiom")
    _, lam, residual, _ = multiplicativity_difference()
    return [
        ("difference is a multiple of the relative expression", not residual, f"lambda={lam}"),
        ("lambda = 1", lam == 1, f"lambda={lam}"),
    ]


def verify_absolute_push() -> List[Check]:
    """The relative expression pushes to the absolute one, coherently; that
    one vanishes by the assumed absolute Beauville-Voisin relation."""
    assume("bv-absolute-relation")
    pushed = abs_tri_push(relbv_expression())
    pair_push = abs_pair_push(DELTA * rel("F"))
    return [
        ("pushforward matches the absolute expression", pushed == bv_absolute_expression(), ""),
        ("diagonal-fiber pushforward coherence",
         pair_push == AbsoluteCycle({("t", ("c", "f")): 1, ("t", ("f", "c")): 1}), ""),
    ]


def run_k3_suite() -> List[Report]:
    """The motivic decomposition of the elliptic K3 and its multiplicativity."""
    return [
        check_report("k3-projectors", verify_projectors),
        check_report("k3-sl2", verify_sl2_action),
        check_report("k3-weight-operator", verify_weight_operator),
        check_report("k3-fourier-stability", verify_fourier_stability),
        check_report("k3-multiplicativity", verify_multiplicativity),
        check_report("k3-absolute-push", verify_absolute_push),
    ]
