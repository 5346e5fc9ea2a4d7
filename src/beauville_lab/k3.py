"""Cycle model for an elliptic K3 surface and its relative square.

Absolute classes live in the span of
    one = [S], s (a section), f (a fiber), c (the distinguished point class),
with s*s = -2c, s*f = c, f*f = 0 and c annihilating positive-codimension
classes; Theta := s + f is isotropic.

Relative cycles on S x_P1 S are spanned by
    one, p1s, p2s, F, delta, s12, p1c, p2c, z
of relative dimensions 3,2,2,2,2,1,1,1,0, where F is the common fiber-square
class (p1 and p2 pullbacks of f agree), s12 = p1s.p2s, p1c = p1-pullback of c
(equal to p1s.F), and z = p1c.p2s (identified with p1s.p2c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import OutsideModelError
from .lincomb import Labelled, add_into, bilinear, linear
from .report import Check

BvClass = Dict[str, Fraction]
RelCycle = Dict[str, Fraction]

BV_LABELS = ("one", "s", "f", "c")

REL_LABELS = ("one", "p1s", "p2s", "F", "delta", "s12", "p1c", "p2c", "z")


def bv(label: str, coeff=1) -> BvClass:
    if label not in BV_LABELS:
        raise KeyError(label)
    return {label: Fraction(coeff)}


def bv_theta() -> BvClass:
    return {"s": Fraction(1), "f": Fraction(1)}


_BV_MUL: Dict[Tuple[str, str], Dict[str, Fraction]] = {
    ("s", "s"): {"c": Fraction(-2)},
    ("s", "f"): {"c": Fraction(1)},
    ("s", "c"): {},
    ("f", "f"): {},
    ("f", "c"): {},
    ("c", "c"): {},
}


def _bv_mul_labels(a: str, b: str) -> Dict[str, Fraction]:
    if a == "one":
        return {b: Fraction(1)}
    if b == "one":
        return {a: Fraction(1)}
    key = (a, b) if (a, b) in _BV_MUL else (b, a)
    return dict(_BV_MUL[key])


def bv_mul(x: BvClass, y: BvClass) -> BvClass:
    return bilinear(x, y, _bv_mul_labels)


_BV_FOURIER_FWD = {
    "one": {"s": Fraction(-1), "f": Fraction(-1), "c": Fraction(1)},
    "s": {"one": Fraction(1), "f": Fraction(-1), "c": Fraction(1)},
    "f": {"c": Fraction(-1)},
    "c": {"f": Fraction(1)},
}

_BV_FOURIER_INV = {
    "one": {"s": Fraction(1), "f": Fraction(1), "c": Fraction(1)},
    "s": {"one": Fraction(-1), "f": Fraction(-1), "c": Fraction(-1)},
    "f": {"c": Fraction(1)},
    "c": {"f": Fraction(-1)},
}

_PI_STAR = {"one": {}, "s": {"unit": Fraction(1)}, "f": {}, "c": {"pt": Fraction(1)}}


def pi_star(x: BvClass) -> Dict[str, Fraction]:
    """Pushforward to the base: values on ('unit', 'pt')."""
    return linear(x, _PI_STAR)


# -- relative cycles -------------------------------------------------------------

_PAIR_TABLE: Dict[Tuple[str, str], Dict[str, Fraction]] = {
    ("one", "one"): {"one": Fraction(1)},
    ("s", "one"): {"p1s": Fraction(1)},
    ("f", "one"): {"F": Fraction(1)},
    ("c", "one"): {"p1c": Fraction(1)},
    ("one", "s"): {"p2s": Fraction(1)},
    ("s", "s"): {"s12": Fraction(1)},
    ("f", "s"): {"p2c": Fraction(1)},
    ("c", "s"): {"z": Fraction(1)},
    ("one", "f"): {"F": Fraction(1)},
    ("s", "f"): {"p1c": Fraction(1)},
    ("f", "f"): {},
    ("c", "f"): {},
    ("one", "c"): {"p2c": Fraction(1)},
    ("s", "c"): {"z": Fraction(1)},
    ("f", "c"): {},
    ("c", "c"): {},
}

# canonical presentation of each point-monomial label as a slot pair
REP: Dict[str, Tuple[str, str]] = {
    "one": ("one", "one"),
    "p1s": ("s", "one"),
    "p2s": ("one", "s"),
    "F": ("f", "one"),
    "s12": ("s", "s"),
    "p1c": ("c", "one"),
    "p2c": ("one", "c"),
    "z": ("c", "s"),
}

# alternative presentations of the identified labels (route-independence)
ALT_REP: Dict[str, Tuple[str, str]] = {
    "F": ("one", "f"),
    "p1c": ("s", "f"),
    "p2c": ("f", "s"),
    "z": ("s", "c"),
}

_DIAG_PUSH = {
    "one": {"delta": Fraction(1)},
    "s": {"s12": Fraction(1)},
    "f": {"p1c": Fraction(1), "p2c": Fraction(1)},
    "c": {"z": Fraction(1)},
}


def pair_to_rel(x: BvClass, y: BvClass) -> RelCycle:
    """p1-pullback of x times p2-pullback of y."""
    return bilinear(x, y, lambda a, b: _PAIR_TABLE[a, b])


def rel(label: str, coeff=1) -> RelCycle:
    if label not in REL_LABELS:
        raise KeyError(label)
    return {label: Fraction(coeff)}


def _diag_push_internal(x: BvClass) -> RelCycle:
    return linear(x, _DIAG_PUSH)


def diag_push(x: BvClass) -> RelCycle:
    """Relative diagonal pushforward; the point class is outside the public model."""
    if x.get("c"):
        raise OutsideModelError("diag_push of the point class is not modeled")
    return _diag_push_internal(x)


def _rel_mul_labels(lx: str, ly: str, rep: Dict[str, Tuple[str, str]]) -> RelCycle:
    if lx == "delta" and ly == "delta":
        raise OutsideModelError("delta * delta leaves the cycle model")
    if lx == "delta" or ly == "delta":
        return _diag_push_internal(_bv_mul_labels(*rep[ly if lx == "delta" else lx]))
    (ax, bx), (ay, by) = rep[lx], rep[ly]
    return pair_to_rel(_bv_mul_labels(ax, ay), _bv_mul_labels(bx, by))


def rel_mul(x: RelCycle, y: RelCycle, rep: Dict[str, Tuple[str, str]] | None = None) -> RelCycle:
    table = {**REP, **rep} if rep else REP
    return bilinear(x, y, lambda lx, ly: _rel_mul_labels(lx, ly, table))


# the pullback from the base of its classes ('unit', 'pt')
_BASE_PULL = {"unit": {"one": Fraction(1)}, "pt": {"F": Fraction(1)}}


def _compose_labels(lx: str, ly: str) -> RelCycle:
    """(a (x) b) o (c (x) d) = pi_*(d.a) (c (x) b), the diagonal acting as the
    identity."""
    if lx == "delta":
        return {ly: Fraction(1)}
    if ly == "delta":
        return {lx: Fraction(1)}
    (ax, bx), (ay, by) = REP[lx], REP[ly]
    return rel_mul(_PAIR_TABLE[ay, bx], linear(pi_star(_bv_mul_labels(by, ax)), _BASE_PULL))


def rel_compose(x: RelCycle, y: RelCycle) -> RelCycle:
    """Correspondence composition x o y (y acts first)."""
    return bilinear(x, y, _compose_labels)


def rel_bracket(x: RelCycle, y: RelCycle) -> RelCycle:
    return add_into(rel_compose(x, y),
                    ((lab, -c) for lab, c in rel_compose(y, x).items()))


class SurfaceClass(Labelled):
    """A class on the surface as a value: a combination of BV_LABELS."""

    __slots__ = ()
    kind = "surface-class"
    labels = BV_LABELS
    product = staticmethod(bv_mul)


class RelativeCycle(Labelled):
    """A relative cycle as a value: a combination of REL_LABELS."""

    __slots__ = ()
    kind = "relative-cycle"
    labels = REL_LABELS
    product = staticmethod(rel_mul)


# -- Fourier correspondence ------------------------------------------------------------


def _fourier_slot1(x: RelCycle) -> RelCycle:
    """x o F for a pure cycle: forward transform through the first slot."""

    def image(lab: str) -> RelCycle:
        if lab == "delta":
            raise OutsideModelError("compose the diagonal with F at the Corr level")
        a, b = REP[lab]
        return pair_to_rel(_BV_FOURIER_FWD[a], {b: Fraction(1)})

    return linear(x, image)


def _fourier_slot2(x: RelCycle) -> RelCycle:
    """Finv o x for a pure cycle: inverse transform through the second slot."""

    def image(lab: str) -> RelCycle:
        if lab == "delta":
            raise OutsideModelError("compose the diagonal with Finv at the Corr level")
        a, b = REP[lab]
        return pair_to_rel({a: Fraction(1)}, _BV_FOURIER_INV[b])

    return linear(x, image)


@dataclass(frozen=True)
class Corr:
    """Correspondence: a relative cycle, or the Fourier kernel F / its inverse."""

    kind: str  # 'cycle', 'F', 'Finv'
    cycle: RelativeCycle | None = None

    @staticmethod
    def of(x: RelCycle) -> "Corr":
        return Corr("cycle", RelativeCycle(x))

    @staticmethod
    def fourier() -> "Corr":
        return Corr("F")

    @staticmethod
    def fourier_inverse() -> "Corr":
        return Corr("Finv")

    def _cycle(self) -> RelativeCycle:
        if self.kind != "cycle":
            raise OutsideModelError(f"{self.kind} has no cycle expansion in the model")
        return self.cycle

    def as_cycle(self) -> RelCycle:
        return self._cycle().terms

    def _is_delta(self) -> bool:
        return self.kind == "cycle" and self.cycle.terms == {"delta": 1}

    def compose(self, other: "Corr") -> "Corr":
        if self.kind == "cycle" and other.kind == "cycle":
            return Corr.of(rel_compose(self.as_cycle(), other.as_cycle()))
        if {self.kind, other.kind} == {"F", "Finv"}:
            return Corr.of(rel("delta"))
        if self.kind == "cycle" and other.kind == "F":
            if self._is_delta():
                return Corr.fourier()
            cyc = self.as_cycle()
            if cyc.get("delta"):
                raise OutsideModelError("cycle with a diagonal part composed with F")
            return Corr.of(_fourier_slot1(cyc))
        if self.kind == "Finv" and other.kind == "cycle":
            if other._is_delta():
                return Corr.fourier_inverse()
            cyc = other.as_cycle()
            if cyc.get("delta"):
                raise OutsideModelError("diagonal part composed with Finv")
            return Corr.of(_fourier_slot2(cyc))
        if self.kind == "F" and other.kind == "cycle" and other._is_delta():
            return Corr.fourier()
        if self.kind == "cycle" and other.kind == "Finv" and self._is_delta():
            return Corr.fourier_inverse()
        raise OutsideModelError(f"composition {self.kind} o {other.kind} leaves the model")

    # a correspondence adds, negates, scales and multiplies as its cycle,
    # which F and Finv do not have
    def __add__(self, other: "Corr") -> RelativeCycle:
        return self._cycle() + other._cycle()

    def __neg__(self) -> RelativeCycle:
        return -self._cycle()

    def scale(self, factor) -> RelativeCycle:
        return self._cycle().scale(factor)

    def __mul__(self, other: "Corr") -> RelativeCycle:
        return self._cycle() * other._cycle()

    def __str__(self) -> str:
        return self.kind


def fourier_conjugate(x: RelCycle) -> RelCycle:
    """Finv o x o F for a cycle without diagonal part."""
    step = Corr.of(x).compose(Corr.fourier())
    return Corr.fourier_inverse().compose(step).as_cycle()


# -- motivic decomposition ---------------------------------------------------------------


def projectors() -> Tuple[RelCycle, RelCycle, RelCycle]:
    theta = bv_theta()
    p0 = pair_to_rel(theta, bv("one"))
    p2 = pair_to_rel(bv("one"), theta)
    p1 = add_into(rel("delta"), ((lab, -c) for p in (p0, p2) for lab, c in p.items()))
    return p0, p1, p2


def sl2_cycles() -> Tuple[RelCycle, RelCycle, RelCycle]:
    """(e0, f0, h0) = (diagonal theta, fundamental class, weight operator)."""
    e0 = diag_push(bv_theta())
    f0 = rel("one")
    p0, _, p2 = projectors()
    h0 = add_into(dict(p2), ((lab, -c) for lab, c in p0.items()))
    return e0, f0, h0


def verify_projectors() -> List[Check]:
    """p0, p1, p2 are orthogonal idempotents summing to the diagonal."""
    p = projectors()
    checks: List[Check] = [(f"p{i} o p{j}", rel_compose(p[i], p[j]) == (p[i] if i == j else {}), "")
                           for i in range(3) for j in range(3)]
    total = sum(map(RelativeCycle, p), RelativeCycle())
    checks.append(("p0 + p1 + p2 = diagonal", total == RelativeCycle(rel("delta")), ""))
    return checks


def verify_sl2_action() -> List[Check]:
    """[e0, f0] = h0, and h0 is p2 - p0 written in cycles."""
    e0, f0, h0 = sl2_cycles()
    return [
        ("[e0, f0] = h0", rel_bracket(e0, f0) == h0, ""),
        ("h0 = p2 - p0 in cycles", h0 == {"p2s": Fraction(1), "p1s": Fraction(-1)}, ""),
    ]


def verify_weight_operator() -> List[Check]:
    """h0 acts on the image of p_i with weight i - 1."""
    _, _, h0 = sl2_cycles()
    return [(f"h0 o p{i} = {i - 1} p{i}",
             rel_compose(h0, proj) == {lab: (i - 1) * c for lab, c in proj.items() if (i - 1) * c}, "")
            for i, proj in enumerate(projectors())]


def verify_fourier_stability() -> List[Check]:
    """Fourier conjugation sends h0 to -h0 and swaps e0 and f0 up to sign."""
    e0, f0, h0 = sl2_cycles()
    return [(f"Finv o {name} o F = -{name}-partner",
             fourier_conjugate(cycle) == {lab: -c for lab, c in partner.items()}, "")
            for name, cycle, partner in (("h0", h0, h0), ("e0", e0, f0), ("f0", f0, e0))]
