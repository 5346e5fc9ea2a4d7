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
from .lincomb import add_into, add_term
from .report import Check

BvClass = Dict[str, Fraction]
RelCycle = Dict[str, Fraction]

BV_LABELS = ("one", "s", "f", "c")

REL_LABELS = ("one", "p1s", "p2s", "F", "delta", "s12", "p1c", "p2c", "z")


def _clean(d: Dict[str, Fraction]) -> Dict[str, Fraction]:
    return {k: v for k, v in d.items() if v}


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
    return add_into({}, ((lab, ca * cb * cl)
                         for a, ca in x.items() for b, cb in y.items()
                         for lab, cl in _bv_mul_labels(a, b).items()))


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


def bv_fourier(x: BvClass, inverse: bool = False) -> BvClass:
    table = _BV_FOURIER_INV if inverse else _BV_FOURIER_FWD
    return add_into({}, ((lab, ca * cl)
                         for a, ca in x.items() for lab, cl in table[a].items()))


def pi_star(x: BvClass) -> Dict[str, Fraction]:
    """Pushforward to the base: values on ('unit', 'pt')."""
    base = {"s": "unit", "c": "pt"}
    return add_into({}, ((base[a], ca) for a, ca in x.items() if a in base))


def pi_pull(u: Dict[str, Fraction]) -> BvClass:
    pull = {"unit": "one", "pt": "f"}
    return add_into({}, ((pull[lab], c) for lab, c in u.items()))


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
    return add_into({}, ((lab, ca * cb * cl)
                         for a, ca in x.items() for b, cb in y.items()
                         for lab, cl in _PAIR_TABLE[(a, b)].items()))


def rel(label: str, coeff=1) -> RelCycle:
    if label not in REL_LABELS:
        raise KeyError(label)
    return {label: Fraction(coeff)}


def _diag_push_internal(x: BvClass) -> RelCycle:
    return add_into({}, ((lab, ca * cl)
                         for a, ca in x.items() for lab, cl in _DIAG_PUSH[a].items()))


def diag_push(x: BvClass) -> RelCycle:
    """Relative diagonal pushforward; the point class is outside the public model."""
    if x.get("c"):
        raise OutsideModelError("diag_push of the point class is not modeled")
    return _diag_push_internal(x)


def _rel_mul_labels(lx: str, ly: str, rep: Dict[str, Tuple[str, str]]) -> RelCycle:
    if lx == "delta" and ly == "delta":
        raise OutsideModelError("delta * delta leaves the cycle model")
    if lx == "delta" or ly == "delta":
        other = ly if lx == "delta" else lx
        a, b = rep[other]
        pulled = bv_mul({a: Fraction(1)}, {b: Fraction(1)})
        return _diag_push_internal(pulled)
    ax, bx = rep[lx]
    ay, by = rep[ly]
    return pair_to_rel(bv_mul({ax: Fraction(1)}, {ay: Fraction(1)}),
                       bv_mul({bx: Fraction(1)}, {by: Fraction(1)}))


def rel_mul(x: RelCycle, y: RelCycle, rep: Dict[str, Tuple[str, str]] | None = None) -> RelCycle:
    table = dict(REP)
    if rep:
        table.update(rep)
    return add_into({}, ((lab, cx * cy * cl)
                         for lx, cx in x.items() for ly, cy in y.items()
                         for lab, cl in _rel_mul_labels(lx, ly, table).items()))


def rel_compose(x: RelCycle, y: RelCycle) -> RelCycle:
    """Correspondence composition x o y (y acts first)."""
    f_cycle = rel("F")

    def terms():
        for lx, cx in x.items():
            for ly, cy in y.items():
                coeff = cx * cy
                if lx == "delta":
                    yield ly, coeff
                    continue
                if ly == "delta":
                    yield lx, coeff
                    continue
                ax, bx = REP[lx]
                ay, by = REP[ly]
                mid = pi_star(bv_mul({by: Fraction(1)}, {ax: Fraction(1)}))
                if not mid:
                    continue
                base = pair_to_rel({ay: Fraction(1)}, {bx: Fraction(1)})
                if mid.get("unit"):
                    for lab, cl in base.items():
                        yield lab, coeff * mid["unit"] * cl
                if mid.get("pt"):
                    for lab, cl in rel_mul(base, f_cycle).items():
                        yield lab, coeff * mid["pt"] * cl

    return add_into({}, terms())


def rel_bracket(x: RelCycle, y: RelCycle) -> RelCycle:
    return add_into(rel_compose(x, y),
                    ((lab, -c) for lab, c in rel_compose(y, x).items()))


# -- Fourier correspondence ------------------------------------------------------------


def _fourier_slot1(x: RelCycle) -> RelCycle:
    """x o F for a pure cycle: forward transform through the first slot."""
    out: RelCycle = {}
    for lab, c in x.items():
        if lab == "delta":
            raise OutsideModelError("compose the diagonal with F at the Corr level")
        a, b = REP[lab]
        for lab2, c2 in pair_to_rel(_BV_FOURIER_FWD[a], {b: Fraction(1)}).items():
            add_term(out, lab2, c * c2)
    return out


def _fourier_slot2(x: RelCycle) -> RelCycle:
    """Finv o x for a pure cycle: inverse transform through the second slot."""
    out: RelCycle = {}
    for lab, c in x.items():
        if lab == "delta":
            raise OutsideModelError("compose the diagonal with Finv at the Corr level")
        a, b = REP[lab]
        for lab2, c2 in pair_to_rel({a: Fraction(1)}, _BV_FOURIER_INV[b]).items():
            add_term(out, lab2, c * c2)
    return out


@dataclass(frozen=True)
class Corr:
    """Correspondence: a relative cycle, or the Fourier kernel F / its inverse."""

    kind: str  # 'cycle', 'F', 'Finv'
    cycle: Tuple[Tuple[str, Fraction], ...] | None = None

    @staticmethod
    def of(x: RelCycle) -> "Corr":
        return Corr("cycle", tuple(sorted(_clean(dict(x)).items())))

    @staticmethod
    def fourier() -> "Corr":
        return Corr("F")

    @staticmethod
    def fourier_inverse() -> "Corr":
        return Corr("Finv")

    def as_cycle(self) -> RelCycle:
        if self.kind != "cycle":
            raise OutsideModelError(f"{self.kind} has no cycle expansion in the model")
        return dict(self.cycle or ())

    def _is_delta(self) -> bool:
        return self.kind == "cycle" and dict(self.cycle or ()) == {"delta": Fraction(1)}

    def compose(self, other: "Corr") -> "Corr":
        if self.kind == "cycle" and other.kind == "cycle":
            return Corr.of(rel_compose(self.as_cycle(), other.as_cycle()))
        if self.kind == "F" and other.kind == "Finv":
            return Corr.of(rel("delta"))
        if self.kind == "Finv" and other.kind == "F":
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
    total = add_into({}, (term for cycle in p for term in cycle.items()))
    checks.append(("p0 + p1 + p2 = diagonal", total == rel("delta"), ""))
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
