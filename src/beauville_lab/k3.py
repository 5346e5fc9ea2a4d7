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

Each space is one lincomb.Labelled kind with integer tables on its labels;
a relative cycle is also a correspondence, and the Fourier kernel and its
inverse are the two Fourier constants F and FINV.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import OutsideModelError
from .lincomb import Labelled, bilinear, linear
from .report import Check

BV_LABELS = ("one", "s", "f", "c")

REL_LABELS = ("one", "p1s", "p2s", "F", "delta", "s12", "p1c", "p2c", "z")


_BV_MUL: Dict[Tuple[str, str], Dict[str, int]] = {
    ("s", "s"): {"c": -2},
    ("s", "f"): {"c": 1},
    ("s", "c"): {},
    ("f", "f"): {},
    ("f", "c"): {},
    ("c", "c"): {},
}


def _bv_mul_labels(a: str, b: str) -> Dict[str, int]:
    if a == "one":
        return {b: 1}
    if b == "one":
        return {a: 1}
    return _BV_MUL[(a, b) if (a, b) in _BV_MUL else (b, a)]


class SurfaceClass(Labelled):
    """A class on the surface as a value: a combination of BV_LABELS."""

    __slots__ = ()
    kind = "surface-class"
    labels = BV_LABELS
    product = staticmethod(_bv_mul_labels)


def bv(label: str) -> SurfaceClass:
    if label not in BV_LABELS:
        raise KeyError(label)
    return SurfaceClass({label: 1})


ONE = bv("one")
THETA = SurfaceClass({"s": 1, "f": 1})

_BV_FOURIER_FWD = {
    "one": {"s": -1, "f": -1, "c": 1},
    "s": {"one": 1, "f": -1, "c": 1},
    "f": {"c": -1},
    "c": {"f": 1},
}

_BV_FOURIER_INV = {
    "one": {"s": 1, "f": 1, "c": 1},
    "s": {"one": -1, "f": -1, "c": -1},
    "f": {"c": 1},
    "c": {"f": -1},
}

# pi^* pi_* through the base: the pushforward sends s to the unit and c to
# the point class, whose pullbacks are one and F
_PUSH_PULL = {"one": {}, "s": {"one": 1}, "f": {}, "c": {"F": 1}}


# -- relative cycles -------------------------------------------------------------

_PAIR_TABLE: Dict[Tuple[str, str], Dict[str, int]] = {
    ("one", "one"): {"one": 1},
    ("s", "one"): {"p1s": 1},
    ("f", "one"): {"F": 1},
    ("c", "one"): {"p1c": 1},
    ("one", "s"): {"p2s": 1},
    ("s", "s"): {"s12": 1},
    ("f", "s"): {"p2c": 1},
    ("c", "s"): {"z": 1},
    ("one", "f"): {"F": 1},
    ("s", "f"): {"p1c": 1},
    ("f", "f"): {},
    ("c", "f"): {},
    ("one", "c"): {"p2c": 1},
    ("s", "c"): {"z": 1},
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

_DIAG_PUSH = {
    "one": {"delta": 1},
    "s": {"s12": 1},
    "f": {"p1c": 1, "p2c": 1},
    "c": {"z": 1},
}


def _pair(x: Dict, y: Dict) -> Dict:
    """p1-pullback of x times p2-pullback of y, on {label: coefficient} dicts."""
    return bilinear(x, y, lambda a, b: _PAIR_TABLE[a, b])


def _rel_mul_labels(lx: str, ly: str) -> Dict[str, int]:
    if lx == "delta" and ly == "delta":
        raise OutsideModelError("delta * delta leaves the cycle model")
    if lx == "delta" or ly == "delta":
        return linear(_bv_mul_labels(*REP[ly if lx == "delta" else lx]), _DIAG_PUSH)
    (ax, bx), (ay, by) = REP[lx], REP[ly]
    return _pair(_bv_mul_labels(ax, ay), _bv_mul_labels(bx, by))


class RelativeCycle(Labelled):
    """A relative cycle as a value: a combination of REL_LABELS.  It is also
    a correspondence, composed by rel_compose."""

    __slots__ = ()
    kind = "relative-cycle"
    labels = REL_LABELS
    product = staticmethod(_rel_mul_labels)


def rel(label: str) -> RelativeCycle:
    if label not in REL_LABELS:
        raise KeyError(label)
    return RelativeCycle({label: 1})


DELTA = rel("delta")


def pair_to_rel(x: SurfaceClass, y: SurfaceClass) -> RelativeCycle:
    """p1-pullback of x times p2-pullback of y."""
    return RelativeCycle(_pair(x.terms, y.terms))


def diag_push(x: SurfaceClass) -> RelativeCycle:
    """Relative diagonal pushforward; the point class is outside the public model."""
    if x.terms.get("c"):
        raise OutsideModelError("diag_push of the point class is not modeled")
    return RelativeCycle(linear(x.terms, _DIAG_PUSH))


def _compose_labels(lx: str, ly: str) -> Dict[str, int]:
    """(a (x) b) o (c (x) d) = pi_*(d.a) (c (x) b), the diagonal acting as the
    identity."""
    if lx == "delta":
        return {ly: 1}
    if ly == "delta":
        return {lx: 1}
    (ax, bx), (ay, by) = REP[lx], REP[ly]
    return bilinear(_PAIR_TABLE[ay, bx], linear(_bv_mul_labels(by, ax), _PUSH_PULL),
                    _rel_mul_labels)


def rel_compose(x: RelativeCycle, y: RelativeCycle) -> RelativeCycle:
    """Correspondence composition x o y (y acts first)."""
    return RelativeCycle(bilinear(x.terms, y.terms, _compose_labels))


def rel_bracket(x: RelativeCycle, y: RelativeCycle) -> RelativeCycle:
    return rel_compose(x, y) - rel_compose(y, x)


# -- Fourier correspondence ------------------------------------------------------------


class Fourier:
    """The Fourier kernel F or its inverse FINV: a correspondence with no
    cycle expansion in the model, so it only composes."""

    __slots__ = ("name",)
    kind = "correspondence"

    def __init__(self, name: str):
        self.name = name

    def _outside(self, *_):
        raise OutsideModelError(f"{self.name} has no cycle expansion in the model")

    __add__ = __sub__ = __neg__ = __mul__ = scale = _outside

    def __str__(self) -> str:
        return self.name


F, FINV = Fourier("F"), Fourier("Finv")


def _slotwise(x: RelativeCycle, image) -> RelativeCycle:
    """The linear extension to x of image, a function of the slot pair of a
    label."""
    return RelativeCycle(linear(x.terms, lambda lab: image(*REP[lab])))


def compose(x, y):
    """Correspondence composition x o y (y acts first) of relative cycles and
    the Fourier constants: F and FINV are inverse, the diagonal is the
    identity, and a cycle without diagonal part is transformed slotwise by
    x o F or FINV o y; every other composition leaves the model."""
    if isinstance(x, RelativeCycle) and isinstance(y, RelativeCycle):
        return rel_compose(x, y)
    if x == DELTA:
        return y
    if y == DELTA:
        return x
    if (x, y) in ((F, FINV), (FINV, F)):
        return DELTA
    if y is F and isinstance(x, RelativeCycle):
        if x.terms.get("delta"):
            raise OutsideModelError("cycle with a diagonal part composed with F")
        return _slotwise(x, lambda a, b: _pair(_BV_FOURIER_FWD[a], {b: 1}))
    if x is FINV and isinstance(y, RelativeCycle):
        if y.terms.get("delta"):
            raise OutsideModelError("diagonal part composed with Finv")
        return _slotwise(y, lambda a, b: _pair({a: 1}, _BV_FOURIER_INV[b]))
    names = (str(v) if isinstance(v, Fourier) else "cycle" for v in (x, y))
    raise OutsideModelError("composition {} o {} leaves the model".format(*names))


def fourier_conjugate(x: RelativeCycle) -> RelativeCycle:
    """FINV o x o F for a cycle without diagonal part."""
    return compose(FINV, compose(x, F))


# -- motivic decomposition ---------------------------------------------------------------


def projectors() -> Tuple[RelativeCycle, RelativeCycle, RelativeCycle]:
    p0, p2 = pair_to_rel(THETA, ONE), pair_to_rel(ONE, THETA)
    return p0, DELTA - p0 - p2, p2


def sl2_cycles() -> Tuple[RelativeCycle, RelativeCycle, RelativeCycle]:
    """(e0, f0, h0) = (diagonal theta, fundamental class, weight operator)."""
    p0, _, p2 = projectors()
    return diag_push(THETA), rel("one"), p2 - p0


def verify_projectors() -> List[Check]:
    """p0, p1, p2 are orthogonal idempotents summing to the diagonal."""
    p = projectors()
    checks: List[Check] = [(f"p{i} o p{j}", rel_compose(p[i], p[j]) == (p[i] if i == j else RelativeCycle()), "")
                           for i in range(3) for j in range(3)]
    checks.append(("p0 + p1 + p2 = diagonal", p[0] + p[1] + p[2] == DELTA, ""))
    return checks


def verify_sl2_action() -> List[Check]:
    """[e0, f0] = h0, and h0 is p2 - p0 written in cycles."""
    e0, f0, h0 = sl2_cycles()
    return [
        ("[e0, f0] = h0", rel_bracket(e0, f0) == h0, ""),
        ("h0 = p2 - p0 in cycles", h0 == rel("p2s") - rel("p1s"), ""),
    ]


def verify_weight_operator() -> List[Check]:
    """h0 acts on the image of p_i with weight i - 1."""
    _, _, h0 = sl2_cycles()
    return [(f"h0 o p{i} = {i - 1} p{i}", rel_compose(h0, proj) == proj.scale(i - 1), "")
            for i, proj in enumerate(projectors())]


def verify_fourier_stability() -> List[Check]:
    """Fourier conjugation sends h0 to -h0 and swaps e0 and f0 up to sign."""
    e0, f0, h0 = sl2_cycles()
    return [(f"Finv o {name} o F = -{name}-partner", fourier_conjugate(cycle) == -partner, "")
            for name, cycle, partner in (("h0", h0, h0), ("e0", e0, f0), ("f0", f0, e0))]
