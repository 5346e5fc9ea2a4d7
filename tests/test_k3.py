"""Elliptic K3 cycle model: products, correspondences, motivic decomposition."""

from fractions import Fraction

import pytest

from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import (_BV_FOURIER_FWD, _BV_FOURIER_INV, _DIAG_PUSH,
                              _PUSH_PULL, DELTA, F, FINV, REP, THETA,
                              BV_LABELS, REL_LABELS, RelativeCycle,
                              SurfaceClass, _bv_mul_labels, bv, compose,
                              diag_push, fourier_conjugate, pair_to_rel,
                              projectors, rel, rel_bracket, rel_compose,
                              sl2_cycles)
from beauville_lab.lincomb import linear


def S(**terms):
    return SurfaceClass(terms)


def R(**terms):
    return RelativeCycle(terms)


ZERO = RelativeCycle()

# the pushforward to the base (values on 'unit' and 'pt') and the pullback
# from it, which the engine composes into one table
_PI_STAR = {"one": {}, "s": {"unit": 1}, "f": {}, "c": {"pt": 1}}
_BASE_PULL = {"unit": {"one": 1}, "pt": {"F": 1}}


def pi_star(x: SurfaceClass):
    return linear(x.terms, _PI_STAR)


# -- absolute classes -------------------------------------------------------------


def test_bv_mul_table():
    assert bv("s") * bv("s") == S(c=-2)
    assert bv("s") * bv("f") == S(c=1)
    assert bv("f") * bv("f") == SurfaceClass()
    assert bv("c") * bv("s") == SurfaceClass()
    assert bv("one") * bv("s").scale(Fraction(5, 3)) == S(s=Fraction(5, 3))
    with pytest.raises(KeyError):
        bv("sections")


def test_bv_mul_commutes_and_theta_isotropic():
    for a in BV_LABELS:
        for b in BV_LABELS:
            assert bv(a) * bv(b) == bv(b) * bv(a)
    assert THETA * THETA == SurfaceClass()
    assert not THETA * THETA


def test_bv_fourier_inverts():
    def fwd(x):
        return SurfaceClass(linear(x.terms, _BV_FOURIER_FWD))

    def inv(x):
        return SurfaceClass(linear(x.terms, _BV_FOURIER_INV))

    for lab in BV_LABELS:
        x = bv(lab)
        assert inv(fwd(x)) == x
        assert fwd(inv(x)) == x
    assert fwd(bv("one")) == S(s=-1, f=-1, c=1)
    assert fwd(bv("f")) == S(c=-1)


# the Mukai pairing on span{one, s, f, c}, typed from the lattice U + U
# (one.c = -1, s^2 = -2, s.f = 1, f^2 = 0) rather than from _BV_MUL
_MUKAI = {("one", "c"): -1, ("c", "one"): -1, ("s", "s"): -2,
          ("s", "f"): 1, ("f", "s"): 1}


def mukai_pairing(x, y):
    return sum(a * b * _MUKAI.get((p, q), 0) for p, a in x.items() for q, b in y.items())


@pytest.mark.parametrize("table", [_BV_FOURIER_FWD, _BV_FOURIER_INV], ids=["fwd", "inv"])
def test_bv_fourier_is_a_mukai_isometry(table):
    # a Fourier-Mukai transform preserves the Mukai pairing (Mukai 1987)
    for a in BV_LABELS:
        for b in BV_LABELS:
            assert mukai_pairing(table[a], table[b]) == _MUKAI.get((a, b), 0), (a, b)


def test_pi_star_and_pull():
    assert pi_star(bv("s")) == {"unit": 1}
    assert pi_star(bv("c").scale(3)) == {"pt": 3}
    assert pi_star(bv("one")) == {}
    assert pi_star(bv("f")) == {}
    # the engine's one table is the push followed by the pull
    for lab in BV_LABELS:
        assert _PUSH_PULL[lab] == linear(pi_star(bv(lab)), _BASE_PULL), lab


def test_projection_formula_samples():
    # pi_star(pi^*(u) * x) = u * pi_star(x) for u = 2*unit, pulled back to 2*one
    x = S(s=1, c=Fraction(-1, 2))
    lhs = pi_star(bv("one").scale(2) * x)
    assert lhs == {"unit": 2, "pt": -1}


# -- relative cycles ---------------------------------------------------------------


def test_pair_to_rel_frozen():
    one = bv("one")
    assert pair_to_rel(THETA, THETA) == R(s12=1, p1c=1, p2c=1)
    assert pair_to_rel(one, THETA) == R(p2s=1, F=1)
    assert pair_to_rel(bv("c"), bv("s")) == R(z=1)
    assert pair_to_rel(bv("f"), bv("f")) == ZERO


def test_diag_push():
    assert diag_push(bv("one")) == DELTA
    assert diag_push(THETA) == R(s12=1, p1c=1, p2c=1)
    with pytest.raises(OutsideModelError):
        diag_push(bv("c"))


def test_rel_mul_frozen_products():
    assert rel("p1s") * rel("p2s") == R(s12=1)
    assert rel("p1s") * rel("p1s") == R(p1c=-2)
    assert rel("s12") * rel("F") == R(z=1)
    assert DELTA * rel("p1s") == R(s12=1)
    assert DELTA * rel("F") == R(p1c=1, p2c=1)
    assert rel("z") * rel("one").scale(Fraction(1, 7)) == R(z=Fraction(1, 7))
    with pytest.raises(OutsideModelError):
        DELTA * DELTA
    with pytest.raises(KeyError):
        rel("diagonal")


# the identified labels have a second slot presentation besides REP's
ALT_REP = {**REP, "F": ("one", "f"), "p1c": ("s", "f"), "p2c": ("f", "s"),
           "z": ("s", "c")}


def alt_route_product(lx, ly):
    """The product of two labels, computed slotwise through ALT_REP."""
    if "delta" in (lx, ly):
        return RelativeCycle(linear(_bv_mul_labels(*ALT_REP[ly if lx == "delta" else lx]),
                                    _DIAG_PUSH))
    (ax, bx), (ay, by) = ALT_REP[lx], ALT_REP[ly]
    return pair_to_rel(SurfaceClass(_bv_mul_labels(ax, ay)), SurfaceClass(_bv_mul_labels(bx, by)))


def test_rel_mul_commutative_and_route_independent():
    for lx in REL_LABELS:
        for ly in REL_LABELS:
            if lx == "delta" and ly == "delta":
                continue
            canonical = rel(lx) * rel(ly)
            assert canonical == rel(ly) * rel(lx)
            # the identified labels have two slot presentations; products agree
            assert canonical == alt_route_product(lx, ly)


def test_rel_mul_associative_on_supported_triples():
    checked = 0
    for lx in REL_LABELS:
        for ly in REL_LABELS:
            for lz in REL_LABELS:
                try:
                    left = (rel(lx) * rel(ly)) * rel(lz)
                    right = rel(lx) * (rel(ly) * rel(lz))
                except OutsideModelError:
                    continue
                assert left == right, (lx, ly, lz)
                checked += 1
    assert checked >= 600


def test_rel_compose_identity_and_associativity():
    for lab in REL_LABELS:
        assert rel_compose(DELTA, rel(lab)) == rel(lab)
        assert rel_compose(rel(lab), DELTA) == rel(lab)
    for lx in REL_LABELS:
        for ly in REL_LABELS:
            for lz in REL_LABELS:
                left = rel_compose(rel_compose(rel(lx), rel(ly)), rel(lz))
                right = rel_compose(rel(lx), rel_compose(rel(ly), rel(lz)))
                assert left == right, (lx, ly, lz)


def test_rel_compose_frozen_samples():
    # middle pairing one*one pushes to zero on the base
    assert rel_compose(rel("p2s"), rel("p1s")) == ZERO
    # middle pairing (s, s) = -2c lands in the fiber-square correction
    assert rel_compose(rel("p1s"), rel("p2s")) == R(F=-2)
    # unit middle pairing: composition is plain slot recombination
    assert rel_compose(rel("p2s"), rel("s12")) == R(s12=1)
    assert rel_compose(rel("F"), rel("F")) == ZERO
    assert rel_compose(rel("z"), rel("one")) == R(p2c=1)


def test_rel_bracket_antisymmetry_samples():
    e0, f0, h0 = sl2_cycles()
    assert rel_bracket(e0, f0) == -rel_bracket(f0, e0)
    assert rel_bracket(h0, h0) == ZERO


# -- correspondence algebra ----------------------------------------------------------


def test_corr_fourier_composition_rules():
    assert compose(F, FINV) == DELTA
    assert compose(FINV, F) == DELTA
    assert compose(DELTA, F) is F
    assert compose(F, DELTA) is F
    assert compose(DELTA, FINV) is FINV
    assert compose(FINV, DELTA) is FINV
    # two relative cycles compose as rel_compose
    assert compose(rel("p1s"), rel("p2s")) == rel_compose(rel("p1s"), rel("p2s"))
    assert (str(F), str(FINV), F.kind) == ("F", "Finv", "correspondence")


def test_corr_error_cases():
    with pytest.raises(OutsideModelError, match="composition F o F"):
        compose(F, F)
    mixed = DELTA + rel("one")
    with pytest.raises(OutsideModelError, match="diagonal part composed with F"):
        compose(mixed, F)
    with pytest.raises(OutsideModelError, match="diagonal part composed with Finv"):
        compose(FINV, mixed)
    # F acting after a general cycle leaves the model
    with pytest.raises(OutsideModelError, match="composition F o cycle"):
        compose(F, rel("one"))
    # F and Finv have no cycle, so no sums, negatives, scalings or products
    for attempt in (lambda: F + F, lambda: -FINV, lambda: F.scale(2), lambda: F * FINV,
                    lambda: FINV - F):
        with pytest.raises(OutsideModelError, match="no cycle expansion"):
            attempt()


def test_corr_of_normalizes():
    assert R(one=Fraction(0)) == ZERO
    assert R(one=1, z=0) == rel("one")
    assert not R(one=0) and R(one=1)


def test_fourier_conjugate_matches_corr_route():
    x = rel("p1s") - rel("z").scale(2)
    assert fourier_conjugate(x) == compose(FINV, compose(x, F))
    assert fourier_conjugate(DELTA) == DELTA


# -- motivic decomposition -------------------------------------------------------------


def test_projectors_are_orthogonal_idempotents():
    p = projectors()
    for i in range(3):
        for j in range(3):
            want = p[i] if i == j else ZERO
            assert rel_compose(p[i], p[j]) == want
    assert sum(p, ZERO) == DELTA


def test_weight_operator_eigenvalues():
    p = projectors()
    _, _, h0 = sl2_cycles()
    assert h0 == R(p2s=1, p1s=-1)
    for i, proj in enumerate(p):
        got = rel_compose(h0, proj)
        want = RelativeCycle({lab: (i - 1) * c for lab, c in proj.terms.items()})
        assert got == want


def test_sl2_cycle_relations():
    e0, f0, h0 = sl2_cycles()
    assert e0 == R(s12=1, p1c=1, p2c=1)
    assert f0 == R(one=1)
    assert rel_bracket(e0, f0) == h0
    assert rel_bracket(h0, e0) == e0.scale(2)
    assert rel_bracket(h0, f0) == f0.scale(-2)


def test_fourier_stability_of_the_sl2_triple():
    e0, f0, h0 = sl2_cycles()
    assert fourier_conjugate(h0) == -h0
    assert fourier_conjugate(e0) == -f0
    assert fourier_conjugate(f0) == -e0


def test_fourier_stability_of_projectors():
    # conjugation swaps the outer projectors; the middle one carries the
    # diagonal, whose slotwise transform is deliberately outside the model
    p0, p1, p2 = projectors()
    assert fourier_conjugate(p0) == p2
    assert fourier_conjugate(p2) == p0
    with pytest.raises(OutsideModelError):
        fourier_conjugate(p1)


def test_tables_hold_integers():
    # a rational coefficient only enters through a scalar
    for x in (*map(bv, BV_LABELS), THETA, *map(rel, REL_LABELS), *projectors(),
              *sl2_cycles(), rel_compose(rel("p1s"), rel("p2s"))):
        assert all(type(c) is int for c in x.terms.values()), x
