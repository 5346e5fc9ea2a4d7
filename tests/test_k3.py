"""Elliptic K3 cycle model: products, correspondences, motivic decomposition."""

from fractions import Fraction

import pytest

from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import (_BV_FOURIER_FWD, _BV_FOURIER_INV, ALT_REP,
                              BV_LABELS, REL_LABELS, Corr, bv, bv_mul,
                              bv_theta, diag_push, fourier_conjugate,
                              pair_to_rel, pi_star, projectors, rel,
                              rel_bracket, rel_compose, rel_mul, sl2_cycles)
from beauville_lab.lincomb import linear

F1 = Fraction(1)


def neg(x):
    return {lab: -c for lab, c in x.items()}


def add(x, y):
    out = dict(x)
    for lab, c in y.items():
        s = out.get(lab, Fraction(0)) + c
        if s:
            out[lab] = s
        else:
            out.pop(lab, None)
    return out


# -- absolute classes -------------------------------------------------------------


def test_bv_mul_table():
    assert bv_mul(bv("s"), bv("s")) == {"c": Fraction(-2)}
    assert bv_mul(bv("s"), bv("f")) == {"c": F1}
    assert bv_mul(bv("f"), bv("f")) == {}
    assert bv_mul(bv("c"), bv("s")) == {}
    assert bv_mul(bv("one"), bv("s", Fraction(5, 3))) == {"s": Fraction(5, 3)}
    with pytest.raises(KeyError):
        bv("sections")


def test_bv_mul_commutes_and_theta_isotropic():
    theta = bv_theta()
    for a in BV_LABELS:
        for b in BV_LABELS:
            assert bv_mul(bv(a), bv(b)) == bv_mul(bv(b), bv(a))
    assert bv_mul(theta, theta) == {}


def test_bv_fourier_inverts():
    def fwd(x):
        return linear(x, _BV_FOURIER_FWD)

    def inv(x):
        return linear(x, _BV_FOURIER_INV)

    for lab in BV_LABELS:
        x = bv(lab)
        assert inv(fwd(x)) == x
        assert fwd(inv(x)) == x
    assert fwd(bv("one")) == {"s": -F1, "f": -F1, "c": F1}
    assert fwd(bv("f")) == {"c": -F1}


def test_pi_star_and_pull():
    assert pi_star(bv("s")) == {"unit": F1}
    assert pi_star(bv("c", 3)) == {"pt": Fraction(3)}
    assert pi_star(bv("one")) == {}
    assert pi_star(bv("f")) == {}


def test_projection_formula_samples():
    # pi_star(pi^*(u) * x) = u * pi_star(x) for u = 2*unit, pulled back to 2*one
    x = {"s": F1, "c": Fraction(-1, 2)}
    lhs = pi_star(bv_mul({"one": Fraction(2)}, x))
    assert lhs == {"unit": Fraction(2), "pt": Fraction(-1)}


# -- relative cycles ---------------------------------------------------------------


def test_pair_to_rel_frozen():
    theta = bv_theta()
    assert pair_to_rel(theta, theta) == {"s12": F1, "p1c": F1, "p2c": F1}
    assert pair_to_rel(bv("one"), theta) == {"p2s": F1, "F": F1}
    assert pair_to_rel(bv("c"), bv("s")) == {"z": F1}
    assert pair_to_rel(bv("f"), bv("f")) == {}


def test_diag_push():
    assert diag_push(bv("one")) == {"delta": F1}
    assert diag_push(bv_theta()) == {"s12": F1, "p1c": F1, "p2c": F1}
    with pytest.raises(OutsideModelError):
        diag_push(bv("c"))


def test_rel_mul_frozen_products():
    assert rel_mul(rel("p1s"), rel("p2s")) == {"s12": F1}
    assert rel_mul(rel("p1s"), rel("p1s")) == {"p1c": Fraction(-2)}
    assert rel_mul(rel("s12"), rel("F")) == {"z": F1}
    assert rel_mul(rel("delta"), rel("p1s")) == {"s12": F1}
    assert rel_mul(rel("delta"), rel("F")) == {"p1c": F1, "p2c": F1}
    assert rel_mul(rel("z"), rel("one", Fraction(1, 7))) == {"z": Fraction(1, 7)}
    with pytest.raises(OutsideModelError):
        rel_mul(rel("delta"), rel("delta"))
    with pytest.raises(KeyError):
        rel("diagonal")


def test_rel_mul_commutative_and_route_independent():
    for lx in REL_LABELS:
        for ly in REL_LABELS:
            if lx == "delta" and ly == "delta":
                continue
            canonical = rel_mul(rel(lx), rel(ly))
            assert canonical == rel_mul(rel(ly), rel(lx))
            # the identified labels have two slot presentations; products agree
            assert canonical == rel_mul(rel(lx), rel(ly), rep=ALT_REP)


def test_rel_mul_associative_on_supported_triples():
    checked = 0
    for lx in REL_LABELS:
        for ly in REL_LABELS:
            for lz in REL_LABELS:
                try:
                    left = rel_mul(rel_mul(rel(lx), rel(ly)), rel(lz))
                    right = rel_mul(rel(lx), rel_mul(rel(ly), rel(lz)))
                except OutsideModelError:
                    continue
                assert left == right, (lx, ly, lz)
                checked += 1
    assert checked >= 600


def test_rel_compose_identity_and_associativity():
    delta = rel("delta")
    for lab in REL_LABELS:
        assert rel_compose(delta, rel(lab)) == rel(lab)
        assert rel_compose(rel(lab), delta) == rel(lab)
    for lx in REL_LABELS:
        for ly in REL_LABELS:
            for lz in REL_LABELS:
                left = rel_compose(rel_compose(rel(lx), rel(ly)), rel(lz))
                right = rel_compose(rel(lx), rel_compose(rel(ly), rel(lz)))
                assert left == right, (lx, ly, lz)


def test_rel_compose_frozen_samples():
    # middle pairing one*one pushes to zero on the base
    assert rel_compose(rel("p2s"), rel("p1s")) == {}
    # middle pairing (s, s) = -2c lands in the fiber-square correction
    assert rel_compose(rel("p1s"), rel("p2s")) == {"F": Fraction(-2)}
    # unit middle pairing: composition is plain slot recombination
    assert rel_compose(rel("p2s"), rel("s12")) == {"s12": F1}
    assert rel_compose(rel("F"), rel("F")) == {}
    assert rel_compose(rel("z"), rel("one")) == {"p2c": F1}


def test_rel_bracket_antisymmetry_samples():
    e0, f0, h0 = sl2_cycles()
    assert rel_bracket(e0, f0) == neg(rel_bracket(f0, e0))
    assert rel_bracket(h0, h0) == {}


# -- correspondence algebra ----------------------------------------------------------


def test_corr_fourier_composition_rules():
    F = Corr.fourier()
    Finv = Corr.fourier_inverse()
    delta = Corr.of(rel("delta"))
    assert F.compose(Finv) == delta
    assert Finv.compose(F) == delta
    assert delta.compose(F) == F
    assert F.compose(delta) == F
    assert delta.compose(Finv) == Finv
    assert Finv.compose(delta) == Finv


def test_corr_error_cases():
    F = Corr.fourier()
    with pytest.raises(OutsideModelError):
        F.compose(Corr.fourier())
    with pytest.raises(OutsideModelError):
        F.as_cycle()
    mixed = Corr.of(add(rel("delta"), rel("one")))
    with pytest.raises(OutsideModelError):
        mixed.compose(F)
    with pytest.raises(OutsideModelError):
        Corr.fourier_inverse().compose(mixed)
    # F acting after a general cycle leaves the model
    with pytest.raises(OutsideModelError):
        F.compose(Corr.of(rel("one")))


def test_corr_of_normalizes():
    assert Corr.of({"one": Fraction(0)}) == Corr.of({})
    assert Corr.of({"one": F1, "z": Fraction(0)}) == Corr.of(rel("one"))


def test_fourier_conjugate_matches_corr_route():
    x = add(rel("p1s"), rel("z", Fraction(-2)))
    via_corr = Corr.fourier_inverse().compose(
        Corr.of(x).compose(Corr.fourier())).as_cycle()
    assert fourier_conjugate(x) == via_corr


# -- motivic decomposition -------------------------------------------------------------


def test_projectors_are_orthogonal_idempotents():
    p = projectors()
    for i in range(3):
        for j in range(3):
            want = p[i] if i == j else {}
            assert rel_compose(p[i], p[j]) == want
    total = {}
    for cycle in p:
        total = add(total, cycle)
    assert total == dict(rel("delta"))


def test_weight_operator_eigenvalues():
    p = projectors()
    _, _, h0 = sl2_cycles()
    assert h0 == {"p2s": F1, "p1s": -F1}
    for i, proj in enumerate(p):
        got = rel_compose(h0, proj)
        want = {lab: (i - 1) * c for lab, c in proj.items() if i != 1}
        assert got == want


def test_sl2_cycle_relations():
    e0, f0, h0 = sl2_cycles()
    assert e0 == {"s12": F1, "p1c": F1, "p2c": F1}
    assert f0 == {"one": F1}
    assert rel_bracket(e0, f0) == h0
    assert rel_bracket(h0, e0) == {lab: 2 * c for lab, c in e0.items()}
    assert rel_bracket(h0, f0) == {lab: -2 * c for lab, c in f0.items()}


def test_fourier_stability_of_the_sl2_triple():
    e0, f0, h0 = sl2_cycles()
    assert fourier_conjugate(h0) == neg(h0)
    assert fourier_conjugate(e0) == neg(f0)
    assert fourier_conjugate(f0) == neg(e0)


def test_fourier_stability_of_projectors():
    # conjugation swaps the outer projectors; the middle one carries the
    # diagonal, whose slotwise transform is deliberately outside the model
    p0, p1, p2 = projectors()
    assert fourier_conjugate(p0) == p2
    assert fourier_conjugate(p2) == p0
    with pytest.raises(OutsideModelError):
        fourier_conjugate(p1)
