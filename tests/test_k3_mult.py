"""Triple relative cycles: normal forms, multiplicativity, absolute pushforward."""

from fractions import Fraction

import pytest

from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import rel, rel_mul, sl2_cycles
from beauville_lab.k3_mult import (abs_pair_push, abs_tri_push,
                                   bv_absolute_expression,
                                   multiplicativity_difference,
                                   relbv_expression,
                                   small_diagonal_compose_product, tri_add,
                                   tri_dg, tri_from_pair, tri_mul, tri_pt,
                                   tri_sm,
                                   weight_compose_small_diagonal)

F1 = Fraction(1)


def pt(x1="one", x2="one", x3="one", fdeg=0):
    return ("pt", (x1, x2, x3), fdeg)


# -- normal form -----------------------------------------------------------------


def test_fiber_classes_fold_and_square_to_zero():
    assert tri_pt("f") == {pt(fdeg=1): F1}
    assert tri_pt("f", "f") == {}
    assert tri_pt("one", fdeg=2) == {}


def test_fiber_times_point_class_vanishes():
    assert tri_pt("c", fdeg=1) == {}
    assert tri_pt("one", "c", "one", fdeg=1) == {}


def test_fiber_absorbs_into_a_section_slot():
    flags = set()
    assert tri_pt("s", fdeg=1, flags=flags) == {pt("c"): F1}
    assert flags == set()
    flags = set()
    assert tri_pt("s", "s", fdeg=1, flags=flags) == {pt("c", "s"): F1}
    assert flags == {"z-identification"}


def test_two_point_slots_vanish():
    assert tri_pt("c", "c") == {}
    assert tri_pt("c", "one", "c") == {}


def test_mixed_slots_canonicalize_with_flag():
    flags = set()
    assert tri_pt("s", "c", flags=flags) == {pt("c", "s"): F1}
    assert flags == {"z-identification"}
    flags = set()
    assert tri_pt("c", "s", flags=flags) == {pt("c", "s"): F1}
    assert flags == set()


def test_tri_builders_validate():
    with pytest.raises(ValueError, match="slots"):
        tri_dg(2, 1)
    with pytest.raises(ValueError, match="decoration"):
        tri_dg(1, 2, dec="f")
    assert tri_sm(Fraction(1, 3)) == {("sm",): Fraction(1, 3)}
    assert tri_add(tri_sm(), tri_sm(), scale=-1) == {}


def test_tri_from_pair():
    flags = set()
    assert tri_from_pair(rel("delta"), (1, 3), flags) == tri_dg(1, 3)
    assert tri_from_pair(rel("s12"), (2, 3), flags) == {pt("one", "s", "s"): F1}
    assert tri_from_pair(rel("F"), (1, 2), flags) == {pt(fdeg=1): F1}
    with pytest.raises(ValueError, match="slots"):
        tri_from_pair(rel("one"), (3, 1), flags)


# -- products ----------------------------------------------------------------------


def test_tri_mul_point_monomials():
    flags = set()
    s1 = tri_pt("s", flags=flags)
    assert tri_mul(s1, s1, flags) == {pt("c"): Fraction(-2)}
    s2 = tri_pt("one", "s", flags=flags)
    assert tri_mul(s1, s2, flags) == {pt("s", "s"): F1}
    assert flags == set()


def test_tri_mul_diagonal_cases():
    flags = set()
    # decoration lands on the complementary slot
    assert tri_mul(tri_pt("one", "one", "s"), tri_dg(1, 2), flags) == \
        {("dg", (1, 2), "s"): F1}
    # a section slot on the diagonal pair restricts to the diagonal
    assert tri_mul(tri_pt("s"), tri_dg(1, 2), flags) == {pt("s", "s"): F1}
    # distinct partial diagonals cut out the small diagonal
    assert tri_mul(tri_dg(1, 2), tri_dg(2, 3), flags) == tri_sm()


def test_tri_mul_outside_model():
    flags = set()
    with pytest.raises(OutsideModelError, match="square of a partial diagonal"):
        tri_mul(tri_dg(1, 2), tri_dg(1, 2), flags)
    with pytest.raises(OutsideModelError, match="decorated"):
        tri_mul(tri_dg(1, 2, dec="s"), tri_dg(2, 3), flags)
    with pytest.raises(OutsideModelError):
        tri_mul(tri_sm(), tri_pt("s"), flags)


# -- multiplicativity of the weight operator -----------------------------------------


def test_left_side_frozen_components():
    flags = set()
    _, _, h0 = sl2_cycles()
    delta = rel("delta")
    assert small_diagonal_compose_product(h0, delta, flags) == {
        pt("one", "s", "s"): F1,
        ("dg", (2, 3), "s"): -F1,
    }
    assert small_diagonal_compose_product(delta, h0, flags) == {
        pt("s", "one", "s"): F1,
        ("dg", (1, 3), "s"): -F1,
    }
    assert small_diagonal_compose_product(delta, delta, flags) == tri_sm()
    assert flags == set()


def test_right_side_frozen():
    flags = set()
    _, _, h0 = sl2_cycles()
    assert weight_compose_small_diagonal(h0, flags) == {
        ("dg", (1, 2), "s"): F1,
        pt("s", "s", "one"): -F1,
    }
    assert flags == set()


def test_relbv_expression_frozen():
    assert relbv_expression() == {
        ("sm",): F1,
        ("dg", (2, 3), "s"): -F1,
        ("dg", (1, 3), "s"): -F1,
        ("dg", (1, 2), "s"): -F1,
        pt("s", "s", "one"): F1,
        pt("s", "one", "s"): F1,
        pt("one", "s", "s"): F1,
    }


def test_multiplicativity_difference_is_the_relative_expression():
    diff, lam, residual, flags = multiplicativity_difference()
    assert lam == F1
    assert residual == {}
    assert flags == []
    assert diff == relbv_expression()


# -- absolute pushforward ---------------------------------------------------------------


def test_abs_pair_push_full_table():
    t = lambda a, b: ("t", (a, b))
    expected = {
        "one": {t("f", "one"): F1, t("one", "f"): F1},
        "p1s": {t("c", "one"): F1, t("s", "f"): F1},
        "p2s": {t("f", "s"): F1, t("one", "c"): F1},
        "F": {t("f", "f"): F1},
        "delta": {("D",): F1},
        "s12": {t("c", "s"): F1, t("s", "c"): F1},
        "p1c": {t("c", "f"): F1},
        "p2c": {t("f", "c"): F1},
        "z": {t("c", "c"): F1},
    }
    for label, want in expected.items():
        assert abs_pair_push(rel(label)) == want, label


def test_abs_pair_push_coherent_with_rel_mul():
    got = abs_pair_push(rel_mul(rel("delta"), rel("F")))
    assert got == {("t", ("c", "f")): F1, ("t", ("f", "c")): F1}


def test_abs_tri_push_frozen_cases():
    t3 = lambda a, b, c: ("t", (a, b, c))
    assert abs_tri_push(tri_pt()) == {
        t3("f", "f", "one"): F1, t3("f", "one", "f"): F1, t3("one", "f", "f"): F1}
    assert abs_tri_push({pt(fdeg=1): F1}) == {t3("f", "f", "f"): F1}
    assert abs_tri_push(tri_dg(1, 2)) == {
        ("D", (1, 2), "f"): F1, t3("c", "f", "one"): F1, t3("f", "c", "one"): F1}
    assert abs_tri_push(tri_dg(1, 2, dec="s")) == {
        ("D", (1, 2), "c"): F1, t3("c", "f", "s"): F1, t3("f", "c", "s"): F1}
    assert abs_tri_push(tri_sm()) == {("SM",): F1}
    with pytest.raises(OutsideModelError):
        abs_tri_push({("bogus",): F1})


def test_absolute_push_of_the_relative_expression():
    assert bv_absolute_expression() == {
        ("SM",): F1,
        ("D", (1, 2), "c"): -F1,
        ("D", (1, 3), "c"): -F1,
        ("D", (2, 3), "c"): -F1,
        ("t", ("c", "c", "one")): F1,
        ("t", ("c", "one", "c")): F1,
        ("t", ("one", "c", "c")): F1,
    }
    assert abs_tri_push(relbv_expression()) == bv_absolute_expression()
