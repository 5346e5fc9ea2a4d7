"""Triple relative cycles: normal forms, multiplicativity, absolute pushforward."""

from fractions import Fraction

import pytest

from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import DELTA, rel, sl2_cycles
from beauville_lab.k3_mult import (TRI_SM, AbsoluteCycle, TripleCycle,
                                   abs_pair_push, abs_tri_push,
                                   bv_absolute_expression,
                                   multiplicativity_difference,
                                   relbv_expression,
                                   small_diagonal_compose_product, tri_dg,
                                   tri_from_pair, tri_mul, tri_pt,
                                   weight_compose_small_diagonal)
from beauville_lab.report import assumptions

F1 = 1  # the tables hold integers


def pt(x1="one", x2="one", x3="one", fdeg=0):
    return ("pt", (x1, x2, x3), fdeg)


T, A = TripleCycle, AbsoluteCycle


# -- normal form -----------------------------------------------------------------


def test_fiber_classes_fold_and_square_to_zero():
    assert tri_pt("f") == T({pt(fdeg=1): F1})
    assert tri_pt("f", "f") == T({})
    assert tri_pt("one", fdeg=2) == T({})


def test_fiber_times_point_class_vanishes():
    assert tri_pt("c", fdeg=1) == T({})
    assert tri_pt("one", "c", "one", fdeg=1) == T({})


def test_fiber_absorbs_into_a_section_slot():
    with assumptions() as used:
        assert tri_pt("s", fdeg=1) == T({pt("c"): F1})
    assert used == set()
    with assumptions() as used:
        assert tri_pt("s", "s", fdeg=1) == T({pt("c", "s"): F1})
    assert used == {"z-identification"}


def test_two_point_slots_vanish():
    assert tri_pt("c", "c") == T({})
    assert tri_pt("c", "one", "c") == T({})


def test_mixed_slots_canonicalize_with_flag():
    with assumptions() as used:
        assert tri_pt("s", "c") == T({pt("c", "s"): F1})
    assert used == {"z-identification"}
    with assumptions() as used:
        assert tri_pt("c", "s") == T({pt("c", "s"): F1})
    assert used == set()


def test_tri_builders_validate():
    with pytest.raises(ValueError, match="slots"):
        tri_dg(2, 1)
    with pytest.raises(ValueError, match="decoration"):
        tri_dg(1, 2, dec="f")
    assert TRI_SM.scale(Fraction(1, 3)) == T({("sm",): Fraction(1, 3)})
    assert TRI_SM - TRI_SM == TripleCycle() and not TRI_SM - TRI_SM
    assert TRI_SM + TRI_SM.scale(-1) == TripleCycle()


def test_tri_from_pair():
    assert tri_from_pair(rel("delta"), (1, 3)) == tri_dg(1, 3)
    assert tri_from_pair(rel("s12"), (2, 3)) == T({pt("one", "s", "s"): F1})
    assert tri_from_pair(rel("F"), (1, 2)) == T({pt(fdeg=1): F1})
    with pytest.raises(ValueError, match="slots"):
        tri_from_pair(rel("one"), (3, 1))


# -- products ----------------------------------------------------------------------


def test_tri_mul_point_monomials():
    with assumptions() as used:
        s1 = tri_pt("s")
        assert tri_mul(s1, s1) == T({pt("c"): Fraction(-2)})
        s2 = tri_pt("one", "s")
        assert tri_mul(s1, s2) == T({pt("s", "s"): F1})
    assert used == set()


def test_tri_mul_diagonal_cases():
    # decoration lands on the complementary slot
    assert tri_mul(tri_pt("one", "one", "s"), tri_dg(1, 2)) == \
        T({("dg", (1, 2), "s"): F1})
    # a section slot on the diagonal pair restricts to the diagonal
    assert tri_mul(tri_pt("s"), tri_dg(1, 2)) == T({pt("s", "s"): F1})
    # distinct partial diagonals cut out the small diagonal
    assert tri_mul(tri_dg(1, 2), tri_dg(2, 3)) == TRI_SM


def test_tri_mul_outside_model():
    with pytest.raises(OutsideModelError, match="square of a partial diagonal"):
        tri_mul(tri_dg(1, 2), tri_dg(1, 2))
    with pytest.raises(OutsideModelError, match="decorated"):
        tri_mul(tri_dg(1, 2, dec="s"), tri_dg(2, 3))
    with pytest.raises(OutsideModelError):
        tri_mul(TRI_SM, tri_pt("s"))


# -- multiplicativity of the weight operator -----------------------------------------


def test_left_side_frozen_components():
    _, _, h0 = sl2_cycles()
    with assumptions() as used:
        assert small_diagonal_compose_product(h0, DELTA) == T({
            pt("one", "s", "s"): F1,
            ("dg", (2, 3), "s"): -F1,
        })
        assert small_diagonal_compose_product(DELTA, h0) == T({
            pt("s", "one", "s"): F1,
            ("dg", (1, 3), "s"): -F1,
        })
        assert small_diagonal_compose_product(DELTA, DELTA) == TRI_SM
    assert used == set()


def test_right_side_frozen():
    _, _, h0 = sl2_cycles()
    with assumptions() as used:
        assert weight_compose_small_diagonal(h0) == T({
            ("dg", (1, 2), "s"): F1,
            pt("s", "s", "one"): -F1,
        })
    assert used == set()


def test_relbv_expression_frozen():
    assert relbv_expression() == T({
        ("sm",): F1,
        ("dg", (2, 3), "s"): -F1,
        ("dg", (1, 3), "s"): -F1,
        ("dg", (1, 2), "s"): -F1,
        pt("s", "s", "one"): F1,
        pt("s", "one", "s"): F1,
        pt("one", "s", "s"): F1,
    })


def test_multiplicativity_difference_is_the_relative_expression():
    diff, lam, residual, used = multiplicativity_difference()
    assert lam == F1
    assert residual == TripleCycle() and not residual
    assert used == []
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
        assert abs_pair_push(rel(label)) == A(want), label


def test_abs_pair_push_coherent_with_rel_mul():
    got = abs_pair_push(DELTA * rel("F"))
    assert got == A({("t", ("c", "f")): F1, ("t", ("f", "c")): F1})


def test_abs_tri_push_frozen_cases():
    t3 = lambda a, b, c: ("t", (a, b, c))
    assert abs_tri_push(tri_pt()) == A({
        t3("f", "f", "one"): F1, t3("f", "one", "f"): F1, t3("one", "f", "f"): F1})
    assert abs_tri_push(T({pt(fdeg=1): F1})) == A({t3("f", "f", "f"): F1})
    assert abs_tri_push(tri_dg(1, 2)) == A({
        ("D", (1, 2), "f"): F1, t3("c", "f", "one"): F1, t3("f", "c", "one"): F1})
    assert abs_tri_push(tri_dg(1, 2, dec="s")) == A({
        ("D", (1, 2), "c"): F1, t3("c", "f", "s"): F1, t3("f", "c", "s"): F1})
    assert abs_tri_push(TRI_SM) == A({("SM",): F1})
    with pytest.raises(OutsideModelError):
        abs_tri_push(T({("bogus",): F1}))


def test_absolute_push_of_the_relative_expression():
    assert bv_absolute_expression() == A({
        ("SM",): F1,
        ("D", (1, 2), "c"): -F1,
        ("D", (1, 3), "c"): -F1,
        ("D", (2, 3), "c"): -F1,
        ("t", ("c", "c", "one")): F1,
        ("t", ("c", "one", "c")): F1,
        ("t", ("one", "c", "c")): F1,
    })
    assert abs_tri_push(relbv_expression()) == bv_absolute_expression()
