"""Acceptance suite: the nine headline guarantees, one pass/fail line each."""

import random
import time
from fractions import Fraction

from test_dsl import CORPUS
from test_sparse import random_matrix

from beauville_lab import k3, k3_mult, llv, mukai, obstruction
from beauville_lab.cli import run_llv_suite
from beauville_lab.dr import (corollary_theta_push, default_twist_polynomial,
                              top_weight_boundary_relation)
from beauville_lab.dsl import evaluate, make_context, parse, print_expr
from beauville_lab.errors import OutsideModelError
from beauville_lab.poly import Poly
from beauville_lab.report import render_json
from beauville_lab.sparse import bracket

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _emit(number: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {verdict}")


def _all_hold(checks) -> bool:
    return all(holds for _, holds, _ in checks)


def test_criterion_1_verbitsky_relations():
    ok = False
    try:
        start = time.perf_counter()
        t_values = (Fraction(1), Fraction(2), Fraction(-3))
        covered = set()
        for seed in range(25):
            t = t_values[seed % 3]
            hdim = 6 + seed % 5
            covered.add((t, hdim))
            space = mukai.llv_model_space(hdim, t)
            quad = llv.random_quadruple(space, seed)
            checks = llv.verify_verbitsky(space, quad)
            assert checks and _all_hold(checks), (seed, t, hdim)
        assert covered == {(t, d) for t in t_values for d in range(6, 11)}
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        ok = True
    finally:
        _emit(1, "Verbitsky relations", ok)


def test_criterion_2_isotropic_sl2_pairs():
    ok = False
    try:
        space = mukai.llv_model_space(6, Fraction(2))
        quad = llv.standard_quadruple(space)
        checks = llv.verify_isotropic_sl2_pairs(space, quad)
        assert _all_hold(checks)
        assert {name for name, _, _ in checks} == {
            "h_sigma=(h-iK)/2", "h_sigmabar=(h+iK)/2",
            "[h_sigma,e_sigma]=2e_sigma", "[h_sigma,f_sigma]=-2f_sigma",
            "[h_sigmabar,e_sigmabar]=2e_sigmabar",
            "[h_sigmabar,f_sigmabar]=-2f_sigmabar",
            "h_sigmabar-h_sigma=iK",
            "[e_sigma,f_sigmabar]=0", "[e_sigmabar,f_sigma]=0",
            "[e_sigma,e_sigmabar]=0", "[f_sigma,f_sigmabar]=0",
        }
        ok = True
    finally:
        _emit(2, "isotropic sl2 pairs", ok)


def test_criterion_3_triple_replay():
    ok = False
    try:
        space = mukai.llv_model_space(6, Fraction(2))
        quad = llv.standard_quadruple(space)
        required = {
            "E0=-[F_alpha,E_theta]", "F0=-fourier(E0) identically in cst",
            "H0=(i/2)(K12-K34)", "[H0,E0]=2E0", "[H0,F0]=-2F0",
            "[D,E0]=2E0", "[D,F0]=-2F0",
        }
        for c0, c1 in SIGN_PAIRS:
            data = llv.build_triple(space, quad, c0, c1)
            for g in range(2, 13):
                checks = llv.verify_theta_replay(data, g) + data.checks
                assert _all_hold(checks), (g, c0, c1)
                assert required <= {name for name, _, _ in checks}
        ok = True
    finally:
        _emit(3, "conjugate triple replay", ok)


def test_criterion_4_fourier_conjugacy():
    ok = False
    try:
        space = mukai.llv_model_space(6, Fraction(2))
        quad = llv.standard_quadruple(space)
        for c0, c1 in SIGN_PAIRS:
            checks = llv.verify_fourier_conjugacy(
                llv.build_triple(space, quad, c0, c1))
            assert _all_hold(checks), (c0, c1)
            assert {name for name, _, _ in checks} == {
                "fourier(E0)=-F0", "fourier(F0)=-E0", "fourier(H0)=-H0"}
        ok = True
    finally:
        _emit(4, "Fourier conjugacy", ok)


def test_criterion_5_fourier_isometry_and_compatibility():
    ok = False
    try:
        space = mukai.llv_model_space(6, Fraction(2))
        quad = llv.standard_quadruple(space)
        triples = {(c0, c1): llv.build_triple(space, quad, c0, c1)
                   for c0, c1 in SIGN_PAIRS}
        for g in range(2, 13):
            class_space = mukai.mukai_class_space(g)
            for c0 in (1, -1):
                matrix = mukai.fourier_matrix(class_space, c0, 1)
                assert mukai.is_isometry(class_space, matrix), (g, c0)
                for c1 in (1, -1):
                    checks = llv.verify_fourier_compatibility(
                        triples[(c0, c1)], g)
                    assert len(checks) == 4 and _all_hold(checks), (g, c0, c1)
        ok = True
    finally:
        _emit(5, "Fourier isometry and operator compatibility", ok)


def test_criterion_6_k3_motive():
    ok = False
    try:
        start = time.perf_counter()
        projectors = k3.projectors()
        for i, pi in enumerate(projectors):
            for j, pj in enumerate(projectors):
                expected = pi if i == j else {}
                assert k3.rel_compose(pi, pj) == expected, (i, j)

        e0, f0, h0 = k3.sl2_cycles()
        ctx = make_context("k3")
        assert evaluate(parse("p2(Theta) - p1(Theta)"), ctx) == k3.RelativeCycle(h0)
        for i, pi in enumerate(projectors):
            scaled = {lab: (i - 1) * c for lab, c in pi.items()}
            scaled = {lab: c for lab, c in scaled.items() if c}
            assert k3.rel_compose(h0, pi) == scaled, i

        def neg(x):
            return {lab: -c for lab, c in x.items()}

        assert k3.fourier_conjugate(h0) == neg(h0)
        assert k3.fourier_conjugate(e0) == neg(f0)
        assert k3.fourier_conjugate(f0) == neg(e0)

        diff, lam, residual, flags = k3_mult.multiplicativity_difference()
        assert lam == Fraction(1)
        assert residual == {}
        assert diff == k3_mult.relbv_expression()

        assert (k3_mult.abs_tri_push(k3_mult.relbv_expression())
                == k3_mult.bv_absolute_expression())
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"
        ok = True
    finally:
        _emit(6, "elliptic K3 motive", ok)


def test_criterion_7_obstruction_constants():
    ok = False
    try:
        b = Poly.var("b")
        g3 = obstruction.genus3_obstruction()
        assert g3.constant == (Poly.const(Fraction(191, 224))
                               - b.scale(2) - (b ** 2).scale(36))
        assert g3.discriminant_is_square is False
        assert g3.rational_roots == []

        g2 = obstruction.genus2_obstruction()
        assert g2.constant == (Poly.const(Fraction(11, 960))
                               - b.scale(Fraction(1, 32)) - b ** 2)
        assert g2.discriminant_is_square is False
        assert g2.rational_roots == []

        for g in (4, 5):
            high = obstruction.high_genus_obstruction(g)
            assert high.contradiction == (Fraction(1, 2), Fraction(-1, 48))
            assert "incompatible" in high.conclusion

        node = obstruction.single_node_theta()
        assert node.theta_class == "theta - (1/48)*delta"
        assert node.rational_roots == [Fraction(-1, 48)]
        ok = True
    finally:
        _emit(7, "theta obstruction constants", ok)


def test_criterion_8_symbolic_genus_replay():
    ok = False
    try:
        d = Poly.var("d")
        assert default_twist_polynomial() == (
            (d ** 4).scale(Fraction(-1, 48)) + (d ** 2).scale(Fraction(1, 24))
            - Poly.const(Fraction(1, 240)))
        relation = top_weight_boundary_relation()
        assert relation.coefficient == Fraction(1, 48)
        cor = corollary_theta_push()
        assert cor.coefficient == Fraction(1, 48)
        assert all(cert.holds() for cert in cor.certificates)
        assert cor.concrete_checks == ((2, True), (3, True), (4, True),
                                       (5, True))
        ok = True
    finally:
        _emit(8, "symbolic-genus theta pushforward", ok)


def test_criterion_9_infrastructure():
    ok = False
    try:
        rng = random.Random(2026)
        for _ in range(100):
            a, b, c = (random_matrix(rng) for _ in range(3))
            total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                     + bracket(c, bracket(a, b)))
            assert total.is_zero()

        labels = k3.REL_LABELS
        compose_triples = mul_triples = 0
        for x in labels:
            for y in labels:
                for z in labels:
                    rx, ry, rz = k3.rel(x), k3.rel(y), k3.rel(z)
                    left = k3.rel_compose(k3.rel_compose(rx, ry), rz)
                    right = k3.rel_compose(rx, k3.rel_compose(ry, rz))
                    assert left == right, (x, y, z)
                    compose_triples += 1
                    try:
                        left = k3.rel_mul(k3.rel_mul(rx, ry), rz)
                        right = k3.rel_mul(rx, k3.rel_mul(ry, rz))
                    except OutsideModelError:
                        continue
                    assert left == right, (x, y, z)
                    mul_triples += 1
        assert compose_triples == 729
        assert mul_triples >= 600

        assert len(CORPUS) == 50
        for text, _ in CORPUS:
            tree = parse(text)
            assert parse(print_expr(tree)) == tree, text

        first = render_json(run_llv_suite(trials=2, seed=3))
        second = render_json(run_llv_suite(trials=2, seed=3))
        assert first == second
        ok = True
    finally:
        _emit(9, "infrastructure invariants", ok)
