"""Weight-graded raising/lowering operators and their Fourier images."""

import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mukai import pairing, vec_add
from test_sparse import random_matrix, weight_decompose

from beauville_lab import llv
from beauville_lab.llv import (OperatorTable, TripleData, build_triple,
                               op_e, op_h,
                               primed_operators, random_quadruple,
                               standard_quadruple,
                               verify_cross_triple,
                               verify_double_bracket_recovery,
                               verify_fourier_compatibility,
                               verify_fourier_conjugacy,
                               verify_isotropic_sl2_pairs, verify_theta_replay,
                               verify_verbitsky)
from beauville_lab.mukai import ALPHA, BETA, MukaiSpace, llv_model_space
from beauville_lab.scalars import GaussianRational, I
from beauville_lab.sparse import SparseMat, bracket

GR = GaussianRational
HALF = GR(Fraction(1, 2))


def op_f(space, eta):
    """f_eta as the engine builds it: the lowering of the kept e_eta."""
    return OperatorTable(space, (eta,)).f(1)


# -- the free-function route, an oracle for the operator table ------------------------


def op_f_per_entry(space, eta):
    """f_eta written out entry by entry, with 2/q(eta) from the space's form."""
    q = pairing(space, eta, eta)
    two_over_q = GR(2) / q
    ia, ib = space.index(ALPHA), space.index(BETA)
    entries = {(space.index(label), ib): two_over_q * c for label, c in eta.items()}
    for mu, pair in space.covector(eta).items():
        entries[(ia, space.index(mu))] = two_over_q * pair
    return SparseMat(space.dim, entries)


def op_K(space, eta_i, eta_j):
    return bracket(op_e(space, eta_i), op_f_per_entry(space, eta_j))


def op_e_sigma(space, eta_i, eta_j):
    return (op_e(space, eta_i) + op_e(space, eta_j).scale(I)).scale(HALF)


def op_f_sigma(space, eta_i, eta_j):
    return (op_f_per_entry(space, eta_i) - op_f_per_entry(space, eta_j).scale(I)).scale(HALF)


def op_e_sigmabar(space, eta_i, eta_j):
    return (op_e(space, eta_i) - op_e(space, eta_j).scale(I)).scale(HALF)


def op_f_sigmabar(space, eta_i, eta_j):
    return (op_f_per_entry(space, eta_i) + op_f_per_entry(space, eta_j).scale(I)).scale(HALF)


def fraction_random_quadruple(space, seed):
    """The rotations of random_quadruple on whole Fraction matrices."""
    middles = space.middles
    k = len(middles)
    rng = random.Random(seed)
    mat = [[Fraction(1) if r == c else Fraction(0) for c in range(k)] for r in range(k)]
    for _ in range(3):
        p, q = rng.sample(range(k), 2)
        m = Fraction(rng.randint(1, 4), rng.randint(2, 5)) * rng.choice((1, -1))
        c = (1 - m * m) / (1 + m * m)
        s = 2 * m / (1 + m * m)
        row_p = [c * a - s * b for a, b in zip(mat[p], mat[q])]
        row_q = [s * a + c * b for a, b in zip(mat[p], mat[q])]
        mat[p], mat[q] = row_p, row_q
    quad = []
    for col in range(4):
        vec = {}
        for r in range(k):
            if mat[r][col]:
                vec[middles[r]] = GR(mat[r][col])
        quad.append(vec)
    return quad


def failed(checks):
    return [name for name, ok, _ in checks if not ok]


def all_hold(checks):
    assert not failed(checks), f"failed identities: {failed(checks)}"
    return len(checks)


# -- lowering operator is the unique bracket-inverse of the raising operator -------


def solve_unique(rows, rhs):
    """Exact Gauss elimination; asserts the system has exactly one solution."""
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m = len(aug)
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((k for k in range(r, m) if not aug[k][c].is_zero()), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [inv * x for x in aug[r]]
        for k in range(m):
            if k != r and not aug[k][c].is_zero():
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        piv_cols.append(c)
        r += 1
    for k in range(r, m):
        assert aug[k][n].is_zero(), "inconsistent system"
    assert len(piv_cols) == n, "solution not unique"
    sol = [GR(0)] * n
    for row_idx, c in enumerate(piv_cols):
        sol[c] = aug[row_idx][n]
    return sol


def lowering_from_linear_system(space, eta):
    """Solve [op_e(eta), X] = h for the unknown weight-lowering X directly.

    X(beta) = sum x_i m_i and X(m_j) = y_j alpha; the bracket condition is
    linear in (x, y) and pins X uniquely, independent of the closed form.
    """
    middles = space.middles
    k = len(middles)
    comp = [eta.get(m, GR(0)) for m in middles]
    pair = [pairing(space, eta, space.basis_vector(m)) for m in middles]
    rows, rhs = [], []
    # middle slots: y_j * eta - (eta, m_j) * sum_i x_i m_i = 0, componentwise
    for j in range(k):
        for i in range(k):
            row = [GR(0)] * (2 * k)
            row[i] = -pair[j]
            row[k + j] = comp[i]
            rows.append(row)
            rhs.append(GR(0))
    # beta slot: sum_i x_i (eta, m_i) = 2
    rows.append([pair[i] for i in range(k)] + [GR(0)] * k)
    rhs.append(GR(2))
    # alpha slot: sum_j eta^j y_j = 2
    rows.append([GR(0)] * k + comp)
    rhs.append(GR(2))
    sol = solve_unique(rows, rhs)
    return sol[:k], sol[k:]


@pytest.mark.parametrize("eta_kind", ["m1", "m1+m2", "random"])
def test_op_f_is_the_unique_solution_of_the_bracket_equation(eta_kind):
    space = llv_model_space(6, t=2)
    if eta_kind == "m1":
        eta = space.basis_vector("m1")
    elif eta_kind == "m1+m2":
        eta = {"m1": GR(1), "m2": GR(1)}
    else:
        eta = random_quadruple(space, seed=7)[0]
    xs, ys = lowering_from_linear_system(space, eta)
    f_mat = op_f(space, eta)
    ia, ib = space.index(ALPHA), space.index(BETA)
    for i, m in enumerate(space.middles):
        assert f_mat.entries.get((space.index(m), ib), GR(0)) == xs[i]
        assert f_mat.entries.get((ia, space.index(m)), GR(0)) == ys[i]
    assert bracket(op_e(space, eta), f_mat) == op_h(space)


# -- operator basics ------------------------------------------------------------


def test_op_e_frozen_matrix_and_sl2_pair():
    space = llv_model_space(6, t=2)
    m1 = space.basis_vector("m1")
    assert op_e(space, m1) == SparseMat(6, {(1, 0): 1, (5, 1): 2})
    assert op_f(space, m1) == SparseMat(6, {(1, 5): 1, (0, 1): 2})
    assert bracket(op_e(space, m1), op_f(space, m1)) == op_h(space)


def test_op_guards():
    space = llv_model_space(6, t=2)
    with pytest.raises(ValueError, match="middle part"):
        op_e(space, {ALPHA: GR(1)})
    with pytest.raises(ValueError, match="middle part"):
        op_f(space, {BETA: GR(1)})
    isotropic = {"m1": GR(1), "m2": I}
    assert pairing(space, isotropic, isotropic).is_zero()
    with pytest.raises(ValueError, match="q\\(eta\\) != 0"):
        op_f(space, isotropic)


def test_random_quadruple_orthogonality_and_determinism():
    space = llv_model_space(8, t=Fraction(-3))
    for seed in range(6):
        quad = random_quadruple(space, seed)
        for i in range(4):
            assert pairing(space, quad[i], quad[i]) == GR(Fraction(-3))
            for j in range(i + 1, 4):
                assert pairing(space, quad[i], quad[j]).is_zero()
    assert random_quadruple(space, 3) == random_quadruple(space, 3)


def test_random_quadruple_guards():
    with pytest.raises(ValueError, match="at least four"):
        random_quadruple(llv_model_space(5), seed=0)
    gram = [[Fraction(0)] * 6 for _ in range(6)]
    gram[0][5] = gram[5][0] = Fraction(-1)
    for k, val in ((1, 2), (2, 2), (3, 2), (4, 3)):
        gram[k][k] = Fraction(val)
    lopsided = MukaiSpace(("alpha", "m1", "m2", "m3", "m4", "beta"),
                          tuple(tuple(r) for r in gram))
    with pytest.raises(ValueError, match="t \\* identity"):
        random_quadruple(lopsided, seed=0)


T_VALUES = (Fraction(2), Fraction(3, 2), Fraction(-5, 3), Fraction(-3))


@settings(max_examples=60, deadline=None)
@given(hdim=st.integers(6, 10), t=st.sampled_from(T_VALUES),
       seed=st.integers(0, 10**6))
def test_integer_rotations_match_the_fraction_oracle(hdim, t, seed):
    space = llv_model_space(hdim, t)
    oracle = fraction_random_quadruple(space, seed)
    # the same vectors, with their labels in the same order
    assert [list(v.items()) for v in random_quadruple(space, seed)] == \
        [list(v.items()) for v in oracle]


def assert_table_matches_free_functions(space, quad):
    ops = OperatorTable(space, quad)
    assert ops.h() == op_h(space)
    for i, v in enumerate(quad, 1):
        assert ops.e(i) == op_e(space, v)
        assert ops.f(i) == op_f_per_entry(space, v) == op_f(space, v)
    for i, vi in enumerate(quad, 1):
        for j, vj in enumerate(quad, 1):
            assert ops.K(i, j) == op_K(space, vi, vj)
            if i != j:
                assert ops.e_sigma(i, j) == op_e_sigma(space, vi, vj)
                assert ops.f_sigma(i, j) == op_f_sigma(space, vi, vj)
                assert ops.e_sigmabar(i, j) == op_e_sigmabar(space, vi, vj)
                assert ops.f_sigmabar(i, j) == op_f_sigmabar(space, vi, vj)
    # a second request returns the kept matrix
    assert ops.K(2, 1) is ops.K(2, 1) and ops.f(3) is ops.f(3)


@settings(max_examples=15, deadline=None)
@given(hdim=st.integers(6, 10), t=st.sampled_from(T_VALUES), seed=st.integers(0, 10**6))
def test_operator_table_matches_the_free_functions(hdim, t, seed):
    space = llv_model_space(hdim, t)
    assert_table_matches_free_functions(space, random_quadruple(space, seed))


def test_op_f_swap_and_scale_with_a_complex_norm():
    space = llv_model_space(7, Fraction(3, 2))
    eta = {"m1": GR(1, 1), "m2": GR(Fraction(2, 3), -2), "m4": GR(0, Fraction(-1, 5))}
    q = pairing(space, eta, eta)
    assert q.im and q.re
    assert op_f(space, eta) == op_f_per_entry(space, eta)
    assert bracket(op_e(space, eta), op_f(space, eta)) == op_h(space)
    others = [{"m3": GR(1)}, {"m5": GR(0, 2)}, {"m1": GR(1), "m2": GR(-1)}]
    assert_table_matches_free_functions(space, [eta, *others])


def test_operator_table_index_guard():
    space = llv_model_space(6, t=2)
    ops = OperatorTable(space, standard_quadruple(space))
    for bad in (0, 5):
        with pytest.raises(IndexError, match="outside 1..4"):
            ops.e(bad)


# -- relation suites -------------------------------------------------------------


def test_verbitsky_standard_quadruple():
    space = llv_model_space(6, t=2)
    assert all_hold(verify_verbitsky(OperatorTable(space, standard_quadruple(space)))) == 112


@pytest.mark.parametrize("hdim,t,seed", [(6, 1, 1), (7, 2, 2), (10, Fraction(-3), 5)])
def test_verbitsky_random_quadruples(hdim, t, seed):
    space = llv_model_space(hdim, t=t)
    all_hold(verify_verbitsky(OperatorTable(space, random_quadruple(space, seed))))


def test_isotropic_pairs_suite():
    space = llv_model_space(6, t=2)
    assert all_hold(verify_isotropic_sl2_pairs(OperatorTable(space, standard_quadruple(space)))) == 11
    all_hold(verify_isotropic_sl2_pairs(OperatorTable(space, random_quadruple(space, 9))))


def test_cross_triple_suite():
    space = llv_model_space(7, t=2)
    assert all_hold(verify_cross_triple(OperatorTable(space, standard_quadruple(space)))) == 7
    all_hold(verify_cross_triple(OperatorTable(space, random_quadruple(space, 4))))


def test_double_bracket_recovery():
    space = llv_model_space(6, t=2)
    quad = standard_quadruple(space)
    assert all_hold(verify_double_bracket_recovery(OperatorTable(space, quad))) == 3
    # its eta = v1 + v4 is orthogonal to the sigma pair (v2, v3) of every quadruple
    space = llv_model_space(8, t=Fraction(-3))
    for quad in [standard_quadruple(space)] + [random_quadruple(space, s) for s in range(6)]:
        eta = vec_add(quad[0], quad[3])
        assert not pairing(space, eta, quad[1]) and not pairing(space, eta, quad[2])
        assert all_hold(verify_double_bracket_recovery(OperatorTable(space, quad))) == 3


def test_isotropic_triples_commute_with_their_bar_partners():
    space = llv_model_space(6, t=2)
    v1, v2 = standard_quadruple(space)[:2]
    es = op_e_sigma(space, v1, v2)
    assert bracket(es, es).is_zero()


# -- Fourier images -----------------------------------------------------------------


def fourier_table(c0, c1):
    """The Fourier image of each primed generator as (coefficient, power of
    cst, generator) terms."""
    return {
        "E_alpha": ((c1, 0, "E_thetabar"),),
        "E_thetabar": ((-c1, 0, "E_alpha"), (1, 1, "E_hyp")),
        "E_beta": ((c1 * c0, 0, "E_hyp"),),
        "E_hyp": ((-c1 * c0, 0, "E_beta"),),
        "F_alpha": ((c1, 0, "F_thetabar"),),
        "F_thetabar": ((-c1, 0, "F_alpha"), (1, 1, "F_hyp")),
    }


def test_fourier_op_map_frozen_images():
    # every image in full, cst coefficients included: [F_thetabar, E_alpha]
    # cancels the cst term of the F_thetabar image, and the lattice check
    # reads the E images only, so no report sees that coefficient
    space = llv_model_space(6, t=2)
    for quad in (standard_quadruple(space), random_quadruple(space, seed=5)):
        ops = OperatorTable(space, quad)
        for c0 in (1, -1):
            for c1 in (1, -1):
                data = build_triple(ops, c0, c1)
                assert data.images == {
                    name: {k: data.P[gen].scale(coeff) for coeff, k, gen in terms}
                    for name, terms in fourier_table(c0, c1).items()}


def random_matrix_poly(rng):
    """A matrix polynomial {power of cst: matrix} of degree <= 2."""
    return {k: random_matrix(rng) for k in range(3) if rng.random() < 0.7}


def at(matrix_poly, cst, dim=6):
    """The matrix a matrix polynomial takes at cst."""
    return sum((m.scale(prod([cst] * k)) for k, m in matrix_poly.items()), SparseMat(dim))


def test_matrix_polynomial_bracket_commutes_with_evaluation():
    rng = random.Random(7)
    for _ in range(30):
        x, y = random_matrix_poly(rng), random_matrix_poly(rng)
        xy = llv._poly_bracket(x, y)
        assert all(xy.values())
        for cst in (-2, -1, 0, 1, 2, I):
            assert at(xy, cst) == bracket(at(x, cst), at(y, cst))


def test_matrix_polynomial_bracket_drops_cancelled_terms():
    rng = random.Random(8)
    for _ in range(10):
        a, b = random_matrix(rng), random_matrix(rng)
        ab = bracket(a, b)
        assert ab
        # the cst terms of [a + a*cst, b - b*cst] cancel: no key is left for them
        assert llv._poly_bracket({0: a, 1: a}, {0: b, 1: -b}) == {0: ab, 2: -ab}
        assert llv._poly_bracket({0: a, 2: a}, {1: a}) == {}
        assert llv._poly_bracket({0: a}, {}) == {}


def test_fourier_checks_fail_on_a_wrong_image():
    space = llv_model_space(6, t=2)
    data = build_triple(OperatorTable(space, standard_quadruple(space)), c0=1, c1=-1)
    E_hyp = data.P["E_hyp"]
    wrong = {**data.images["E_thetabar"], 1: E_hyp.scale(2)}
    bad = replace(data, images={**data.images, "E_thetabar": wrong})
    assert failed(verify_fourier_compatibility(bad, 7)) == [
        "op-map(E_thetabar) matches lattice image with cst=c1*(g+1)"]
    bad = replace(data, E0_image={**data.E0_image, 1: E_hyp})
    assert failed(verify_fourier_conjugacy(bad)) == ["fourier(E0)=-F0", "fourier(H0)=-H0"]


# -- Fourier-conjugate triples ------------------------------------------------------


def test_build_triple_checks_and_frozen_spectra():
    space = llv_model_space(6, t=2)
    ops = OperatorTable(space, standard_quadruple(space))
    data = build_triple(ops, c0=1, c1=1)
    assert all_hold(verify_theta_replay(data, 2) + data.checks) == 10
    assert isinstance(data, TripleData)
    P = primed_operators(ops, 1)
    assert data.P == P
    assert data.E0_image == {0: -data.F0} and data.F0_image == {0: -data.E0}

    assert weight_decompose(data.H0) == {-1: 2, 0: 2, 1: 2}
    assert weight_decompose(data.D) == {-2: 1, 0: 4, 2: 1}
    assert weight_decompose(op_h(space)) == {-2: 1, 0: 4, 2: 1}


def test_build_triple_rejects_bad_signs():
    space = llv_model_space(6, t=2)
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        build_triple(OperatorTable(space, standard_quadruple(space)), c0=0, c1=1)


@pytest.mark.parametrize("c0,c1", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_triple_replay_and_conjugacy_random_quadruple(c0, c1):
    space = llv_model_space(6, t=2)
    data = build_triple(OperatorTable(space, random_quadruple(space, seed=11)), c0, c1)
    all_hold(verify_theta_replay(data, 5) + data.checks)
    all_hold(verify_fourier_conjugacy(data))


@pytest.mark.parametrize("genus", [2, 7])
@pytest.mark.parametrize("c0,c1", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_fourier_compatibility_with_lattice_matrix(genus, c0, c1):
    space = llv_model_space(6, t=2)
    ops = OperatorTable(space, standard_quadruple(space))
    checks = verify_fourier_compatibility(build_triple(ops, c0, c1), genus)
    assert all_hold(checks) == 4


@pytest.mark.parametrize("c0,c1", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_fourier_compatibility_refutes_the_other_c1(c0, c1):
    # the triple read with the other c1 fails in every genus, so the
    # per-genus check cannot hold vacuously
    space = llv_model_space(6, t=2)
    data = build_triple(OperatorTable(space, standard_quadruple(space)), c0, c1)
    flipped = replace(data, c1=-c1)
    for g in range(2, 17):
        assert all_hold(verify_fourier_compatibility(data, g)) == 4
        assert failed(verify_fourier_compatibility(flipped, g)), g


def test_triple_H0_ladder_in_cst():
    # [D, F0] = -2 F0 holds identically in the undetermined constant
    space = llv_model_space(6, t=2)
    quad = standard_quadruple(space)
    data = build_triple(OperatorTable(space, quad), c0=-1, c1=1)
    lhs = bracket(data.D, data.F0)
    assert lhs == data.F0.scale(-2)
    assert op_K(space, quad[0], quad[1]).scale(I) == data.D
