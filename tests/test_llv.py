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
from beauville_lab.llv import (OperatorTable, TripleData, _compatibility, build_triple,
                               op_e, op_h,
                               primed_operators, random_quadruple,
                               standard_quadruple,
                               verify_cross_triple,
                               verify_double_bracket_recovery,
                               verify_fourier_compatibility,
                               verify_fourier_conjugacy,
                               verify_isotropic_sl2_pairs, verify_theta_replay,
                               verify_verbitsky)
from beauville_lab.mukai import (ALPHA, BETA, MukaiSpace, barred_fourier_matrix,
                                 fourier_matrix, llv_model_space, mukai_class_space)
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


def test_compatibility_reads_barred_numerators_over_their_denominator():
    # a class space's barred Fourier matrix is integral, so scale it and
    # every image by 1/2: the check must read the numerators over den = 2
    space = llv_model_space(6, t=2)
    data = build_triple(OperatorTable(space, standard_quadruple(space)), c0=-1, c1=1)
    half = replace(data, images={name: {p: m.scale(HALF) for p, m in image.items()}
                                 for name, image in data.images.items()})
    for g in (2, 5):
        class_space = mukai_class_space(g)
        barred = barred_fourier_matrix(class_space, -1, fourier_matrix(class_space, -1, 1))
        assert barred.den == 1 and barred.scale(HALF).den == 2
        assert all_hold(_compatibility(half, class_space, barred.scale(HALF))) == 4


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


def test_barred_fourier_matrix_of_a_class_space_does_not_depend_on_c1():
    # the triple suite builds one barred matrix per genus and c0 for both c1
    for g in range(2, 17):
        space = mukai_class_space(g)
        for c0 in (1, -1):
            assert barred_fourier_matrix(space, c0, fourier_matrix(space, c0, 1)) == \
                barred_fourier_matrix(space, c0, fourier_matrix(space, c0, -1)), g


def test_triple_H0_ladder_in_cst():
    # [D, F0] = -2 F0 holds identically in the undetermined constant
    space = llv_model_space(6, t=2)
    quad = standard_quadruple(space)
    data = build_triple(OperatorTable(space, quad), c0=-1, c1=1)
    lhs = bracket(data.D, data.F0)
    assert lhs == data.F0.scale(-2)
    assert op_K(space, quad[0], quad[1]).scale(I) == data.D


# -- no fused check is vacuous: a corrupted table is refuted as the oracle says ---------


def oracle_verbitsky(ops):
    """verify_verbitsky with each bracket built and compared with ==."""
    e, f, K, h = ops.e, ops.f, ops.K, ops.h()
    idx = range(1, 5)
    pairs = [(i, j) for i in idx for j in idx if i != j]
    checks = [(f"[e{i},f{i}]=h", bracket(e(i), f(i)) == h) for i in idx]
    checks += [(f"K{i}{j}=-K{j}{i}", K(i, j) == -K(j, i)) for i, j in pairs if i < j]
    checks += [(f"[K{i}{j},K{j}{k}]=2K{i}{k}", bracket(K(i, j), K(j, k)) == K(i, k).scale(2))
               for i, j in pairs for k in idx if k not in (i, j)]
    checks += [(f"[K{i}{j},h]=0", bracket(K(i, j), h).is_zero()) for i, j in pairs if i < j]
    for i, j in pairs:
        checks.append((f"[K{i}{j},e{j}]=2e{i}", bracket(K(i, j), e(j)) == e(i).scale(2)))
        checks.append((f"[K{i}{j},f{j}]=2f{i}", bracket(K(i, j), f(j)) == f(i).scale(2)))
        for k in idx:
            if k not in (i, j):
                checks.append((f"[K{i}{j},e{k}]=0", bracket(K(i, j), e(k)).is_zero()))
                checks.append((f"[K{i}{j},f{k}]=0", bracket(K(i, j), f(k)).is_zero()))
    return checks


def oracle_isotropic(ops):
    h, K = ops.h(), ops.K(1, 2)
    es, fs = ops.e_sigma(1, 2), ops.f_sigma(1, 2)
    eb, fb = ops.e_sigmabar(1, 2), ops.f_sigmabar(1, 2)
    hs, hb = bracket(es, fs), bracket(eb, fb)
    return [
        ("h_sigma=(h-iK)/2", hs == (h - K.scale(I)).scale(HALF)),
        ("h_sigmabar=(h+iK)/2", hb == (h + K.scale(I)).scale(HALF)),
        ("[h_sigma,e_sigma]=2e_sigma", bracket(hs, es) == es.scale(2)),
        ("[h_sigma,f_sigma]=-2f_sigma", bracket(hs, fs) == fs.scale(-2)),
        ("[h_sigmabar,e_sigmabar]=2e_sigmabar", bracket(hb, eb) == eb.scale(2)),
        ("[h_sigmabar,f_sigmabar]=-2f_sigmabar", bracket(hb, fb) == fb.scale(-2)),
        ("h_sigmabar-h_sigma=iK", hb - hs == K.scale(I)),
        ("[e_sigma,f_sigmabar]=0", bracket(es, fb).is_zero()),
        ("[e_sigmabar,f_sigma]=0", bracket(eb, fs).is_zero()),
        ("[e_sigma,e_sigmabar]=0", bracket(es, eb).is_zero()),
        ("[f_sigma,f_sigmabar]=0", bracket(fs, fb).is_zero()),
    ]


def oracle_cross_triple(ops):
    K = ops.K
    plus, minus, K12_K34 = K(1, 3) + K(2, 4), K(1, 4) - K(2, 3), K(1, 2) - K(3, 4)
    L = bracket(ops.e_sigma(1, 2), ops.f_sigma(3, 4))
    Lam = bracket(ops.e_sigma(3, 4), ops.f_sigma(1, 2))
    H = bracket(L, Lam)
    quarter, quarter_i = GR(Fraction(1, 4)), GR(0, Fraction(1, 4))
    return [
        ("L=((K13+K24)-i(K14-K23))/4", L == plus.scale(quarter) - minus.scale(quarter_i)),
        ("Lambda=(-(K13+K24)-i(K14-K23))/4",
         Lam == plus.scale(-quarter) - minus.scale(quarter_i)),
        ("H=-(i/2)(K12-K34)", H == K12_K34.scale(GR(0, Fraction(-1, 2)))),
        ("[H,L]=2L", bracket(H, L) == L.scale(2)),
        ("[H,Lambda]=-2Lambda", bracket(H, Lam) == Lam.scale(-2)),
        ("[K12-K34,K13+K24]=4(K14-K23)", bracket(K12_K34, plus) == minus.scale(4)),
        ("[K12-K34,K14-K23]=-4(K13+K24)", bracket(K12_K34, minus) == plus.scale(-4)),
    ]


def oracle_double_bracket(ops):
    es, fs, e1 = ops.e_sigma(2, 3), ops.f_sigma(2, 3), ops.e(1)
    inner = bracket(fs, e1)
    e_x = op_e(ops.space, vec_add(ops.quad[0], ops.quad[3]))
    return [
        ("[f_sigma23,e_1]=(-K12+iK13)/2",
         inner == (ops.K(1, 3).scale(I) - ops.K(1, 2)).scale(HALF)),
        ("e_1=[e_sigma23,[f_sigma23,e_1]]", bracket(es, inner) == e1),
        ("e_eta=[e_sigma23,[f_sigma23,e_eta]]", bracket(es, bracket(fs, e_x)) == e_x),
    ]


def oracle_triple(ops, data, genus):
    """The checks of build_triple and verify_theta_replay, on the built
    triple's E0, F0, H0 and primed operators."""
    P, E0, F0, H0, c0 = data.P, data.E0, data.F0, data.H0, data.c0
    K12, K34 = ops.K(1, 2), ops.K(3, 4)
    D = K12.scale(I)
    plus, minus = ops.K(1, 3) + ops.K(2, 4), ops.K(1, 4) - ops.K(2, 3)
    e_theta = P["E_thetabar"].scale(-c0) + P["E_beta"].scale(Fraction(genus + 1, 2))
    return [
        ("[F_alpha,E_beta]=0", bracket(P["F_alpha"], P["E_beta"]).is_zero()),
        ("E0=-[F_alpha,E_theta]", -bracket(P["F_alpha"], e_theta) == E0),
        ("F0=-fourier(E0) identically in cst", data.E0_image == {0: -F0}),
        ("H0=(i/2)(K12-K34)", H0 == (K12 - K34).scale(GR(0, Fraction(1, 2)))),
        ("[H0,E0]=2E0", bracket(H0, E0) == E0.scale(2)),
        ("[H0,F0]=-2F0", bracket(H0, F0) == F0.scale(-2)),
        ("[D,E0]=2E0", bracket(D, E0) == E0.scale(2)),
        ("[D,F0]=-2F0", bracket(D, F0) == F0.scale(-2)),
        # Lambda and L in the closed forms of the cross triple, so that
        # neither check is the antisymmetry of the bracket
        ("E0=-c0*Lambda", E0 == (plus + minus.scale(I)).scale(GR(Fraction(c0, 4)))),
        ("F0=-c0*L", F0 == (plus - minus.scale(I)).scale(GR(Fraction(-c0, 4)))),
    ]


def corrupt_K12(ops):
    ops._kept["K", 1, 2] = ops.K(1, 2).scale(2)


def corrupt_K13(ops):
    ops._kept["K", 1, 3] = ops.K(1, 3).scale(2)


def flip_one_entry_of_e2(pick):
    """Negate the entry of e2 at pick(positions), after f2 is kept as the
    lowering of the intact e2."""
    def corrupt(ops):
        e2, _ = ops.e(2), ops.f(2)
        pos = pick(e2.num)
        ops._kept["e", 2] = SparseMat(e2.dim, {**e2.entries, pos: -e2.entries[pos]})
    return corrupt


# min picks an entry of e2's alpha column, which is eta2, and max one of its
# beta row, which is the covector of eta2
CORRUPTIONS = [corrupt_K12, flip_one_entry_of_e2(min), flip_one_entry_of_e2(max)]


FAMILIES = [(verify, oracle) for verify, oracle in zip(
    (verify_verbitsky, verify_isotropic_sl2_pairs, verify_cross_triple,
     verify_double_bracket_recovery),
    (oracle_verbitsky, oracle_isotropic, oracle_cross_triple, oracle_double_bracket))]


def refuted(checks):
    return {name for name, holds, _ in checks if not holds}


def corrupted_tables(corrupt):
    """An intact and a corrupted table of each of two spaces and quadruples;
    v2 of the random one has four nonzero coordinates."""
    for space, quad_of in ((llv_model_space(6, t=2), standard_quadruple),
                           (llv_model_space(10, Fraction(-3, 2)),
                            lambda space: random_quadruple(space, 7))):
        intact, broken = (OperatorTable(space, quad_of(space)) for _ in range(2))
        corrupt(broken)
        yield intact, broken


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("verify,oracle", FAMILIES)
def test_a_corrupted_operator_refutes_what_the_oracle_refutes(corrupt, verify, oracle):
    for intact, broken in corrupted_tables(corrupt):
        # the oracle names the same checks in the same order
        assert [name for name, _, _ in verify(intact)] == [name for name, _ in oracle(intact)]
        assert not refuted(verify(intact))
        expected = {name for name, holds in oracle(broken) if not holds}
        assert expected and refuted(verify(broken)) == expected


# K13 enters the triple only through the closed forms of Lambda and L
@pytest.mark.parametrize("corrupt", CORRUPTIONS + [corrupt_K13])
def test_a_corrupted_operator_refutes_the_triple_as_the_oracle_does(corrupt):
    for intact, broken in corrupted_tables(corrupt):
        for c0 in (1, -1):
            for c1 in (1, -1):
                for ops in (intact, broken):
                    data = build_triple(ops, c0, c1)
                    fused = verify_theta_replay(data, 5) + data.checks
                    expected = oracle_triple(ops, data, 5)
                    assert [name for name, _, _ in fused] == [name for name, _ in expected]
                    assert refuted(fused) == {name for name, holds in expected if not holds}
                    assert bool(refuted(fused)) == (ops is broken)
                    if corrupt is corrupt_K13 and ops is broken:
                        assert refuted(fused) == {"E0=-c0*Lambda", "F0=-c0*L"}
