"""Weight-graded raising/lowering operators and the Fourier operator map."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sparse import random_matrix, weight_decompose

from beauville_lab import llv
from beauville_lab.llv import (Brk, Lin, OperatorTable, Sym, TripleData,
                               UnsupportedOperatorError, build_triple,
                               constant, evaluate_at, evaluate_op,
                               fourier_op_map, op_e, op_f, op_h,
                               primed_operators, random_quadruple,
                               standard_quadruple,
                               verify_cross_triple,
                               verify_double_bracket_recovery,
                               verify_fourier_compatibility,
                               verify_fourier_conjugacy,
                               verify_isotropic_sl2_pairs, verify_theta_replay,
                               verify_verbitsky)
from beauville_lab.mukai import ALPHA, BETA, MukaiSpace, llv_model_space
from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational, I
from beauville_lab.sparse import SparseMat, bracket

GR = GaussianRational
HALF = GR(Fraction(1, 2))


# -- the free-function route, an oracle for the operator table ------------------------


def op_f_per_entry(space, eta):
    """f_eta written out entry by entry, with 2/q(eta) from the space's form."""
    q = space.q(eta)
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


def fraction_random_quadruple(space, seed, steps=3):
    """The rotations of random_quadruple on whole Fraction matrices."""
    middles = space.middles
    k = len(middles)
    rng = random.Random(seed)
    mat = [[Fraction(1) if r == c else Fraction(0) for c in range(k)] for r in range(k)]
    for _ in range(steps):
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


def all_hold(checks):
    failed = [name for name, ok, _ in checks if not ok]
    assert not failed, f"failed identities: {failed}"
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
    pair = [space.pairing(eta, space.basis_vector(m)) for m in middles]
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
    assert space.q(isotropic).is_zero()
    with pytest.raises(ValueError, match="q\\(eta\\) != 0"):
        op_f(space, isotropic)


def test_random_quadruple_orthogonality_and_determinism():
    space = llv_model_space(8, t=Fraction(-3))
    for seed in range(6):
        quad = random_quadruple(space, seed)
        for i in range(4):
            assert space.q(quad[i]) == GR(Fraction(-3))
            for j in range(i + 1, 4):
                assert space.pairing(quad[i], quad[j]).is_zero()
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
       seed=st.integers(0, 10**6), steps=st.integers(0, 6))
def test_integer_rotations_match_the_fraction_oracle(hdim, t, seed, steps):
    space = llv_model_space(hdim, t)
    oracle = fraction_random_quadruple(space, seed, steps)
    # the same vectors, with their labels in the same order
    assert [list(v.items()) for v in random_quadruple(space, seed, steps)] == \
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
    q = space.q(eta)
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


def test_double_bracket_recovery_fails_before_building_operators(monkeypatch):
    built = []
    for name in ("op_e", "op_h", "bracket"):
        def counted(*args, _name=name, _original=getattr(llv, name)):
            built.append(_name)
            return _original(*args)
        monkeypatch.setattr(llv, name, counted)
    space = llv_model_space(8, t=2)
    quad = random_quadruple(space, seed=3)
    with pytest.raises(ValueError, match="orthogonal to the sigma pair"):
        verify_double_bracket_recovery(OperatorTable(space, quad), extra_eta=quad[1])
    assert built == []


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
    all_hold(verify_isotropic_sl2_pairs(OperatorTable(space, random_quadruple(space, 9)),
                                        pair=(2, 4)))


def test_cross_triple_suite():
    space = llv_model_space(7, t=2)
    assert all_hold(verify_cross_triple(OperatorTable(space, standard_quadruple(space)))) == 7
    all_hold(verify_cross_triple(OperatorTable(space, random_quadruple(space, 4))))


def test_double_bracket_recovery():
    space = llv_model_space(6, t=2)
    quad = standard_quadruple(space)
    assert all_hold(verify_double_bracket_recovery(OperatorTable(space, quad))) == 3
    with pytest.raises(ValueError, match="orthogonal"):
        verify_double_bracket_recovery(OperatorTable(space, quad), extra_eta=quad[1])


def test_isotropic_triples_commute_with_their_bar_partners():
    space = llv_model_space(6, t=2)
    v1, v2 = standard_quadruple(space)[:2]
    es = op_e_sigma(space, v1, v2)
    assert bracket(es, es).is_zero()


# -- Fourier operator map ---------------------------------------------------------


def test_fourier_op_map_frozen_images():
    assert fourier_op_map(Sym("E_alpha"), 1, 1) == Lin(
        ((Poly.const(1), Sym("E_thetabar")),))
    assert fourier_op_map(Sym("E_beta"), -1, 1) == Lin(
        ((Poly.const(-1), Sym("E_hyp")),))
    mapped = fourier_op_map(Sym("E_thetabar"), 1, -1)
    assert mapped == Lin(((Poly.const(1), Sym("E_alpha")),
                          (Poly.var("cst"), Sym("E_hyp"))))


def test_fourier_op_map_rejects_outside_span():
    assert issubclass(UnsupportedOperatorError, ValueError)
    with pytest.raises(UnsupportedOperatorError):
        fourier_op_map(Sym("F_hyp"), 1, 1)
    with pytest.raises(UnsupportedOperatorError):
        fourier_op_map(Sym("nonsense"), 1, 1)
    with pytest.raises(TypeError):
        fourier_op_map(42, 1, 1)


def test_fourier_op_map_threads_through_brackets_and_sums():
    expr = Lin(((Poly.const(2), Brk(Sym("E_alpha"), Sym("F_alpha"))),))
    mapped = fourier_op_map(expr, 1, 1)
    assert isinstance(mapped, Lin)
    inner = mapped.terms[0][1]
    assert isinstance(inner, Brk)
    assert inner.left == Lin(((Poly.const(1), Sym("E_thetabar")),))


def test_evaluate_op_is_linear_in_cst():
    # cst scales whole terms: brackets are taken on scalar matrices and each
    # power of cst keeps its own matrix
    rng = random.Random(7)
    cst = Poly.var("cst")
    for _ in range(40):
        a, b = random_matrix(rng), random_matrix(rng)
        x = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                             rng.randint(-2, 2))
        y = rng.randint(-3, 3)
        p = cst.scale(x) + y
        R = {"A": a, "B": b}
        ab = bracket(a, b)
        want = {exp: m for exp, m in (((1, 0, 0, 0, 0), ab.scale(x)),
                                      ((0, 0, 0, 0, 0), ab.scale(y))) if m}
        assert evaluate_op(Lin(((p, Brk(Sym("A"), Sym("B"))),)), R) == want
        assert evaluate_op(Brk(Lin(((p, Sym("A")),)), Sym("B")), R) == want
        assert evaluate_op(Brk(Lin(((p, Sym("A")), (1, Sym("B")))), Sym("B")), R) == want
        assert evaluate_op(Lin(((p, Sym("A")), (-p, Sym("A")))), R) == {}


def test_matrix_polynomial_evaluates_at_cst():
    cst = Poly.var("cst")
    R = {"A": SparseMat(2, {(0, 1): 1}), "B": SparseMat(2, {(1, 0): GaussianRational(0, 1)})}
    mapped = evaluate_op(Lin(((cst, Sym("A")),)), R)
    assert evaluate_at(mapped, 2, {"cst": 3}) == SparseMat(2, {(0, 1): 3})
    mapped = evaluate_op(Lin(((cst * cst + 1, Sym("A")), (cst, Sym("B")))), R)
    assert evaluate_at(mapped, 2, {"cst": -2}) == \
        SparseMat(2, {(0, 1): 5, (1, 0): GaussianRational(0, -2)})
    assert evaluate_at(mapped, 2, {"cst": GaussianRational(0, 1)}) == \
        SparseMat(2, {(1, 0): -1})
    assert evaluate_at({}, 2, {"cst": 3}) == SparseMat.zero(2)


# -- Fourier-conjugate triples ------------------------------------------------------


def test_build_triple_checks_and_frozen_spectra():
    space = llv_model_space(6, t=2)
    ops = OperatorTable(space, standard_quadruple(space))
    data = build_triple(ops, c0=1, c1=1)
    assert all_hold(verify_theta_replay(data, 2) + data.checks) == 10
    assert isinstance(data, TripleData)
    P = primed_operators(ops, 1)
    assert data.P == P
    assert evaluate_op(data.E0_expr, P) == constant(data.E0)

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


def test_triple_H0_ladder_in_cst():
    # [D, F0] = -2 F0 holds identically in the undetermined constant
    space = llv_model_space(6, t=2)
    quad = standard_quadruple(space)
    data = build_triple(OperatorTable(space, quad), c0=-1, c1=1)
    lhs = bracket(data.D, data.F0)
    assert lhs == data.F0.scale(-2)
    assert op_K(space, quad[0], quad[1]).scale(I) == data.D
