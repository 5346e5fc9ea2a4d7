"""Quadratic spaces with hyperbolic pairs and the Fourier isometry."""

from fractions import Fraction

import pytest

from test_sparse import apply

from beauville_lab.lincomb import add_into
from beauville_lab.mukai import (ALPHA, BETA, HYP, THETA, MukaiSpace,
                                 barred_fourier_matrix, fourier_matrix,
                                 is_isometry, llv_model_space,
                                 mukai_class_space, theta_bar, to_barred)
from beauville_lab.scalars import GaussianRational
from beauville_lab.sparse import SparseMat

GR = GaussianRational


def pairing(space, u, v):
    """(u, v) straight from the Gram matrix: the tests' orthogonality oracle."""
    return sum((c * d * space.gram[space.index(l)][space.index(m)]
                for l, c in u.items() for m, d in v.items()), GR(0))


def vec_add(u, v):
    return add_into(dict(u), v.items())


def apply_matrix(space, m, v):
    """m times the vector v, with v's labels read as positions in space."""
    image = apply(m, {space.index(label): c for label, c in v.items()})
    return {space.labels[k]: c for k, c in image.items()}


def hyperbolic_gram(pairs, n, diag=()):
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i, j, val in pairs:
        gram[i][j] = gram[j][i] = Fraction(val)
    for i, val in diag:
        gram[i][i] = Fraction(val)
    return tuple(tuple(row) for row in gram)


# -- construction and validation ---------------------------------------------


def test_builders_shapes():
    space = llv_model_space(6, t=2)
    assert space.labels == (ALPHA, "m1", "m2", "m3", "m4", BETA)
    assert space.dim == 6
    assert space.genus is None
    m2 = space.basis_vector("m2")
    assert pairing(space, m2, m2) == GR(2)
    assert pairing(space, space.basis_vector(ALPHA), space.basis_vector(BETA)) == GR(-1)

    mk = mukai_class_space(5, extra=2, t=Fraction(-3))
    assert mk.labels == (ALPHA, BETA, THETA, HYP, "m1", "m2")
    assert mk.genus == 5
    m1 = mk.basis_vector("m1")
    assert pairing(mk, m1, m1) == GR(-3)
    assert pairing(mk, mk.basis_vector(THETA), mk.basis_vector(HYP)) == GR(1)


def test_llv_model_space_needs_a_middle():
    with pytest.raises(ValueError):
        llv_model_space(2)


def test_duplicate_labels_rejected():
    gram = hyperbolic_gram([(0, 1, -1)], 3, [(2, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        MukaiSpace((ALPHA, BETA, BETA), gram)


def test_gram_shape_and_symmetry_rejected():
    with pytest.raises(ValueError, match="shape"):
        MukaiSpace((ALPHA, BETA), ((Fraction(0),),))
    bad = (
        (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(0)),
    )
    with pytest.raises(ValueError, match="symmetric"):
        MukaiSpace((ALPHA, BETA), bad)


def test_distinguished_pair_constraints():
    gram = hyperbolic_gram([(0, 1, -1)], 2)
    with pytest.raises(ValueError, match="missing distinguished"):
        MukaiSpace(("x", BETA), gram)
    with pytest.raises(ValueError, match="isotropic"):
        MukaiSpace((ALPHA, BETA), hyperbolic_gram([(0, 1, -1)], 2, [(0, 2)]))
    with pytest.raises(ValueError, match="must be -1"):
        MukaiSpace((ALPHA, BETA), hyperbolic_gram([(0, 1, 1)], 2))
    with pytest.raises(ValueError, match="orthogonal to the middle"):
        MukaiSpace((ALPHA, BETA, "m1"),
                   hyperbolic_gram([(0, 1, -1), (0, 2, 1)], 3, [(2, 1)]))


def test_theta_needs_hyp_and_unit_pairing():
    gram = hyperbolic_gram([(0, 1, -1)], 3, [(2, 2)])
    with pytest.raises(ValueError, match="come together"):
        MukaiSpace((ALPHA, BETA, THETA), gram)
    bad = hyperbolic_gram([(0, 1, -1), (2, 3, -1)], 4)
    with pytest.raises(ValueError, match=r"must be \+1"):
        MukaiSpace((ALPHA, BETA, THETA, HYP), bad)


def test_json_round_trip():
    for space in (mukai_class_space(7, extra=3, t=Fraction(5, 2)),
                  llv_model_space(6, t=2)):
        assert MukaiSpace.from_json(space.to_json()) == space


# -- vector helpers ------------------------------------------------------------


def test_vec_helpers():
    u = {ALPHA: GR(1), BETA: GR(Fraction(1, 2))}
    v = {BETA: GR(Fraction(-1, 2)), THETA: GR(3)}
    assert vec_add(u, v) == {ALPHA: GR(1), THETA: GR(3)}
    # the engine's covector against the Gram-matrix oracle
    space = mukai_class_space(4, extra=1, t=Fraction(2, 3))
    w = {ALPHA: GR(2), THETA: GR(0, 1), "m1": GR(Fraction(-1, 2))}
    covector = space.covector(w)
    for label in space.labels:
        assert covector.get(label, GR(0)) == pairing(space, w, space.basis_vector(label))


# -- Fourier isometry ------------------------------------------------------------


def test_fourier_matrix_frozen_images_genus2():
    space = mukai_class_space(2)
    mat = fourier_matrix(space, c0=1, c1=1)
    img = lambda label: apply_matrix(space, mat, space.basis_vector(label))
    assert img(ALPHA) == {THETA: GR(-1), BETA: GR(Fraction(3, 2))}
    assert img(BETA) == {HYP: GR(1)}
    assert img(THETA) == {ALPHA: GR(1), HYP: GR(Fraction(-3, 2))}
    assert img(HYP) == {BETA: GR(-1)}


def test_fourier_middle_scaling_and_sign_flip():
    space = mukai_class_space(3, extra=2, t=1)
    mat = fourier_matrix(space, c0=-1, c1=-1)
    img = lambda label: apply_matrix(space, mat, space.basis_vector(label))
    assert img("m1") == {"m1": GR(-1)}
    assert img(ALPHA) == {THETA: GR(1), BETA: GR(-2)}
    assert img(BETA) == {HYP: GR(-1)}


def test_fourier_is_isometry_for_all_genera_and_signs():
    for g in range(2, 13):
        space = mukai_class_space(g, extra=1, t=Fraction(2))
        for c0 in (1, -1):
            for c1 in (1, -1):
                assert is_isometry(space, fourier_matrix(space, c0, c1))


def test_fourier_squared_is_minus_one_on_beta_hyp():
    for g in (2, 5, 12):
        space = mukai_class_space(g)
        for c0 in (1, -1):
            mat = fourier_matrix(space, c0, 1)
            sq = mat @ mat
            for label in (BETA, HYP):
                v = space.basis_vector(label)
                assert apply_matrix(space, sq, v) == {lab: -c for lab, c in v.items()}


def test_fourier_preserves_pairing_on_vectors():
    space = mukai_class_space(4, extra=1, t=3)
    mat = fourier_matrix(space, c0=1, c1=-1)
    u = {ALPHA: GR(2), THETA: GR(Fraction(1, 3)), "m1": GR(-1)}
    v = {BETA: GR(1), HYP: GR(5), "m1": GR(Fraction(1, 2))}
    fu, fv = apply_matrix(space, mat, u), apply_matrix(space, mat, v)
    assert pairing(space, fu, fv) == pairing(space, u, v)


def test_fourier_matrix_requirements():
    with pytest.raises(ValueError, match="c0 must be"):
        fourier_matrix(mukai_class_space(2), 2, 1)
    space = llv_model_space(6)
    with pytest.raises(ValueError, match="needs Theta"):
        fourier_matrix(space, 1, 1)
    no_genus = mukai_class_space(2)
    no_genus = MukaiSpace(no_genus.labels, no_genus.gram, None)
    with pytest.raises(ValueError, match="needs a genus"):
        fourier_matrix(no_genus, 1, 1)


def test_is_isometry_rejects_scaling():
    space = mukai_class_space(2)
    assert not is_isometry(space, SparseMat.identity(space.dim).scale(2))


def test_gram_matrix_is_built_once_per_space():
    space = mukai_class_space(3, extra=1, t=Fraction(2, 3))
    assert space.gram_matrix is space.gram_matrix
    assert space.gram_matrix == SparseMat(space.dim, {
        (r, c): GR(x) for r, row in enumerate(space.gram) for c, x in enumerate(row) if x})


# -- barred coordinates ---------------------------------------------------------


def test_theta_bar_matches_fourier_image_of_alpha():
    for g in (2, 3, 9):
        space = mukai_class_space(g)
        for c0 in (1, -1):
            mat = fourier_matrix(space, c0, 1)
            assert apply_matrix(space, mat, space.basis_vector(ALPHA)) == theta_bar(space, c0)


def test_to_barred_round_trip():
    for g in (2, 4, 7):
        space = mukai_class_space(g)
        for c0 in (1, -1):
            # Theta = -c0*ThetaBar + (g+1)/2 * beta
            assert to_barred(space, space.basis_vector(THETA), c0) == {
                "ThetaBar": GR(-c0),
                BETA: GR(Fraction(g + 1, 2)),
            }
            # the barred divisor itself has barred coordinates (1)*ThetaBar
            assert to_barred(space, theta_bar(space, c0), c0) == {"ThetaBar": GR(1)}
            kept = {ALPHA: GR(2), HYP: GR(Fraction(-1, 3))}
            assert to_barred(space, kept, c0) == kept


def test_barred_fourier_matrix_matches_the_vector_route():
    # column j of Binv F B against the barred coordinates of F(v_j), read
    # vector by vector as the triple suite once did, and F itself against
    # its formula on Fraction entries through the checked constructor
    barred_index = {ALPHA: 0, BETA: 1, "ThetaBar": 2, HYP: 3}
    for g in range(2, 33):
        for extra in (0, 2):
            space = mukai_class_space(g, extra=extra, t=3)
            middles = range(4, 4 + extra)
            for c0 in (1, -1):
                half = Fraction(c0 * (g + 1), 2)
                vectors = (space.basis_vector(ALPHA), space.basis_vector(BETA),
                           theta_bar(space, c0), space.basis_vector(HYP))
                for c1 in (1, -1):
                    F = fourier_matrix(space, c0, c1)
                    assert F == SparseMat(space.dim, {
                        (2, 0): -c0, (1, 0): half, (3, 1): c0, (0, 2): c0, (3, 2): -half,
                        (1, 3): -c0, **{(k, k): c1 for k in middles}}), (g, extra, c0, c1)
                    barred = barred_fourier_matrix(space, c0, F)
                    for j, v in enumerate(vectors):
                        coords = to_barred(space, apply_matrix(space, F, v), c0)
                        column = {barred_index[label]: c for label, c in coords.items()}
                        assert column == {r: x for (r, c), x in barred.entries.items()
                                          if c == j}, (g, extra, c0, c1, j)
                    assert {(r, c): x for (r, c), x in barred.entries.items()
                            if r > 3 or c > 3} == {(k, k): GR(c1) for k in middles}


def test_barred_fourier_matrix_keeps_extra_middles():
    space = mukai_class_space(5, extra=2, t=3)
    for c0 in (1, -1):
        for c1 in (1, -1):
            barred = barred_fourier_matrix(space, c0, fourier_matrix(space, c0, c1))
            assert {(r, c): x for (r, c), x in barred.entries.items() if r > 3 or c > 3} == {
                (4, 4): GR(c1), (5, 5): GR(c1)}


def test_to_barred_rejects_extra_middles():
    space = mukai_class_space(2, extra=1, t=2)
    with pytest.raises(ValueError, match="outside the span"):
        to_barred(space, space.basis_vector("m1"), 1)
