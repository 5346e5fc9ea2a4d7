"""Exact sparse matrices: products, brackets, rank, weight decomposition."""

import random
from fractions import Fraction

import pytest

from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational
from beauville_lab.sparse import (SparseMat, bracket, kernel_dimension, rank,
                                  weight_decompose)


def random_matrix(rng: random.Random, dim: int = 6, fill: int = 8) -> SparseMat:
    entries = {}
    for _ in range(fill):
        r, c = rng.randrange(dim), rng.randrange(dim)
        entries[(r, c)] = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    return SparseMat(dim, entries)


def test_identity_and_diagonal():
    ident = SparseMat.identity(3)
    d = SparseMat.diagonal([GaussianRational(k) for k in (-2, 0, 2)])
    assert ident @ d == d
    assert d @ ident == d
    assert d.entries.get((1, 1)) is None


def test_matmul_oracle():
    # [[1,2],[0,1]] @ [[0,1],[1,0]] = [[2,1],[1,0]]
    a = SparseMat(2, {(0, 0): 1, (0, 1): 2, (1, 1): 1})
    b = SparseMat(2, {(0, 1): 1, (1, 0): 1})
    assert a @ b == SparseMat(2, {(0, 0): 2, (0, 1): 1, (1, 0): 1})


def test_add_scale_transpose():
    a = SparseMat(2, {(0, 1): 3})
    b = SparseMat(2, {(0, 1): -3})
    assert (a + b).entries == {}
    assert a.scale(GaussianRational(Fraction(1, 3))) == SparseMat(2, {(0, 1): 1})
    assert a.transpose() == SparseMat(2, {(1, 0): 3})


def test_apply():
    a = SparseMat(2, {(0, 1): 2, (1, 0): 1})
    v = {1: GaussianRational(3)}
    assert a.apply(v) == {0: GaussianRational(6)}


def test_jacobi_identity_on_100_random_triples():
    rng = random.Random(2026)
    for _ in range(100):
        a, b, c = (random_matrix(rng) for _ in range(3))
        total = (bracket(a, bracket(b, c))
                 + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total == SparseMat.zero(6)


def test_mixed_scalar_and_poly_entries():
    # a scalar entry defers to Poly, so one matrix may hold both kinds
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_matrix(rng), random_matrix(rng)
        x = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                             rng.randint(-2, 2))
        p = Poly({(1, 0, 0, 0, 0): x, (0, 0, 0, 0, 0): rng.randint(-3, 3)})
        assert bracket(a.scale(p), b) == bracket(a, b).scale(p)
        assert bracket(a.scale(p) + b, b) == bracket(a, b).scale(p)
        assert x + p == p + x
        assert x * p == p * x
    with pytest.raises(TypeError):
        GaussianRational(1) + "x"
    with pytest.raises(TypeError):
        GaussianRational(1) * "x"


def test_bracket_antisymmetry():
    rng = random.Random(7)
    for _ in range(20):
        a, b = random_matrix(rng), random_matrix(rng)
        assert bracket(a, b) == bracket(b, a).scale(GaussianRational(-1))


def test_rank_and_kernel():
    m = SparseMat(3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 5})
    assert rank(m) == 2
    assert kernel_dimension(m) == 1
    assert rank(SparseMat.zero(4)) == 0
    assert rank(SparseMat.identity(4)) == 4


def test_rank_rejects_polynomial_entries():
    m = SparseMat(2, {(0, 0): Poly.var("cst")})
    with pytest.raises((TypeError, ValueError)):
        rank(m)


def test_weight_decompose():
    h = SparseMat.diagonal([GaussianRational(w) for w in (-2, 0, 0, 2)])
    assert weight_decompose(h) == {-2: 1, 0: 2, 2: 1}


def test_substitute_polynomial_entries():
    m = SparseMat(2, {(0, 1): Poly.var("cst")})
    sub = m.substitute("cst", Poly.const(3))
    assert sub == SparseMat(2, {(0, 1): Poly.const(3)})


def test_matrix_immutable():
    m = SparseMat.identity(2)
    with pytest.raises(AttributeError):
        m.dim = 3
