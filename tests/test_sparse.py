"""Exact sparse matrices: products, brackets, rank, weight decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from beauville_lab import sparse
from beauville_lab.lincomb import add_into
from beauville_lab.llv import OperatorTable, op_e, op_h, random_quadruple, run_triple_suite
from beauville_lab.mukai import llv_model_space
from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational
from beauville_lab.sparse import SparseMat, bracket, bracket_is, combination, combination_is_zero


def random_matrix(rng: random.Random, dim: int = 6, fill: int = 8) -> SparseMat:
    entries = {}
    for _ in range(fill):
        r, c = rng.randrange(dim), rng.randrange(dim)
        entries[(r, c)] = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    return SparseMat(dim, entries)


def rank(m: SparseMat) -> int:
    """Exact rank over Q(i) by Gaussian elimination on dense rows."""
    zero = GaussianRational(0)
    rows = [[zero] * m.dim for _ in range(m.dim)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    n = m.dim
    rnk = 0
    col = 0
    while rnk < n and col < n:
        pivot = next((r for r in range(rnk, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        rows[rnk], rows[pivot] = rows[pivot], rows[rnk]
        inv = rows[rnk][col].inverse()
        rows[rnk] = [inv * x for x in rows[rnk]]
        for r in range(n):
            if r != rnk and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rnk])]
        rnk += 1
        col += 1
    return rnk


def diagonal(values) -> SparseMat:
    values = list(values)
    return SparseMat(len(values), {(k, k): v for k, v in enumerate(values)})


def apply(m: SparseMat, vec: dict) -> dict:
    """m times the sparse column vector vec = {index: value}, entry by entry."""
    return add_into({}, ((r, v * vec[c]) for (r, c), v in m.entries.items() if c in vec))


def kernel_dimension(m: SparseMat) -> int:
    return m.dim - rank(m)


def weight_decompose(h: SparseMat, bound: int = 8) -> dict:
    """Eigenspace dimensions of a diagonalizable integer-weight operator.

    Probes ker(h - w*id) for integer w in [-bound, bound]; checks the
    dimensions exhaust the space and are symmetric about zero.
    """
    spectrum = {}
    for w in range(-bound, bound + 1):
        dim = kernel_dimension(h - SparseMat.identity(h.dim).scale(w))
        if dim:
            spectrum[w] = dim
    total = sum(spectrum.values())
    if total != h.dim:
        raise ValueError(
            f"weights in [-{bound},{bound}] span {total} of {h.dim} dimensions"
        )
    for w, d in spectrum.items():
        if spectrum.get(-w, 0) != d:
            raise ValueError(f"weight spectrum not symmetric: {spectrum}")
    return spectrum


def test_identity_and_diagonal():
    ident = SparseMat.identity(3)
    d = diagonal([GaussianRational(k) for k in (-2, 0, 2)])
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
    assert apply(a, v) == {0: GaussianRational(6)}


def test_jacobi_identity_on_100_random_triples():
    rng = random.Random(2026)
    for _ in range(100):
        a, b, c = (random_matrix(rng) for _ in range(3))
        total = (bracket(a, bracket(b, c))
                 + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total == SparseMat(6)


def test_bracket_antisymmetry():
    rng = random.Random(7)
    for _ in range(20):
        a, b = random_matrix(rng), random_matrix(rng)
        assert bracket(a, b) == bracket(b, a).scale(GaussianRational(-1))


def test_rank_and_kernel():
    m = SparseMat(3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 5})
    assert rank(m) == 2
    assert kernel_dimension(m) == 1
    assert rank(SparseMat(4)) == 0
    assert rank(SparseMat.identity(4)) == 4


def test_constructor_rejects_polynomial_entries():
    # a matrix holds scalars only: cst lives in llv's matrix polynomials
    with pytest.raises(TypeError):
        SparseMat(2, {(0, 0): Poly.var("b")})
    with pytest.raises(TypeError):
        SparseMat.identity(2).scale(Poly.var("b"))
    with pytest.raises(TypeError):
        diagonal([1, Poly.const(1)])


def test_weight_decompose():
    h = diagonal([GaussianRational(w) for w in (-2, 0, 0, 2)])
    assert weight_decompose(h) == {-2: 1, 0: 2, 2: 1}


def test_matrix_immutable():
    m = SparseMat.identity(2)
    with pytest.raises(AttributeError):
        m.dim = 3


# -- the dict-of-GaussianRational kernel, kept as the reference ----------------------


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for pos, v in b.items():
        out[pos] = out[pos] + v if pos in out else v
    return {pos: v for pos, v in out.items() if v}


def ref_scale(a: dict, factor) -> dict:
    return {pos: factor * v for pos, v in a.items() if factor * v}


def ref_matmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (r, k), v in a.items():
        for (k2, c), w in b.items():
            if k == k2:
                out[(r, c)] = out[(r, c)] + v * w if (r, c) in out else v * w
    return {pos: v for pos, v in out.items() if v}


def ref_str(dim: int, a: dict) -> str:
    return "\n".join("[" + ", ".join(str(a.get((r, c), 0)) for c in range(dim)) + "]"
                     for r in range(dim))


parts = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 9)))
scalars = st.one_of(st.builds(GaussianRational, parts),
                    st.builds(GaussianRational, parts, parts),
                    st.integers(-3, 3))


@st.composite
def matrix_pairs(draw):
    """Two entry dicts of one dimension, with zeros, mixed denominators,
    imaginary parts and some entries of b cancelling those of a."""
    dim = draw(st.integers(1, 4))
    positions = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    a = draw(st.dictionaries(positions, scalars, max_size=dim * dim))
    b = draw(st.dictionaries(positions, scalars, max_size=dim * dim))
    for pos in draw(st.sets(st.sampled_from(sorted(a)))) if a else ():
        b[pos] = -GaussianRational.coerce(a[pos])
    clean = [{pos: GaussianRational.coerce(v) for pos, v in m.items() if v} for m in (a, b)]
    return dim, a, b, clean[0], clean[1]


@settings(max_examples=200, deadline=None)
@given(matrix_pairs(), scalars)
def test_kernel_matches_the_reference(pair, factor):
    dim, a, b, ra, rb = pair
    A, B = SparseMat(dim, a), SparseMat(dim, b)
    factor = GaussianRational.coerce(factor)
    minus_one = GaussianRational(-1)
    expected = {
        "+": (A + B, ref_add(ra, rb)),
        "-": (A - B, ref_add(ra, ref_scale(rb, minus_one))),
        "@": (A @ B, ref_matmul(ra, rb)),
        "scale": (A.scale(factor), ref_scale(ra, factor)),
        "bracket": (bracket(A, B), ref_add(ref_matmul(ra, rb),
                                           ref_scale(ref_matmul(rb, ra), minus_one))),
        "neg": (-A, ref_scale(ra, minus_one)),
        "transpose": (A.transpose(), {(c, r): v for (r, c), v in ra.items()}),
    }
    for op, (got, want) in expected.items():
        assert dict(got.entries) == want, op
        rebuilt = SparseMat(dim, want)
        assert got == rebuilt and hash(got) == hash(rebuilt), op
        assert str(got) == ref_str(dim, want), op
        assert bool(got) == bool(want), op
    # the entries round trip, and == agrees with the entries
    assert dict(A.entries) == ra and SparseMat(dim, A.entries) == A
    assert (A == B) == (ra == rb)
    assert (A + B) - B == A and hash((A + B) - B) == hash(A)


coefficients = st.one_of(st.integers(-3, 3), parts,
                         st.builds(GaussianRational, parts, parts))


@settings(max_examples=200, deadline=None)
@given(matrix_pairs(), st.lists(coefficients, min_size=3, max_size=3), st.booleans())
def test_combination_is_the_fold_of_scale_and_add(pair, coeffs, cancel):
    dim, a, b, ra, rb = pair
    A, B = SparseMat(dim, a), SparseMat(dim, b)
    terms = list(zip(coeffs, (A, B, A)))
    if cancel:
        # the last term takes back the first, so the terms can sum to zero
        terms[2] = (-GaussianRational.coerce(coeffs[0]), A)
    got = combination(dim, terms)
    folded, reference = SparseMat(dim), {}
    for c, m in terms:
        folded = folded + m.scale(c)
        reference = ref_add(reference, ref_scale(dict(m.entries), GaussianRational.coerce(c)))
    assert got == folded and hash(got) == hash(folded)
    assert dict(got.entries) == reference
    assert got == SparseMat(dim, reference) and got.den == SparseMat(dim, reference).den


@settings(max_examples=300, deadline=None)
@given(matrix_pairs(), st.lists(st.tuples(coefficients, st.sampled_from("ab")), max_size=4),
       st.booleans())
def test_combination_is_zero_decides_the_built_combination(pair, picks, cancel):
    # int, Fraction and GaussianRational coefficients over mixed
    # denominators, real and complex entries, no terms, and terms that cancel
    dim, a, b, _, _ = pair
    matrices = {"a": SparseMat(dim, a), "b": SparseMat(dim, b)}
    terms = [(c, matrices[name]) for c, name in picks]
    if cancel:
        terms += [(-GaussianRational.coerce(c), m) for c, m in terms]
    assert combination_is_zero(dim, terms) == combination(dim, terms).is_zero()
    assert combination_is_zero(dim, terms) or not cancel


def test_combination_edge_cases():
    a = SparseMat(2, {(0, 1): Fraction(1, 2), (1, 0): GaussianRational(0, 3)})
    assert combination(2, []) == SparseMat(2) and combination(2, []).den == 1
    assert combination(2, [(0, a), (Fraction(0), a), (GaussianRational(0), a)]).is_zero()
    assert combination(2, [(Fraction(2, 3), a), (Fraction(-2, 3), a)]) == SparseMat(2)
    assert combination(2, [(1, a), (GaussianRational(0, 1), a)]) == a.scale(
        GaussianRational(1, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        combination(2, [(1, a), (1, SparseMat.identity(3))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        combination(3, [(1, a)])
    assert combination_is_zero(2, [])
    assert combination_is_zero(2, [(Fraction(2, 3), a), (-1, a.scale(Fraction(2, 3)))])
    assert not combination_is_zero(2, [(1, a), (GaussianRational(0, 1), a)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        combination_is_zero(2, [(1, a), (1, SparseMat.identity(3))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        combination_is_zero(3, [(1, a)])


def test_entries_are_a_read_only_view():
    m = SparseMat(2, {(0, 1): Fraction(1, 2), (1, 0): GaussianRational(0, Fraction(2, 3))})
    assert (m.den, m.num) == (6, {(0, 1): (3, 0), (1, 0): (0, 4)})
    assert m.entries == {(0, 1): GaussianRational(Fraction(1, 2)),
                         (1, 0): GaussianRational(0, Fraction(2, 3))}
    assert (1, 1) not in m.entries and len(m.entries) == 2
    with pytest.raises(TypeError):
        m.entries[(1, 1)] = GaussianRational(1)
    # normal form: the zero matrix has denominator 1 however it was reached
    assert (m - m).den == 1 and m - m == SparseMat(2)


def test_verbitsky_brackets_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(m: SparseMat):
        out = sympy.zeros(m.dim, m.dim)
        for (r, c), v in m.entries.items():
            out[r, c] = (sympy.Rational(v.re.numerator, v.re.denominator)
                         + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator))
        return out

    space = llv_model_space(10, Fraction(3, 2))
    quad = random_quadruple(space, seed=5)
    table = OperatorTable(space, quad)
    e = [to_sympy(op_e(space, v)) for v in quad]
    f = [to_sympy(table.f(i)) for i in range(1, 5)]
    h = to_sympy(op_h(space))

    def br(x, y):
        return (x * y - y * x).expand()

    K = {(i, j): br(e[i], f[j]) for i in range(4) for j in range(4) if i != j}
    for i in range(4):
        assert br(e[i], f[i]) == h
    for (i, j), k in ((0, 1), 2), ((1, 3), 0), ((2, 0), 1):
        assert br(K[(i, j)], K[(j, k)]) == 2 * K[(i, k)]
        assert br(K[(i, j)], e[j]) == 2 * e[i]
        assert br(K[(i, j)], f[k]) == sympy.zeros(10, 10)
    # the engine's brackets are the same matrices
    ops = ([op_e(space, v) for v in quad], [table.f(i) for i in range(1, 5)])
    for (i, j), k_ij in K.items():
        assert to_sympy(bracket(ops[0][i], ops[1][j])) == k_ij


# -- bracket_is: one integer pass for [x, y] == c*m ------------------------------------


def real_part(m: SparseMat) -> SparseMat:
    return SparseMat(m.dim, {pos: v.re for pos, v in m.entries.items()})


@st.composite
def bracket_cases(draw):
    """(x, y, c, m) with x, y and m each real or complex, of different
    denominators; "holds" picks m so that [x, y] == c*m, "commuting" picks y
    so that [x, y] == 0 and takes m = None, which asks for zero,
    "imaginary" makes [x, y] purely imaginary, and the random shape takes
    m = None at times."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def matrix():
        m = random_matrix(rng)
        return real_part(m) if draw(st.booleans()) else m

    x, y, m = matrix(), matrix(), matrix()
    c = draw(coefficients)
    shape = draw(st.sampled_from(("random", "holds", "commuting", "imaginary")))
    if shape == "imaginary":
        x, y = real_part(x), real_part(y).scale(GaussianRational(0, 1))
    if shape == "commuting":
        y, m = combination(x.dim, ((c, x), (1, SparseMat.identity(x.dim)))), None
    elif shape == "holds" and c:
        m = bracket(x, y).scale(GaussianRational.coerce(c).inverse())
    elif shape == "random" and draw(st.booleans()):
        m = None
    return x, y, c, m, shape


@settings(max_examples=300, deadline=None)
@given(bracket_cases())
def test_bracket_is_decides_the_built_bracket(case):
    x, y, c, m, shape = case
    built = bracket(x, y)
    expected = built.is_zero() if m is None else built == m.scale(c)
    assert bracket_is(x, y, c, m) == expected
    if shape == "commuting" or (shape == "holds" and c):
        assert expected
    # a zero c asks for a zero bracket, whatever m is
    assert bracket_is(x, y, 0, m) == bracket_is(x, y) == built.is_zero()


def test_bracket_is_rejects_a_dimension_mismatch():
    two, three = SparseMat.identity(2), SparseMat.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        bracket_is(two, three)
    with pytest.raises(ValueError, match="dimension mismatch"):
        bracket_is(two, two, 1, three)
    with pytest.raises(ValueError, match="dimension mismatch"):
        bracket_is(two, two, 0, three)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_factor_keeps_its_value(seed, real):
    rng = random.Random(seed)
    x, y = random_matrix(rng), random_matrix(rng)
    if real:
        x, y = real_part(x), real_part(y)
    copies = [SparseMat(x.dim, dict(v.entries)) for v in (x, y)]
    before = [(v.dim, v.den, dict(v.num), hash(v), dict(v.entries)) for v in (x, y)]
    x @ y, bracket(x, y), bracket_is(x, y, Fraction(1, 3), y), bracket_is(y, x)
    after = [(v.dim, v.den, dict(v.num), hash(v), dict(v.entries)) for v in (x, y)]
    assert after == before
    # a matrix that was a factor equals one that never was, both ways
    for v, copy in zip((x, y), copies):
        assert v == copy and copy == v and hash(v) == hash(copy)
        assert v @ copy == copy @ v and bracket(v, copy).is_zero()
        for name in ("dim", "den", "num", "_rows"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)


def test_only_a_factor_read_by_rows_keeps_a_row_index(monkeypatch):
    calls = []
    index = sparse._row_index
    monkeypatch.setattr(sparse, "_row_index", lambda m: calls.append(m) or index(m))
    complex_left = SparseMat(2, {(0, 1): GaussianRational(1, 1)})
    left, right = SparseMat(2, {(0, 1): 1}), SparseMat(2, {(1, 0): 2})
    assert left @ right == SparseMat(2, {(0, 0): 2})
    assert (complex_left @ right).entries[(0, 0)] == GaussianRational(2, 2)
    assert bracket_is(left, right, 2, SparseMat(2, {(0, 0): 1, (1, 1): -1}))
    assert calls == [right, left] and complex_left._rows is None
    # the triple suite indexed 249 matrices when @ and bracket_is also
    # indexed the factors they read only the realness of
    calls.clear()
    run_triple_suite()
    assert len(calls) <= 161


def test_entries_get_and_in_read_the_numerators():
    m = SparseMat(3, {(0, 1): Fraction(1, 2), (2, 2): GaussianRational(0, 3)})
    entries = m.entries
    assert entries.get((0, 1)) == GaussianRational(Fraction(1, 2))
    assert entries.get((1, 1)) is None and entries.get((1, 1), 0) == 0
    assert (2, 2) in entries and (1, 2) not in entries and "x" not in entries
    assert str(m) == "[0, 1/2, 0]\n[0, 0, 0]\n[0, 0, 3i]"
