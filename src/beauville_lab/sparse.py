"""Sparse exact matrices over the Gaussian rationals and Lie-bracket helpers.

A matrix is stored as one positive integer denominator `den` and a dict
`num` of Gaussian-integer numerators {(row, col): (re, im)}, with entry
(re + im*i)/den at (row, col).  The denominator and the numerators are
normalized to have no common factor (`scalars.lowest_terms`, the normal
form `Poly` shares), so == and hash are structural.  Linear
combinations (`combination`, which + and - use), products, scalings and
brackets work on ints only; `entries` reads the matrix back as
{(row, col): GaussianRational}.

The first time a matrix is a factor of a product it builds a row index
{row: [(col, re, im)]} of its numerators, with a flag for a real matrix, and
keeps it in a private slot; a value never changes, so the index stays valid.
`@`, `bracket` and `bracket_is` share one product loop on these indexes, and
a product of real factors costs one integer multiplication per term pair.
`bracket_is(x, y, c, m)` decides xy - yx == c*m by accumulating both
products and -c*m over one common denominator and testing every sum for
zero, without building the bracket.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Dict, Tuple

from .scalars import GaussianRational, common_denominator, integer_parts, lowest_terms
from .scalars import _make as _gaussian

Entry = Tuple[int, int]
Numerators = Dict[Entry, Tuple[int, int]]


class _Entries(Mapping):
    """Read-only {(row, col): GaussianRational} view of a matrix; each
    entry is built when it is read."""

    __slots__ = ("_den", "_num")

    def __init__(self, den: int, num: Numerators):
        self._den = den
        self._num = num

    def __getitem__(self, pos: Entry) -> GaussianRational:
        re, im = self._num[pos]
        return _gaussian(Fraction(re, self._den), Fraction(im, self._den))

    # Mapping's get and `in` go through __getitem__ and catch its KeyError
    def get(self, pos: Entry, default=None):
        parts = self._num.get(pos)
        if parts is None:
            return default
        return _gaussian(Fraction(parts[0], self._den), Fraction(parts[1], self._den))

    def __contains__(self, pos) -> bool:
        return pos in self._num

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


class SparseMat:
    """dim x dim matrix over Q(i), num/den with num = {(row, col): (re, im)}."""

    # _rows: the row index, None until the matrix is first a factor
    __slots__ = ("dim", "den", "num", "_rows")
    kind = "operator"

    def __init__(self, dim: int, entries: Dict[Entry, object] | None = None):
        parts = {}
        for (r, c), v in (entries or {}).items():
            re, im, den = integer_parts(v)
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r},{c}) outside dimension {dim}")
            if re or im:
                parts[(r, c)] = (re, im, den)
        _init(self, dim, *common_denominator(parts))

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    @property
    def entries(self) -> Mapping:
        return _Entries(self.den, self.num)

    @staticmethod
    def identity(dim: int) -> "SparseMat":
        return SparseMat(dim, {(k, k): 1 for k in range(dim)})

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return combination(self.dim, ((1, self), (1, other)))

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return combination(self.dim, ((1, self), (-1, other)))

    def __neg__(self) -> "SparseMat":
        return _make(self.dim, self.den,
                     {pos: (-re, -im) for pos, (re, im) in self.num.items()})

    def scale(self, factor) -> "SparseMat":
        p, q, s = integer_parts(factor)
        if not (p or q):
            return _make(self.dim, 1, {})
        return _normal(self.dim, self.den * s, {
            pos: (a * p - b * q, a * q + b * p) for pos, (a, b) in self.num.items()})

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        real, _ = self._rows or _row_index(self)
        other_real, rows = other._rows or _row_index(other)
        real = real and other_real
        return _sum_matrix(self.dim, self.den * other.den, real,
                           _accumulate({}, self.dim, real, ((1, self.num, rows),)))

    # the ring product of operators is composition
    __mul__ = __matmul__

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def transpose(self) -> "SparseMat":
        return _make(self.dim, self.den, {(c, r): v for (r, c), v in self.num.items()})

    def __str__(self):
        entries = self.entries
        lines = []
        for r in range(self.dim):
            row = [str(entries.get((r, c), 0)) for c in range(self.dim)]
            lines.append("[" + ", ".join(row) + "]")
        return "\n".join(lines)

    def __repr__(self):
        return f"SparseMat(dim={self.dim}, nnz={len(self.num)})"


_new = object.__new__
_set_dim = SparseMat.dim.__set__
_set_den = SparseMat.den.__set__
_set_num = SparseMat.num.__set__
_set_rows = SparseMat._rows.__set__


def _init(m: SparseMat, dim: int, den: int, num: Numerators) -> SparseMat:
    _set_dim(m, dim)
    _set_den(m, den)
    _set_num(m, num)
    _set_rows(m, None)
    return m


def _make(dim: int, den: int, num: Numerators) -> SparseMat:
    """The engine's own constructor for numerators that are already normal
    (no factor common to den and all of them); it checks and copies
    nothing."""
    return _init(_new(SparseMat), dim, den, num)


def _normal(dim: int, den: int, num: Numerators) -> SparseMat:
    """num/den, for num without zero numerators, in lowest terms."""
    return _make(dim, *lowest_terms(den, num))


def combination(dim: int, terms) -> SparseMat:
    """The sum of c * m over the (c, m) of terms, for int, Fraction or
    GaussianRational coefficients c: every term is brought to one common
    denominator and the sum is normalized once.  ValueError for a term of
    another dimension."""
    scaled = []
    for c, m in terms:
        if m.dim != dim:
            raise ValueError("dimension mismatch")
        p, q, s = integer_parts(c)
        if p or q:
            scaled.append((p, q, s * m.den, m.num))
    den = lcm(*(d for _, _, d, _ in scaled))
    acc: Dict[Entry, list] = {}   # mutable [re, im] sums
    get = acc.get
    for p, q, d, num in scaled:
        k = den // d
        p, q = p * k, q * k
        for pos, (a, b) in num.items():
            old = get(pos)
            if old is None:
                acc[pos] = [a * p - b * q, a * q + b * p]
            else:
                old[0] += a * p - b * q
                old[1] += a * q + b * p
    return _normal(dim, den, {pos: (re, im) for pos, (re, im) in acc.items() if re or im})


def _row_index(m: SparseMat):
    """(real, {row: [(col, re, im)]}) for m's numerators, kept on m; callers
    read a kept index as `m._rows or _row_index(m)`."""
    rows: Dict[int, list] = {}
    real = True
    for (r, c), (re, im) in m.num.items():
        rows.setdefault(r, []).append((c, re, im))
        if im:
            real = False
    index = (real, rows)
    _set_rows(m, index)
    return index


def _accumulate(acc: dict, dim: int, real: bool, terms) -> dict:
    """acc plus k * left @ right on numerators, for the (k, left numerators,
    right row index) of terms, with int k.  acc is keyed by row * dim + col;
    it holds int sums when real (every factor is real, and so is acc), else
    mutable [re, im] sums."""
    get = acc.get
    for k, left, rows in terms:
        if real:
            for (r, j), (a, _) in left.items():
                row = rows.get(j)
                if row is not None:
                    a *= k
                    base = r * dim
                    for c, x, _ in row:
                        key = base + c
                        acc[key] = get(key, 0) + a * x
            continue
        for (r, j), (a, b) in left.items():
            row = rows.get(j)
            if row is None:
                continue
            a, b = a * k, b * k
            base = r * dim
            for c, x, y in row:
                key = base + c
                old = get(key)
                if old is None:
                    acc[key] = [a * x - b * y, a * y + b * x]
                else:
                    old[0] += a * x - b * y
                    old[1] += a * y + b * x
    return acc


def _sum_matrix(dim: int, den: int, real: bool, acc: dict) -> SparseMat:
    """The matrix of the sums of _accumulate over den."""
    if real:
        num = {divmod(key, dim): (re, 0) for key, re in acc.items() if re}
    else:
        num = {divmod(key, dim): (re, im) for key, (re, im) in acc.items() if re or im}
    return _normal(dim, den, num)


def bracket(a: SparseMat, b: SparseMat) -> SparseMat:
    """The commutator ab - ba, both products over one denominator."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    a_real, a_rows = a._rows or _row_index(a)
    b_real, b_rows = b._rows or _row_index(b)
    real = a_real and b_real
    return _sum_matrix(a.dim, a.den * b.den, real, _accumulate(
        {}, a.dim, real, ((1, a.num, b_rows), (-1, b.num, a_rows))))


def bracket_is(x: SparseMat, y: SparseMat, c=0, m: SparseMat | None = None) -> bool:
    """Whether xy - yx == c*m, for an int, Fraction or GaussianRational c
    (m = None or c = 0 asks for zero): both products and -c*m are summed on
    numerators over one common denominator, and every sum must vanish.
    ValueError for operands of different dimensions."""
    if x.dim != y.dim or (m is not None and m.dim != x.dim):
        raise ValueError("dimension mismatch")
    x_real, x_rows = x._rows or _row_index(x)
    y_real, y_rows = y._rows or _row_index(y)
    real = x_real and y_real
    dim, den = x.dim, x.den * y.den
    p, q, s = (c, 0, 1) if type(c) is int else integer_parts(c)
    k = 1
    acc: dict = {}
    if m is not None and (p or q) and m.num:
        # over D = lcm(den, s * m.den) the products gain k = D / den and
        # c*m gains D / (s * m.den)
        target_den = s * m.den
        common = lcm(den, target_den)
        k, scale = common // den, common // target_den
        p, q = -p * scale, -q * scale
        if real and not q and (m._rows or _row_index(m))[0]:
            acc = {r * dim + col: a * p for (r, col), (a, _) in m.num.items()}
        else:
            real = False
            acc = {r * dim + col: [a * p - b * q, a * q + b * p]
                   for (r, col), (a, b) in m.num.items()}
    _accumulate(acc, dim, real, ((k, x.num, y_rows), (-k, y.num, x_rows)))
    if real:
        return not any(acc.values())
    return not any(re or im for re, im in acc.values())
