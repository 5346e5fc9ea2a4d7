"""Sparse exact matrices over the Gaussian rationals and Lie-bracket helpers.

A matrix is stored as one positive integer denominator `den` and a dict
`num` of Gaussian-integer numerators {(row, col): (re, im)}, with entry
(re + im*i)/den at (row, col).  The denominator and the numerators are
normalized to have no common factor, so == and hash are structural.  Sums,
products, scalings and brackets work on ints only; `entries` reads the
matrix back as {(row, col): GaussianRational}.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

from .lincomb import add_into
from .scalars import GaussianRational
from .scalars import _make as _gaussian

Entry = Tuple[int, int]
Numerators = Dict[Entry, Tuple[int, int]]


def _parts(x) -> Tuple[int, int, int]:
    """(re, im, den) with x = (re + im*i)/den and den = lcm of the
    denominators of x's parts; TypeError for a non-scalar x."""
    if type(x) is int:
        return x, 0, 1
    z = GaussianRational.coerce(x)
    den = lcm(z.re.denominator, z.im.denominator)
    return (z.re.numerator * (den // z.re.denominator),
            z.im.numerator * (den // z.im.denominator), den)


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

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


class SparseMat:
    """dim x dim matrix over Q(i), num/den with num = {(row, col): (re, im)}."""

    __slots__ = ("dim", "den", "num")

    def __init__(self, dim: int, entries: Dict[Entry, object] | None = None):
        parts = {}
        for (r, c), v in (entries or {}).items():
            re, im, den = _parts(v)
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r},{c}) outside dimension {dim}")
            if re or im:
                parts[(r, c)] = (re, im, den)
        den = lcm(*(d for _, _, d in parts.values()))
        # over the lcm of reduced denominators the numerators are coprime to it
        _init(self, dim, den, {pos: (re * (den // d), im * (den // d))
                               for pos, (re, im, d) in parts.items()})

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    @property
    def entries(self) -> Mapping:
        return _Entries(self.den, self.num)

    @staticmethod
    def zero(dim: int) -> "SparseMat":
        return SparseMat(dim)

    @staticmethod
    def identity(dim: int, scale=1) -> "SparseMat":
        return SparseMat(dim, {(k, k): scale for k in range(dim)})

    @staticmethod
    def diagonal(values) -> "SparseMat":
        vals = list(values)
        return SparseMat(len(vals), {(k, k): v for k, v in enumerate(vals)})

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return _sum(self, other, 1)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return _sum(self, other, -1)

    def __neg__(self) -> "SparseMat":
        return _make(self.dim, self.den,
                     {pos: (-re, -im) for pos, (re, im) in self.num.items()})

    def scale(self, factor) -> "SparseMat":
        p, q, s = _parts(factor)
        if not (p or q):
            return _make(self.dim, 1, {})
        return _normal(self.dim, self.den * s, {
            pos: (a * p - b * q, a * q + b * p) for pos, (a, b) in self.num.items()})

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _products(self.dim, self.den * other.den, ((1, self.num, other.num),))

    # the ring product of operators is composition
    __mul__ = __matmul__

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def apply(self, vec: Dict[int, object]) -> Dict[int, object]:
        """Matrix times sparse column vector {index: value}."""
        return add_into({}, ((r, v * vec[c])
                             for (r, c), v in self.entries.items() if c in vec))

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


def _init(m: SparseMat, dim: int, den: int, num: Numerators) -> SparseMat:
    _set_dim(m, dim)
    _set_den(m, den)
    _set_num(m, num)
    return m


def _make(dim: int, den: int, num: Numerators) -> SparseMat:
    """The engine's own constructor for numerators that are already normal
    (no factor common to den and all of them); it checks and copies
    nothing."""
    return _init(_new(SparseMat), dim, den, num)


def _normal(dim: int, den: int, num: Numerators) -> SparseMat:
    """num/den, for num without zero numerators, reduced by the gcd of den
    and every numerator."""
    g = den
    for re, im in num.values():
        g = gcd(g, re, im)
        if g == 1:
            return _make(dim, den, num)
    return _make(dim, den // g, {pos: (re // g, im // g) for pos, (re, im) in num.items()})


def _sum(a: SparseMat, b: SparseMat, sign: int) -> SparseMat:
    """a + sign*b over the lcm of the two denominators."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    den = lcm(a.den, b.den)
    ma, mb = den // a.den, sign * (den // b.den)
    out = {pos: (re * ma, im * ma) for pos, (re, im) in a.num.items()}
    get = out.get
    for pos, (re, im) in b.num.items():
        re, im = re * mb, im * mb
        old = get(pos)
        if old is not None:
            re, im = re + old[0], im + old[1]
            if not (re or im):
                del out[pos]
                continue
        out[pos] = (re, im)
    return _normal(a.dim, den, out)


def _products(dim: int, den: int, terms) -> SparseMat:
    """The sum of sign * left @ right over the (sign, left, right) of terms,
    on Gaussian-integer numerators, over den."""
    acc: Dict[Entry, list] = {}   # mutable [re, im] sums
    get = acc.get
    for sign, left, right in terms:
        rows: Dict[int, list] = {}
        for (r, c), (x, y) in right.items():
            rows.setdefault(r, []).append((c, x, y))
        for (r, k), (a, b) in left.items():
            row = rows.get(k)
            if row is None:
                continue
            if sign < 0:
                a, b = -a, -b
            for c, x, y in row:
                key = (r, c)
                old = get(key)
                if old is None:
                    acc[key] = [a * x - b * y, a * y + b * x]
                else:
                    old[0] += a * x - b * y
                    old[1] += a * y + b * x
    return _normal(dim, den, {pos: (re, im) for pos, (re, im) in acc.items() if re or im})


def bracket(a: SparseMat, b: SparseMat) -> SparseMat:
    """The commutator ab - ba, both products over one denominator."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return _products(a.dim, a.den * b.den, ((1, a.num, b.num), (-1, b.num, a.num)))


def _dense_rows(m: SparseMat) -> list[list[GaussianRational]]:
    zero = GaussianRational(0)
    rows = [[zero] * m.dim for _ in range(m.dim)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def rank(m: SparseMat) -> int:
    """Exact rank over Q(i) by Gaussian elimination."""
    rows = _dense_rows(m)
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


def kernel_dimension(m: SparseMat) -> int:
    return m.dim - rank(m)


def weight_decompose(h: SparseMat, bound: int = 8) -> Dict[int, int]:
    """Eigenspace dimensions of a diagonalizable integer-weight operator.

    Probes ker(h - w*id) for integer w in [-bound, bound]; checks the
    dimensions exhaust the space and are symmetric about zero.
    """
    spectrum: Dict[int, int] = {}
    for w in range(-bound, bound + 1):
        dim = kernel_dimension(h - SparseMat.identity(h.dim, w))
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
