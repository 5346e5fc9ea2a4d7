"""Sparse exact matrices and Lie-bracket helpers.

Entries are GaussianRational scalars or Poly values, and one matrix may mix
both: a scalar operand defers to Poly's reflected operators. The matrix code
only needs +, *, unary minus and bool() for "nonzero". Kernel computations
require scalar entries (exact Gaussian elimination over Q(i)).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .lincomb import add_into
from .poly import Poly
from .scalars import GaussianRational

Entry = Tuple[int, int]


def _coerce_entry(x):
    if isinstance(x, (GaussianRational, Poly)):
        return x
    return GaussianRational.coerce(x)


class SparseMat:
    """dim x dim matrix stored as {(row, col): nonzero entry}."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Dict[Entry, object] | None = None):
        store: Dict[Entry, object] = {}
        if entries:
            for (r, c), v in entries.items():
                v = _coerce_entry(v)
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError(f"entry ({r},{c}) outside dimension {dim}")
                if v:
                    store[(r, c)] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    @staticmethod
    def zero(dim: int) -> "SparseMat":
        return SparseMat(dim)

    @staticmethod
    def identity(dim: int, scale=1) -> "SparseMat":
        return SparseMat(dim, {(k, k): _coerce_entry(scale) for k in range(dim)})

    @staticmethod
    def diagonal(values) -> "SparseMat":
        vals = list(values)
        return SparseMat(len(vals), {(k, k): _coerce_entry(v) for k, v in enumerate(vals)})

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _make(self.dim, add_into(dict(self.entries), other.entries.items()))

    def __neg__(self) -> "SparseMat":
        return _make(self.dim, {pos: -v for pos, v in self.entries.items()})

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def scale(self, factor) -> "SparseMat":
        factor = _coerce_entry(factor)
        return SparseMat(self.dim, {pos: factor * v for pos, v in self.entries.items()})

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        # row-indexed product: only touch nonzero rows of other
        rows: Dict[int, list] = {}
        for (r, c), v in other.entries.items():
            rows.setdefault(r, []).append((c, v))
        return _make(self.dim, add_into({}, (
            ((r, c), v * w)
            for (r, k), v in self.entries.items()
            for c, w in rows.get(k, ()))))

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def apply(self, vec: Dict[int, object]) -> Dict[int, object]:
        """Matrix times sparse column vector {index: value}."""
        return add_into({}, ((r, v * vec[c])
                             for (r, c), v in self.entries.items() if c in vec))

    def transpose(self) -> "SparseMat":
        return _make(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def substitute(self, name: str, value) -> "SparseMat":
        """Substitute into Poly entries; scalar entries pass through."""
        value = Poly.coerce(value)
        return SparseMat(self.dim, {pos: v.substitute(name, value) if isinstance(v, Poly) else v
                                    for pos, v in self.entries.items()})

    def __str__(self):
        lines = []
        for r in range(self.dim):
            row = [str(self.entries.get((r, c), 0)) for c in range(self.dim)]
            lines.append("[" + ", ".join(row) + "]")
        return "\n".join(lines)

    def __repr__(self):
        return f"SparseMat(dim={self.dim}, nnz={len(self.entries)})"


_new = object.__new__
_set_dim = SparseMat.dim.__set__
_set_entries = SparseMat.entries.__set__


def _make(dim: int, entries: Dict[Entry, object]) -> SparseMat:
    """The engine's own constructor for entries built from other matrices'
    entries, such as add_into's sums; unlike SparseMat(dim, entries) it
    checks and copies nothing."""
    m = _new(SparseMat)
    _set_dim(m, dim)
    _set_entries(m, entries)
    return m


def bracket(a: SparseMat, b: SparseMat) -> SparseMat:
    return (a @ b) - (b @ a)


def _dense_rows(m: SparseMat) -> list[list[GaussianRational]]:
    zero = GaussianRational(0)
    rows = [[zero] * m.dim for _ in range(m.dim)]
    for (r, c), v in m.entries.items():
        if not isinstance(v, GaussianRational):
            raise TypeError("kernel computations need scalar entries")
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
