"""Quadratic lattices with a hyperbolic weight pair and Fourier isometries.

A MukaiSpace is a based rational quadratic space whose basis contains a
distinguished isotropic pair (alpha, beta) with (alpha, beta) = -1; alpha and
beta are orthogonal to every other basis vector (the middle part).  When the
middle part contains a second distinguished isotropic pair (Theta, Hyp) with
(Theta, Hyp) = +1 and a genus is attached, the space carries the Fourier
isometry of a relative moduli construction.

Vectors are sparse dicts {label: GaussianRational}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .lincomb import linear
from .scalars import GaussianRational, Rational, integer_parts
from .sparse import SparseMat, _normal

Vector = Dict[str, GaussianRational]

ALPHA = "alpha"
BETA = "beta"
THETA = "Theta"
HYP = "Hyp"


@dataclass(frozen=True)
class MukaiSpace:
    labels: Tuple[str, ...]
    gram: Tuple[Tuple[Fraction, ...], ...]
    genus: int | None = None

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate basis labels")
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix shape mismatch")
        if list(map(tuple, self.gram)) != list(zip(*self.gram)):
            raise ValueError("gram matrix not symmetric")
        for name in (ALPHA, BETA):
            if name not in self.labels:
                raise ValueError(f"missing distinguished label {name}")
        ia, ib = self.index(ALPHA), self.index(BETA)
        if self.gram[ia][ia] or self.gram[ib][ib]:
            raise ValueError("alpha and beta must be isotropic")
        if self.gram[ia][ib] != Fraction(-1):
            raise ValueError("(alpha, beta) must be -1")
        for k in range(n):
            if k not in (ia, ib) and (self.gram[ia][k] or self.gram[ib][k]):
                raise ValueError("alpha, beta must be orthogonal to the middle part")
        if (THETA in self.labels) != (HYP in self.labels):
            raise ValueError("Theta and Hyp must come together")
        if THETA in self.labels:
            it, ih = self.index(THETA), self.index(HYP)
            if self.gram[it][it] or self.gram[ih][ih]:
                raise ValueError("Theta and Hyp must be isotropic")
            if self.gram[it][ih] != Fraction(1):
                raise ValueError("(Theta, Hyp) must be +1")

    # -- basic structure -----------------------------------------------------

    # Computed once per space and kept on the instance (not in a cache keyed
    # by the space, whose hash would hash the whole Gram matrix each call).
    @cached_property
    def _positions(self) -> Dict[str, int]:
        return {label: k for k, label in enumerate(self.labels)}

    @cached_property
    def _gram_rows(self) -> Dict[str, Dict[str, Fraction]]:
        """The nonzero Gram entries by label: rows[l][m] = (l, m)."""
        return {l: {m: g for m, g in zip(self.labels, row) if g}
                for l, row in zip(self.labels, self.gram)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a basis label") from None

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def middles(self) -> Tuple[str, ...]:
        return tuple(l for l in self.labels if l not in (ALPHA, BETA))

    def basis_vector(self, label: str) -> Vector:
        if label not in self._positions:
            raise KeyError(label)
        return {label: GaussianRational(1)}

    @cached_property
    def gram_matrix(self) -> SparseMat:
        return SparseMat(self.dim, {(r, c): x for r, row in enumerate(self.gram)
                                    for c, x in enumerate(row) if x})

    # -- bilinear form ---------------------------------------------------------

    def covector(self, v: Vector) -> Vector:
        """The nonzero pairings (v, b) with the basis vectors b, by label."""
        try:
            return linear(v, self._gram_rows)
        except KeyError as err:
            raise ValueError(f"{err.args[0]!r} is not a basis label") from None

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "labels": list(self.labels),
            "gram": [[str(x) for x in row] for row in self.gram],
            "genus": self.genus,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MukaiSpace":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a space file holds one JSON object")
        labels = tuple(doc["labels"])
        gram = tuple(tuple(Fraction(x) for x in row) for row in doc["gram"])
        return MukaiSpace(labels=labels, gram=gram, genus=doc.get("genus"))


def _require_sign(name: str, value: int) -> None:
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1")


def fourier_matrix(space: MukaiSpace, c0: int, c1: int) -> SparseMat:
    """Fourier isometry in the given basis.

    alpha -> -c0*(Theta - (g+1)/2 * beta), beta -> c0*Hyp,
    Theta -> c0*(alpha - (g+1)/2 * Hyp),  Hyp  -> -c0*beta,
    c1 * id on the rest of the middle part.
    """
    _require_sign("c0", c0)
    _require_sign("c1", c1)
    if THETA not in space.labels:
        raise ValueError("fourier_matrix needs Theta and Hyp")
    if space.genus is None:
        raise ValueError("fourier_matrix needs a genus")
    gp1, two = c0 * (space.genus + 1), 2 * c0   # numerators over 2; gp1 = 0 at g = -1
    ia, ib, it, ih = map(space.index, (ALPHA, BETA, THETA, HYP))
    num = {(it, ia): (-two, 0), (ib, ia): (gp1, 0), (ih, ib): (two, 0),
           (ia, it): (two, 0), (ih, it): (-gp1, 0), (ib, ih): (-two, 0)}
    num.update(((k, k), (2 * c1, 0)) for k, label in enumerate(space.labels)
               if label not in (ALPHA, BETA, THETA, HYP))
    return _normal(space.dim, 2, {pos: v for pos, v in num.items() if v[0]})


def is_isometry(space: MukaiSpace, m: SparseMat) -> bool:
    g = space.gram_matrix
    return m.transpose() @ g @ m == g


def theta_bar(space: MukaiSpace, c0: int) -> Vector:
    """Fourier image of alpha: -c0*Theta + c0*(g+1)/2 * beta."""
    _require_sign("c0", c0)
    g = space.genus
    return {
        THETA: GaussianRational(-c0),
        BETA: GaussianRational(Fraction(c0 * (g + 1), 2)),
    }


def to_barred(space: MukaiSpace, v: Vector, c0: int) -> Dict[str, GaussianRational]:
    """Coordinates of v in the basis (alpha, beta, ThetaBar, Hyp).

    Uses Theta = -c0*ThetaBar + (g+1)/2 * beta.
    """
    _require_sign("c0", c0)
    one = GaussianRational(1)
    image = {ALPHA: {ALPHA: one}, BETA: {BETA: one}, HYP: {HYP: one},
             THETA: {"ThetaBar": GaussianRational(-c0),
                     BETA: GaussianRational(Fraction(space.genus + 1, 2))}}
    try:
        return linear(v, image)
    except KeyError as err:
        raise ValueError(f"{err.args[0]} is outside the span of (alpha, beta, Theta, Hyp)") from None


def barred_fourier_matrix(space: MukaiSpace, c0: int, F: SparseMat) -> SparseMat:
    """The Fourier isometry F = fourier_matrix(space, c0, c1) in the barred
    basis, Binv @ F @ B: column j holds the barred coordinates of F(v_j) for
    v = (alpha, beta, ThetaBar, Hyp, the rest of the middle part).  ThetaBar
    takes Theta's index, where B holds theta_bar and Binv to_barred(Theta)
    over the denominator 2; both are the identity in every other column."""
    it = space.index(THETA)
    position = {**space._positions, "ThetaBar": it}

    def change(column: Vector) -> SparseMat:
        num = {(k, k): (2, 0) for k in range(space.dim) if k != it}
        num.update(((position[label], it), (2 * re // d, 2 * im // d))
                   for label, (re, im, d) in zip(column, map(integer_parts, column.values())))
        return _normal(space.dim, 2, num)

    B = change(theta_bar(space, c0))
    Binv = change(to_barred(space, space.basis_vector(THETA), c0))
    return Binv @ F @ B


# -- standard spaces ------------------------------------------------------------


def _hyperbolic_block(n: int, pairs: Iterable[Tuple[int, int, Fraction]],
                      diag: Iterable[Tuple[int, Fraction]] = ()) -> list[list[Fraction]]:
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i, j, val in pairs:
        gram[i][j] = val
        gram[j][i] = val
    for i, val in diag:
        gram[i][i] = val
    return gram


def mukai_class_space(genus: int, extra: int = 0, t: Rational = Fraction(1)) -> MukaiSpace:
    """(alpha, beta, Theta, Hyp) plus `extra` middles of norm t."""
    labels = [ALPHA, BETA, THETA, HYP] + [f"m{k+1}" for k in range(extra)]
    n = len(labels)
    gram = _hyperbolic_block(
        n,
        [(0, 1, Fraction(-1)), (2, 3, Fraction(1))],
        [(k, Fraction(t)) for k in range(4, n)],
    )
    return MukaiSpace(tuple(labels), tuple(tuple(r) for r in gram), genus)


def llv_model_space(hdim: int, t: Rational = Fraction(1)) -> MukaiSpace:
    """(alpha, m1..m_{hdim-2}, beta) with the middle form t * identity."""
    if hdim < 3:
        raise ValueError("need at least one middle vector")
    labels = [ALPHA] + [f"m{k+1}" for k in range(hdim - 2)] + [BETA]
    n = len(labels)
    gram = _hyperbolic_block(
        n,
        [(0, n - 1, Fraction(-1))],
        [(k, Fraction(t)) for k in range(1, n - 1)],
    )
    return MukaiSpace(tuple(labels), tuple(tuple(r) for r in gram))
