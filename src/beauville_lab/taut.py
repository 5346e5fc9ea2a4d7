"""Tautological expressions on compactified Jacobian families.

Monomials in theta, psi1, psi2, xi2, kappa1, delta with polynomial
coefficients in the formal variables a, b.  Each expression carries a locus
tag recording which space it lives on:

  total          the compactified family over the base
  open           restriction over smooth curves (delta = 0)
  boundary       pullback to the boundary family (theta and delta rewritten)
  base           pushforward to the base of the family
  boundary-base  pushforward to the boundary divisor of the base

theta has multiplication-by-N weight 2 and xi2 weight 1; all other
generators have weight 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add
from typing import Dict, Tuple

from .errors import OutsideModelError
from .lincomb import add_into, add_term, mul_terms, power
from .poly import Poly

GENS = ("theta", "psi1", "psi2", "xi2", "kappa1", "delta")
WEIGHTS = {"theta": 2, "xi2": 1}
LOCI = ("total", "open", "boundary", "base", "boundary-base")

Monomial = Tuple[int, int, int, int, int, int]


class TautExpr:
    """Sparse polynomial in the tautological generators with a locus tag."""

    __slots__ = ("terms", "locus")

    def __init__(self, terms: Dict[Monomial, Poly] | None = None,
                 locus: str = "total"):
        if locus not in LOCI:
            raise ValueError(f"unknown locus {locus!r}")
        clean: Dict[Monomial, Poly] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != len(GENS) or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono!r}")
            coeff = Poly.coerce(coeff)
            if coeff:
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "locus", locus)

    def __setattr__(self, name, value):
        raise AttributeError("TautExpr is immutable")

    @staticmethod
    def generator(name: str, power: int = 1, locus: str = "total") -> "TautExpr":
        if name not in GENS:
            raise ValueError(f"unknown generator {name!r}")
        mono = [0] * len(GENS)
        mono[GENS.index(name)] = power
        return TautExpr({tuple(mono): Poly.const(1)}, locus)

    @staticmethod
    def const(value, locus: str = "total") -> "TautExpr":
        return TautExpr({(0,) * len(GENS): Poly.coerce(value)}, locus)

    @staticmethod
    def zero(locus: str = "total") -> "TautExpr":
        return TautExpr({}, locus)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_locus(self, other: "TautExpr") -> None:
        if self.locus != other.locus:
            raise ValueError(
                f"locus mismatch: {self.locus} vs {other.locus}")

    def __add__(self, other: "TautExpr") -> "TautExpr":
        self._check_locus(other)
        return _make(add_into(dict(self.terms), other.terms.items()), self.locus)

    def __neg__(self) -> "TautExpr":
        return _make({m: -c for m, c in self.terms.items()}, self.locus)

    def __sub__(self, other: "TautExpr") -> "TautExpr":
        return self + (-other)

    def __mul__(self, other) -> "TautExpr":
        if not isinstance(other, TautExpr):
            other = TautExpr.const(other, self.locus)
        self._check_locus(other)
        return _make(mul_terms(self.terms, other.terms), self.locus)

    def __rmul__(self, other) -> "TautExpr":
        return self * other

    def __pow__(self, exponent: int) -> "TautExpr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, exponent, TautExpr.const(1, self.locus))

    def scale(self, value) -> "TautExpr":
        terms = {m: c * value for m, c in self.terms.items()}
        return _make(terms if value else {}, self.locus)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TautExpr) and self.locus == other.locus
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.locus, frozenset(self.terms.items())))

    def coefficient_of(self, **powers: int) -> Poly:
        mono = tuple(powers.get(name, 0) for name in GENS)
        unknown = set(powers) - set(GENS)
        if unknown:
            raise ValueError(f"unknown generators {sorted(unknown)}")
        return self.terms.get(mono, Poly.const(0))

    def __str__(self) -> str:
        if not self.terms:
            return f"0 [{self.locus}]"
        parts = []
        for mono in sorted(self.terms):
            factors = []
            for name, e in zip(GENS, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors) if factors else "1"
            parts.append(f"({self.terms[mono]})*{body}")
        return " + ".join(parts) + f" [{self.locus}]"

    def __repr__(self) -> str:
        return f"TautExpr({self})"


def gen(name: str, power: int = 1, locus: str = "total") -> TautExpr:
    return TautExpr.generator(name, power, locus)


def monomial_weight(mono: Monomial) -> int:
    return sum(WEIGHTS.get(name, 0) * e for name, e in zip(GENS, mono))


def weight_part(expr: TautExpr, weight: int) -> TautExpr:
    return TautExpr({m: c for m, c in expr.terms.items()
                     if monomial_weight(m) == weight}, expr.locus)


def open_restrict(expr: TautExpr) -> TautExpr:
    """Restrict over the smooth locus: delta pulls back to zero."""
    if expr.locus != "total":
        raise ValueError("open restriction starts from the total family")
    idx = GENS.index("delta")
    terms = {m: c for m, c in expr.terms.items() if m[idx] == 0}
    return TautExpr(terms, "open")


def boundary_pull(expr: TautExpr) -> TautExpr:
    """Pull back to the boundary family: theta becomes theta plus half the
    psi sum, delta becomes minus the psi sum (self-intersection), and the
    other generators stay as they are.

    This is the one place the two images are written.  Each power of them
    is built once, on a ladder shared by every monomial and with integer
    coefficients: rung k of the theta ladder is (2 theta + psi1 + psi2)^k.
    A monomial with theta^k divides its Poly coefficient by 2^k once, and
    that coefficient then scales each integer term of its image."""
    if expr.locus != "total":
        raise ValueError("boundary pullback starts from the total family")
    i_theta, i_delta = GENS.index("theta"), GENS.index("delta")
    theta, psi1, psi2 = (tuple(int(x == name) for x in GENS)
                         for name in ("theta", "psi1", "psi2"))
    one = {(0,) * len(GENS): 1}
    theta_ladder = [one, {theta: 2, psi1: 1, psi2: 1}]
    delta_ladder = [one, {psi1: -1, psi2: -1}]

    def rung(ladder, e):
        while len(ladder) <= e:
            ladder.append(mul_terms(ladder[-1], ladder[1]))
        return ladder[e]

    out: Dict[Monomial, Poly] = {}
    for mono, coeff in expr.terms.items():
        k = mono[i_theta]
        image = mul_terms(rung(theta_ladder, k), rung(delta_ladder, mono[i_delta]))
        if k:
            coeff = coeff * Fraction(1, 1 << k)
        fixed = list(mono)
        fixed[i_theta] = fixed[i_delta] = 0
        add_into(out, ((tuple(map(add, m, fixed)), coeff * c)
                       for m, c in image.items()))
    return _make(out, "boundary")


def abelian_push(expr: TautExpr, n: int) -> TautExpr:
    """Pushforward along an n-dimensional abelian fibration.

    Only the monomials of multiplication-by-N weight exactly 2n survive.
    Surviving pairs of xi2 factors trade for theta times the psi sum with a
    factor -1/2; a terminal theta^n pushes to n! times the weight-zero
    remainder.  Excess xi2 factors that cannot pair against theta leave the
    model.
    """
    if n < 0:
        raise ValueError("fiber dimension must be nonnegative")
    if expr.locus not in ("total", "open", "boundary"):
        raise ValueError(f"cannot push forward from locus {expr.locus!r}")
    target = "boundary-base" if expr.locus == "boundary" else "base"
    i_theta = GENS.index("theta")
    i_psi1 = GENS.index("psi1")
    i_psi2 = GENS.index("psi2")
    i_xi = GENS.index("xi2")

    out: Dict[Monomial, Poly] = {}
    stack = [(mono, coeff) for mono, coeff in expr.terms.items()]
    while stack:
        mono, coeff = stack.pop()
        if monomial_weight(mono) != 2 * n:
            continue
        k, e = mono[i_theta], mono[i_xi]
        if e >= 2:
            if k == 0:
                raise OutsideModelError(
                    "xi2 power with no theta to trade against")
            for psi_idx in (i_psi1, i_psi2):
                new = list(mono)
                new[i_xi] -= 2
                new[i_theta] += 1
                new[psi_idx] += 1
                stack.append((tuple(new), coeff * Fraction(-1, 2)))
            continue
        if e == 1:
            raise OutsideModelError(
                "odd xi2 power at even weight leaves the model")
        if k != n:
            raise OutsideModelError(
                f"weight bookkeeping failed for monomial {mono}")
        new = list(mono)
        new[i_theta] = 0
        add_term(out, tuple(new), coeff * factorial(n))
    return _make(out, target)


_new = object.__new__
_set_terms = TautExpr.terms.__set__
_set_locus = TautExpr.locus.__set__


def _make(terms: Dict[Monomial, Poly], locus: str) -> TautExpr:
    """The engine's own constructor for monomial tuples with nonzero Poly
    coefficients, such as add_into builds from other expressions' terms;
    unlike TautExpr(terms, locus) it checks and copies nothing."""
    expr = _new(TautExpr)
    _set_terms(expr, terms)
    _set_locus(expr, locus)
    return expr
