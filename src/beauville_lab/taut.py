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
from math import comb, factorial
from operator import add
from typing import Dict, Tuple

from .errors import EvalError, OutsideModelError
from .lincomb import Context, Labelled, add_into, add_term, mul_terms
from .poly import Poly

GENS = ("theta", "psi1", "psi2", "xi2", "kappa1", "delta")
WEIGHTS = {"theta": 2, "xi2": 1}
LOCI = ("total", "open", "boundary", "base", "boundary-base")

Monomial = Tuple[int, int, int, int, int, int]


class TautExpr(Labelled):
    """Sparse polynomial in the tautological generators with a locus tag;
    only expressions on one locus add or multiply."""

    __slots__ = ("locus",)
    kind = "tautological-class"

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

    def _like(self, terms: Dict[Monomial, Poly], locus: str | None = None) -> "TautExpr":
        """As Labelled._like, on self's locus unless another is given."""
        out = object.__new__(TautExpr)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "locus", locus or self.locus)
        return out

    def _operand(self, other):
        if type(other) is not TautExpr:
            return NotImplemented
        if other.locus != self.locus:
            raise ValueError(f"locus mismatch: {self.locus} vs {other.locus}")
        return other

    @staticmethod
    def const(value, locus: str = "total") -> "TautExpr":
        return TautExpr({(0,) * len(GENS): Poly.coerce(value)}, locus)

    @staticmethod
    def zero(locus: str = "total") -> "TautExpr":
        return TautExpr({}, locus)

    def one(self) -> "TautExpr":
        return TautExpr.const(1, self.locus)

    def __mul__(self, other) -> "TautExpr":
        # a scalar or polynomial multiplies as that multiple of 1
        factor = self._operand(other)
        if factor is NotImplemented:
            factor = TautExpr.const(other, self.locus)
        return self._like(mul_terms(self.terms, factor.terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, TautExpr) and self.locus == other.locus
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.locus, frozenset(self.terms.items())))

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


def gen(name: str, power: int = 1, locus: str = "total") -> TautExpr:
    """The generator name to the given power, on the given locus."""
    if name not in GENS:
        raise ValueError(f"unknown generator {name!r}")
    mono = [0] * len(GENS)
    mono[GENS.index(name)] = power
    return TautExpr({tuple(mono): Poly.const(1)}, locus)


def multiple(expr: TautExpr, of: TautExpr) -> Poly:
    """The P with expr == P * of, for a nonzero class of with scalar
    coefficients; zero is the zero multiple.  An expression on another
    locus, on other monomials or in other ratios leaves the model."""
    if expr.locus != of.locus:
        raise OutsideModelError(
            f"a {expr.locus} class is not a multiple of a {of.locus} class")
    if not of.terms:
        raise ValueError("a multiple of the zero class is not unique")
    if not expr.terms:
        return Poly.const(0)
    if expr.terms.keys() != of.terms.keys():
        raise OutsideModelError(f"{expr} is not a multiple of {of}")
    (mono, c), *rest = ((m, c.constant_value()) for m, c in of.terms.items())
    lead = expr.terms[mono]
    # every other coefficient is the lead's times d/c; where d == c, as in
    # most classes read, that is the lead's itself and needs no product
    if any(expr.terms[m] != (lead if d == c else lead * (d / c)) for m, d in rest):
        raise OutsideModelError(f"{expr} is not a multiple of {of}")
    return lead if c == 1 else lead * c.inverse()


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


def boundary_pull(expr: TautExpr, weight: int | None = None) -> TautExpr:
    """Pull back to the boundary family: theta becomes theta plus half the
    psi sum s = psi1 + psi2, delta becomes -s (self-intersection), and the
    other generators stay as they are.  With weight given, only the part of
    the image of that multiplication-by-N weight is built.

    This is the one place the two images are written.  By the binomial
    theorem theta^k delta^j pulls back to (-1)^j 2^-k times the sum over i
    of C(k, i) 2^i theta^i s^(k-i+j), and each power of s is built once, on
    an integer ladder shared by every monomial.  Term i has weight 2i plus
    the weight of the monomial's other generators, so a given weight keeps
    at most one i."""
    if expr.locus != "total":
        raise ValueError("boundary pullback starts from the total family")
    i_theta, i_delta = GENS.index("theta"), GENS.index("delta")
    psi1, psi2 = (tuple(int(x == name) for x in GENS) for name in ("psi1", "psi2"))
    ladder = [{(0,) * len(GENS): 1}, {psi1: 1, psi2: 1}]

    out: Dict[Monomial, Poly] = {}
    for mono, coeff in expr.terms.items():
        k, j = mono[i_theta], mono[i_delta]
        fixed = list(mono)
        fixed[i_theta] = fixed[i_delta] = 0
        if weight is None:
            thetas = range(k + 1)
        else:
            i, odd = divmod(weight - monomial_weight(fixed), 2)
            if odd or not 0 <= i <= k:
                continue
            thetas = (i,)
        if k:
            coeff = coeff * Fraction(1, 1 << k)
        for i in thetas:
            while len(ladder) <= k - i + j:
                ladder.append(mul_terms(ladder[-1], ladder[1]))
            fixed[i_theta] = i
            scale = (-1) ** j * comb(k, i) << i
            add_into(out, ((tuple(map(add, m, fixed)), coeff * (scale * c))
                           for m, c in ladder[k - i + j].items()))
    return expr._like(out, "boundary")


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
    return expr._like(out, target)


class TautContext(Context):
    """Tautological expressions on a nodal Jacobian family."""

    name = "taut"
    adds_scalars = True

    def __init__(self, locus: str = "total"):
        if locus not in LOCI:
            raise EvalError(f"unknown locus {locus!r}")
        self.locus = locus

    def symbol(self, name: str, args):
        if args is not None:
            raise EvalError(f"{name} takes no arguments")
        if name in GENS:
            return gen(name, locus=self.locus)
        if name in ("a", "b", "N", "d"):
            return Poly.var(name)
        raise EvalError(f"unknown symbol {name!r} in the taut context")

    def scalar(self, value):
        return Poly.const(value)

    def unit(self, x):
        return TautExpr.const(1, self.locus)
