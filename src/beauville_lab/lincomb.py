"""Sparse linear combinations: the one accumulate loop of the engine.

Every exact container keeps a dict of nonzero coefficients (polynomial
terms, matrix entries, tautological monomials, lattice vectors, cycles).
Values only need +, * and bool(), where bool() means "nonzero", as for
Fraction.  The product of two such dicts keyed by exponent tuples
(tautological expressions, the boundary pullback's ladder) is mul_terms.  A
map given on labels extends to such dicts by linear and bilinear, and
tensor multiplies dicts slot by slot.  Labelled is the one sparse value:
such a dict as an immutable value with its sums, scalings, powers, equality
and hash, whose kinds are the polynomials, the tautological classes and the
k3 cycles, and whose _like is the one unchecked constructor of them all.
The polynomials hold integer numerators over one denominator instead of
coefficients, and write their own sums, scalings, products, equality and
hash on them.  Context is the arithmetic of every eval context within two
work bounds, MAX_DIGITS and MAX_TERM_PAIRS (llv.LlvContext and the others).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Dict, Iterable, Tuple

from .errors import EvalError
from .scalars import ONE, GaussianRational


def add_into(acc: Dict, items: Iterable[Tuple[object, object]]) -> Dict:
    """Add each (key, value) of items into acc, dropping keys that sum to
    zero; returns acc."""
    get = acc.get
    for key, value in items:
        old = get(key)
        if old is not None:
            value = old + value
        if value:
            acc[key] = value
        elif old is not None:
            del acc[key]
    return acc


def add_term(acc: Dict, key, value) -> None:
    """acc[key] += value, dropping the key if the sum is zero."""
    add_into(acc, ((key, value),))


def mul_terms(left: Dict, right: Dict) -> Dict:
    """The product of two sparse polynomials stored as {exponent tuple:
    coefficient}: exponents add and coefficients multiply."""
    return add_into({}, ((tuple(map(add, e1, e2)), c1 * c2)
                         for e1, c1 in left.items() for e2, c2 in right.items()))


def linear(x: Dict, image) -> Dict:
    """The linear extension to x of image, which sends a label to a {label:
    coefficient} dict: a function of the label, or a dict indexed by it."""
    if isinstance(image, dict):
        image = image.__getitem__
    return add_into({}, ((lab, c * ci) for a, c in x.items() for lab, ci in image(a).items()))


def bilinear(x: Dict, y: Dict, product) -> Dict:
    """The bilinear extension to x and y of product, a function that sends
    two labels to a {label: coefficient} dict."""
    return add_into({}, ((lab, cx * cy * cp) for a, cx in x.items() for b, cy in y.items()
                         for lab, cp in product(a, b).items()))


def tensor(factors: Iterable[Dict]) -> Dict:
    """The slotwise product of one {label: coefficient} dict per slot:
    {(label_1, ..., label_n): c_1 * ... * c_n}."""
    out: Dict = {(): 1}
    for factor in factors:
        out = add_into({}, ((key + (lab,), c * cf)
                            for key, c in out.items() for lab, cf in factor.items()))
    return out


def power(base, n: int, one, product=mul):
    """base**n for an integer n >= 0 by repeated squaring from one, where
    product is the multiplication (a * b unless given)."""
    result = one
    while True:
        if n & 1:
            result = product(result, base)
        n >>= 1
        if not n:
            return result
        base = product(base, base)


class Labelled:
    """An immutable linear combination of labels, the one sparse value of
    the engine.  A subclass fixes its kind (the name eval prints), the order
    in which its labels print, what else adds to it (_operand), its unit
    (one(), from which '**' starts) and, if '*' is the bilinear extension of
    a product on labels, that product (two labels to a {label: coefficient}
    dict)."""

    __slots__ = ("terms",)
    kind: str
    labels: Tuple = ()

    def __init__(self, terms: Dict | None = None):
        object.__setattr__(self, "terms", {k: v for k, v in (terms or {}).items() if v})

    def _like(self, terms: Dict):
        """A value like self with terms, nonzero coefficients that no other
        value holds (as add_into builds them): it checks and copies nothing."""
        out = _new(type(self))
        _set_terms(out, terms)
        return out

    def _operand(self, other):
        """other as a value that adds to self, or NotImplemented."""
        return other if type(other) is type(self) else NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._like(add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def scale(self, factor):
        # coefficients form a domain: only a zero factor empties the result
        return self._like({k: v * factor for k, v in self.terms.items()} if factor else {})

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(bilinear(self.terms, other.terms, self.product))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, n, self.one())

    def __bool__(self):
        """Nonzero, as for Fraction."""
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        """The terms in label order (by repr for a kind without one), such
        as 'p1s - 2*F' (a coefficient 1 or -1 is left out), or '0'."""
        parts = []
        for label in self.labels or sorted(self.terms, key=repr):
            if label in self.terms:
                c = self.terms[label]
                parts.append(f"{label}" if c == 1 else f"-{label}" if c == -1 else f"{c}*{label}")
        return " + ".join(parts).replace(" + -", " - ") or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


_new = object.__new__
_set_terms = Labelled.terms.__set__


# Python's default limit on the digits of an integer it converts to text
MAX_DIGITS = 4300
# A product in a power pairs each term of one factor with each term of the
# other (a matrix entry, polynomial term or cycle label counts as one term, a
# scalar too, and a tautological class counts one term per monomial and term
# of its polynomial coefficient), so this bounds the work of one product as
# MAX_DIGITS bounds the size of its numbers.  The largest product that
# tests/golden/eval_corpus.json computes pairs 2025 terms (a square of
# (theta+delta+psi1)^16), that of the cli-mix benchmark requests 36, and a
# product of two hdim-10 matrices at most 100 x 100.
MAX_TERM_PAIRS = 20_000
_DIGIT_LIMIT = 10 ** MAX_DIGITS


def kind(value) -> str:
    """The kind eval prints for a value: its own, or scalar for a number."""
    return getattr(value, "kind", "scalar")


def _passes_digits(value) -> bool:
    """Whether a numerator or denominator in value, a value of any context,
    has more than MAX_DIGITS digits.  A polynomial or matrix is read first
    as its integer numerators over its one denominator; only when one of
    those passes the limit are its coefficients reduced one by one, since
    the shared denominator (the lcm of theirs) can pass it when none of
    theirs does."""
    if isinstance(value, GaussianRational):
        return _passes_digits(value.re) or _passes_digits(value.im)
    den = getattr(value, "den", None)
    if den is not None:
        parts = (value.num if kind(value) == "operator" else value.terms).values()
        if den < _DIGIT_LIMIT and all(abs(re) < _DIGIT_LIMIT and abs(im) < _DIGIT_LIMIT
                                      for re, im in parts):
            return False
        return any(_passes_digits(Fraction(re, den)) or _passes_digits(Fraction(im, den))
                   for re, im in parts)
    terms = getattr(value, "terms", None)
    if terms is None:
        return value.denominator >= _DIGIT_LIMIT or abs(value.numerator) >= _DIGIT_LIMIT
    return any(map(_passes_digits, terms.values()))


def _term_count(value) -> int:
    """The number of terms of a value of any context, as MAX_TERM_PAIRS
    counts them."""
    if kind(value) == "tautological-class":
        return sum(len(coeff.terms) for coeff in value.terms.values())
    if kind(value) == "operator":
        return len(value.num)
    terms = getattr(value, "terms", None)
    return 1 if terms is None else len(terms)


class Context:
    """The arithmetic of every context.  Values carry their own sums,
    negatives, scalings (value.scale(scalar)) and '*' products, so sums,
    scalar multiples, products and bounded powers are written here once.
    A context gives its symbols (symbol) and its scalars (scalar, from the
    GaussianRational value of a number or i), and says what composition
    'o', the commutator [x, y] and the unit of a kind that is not a scalar
    mean there (compose, commutator, unit)."""

    name = ""
    # whether a scalar plus another value is that multiple of its unit, or
    # an error
    adds_scalars = False

    def add(self, x, y, sign: int):
        kx, ky = kind(x), kind(y)
        if kx != ky:
            if not self.adds_scalars or "scalar" not in (kx, ky):
                raise EvalError(f"cannot add {kx} and {ky}")
            if kx == "scalar":
                x = self.unit(y).scale(x)
            else:
                y = self.unit(x).scale(y)
        return x + (y if sign > 0 else -y)

    def mul(self, x, y, op: str):
        if op == "o":
            return self.compose(x, y)
        kx, ky = kind(x), kind(y)
        if kx == ky:
            return x * y
        if kx == "scalar":
            return y.scale(x)
        if ky == "scalar":
            return x.scale(y)
        raise EvalError(f"cannot multiply {kx} and {ky}")

    def power(self, x, n: int):
        """x^n by repeated squaring that stops before a product would pair
        more than MAX_TERM_PAIRS terms and as soon as a product has a
        numerator or denominator past MAX_DIGITS digits, so that the work
        stays bounded whatever n is."""
        def checked(a, b):
            if _term_count(a) * _term_count(b) > MAX_TERM_PAIRS:
                raise EvalError(f"the power ^{n} would pair more than "
                                f"{MAX_TERM_PAIRS} terms in one product")
            out = a * b
            if _passes_digits(out):
                raise EvalError(f"the power ^{n} would pass {MAX_DIGITS} digits")
            return out
        one = self.scalar(ONE) if kind(x) == "scalar" else self.unit(x)
        return power(x, n, one, checked)

    def compose(self, x, y):
        raise EvalError(f"composition is not part of the {self.name} context")

    def commutator(self, x, y):
        raise EvalError(f"commutators are not part of the {self.name} context")
