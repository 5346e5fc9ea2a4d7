"""Sparse linear combinations: the one accumulate loop of the engine.

Every exact container keeps a dict of nonzero coefficients (polynomial
terms, matrix entries, tautological monomials, lattice vectors, cycles).
Values only need +, * and bool(), where bool() means "nonzero", as for
Fraction.  The product of two such dicts keyed by exponent tuples
(polynomials, tautological expressions) is mul_terms.  A map given on
labels extends to such dicts by linear and bilinear, and tensor multiplies
dicts slot by slot.  Labelled is such a dict as an immutable value with its
own sums, scalings and products.
"""

from __future__ import annotations

from operator import add, mul
from typing import Dict, Iterable, Tuple


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
    """An immutable linear combination of labels.  A subclass fixes its kind
    (the name eval prints), the order in which its labels print, and its
    product, a bilinear function on the {label: coefficient} dicts of two
    combinations."""

    __slots__ = ("terms",)
    kind: str
    labels: Tuple[str, ...] = ()

    def __init__(self, terms: Dict | None = None):
        object.__setattr__(self, "terms", {k: v for k, v in (terms or {}).items() if v})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return type(self)({k: v * factor for k, v in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.product(self.terms, other.terms))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __str__(self):
        """The terms in label order, such as 'p1s - 2*F' (a coefficient 1 or
        -1 is left out), or '0'."""
        parts = []
        for label in self.labels:
            if label in self.terms:
                c = self.terms[label]
                parts.append(label if c == 1 else f"-{label}" if c == -1 else f"{c}*{label}")
        return " + ".join(parts).replace(" + -", " - ") or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"
