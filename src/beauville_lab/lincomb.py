"""Sparse linear combinations: the one accumulate loop of the engine.

Every exact container keeps a dict of nonzero coefficients (polynomial
terms, matrix entries, tautological monomials, lattice vectors, cycles).
Values only need +, * and bool(), where bool() means "nonzero", as for
Fraction.  The product of two such dicts keyed by exponent tuples
(polynomials, tautological expressions) is mul_terms.
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
