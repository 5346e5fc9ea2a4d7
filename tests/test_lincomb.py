"""The sparse linear-combination core over Fraction, GaussianRational and Poly."""

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import RelativeCycle, SurfaceClass, _bv_mul_labels
from beauville_lab.k3_mult import TripleCycle
from beauville_lab.lincomb import (Labelled, add_into, add_term, bilinear,
                                   linear, power, tensor)
from beauville_lab.poly import VARS, Poly
from beauville_lab.scalars import GaussianRational
from beauville_lab.taut import GENS, LOCI, TautExpr

fractions = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                         max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(VARS)), gaussians,
                        max_size=3).map(Poly)
values = st.one_of(fractions, gaussians, polys)
keys = st.integers(0, 3)
# one value type per combination: the engine never mixes them in one dict
two_item_lists = st.sampled_from((fractions, gaussians, polys)).flatmap(
    lambda v: st.tuples(st.lists(st.tuples(keys, v), max_size=8),
                        st.lists(st.tuples(keys, v), max_size=4)))


def sum_then_filter(pairs):
    sums = {}
    for key, value in pairs:
        sums[key] = sums[key] + value if key in sums else value
    return {k: v for k, v in sums.items() if v != 0}


@given(two_item_lists)
def test_add_into_agrees_with_sum_then_filter(lists):
    first, second = lists
    acc = add_into({}, first)
    assert all(v != 0 for v in acc.values())
    assert acc == sum_then_filter(first)
    assert add_into(acc, second) is acc
    assert all(v != 0 for v in acc.values())
    assert acc == sum_then_filter(first + second)
    assert add_into(acc, ((k, -v) for k, v in first + second)) == {}


@given(keys, values)
def test_add_term_x_plus_minus_x(key, x):
    acc = {}
    add_term(acc, key, x)
    assert acc == ({key: x} if x != 0 else {})
    add_term(acc, key, -x)
    assert acc == {}


tauts = st.builds(TautExpr, st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(GENS)),
                                             polys, max_size=2),
                  st.sampled_from(LOCI))


def on_every_taut_zero(test):
    """test, also run on the zero of every locus."""
    for locus in LOCI:
        test = example(TautExpr.zero(locus))(test)
    return test


@given(st.one_of(gaussians, polys, tauts))
@on_every_taut_zero
def test_bool_means_nonzero(x):
    assert bool(x) == (not x.is_zero())
    zero = TautExpr.zero(x.locus) if isinstance(x, TautExpr) else 0
    assert bool(x) == (x != zero)


class Counted:
    """A value that counts the products it takes part in."""

    products = 0

    def __init__(self, n):
        self.n = n

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.n * other.n)


@given(st.integers(-3, 3), st.integers(0, 200))
def test_power_squares_only_up_to_the_top_bit(base, n):
    Counted.products = 0
    assert power(Counted(base), n, Counted(1)).n == base ** n
    # one product per set bit, one squaring per bit below the top one
    assert Counted.products == bin(n).count("1") + max(n.bit_length() - 1, 0)


# -- linear extensions of maps on labels ---------------------------------------------

# small label sets and coefficients, so that images often cancel
combinations = st.dictionaries(keys, fractions.filter(bool), max_size=4)
images = st.dictionaries(keys, fractions, max_size=3)


@given(combinations, st.fixed_dictionaries({k: images for k in range(4)}))
def test_linear_agrees_with_a_naive_loop(x, image):
    naive = sum_then_filter([(lab, c * ci) for a, c in x.items()
                             for lab, ci in image[a].items()])
    assert linear(x, image) == naive
    assert linear(x, lambda a: image[a]) == naive
    assert all(linear(x, image).values())


@given(combinations, combinations, st.dictionaries(st.tuples(keys, keys), images, max_size=8))
def test_bilinear_agrees_with_a_naive_loop(x, y, table):
    def pair_image(a, b):
        return table.get((a, b), {})

    got = bilinear(x, y, pair_image)
    assert got == sum_then_filter([(lab, cx * cy * cp) for a, cx in x.items()
                                   for b, cy in y.items() for lab, cp in pair_image(a, b).items()])
    assert all(got.values())


@given(st.lists(images, max_size=3))
def test_tensor_matches_itertools_product(factors):
    expected = {}
    for items in product(*(factor.items() for factor in factors)):
        coeff = prod(c for _, c in items)
        if coeff:
            expected[tuple(lab for lab, _ in items)] = coeff
    assert tensor(factors) == expected


# -- labelled combinations -------------------------------------------------------------

F = Fraction


def test_labelled_sums_that_cancel_are_empty():
    x = SurfaceClass({"s": F(1), "c": F(-2)})
    assert (x - x).terms == {}
    assert x + (-x) == SurfaceClass()
    assert x + SurfaceClass({"s": F(-1)}) == SurfaceClass({"c": F(-2)})
    assert SurfaceClass({"s": F(0), "f": F(1)}).terms == {"f": F(1)}


def test_labelled_scale():
    x = RelativeCycle({"p1s": F(1), "F": F(-1, 2)})
    assert x.scale(0) == RelativeCycle()
    assert x.scale(0).terms == {}
    assert x.scale(F(-2)) == RelativeCycle({"p1s": F(-2), "F": F(1)})


def test_labelled_product_is_the_kinds_bilinear_function():
    s, f = SurfaceClass({"s": F(1)}), SurfaceClass({"f": F(1)})
    assert s * f == SurfaceClass(_bv_mul_labels("s", "f")) == SurfaceClass({"c": F(1)})
    assert (s + f) * (s + f) == SurfaceClass()
    theta = RelativeCycle({"p1s": F(1)})
    assert theta * RelativeCycle({"one": F(1)}) == theta


# the outputs of the k3 printer before the labelled type, on the same dicts
PRINTED = [
    (SurfaceClass, {}, "0"),
    (SurfaceClass, {"c": F(-2)}, "-2*c"),
    (SurfaceClass, {"f": F(1), "s": F(1)}, "s + f"),
    (SurfaceClass, {"c": F(1), "one": F(-1)}, "-one + c"),
    (SurfaceClass, {"s": F(-1), "f": F(-3, 2), "c": F(2)}, "-s - 3/2*f + 2*c"),
    (RelativeCycle, {"z": F(1), "p1s": F(-1), "delta": F(1, 2)}, "-p1s + 1/2*delta + z"),
    (RelativeCycle, {"p2s": F(1), "p1s": F(-1)}, "-p1s + p2s"),
    (RelativeCycle, {"one": F(-1)}, "-one"),
    (RelativeCycle, {"F": F(-2), "one": F(3)}, "3*one - 2*F"),
]


@pytest.mark.parametrize("cls, terms, text", PRINTED)
def test_labelled_str_order_and_signs(cls, terms, text):
    assert str(cls(terms)) == text


def test_labelled_is_immutable():
    x = SurfaceClass({"s": F(1)})
    with pytest.raises(AttributeError, match="immutable"):
        x.terms = {}
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x.scale(2) == SurfaceClass({"s": F(2)}) and x == SurfaceClass({"s": F(1)})


def test_labelled_kinds_do_not_mix():
    assert SurfaceClass() != RelativeCycle()
    assert SurfaceClass({"one": F(1)}) != RelativeCycle({"one": F(1)})
    assert SurfaceClass() != {}
    with pytest.raises(TypeError):
        SurfaceClass({"one": F(1)}) + RelativeCycle({"one": F(1)})
    with pytest.raises(TypeError):
        SurfaceClass({"one": F(1)}) * RelativeCycle({"one": F(1)})


def test_labelled_subclass_fixes_kind_order_and_product():
    class Pair(Labelled):
        __slots__ = ()
        kind = "pair"
        labels = ("y", "x")
        product = staticmethod(lambda a, b: {"x": 1} if a == b == "x" else {})

    p = Pair({"x": F(2), "y": F(-1)})
    assert str(p) == "-y + 2*x"
    assert p * p == Pair({"x": F(4)})
    assert repr(p) == "Pair(-y + 2*x)"


def test_labelled_bool_means_nonzero():
    assert not SurfaceClass() and not RelativeCycle({"one": F(0)})
    assert SurfaceClass({"c": 1}) and RelativeCycle({"z": F(-1, 2)})
    x = RelativeCycle({"p1s": 1})
    assert not x - x and not x.scale(0)


# int and Fraction coefficients mixed in one combination, as an integer table
# entry times a rational scalar gives
mixed = st.one_of(st.integers(-3, 3), fractions)


def labelled_pairs(cls):
    combos = st.dictionaries(st.sampled_from(cls.labels), mixed, max_size=len(cls.labels))
    return st.tuples(st.just(cls), combos, combos, mixed)


def outcome(compute):
    """compute(), or the text of the OutsideModelError it raises."""
    try:
        return compute()
    except OutsideModelError as err:
        return str(err)


@given(st.sampled_from((SurfaceClass, RelativeCycle)).flatmap(labelled_pairs))
def test_labelled_arithmetic_agrees_with_the_dict_route(case):
    cls, x, y, c = case
    X, Y = cls(x), cls(y)
    xs, ys = add_into({}, x.items()), add_into({}, y.items())
    assert X.terms == xs
    assert (X + Y).terms == add_into(dict(xs), ys.items())
    assert (X - Y).terms == add_into(dict(xs), ((k, -v) for k, v in ys.items()))
    assert (-X).terms == add_into({}, ((k, -v) for k, v in xs.items()))
    assert X.scale(c).terms == add_into({}, ((k, v * c) for k, v in xs.items()))
    assert outcome(lambda: (X * Y).terms) == outcome(lambda: bilinear(xs, ys, cls.product))
    assert (X == Y) == (xs == ys) and X == cls(xs)
    assert bool(X) == bool(xs)


# -- every sparse value kind -------------------------------------------------------------

TRIPLE_KEYS = (("pt", ("one", "s", "one"), 0), ("pt", ("c", "one", "s"), 0),
               ("pt", ("one", "one", "one"), 1), ("dg", (1, 2), "one"),
               ("dg", (2, 3), "s"), ("sm",))


def combinations_of(cls, labels):
    return st.dictionaries(st.sampled_from(labels), mixed, max_size=len(labels)).map(cls)


def taut_on(locus):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(GENS)), polys,
                           max_size=2).map(lambda terms: TautExpr(terms, locus))


# two values of one kind, and for a tautological class one locus
same_kind_pairs = st.one_of(*(st.tuples(v, v) for v in (
    polys, *map(taut_on, LOCI), combinations_of(SurfaceClass, SurfaceClass.labels),
    combinations_of(RelativeCycle, RelativeCycle.labels),
    combinations_of(TripleCycle, TRIPLE_KEYS))))


@given(same_kind_pairs)
def test_every_kind_is_an_immutable_hashable_group(pair):
    x, y = pair
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)
    assert not x - x and (x - x).is_zero()
    assert -(-x) == x
    assert x.scale(0).is_zero() and not x.scale(0)
    assert hash(type(x)(dict(x.terms), *([x.locus] if isinstance(x, TautExpr) else []))) == hash(x)
    for name in ("terms", "locus", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
