"""The sparse linear-combination core over Fraction, GaussianRational and Poly."""

from fractions import Fraction

from hypothesis import given, strategies as st

from beauville_lab.lincomb import add_into, add_term, power
from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational

fractions = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                         max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 5), gaussians,
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


@given(st.one_of(gaussians, polys))
def test_bool_means_nonzero(x):
    assert bool(x) == (not x.is_zero())
    assert bool(x) == (x != 0)


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
