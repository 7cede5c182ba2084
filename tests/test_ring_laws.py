"""Ring laws for the sum that every sparse exact type shares
(``rationals.accumulate``): ``UniSeries``, ``MultiSeries`` and
``WordSum`` operands with small rational coefficients.  A sum that
cancels must store no term at all."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv.multiseries import MultiSeries
from dmzv.series import UniSeries
from dmzv.words import Word, WordSum

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def uni_series(draw):
    order = draw(st.integers(2, 6))
    return UniSeries(draw(st.dictionaries(st.integers(-2, order), rationals, max_size=6)), order)


multi_series = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=6
).map(lambda terms: MultiSeries(terms, 2, 3))

word_sums = st.dictionaries(
    st.text("dy", max_size=3).map(Word), rationals, max_size=6
).map(WordSum)

OPERANDS = {
    "UniSeries": uni_series(),
    "MultiSeries": multi_series,
    "WordSum": word_sums,
}


def stored(x) -> dict:
    return x.terms if isinstance(x, WordSum) else x.coeffs


@pytest.mark.parametrize("kind", OPERANDS)
@settings(deadline=None)
@given(data=st.data())
def test_sum_laws(kind, data):
    a, b, c = (data.draw(OPERANDS[kind]) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b)
    assert stored(a + (-a)) == {}
    assert all(stored(a + b).values())


@settings(deadline=None)
@given(uni_series(), uni_series(), uni_series())
def test_uni_series_distributes_and_has_a_unit(a, b, c):
    # the two sides may carry different orders (a cancellation in a + b
    # raises the valuation), so they agree through the smaller one
    lhs, rhs = (a + b) * c, a * c + b * c
    order = min(lhs.order, rhs.order)
    assert lhs.truncate(order) == rhs.truncate(order)
    # degrees start at -2, so a unit two orders longer keeps a's order
    one = UniSeries.one(a.order + 2)
    assert a * one == a == one * a


@settings(deadline=None)
@given(multi_series, multi_series, multi_series)
def test_multi_series_distributes_and_has_a_unit(a, b, c):
    assert (a + b) * c == a * c + b * c
    one = MultiSeries.constant(1, 2, 3)
    assert a * one == a == one * a
