import threading
from fractions import Fraction

import pytest
from reference_series import exp_minus_one

from dmzv.bernoulli import BernoulliCache, bernoulli, default_cache
from dmzv.rationals import binomial
from dmzv.series import UniSeries


def test_anchor_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)


def test_odd_indices_vanish():
    for m in range(3, 42, 2):
        assert bernoulli(m) == 0


def test_convolution_recurrence():
    for m in range(1, 41):
        total = sum(binomial(m + 1, j) * bernoulli(j) for j in range(m + 1))
        assert total == 0


def test_egf_cross_check():
    # sum B_m x^m/m! times (e^x - 1)/x must be 1 + O(x^{N+1}); this goes
    # through the series module, independent of the fill recurrence
    N = 20
    from math import factorial

    egf = UniSeries({m: bernoulli(m) / factorial(m) for m in range(N + 1)}, N)
    ratio = UniSeries(
        {m - 1: c for m, c in exp_minus_one(N + 1).coeffs.items()}, N
    )
    product = egf * ratio
    assert product == UniSeries.one(product.order)


def fraction_recurrence(table, m):
    # the fill recurrence term by term in Fractions, from the table as it is
    table = list(table)
    while len(table) <= m:
        n = len(table)
        table.append(-sum(binomial(n + 1, j) * table[j] for j in range(n)) / (n + 1))
    return table


@pytest.mark.parametrize("corruption", [None, (4, Fraction(1, 5))])
def test_fill_matches_fraction_recurrence(corruption):
    cache = BernoulliCache()
    if corruption is not None:
        cache.corrupt(*corruption)
    start = [cache.value(m) for m in range(cache.known())]
    expected = fraction_recurrence(start, 120)
    # two multi-entry fills, the second resuming from a table it did not build
    for m in (60, 120):
        cache.value(m)
        assert [cache.value(j) for j in range(cache.known())] == expected[: m + 1]
    # a corruption after a partial fill changes no entry already filled,
    # and rebuilds the integer sums that later fills read, here with a new
    # denominator and then with a zero entry among them
    for m, value, top in ((90, Fraction(5, 11), 140), (100, Fraction(0), 160)):
        cache.corrupt(m, value)
        expected = fraction_recurrence(expected[:m] + [value] + expected[m + 1:], top)
        cache.value(top)
        assert [cache.value(j) for j in range(cache.known())] == expected


def test_negative_index_raises():
    with pytest.raises(ValueError):
        bernoulli(-1)


@pytest.mark.parametrize("call", [
    lambda cache: cache.value(2.0),
    lambda cache: bernoulli(2.0, cache),
    lambda cache: cache.corrupt(2.5, 1),
    lambda cache: cache.corrupt(4, 0.1),
], ids=["value", "bernoulli", "corrupt-index", "corrupt-value"])
def test_float_index_or_value_is_refused_before_any_fill(call):
    cache = BernoulliCache()
    with pytest.raises(TypeError):
        call(cache)
    assert cache.known() == 1
    assert cache.unread_corruptions() == []


def test_concurrent_fill_is_consistent():
    cache = BernoulliCache()
    results = {}

    def fill(tag):
        results[tag] = [cache.value(m) for m in range(60)]

    threads = [threading.Thread(target=fill, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reference = [bernoulli(m) for m in range(60)]
    for values in results.values():
        assert values == reference


def test_corrupt_is_local_to_the_instance():
    cache = BernoulliCache()
    cache.corrupt(4, Fraction(1, 5))
    cache.corrupt(6, Fraction(1, 7))
    # corrupt()'s own fill does not count as a read
    assert cache.unread_corruptions() == [4, 6]
    assert cache.value(4) == Fraction(1, 5)
    assert cache.unread_corruptions() == [6]
    assert bernoulli(4) == Fraction(-1, 30)
    assert default_cache().value(4) == Fraction(-1, 30)
    assert default_cache().unread_corruptions() == []
