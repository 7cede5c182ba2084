import threading
from fractions import Fraction

import pytest

from dmzv.bernoulli import BernoulliCache, bernoulli, default_cache
from dmzv.rationals import binomial
from dmzv.series import UniSeries, exp_minus_one


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


def test_negative_index_raises():
    with pytest.raises(ValueError):
        bernoulli(-1)


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
