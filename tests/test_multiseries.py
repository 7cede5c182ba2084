import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmzv.multiseries import MultiSeries, substitute_linear_form, substitute_linear_forms
from dmzv.series import UniSeries


def test_substitute_linear_form_examples():
    u = UniSeries({1: 1}, 2)
    assert substitute_linear_form(u, (1, 1), 1) == MultiSeries(
        {(1, 0): 1, (0, 1): 1}, 2, 1
    )
    u2 = UniSeries({2: 1}, 4)
    assert substitute_linear_form(u2, (1, 1), 2) == MultiSeries(
        {(2, 0): 1, (1, 1): 2, (0, 2): 1}, 2, 2
    )
    s = UniSeries({0: 1, 1: 1}, 2)
    assert substitute_linear_form(s, (0, 1), 1) == MultiSeries(
        {(0, 0): 1, (0, 1): 1}, 2, 1
    )


def test_substitute_linear_form_insufficient_order():
    u = UniSeries({1: 1}, 3)
    with pytest.raises(ValueError, match="insufficient univariate order"):
        substitute_linear_form(u, (1, 1), 2)  # needs order 4


def test_multiply_examples():
    one = MultiSeries.constant(1, 2, 1)
    x = MultiSeries({(1, 0): 1}, 2, 1)
    y = MultiSeries({(0, 1): 1}, 2, 1)
    assert one * x == x
    assert x * y == MultiSeries({(1, 1): 1}, 2, 1)
    a = MultiSeries({(0,): 1, (1,): 1}, 1, 2)
    b = MultiSeries({(0,): 1, (1,): -1}, 1, 2)
    assert a * b == MultiSeries({(0,): 1, (2,): -1}, 1, 2)


def test_shape_mismatch():
    a = MultiSeries.constant(1, 2, 1)
    b = MultiSeries.constant(1, 2, 2)
    c = MultiSeries.constant(1, 3, 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        a * b
    with pytest.raises(ValueError, match="shape mismatch"):
        a + c


def test_negate_variables():
    t1 = MultiSeries({(1, 0): 1}, 2, 2)
    assert t1.negate_variables() == MultiSeries({(1, 0): -1}, 2, 2)
    t12 = MultiSeries({(1, 1): 1}, 2, 2)
    assert t12.negate_variables() == t12
    s = MultiSeries({(0,): 1, (1,): 1, (2,): 1}, 1, 2)
    assert s.negate_variables() == MultiSeries({(0,): 1, (1,): -1, (2,): 1}, 1, 2)


def test_multiplication_distributes():
    rng = random.Random(314)

    def sample(nvars, cap):
        coeffs = {}
        from itertools import product

        for exps in product(range(cap + 1), repeat=nvars):
            if rng.random() < 0.4:
                coeffs[exps] = Fraction(rng.randint(-3, 3))
        return MultiSeries(coeffs, nvars, cap)

    for _ in range(100):
        nvars = rng.randint(1, 3)
        cap = rng.randint(1, 4)
        a, b, c = (sample(nvars, cap) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_substitution_is_ring_homomorphism():
    rng = random.Random(2718)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        cap = rng.randint(1, 3)
        order = nvars * cap
        a = UniSeries({d: Fraction(rng.randint(-3, 3)) for d in range(order + 1)}, order)
        b = UniSeries({d: Fraction(rng.randint(-3, 3)) for d in range(order + 1)}, order)
        weights = tuple(rng.randint(-2, 2) for _ in range(nvars))
        product_first = substitute_linear_form((a * b).truncate(order), weights, cap)
        substitute_first = substitute_linear_form(a, weights, cap) * substitute_linear_form(
            b, weights, cap
        )
        assert product_first == substitute_first


def test_substitute_linear_forms_telescoping_small():
    # f(t1) with t1 -> u1 - u2 by hand: coefficient of u1^a u2^b is
    # f_{a+b} * C(a+b, a) * (-1)^b
    from dmzv.rationals import binomial

    f = UniSeries({0: 2, 1: 3, 2: 5, 3: 7, 4: 11}, 4)
    X = substitute_linear_form(f, (1, 0), 2)  # univariate in t1, cap 2 per var
    rows = [(1, -1), (0, 1)]
    Y = substitute_linear_forms(X, rows, 1)
    for a in range(2):
        for b in range(2):
            expected = f.coefficient(a + b) * binomial(a + b, a) * (-1) ** b
            assert Y.coefficient((a, b)) == expected


def test_substitute_linear_forms_guard():
    X = MultiSeries.constant(1, 2, 3)
    with pytest.raises(ValueError, match="insufficient multivariate order"):
        substitute_linear_forms(X, [(1, -1), (0, 1)], 2)  # needs input cap 4


@st.composite
def series_pairs(draw):
    """Two sparse series of one random shape: 1-4 variables, cap 0-4."""
    nvars = draw(st.integers(1, 4))
    cap = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, cap)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = st.dictionaries(exps, coeffs, max_size=30)
    return MultiSeries(draw(terms), nvars, cap), MultiSeries(draw(terms), nvars, cap)


def naive_product(a, b):
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if max(e) <= a.cap:
                out[e] = out.get(e, 0) + c1 * c2
    return MultiSeries(out, a.nvars, a.cap)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_product_matches_naive_reference(pair):
    a, b = pair
    product = a * b
    assert product == naive_product(a, b)
    assert all(type(c) is Fraction and c for c in product.coeffs.values())


@settings(max_examples=25, deadline=None)
@given(series_pairs(), series_pairs())
def test_product_shape_mismatch_raises(first, second):
    a, b = first[0], second[0]
    assume((a.nvars, a.cap) != (b.nvars, b.cap))
    with pytest.raises(ValueError, match="shape mismatch"):
        a * b


def test_substitution_refuses_a_pole():
    # the pole term has no image in a power series in t_1, t_2, so the
    # substitution must refuse rather than drop it
    with pytest.raises(ValueError, match="pole"):
        substitute_linear_form(UniSeries({-1: 1, 0: 1}, 4), (1, 1), 2)
    with pytest.raises(ValueError, match="pole"):
        substitute_linear_form(UniSeries({-2: 3}, 4), (1,), 4)
    substitute_linear_form(UniSeries.zero(4), (1, 1), 2)  # no terms, no pole
