import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_series import divide_with_valuation, exp_minus_one, exp_series, laurent_divide

from dmzv.bernoulli import bernoulli
from dmzv.series import UniSeries, exp_over_one_minus_exp


def derivative(s):
    """Termwise d/du on the stored numerators, over the series' own
    denominator; loses one representable order at the top."""
    nums = {d - 1: d * n for d, n in s._nums.items() if d != 0}
    return s._like(nums, s._den, s.order - 1)


def list_divide(num, den, order):
    """Independent long-division oracle on plain coefficient lists.

    num and den are lists indexed by degree; den[0] must be nonzero.
    """
    q = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else Fraction(0)
        for i in range(n):
            if n - i < len(den):
                acc -= q[i] * den[n - i]
        q[n] = acc / den[0]
    return q


def test_exp_minus_one_coefficients():
    s = exp_minus_one(4)
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == 1
    assert s.coefficient(2) == Fraction(1, 2)
    assert s.coefficient(3) == Fraction(1, 6)
    assert exp_minus_one(1) == UniSeries({1: 1}, 1)
    s2 = exp_minus_one(2)
    assert s2 == UniSeries({1: 1, 2: Fraction(1, 2)}, 2)


def test_divide_geometric():
    # u^2 / (u^2 (1 + u)) = 1 - u + u^2 - ...
    num = UniSeries({2: 1}, 8)
    den = UniSeries({2: 1, 3: 1}, 8)
    q = divide_with_valuation(num, den)
    for d in range(q.order + 1):
        assert q.coefficient(d) == (1 if d % 2 == 0 else -1)


def test_divide_trivial():
    u = UniSeries({1: 1}, 5)
    assert divide_with_valuation(u, u) == UniSeries.one(4)


def test_divide_fkmt_numerator_oracle():
    # ((1 - u) e^u - 1) / (e^u - 1)^2 starts -1/2 + u/6, by schoolbook
    # long division on coefficient lists
    N = 10
    e = [Fraction(1, factorial(m)) for m in range(N + 1)]
    num = [e[m] - (e[m - 1] if m else 0) - (1 if m == 0 else 0) for m in range(N + 1)]
    den = [Fraction(0)] * (N + 1)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i + j <= N:
                den[i + j] += Fraction(1, factorial(i)) * Fraction(1, factorial(j))
    # both vanish to order 2: shift down before dividing
    oracle = list_divide(num[2:], den[2:], N - 4)
    assert oracle[0] == Fraction(-1, 2)
    assert oracle[1] == Fraction(1, 6)

    series_num = UniSeries({m: num[m] for m in range(N + 1)}, N)
    series_den = exp_minus_one(N) * exp_minus_one(N)
    q = divide_with_valuation(series_num, series_den)
    for d in range(len(oracle)):
        assert q.coefficient(d) == oracle[d]


def test_divide_valuation_mismatch():
    num = UniSeries({1: 1}, 5)
    den = UniSeries({2: 1}, 5)
    with pytest.raises(ValueError, match="valuation mismatch"):
        divide_with_valuation(num, den)


def test_divide_times_denominator_reproduces_numerator():
    rng = random.Random(4242)
    for _ in range(25):
        order = rng.randint(3, 9)
        vd = rng.randint(0, 2)
        den_coeffs = {vd: Fraction(rng.randint(1, 5))}
        for d in range(vd + 1, order + 1):
            if rng.random() < 0.6:
                den_coeffs[d] = Fraction(rng.randint(-4, 4))
        den = UniSeries(den_coeffs, order)
        num_coeffs = {}
        for d in range(vd, order + 1):
            if rng.random() < 0.6:
                num_coeffs[d] = Fraction(rng.randint(-4, 4))
        num = UniSeries(num_coeffs, order)
        q = divide_with_valuation(num, den)
        back = q * den
        assert back == num.truncate(back.order)


def test_mul_distributes_over_add():
    rng = random.Random(11)

    def sample(order):
        # valuations of either sign: a pole of order up to 2
        low = rng.randint(-2, 2)
        return UniSeries(
            {d: Fraction(rng.randint(-3, 3)) for d in range(low, order + 1)}, order
        )

    for _ in range(40):
        order = rng.randint(2, 8)
        a, b, c = sample(order), sample(order), sample(order)
        lhs = a * (b + c)
        rhs = a * b + a * c
        common = min(lhs.order, rhs.order)
        assert lhs.truncate(common) == rhs.truncate(common)


def test_kernel_series_leading_terms():
    x = exp_over_one_minus_exp(8)
    assert x.valuation() == -1
    assert x.coefficient(-1) == -1
    assert x.coefficient(0) == Fraction(-1, 2)
    assert x.coefficient(1) == Fraction(-1, 12)
    assert x.coefficient(2) == 0  # odd Bernoulli number


def test_kernel_series_bernoulli_oracle():
    # x(z) = -1 - (1/z) sum_m B_m z^m / m!
    N = 12
    x = exp_over_one_minus_exp(N)
    for d in range(-1, N + 1):
        expected = -bernoulli(d + 1) / factorial(d + 1)
        if d == 0:
            expected -= 1
        assert x.coefficient(d) == expected


def test_kernel_series_functional_equation():
    # x * (1 - e^z) = e^z through order 12
    N = 12
    x = exp_over_one_minus_exp(N + 2)
    lhs = x * -exp_minus_one(N + 2)
    rhs = exp_series(N + 2)
    assert lhs.truncate(N) == rhs.truncate(N)


@pytest.mark.parametrize("N", [0, 1, 6, 24])
def test_kernel_derivative_is_x_plus_x_squared(N):
    # x' = x + x^2: the word character evaluates polynomials in x on it
    x = exp_over_one_minus_exp(N)
    lhs, rhs = derivative(x), x + x * x
    common = min(lhs.order, rhs.order)
    assert lhs.truncate(common) == rhs.truncate(common)


def test_laurent_derivative():
    s = UniSeries({-1: 1}, 5)
    assert derivative(s) == UniSeries({-2: -1}, 4)
    assert derivative(UniSeries({0: 7}, 5)) == UniSeries.zero(4)
    assert derivative(UniSeries({2: Fraction(1, 2)}, 5)) == UniSeries({1: 1}, 4)


def test_laurent_divide_rational_function():
    # (1 + z) / z has expansion z^-1 + 1
    num = UniSeries({0: 1, 1: 1}, 6)
    den = UniSeries({1: 1}, 6)
    q = laurent_divide(num, den)
    assert q.coefficient(-1) == 1
    assert q.coefficient(0) == 1
    assert all(q.coefficient(d) == 0 for d in range(1, q.order + 1))


def test_order_bookkeeping():
    a = UniSeries({0: 1}, 5)
    b = UniSeries({0: 1}, 3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    # a truncated operand with positive valuation extends the window only
    # as far as min(m.order + a.val, a.order + m.val)
    m = UniSeries({2: 1}, 4)
    assert (m * a).order == 4  # min(4 + 0, 5 + 2)
    assert a.shift(2).order == 7  # exact monomial multiply keeps everything
    with pytest.raises(ValueError):
        a.coefficient(6)
    with pytest.raises(ValueError):
        a.truncate(7)


def test_negate_variable():
    s = UniSeries({0: 1, 1: 1, 2: 1}, 2)
    assert s.negate_variable() == UniSeries({0: 1, 1: -1, 2: 1}, 2)


@st.composite
def uni_series(draw):
    # valuation in [-2, 2] (or zero), an order of its own, and
    # coefficients with small denominators
    low = draw(st.integers(-2, 2))
    order = draw(st.integers(low, 8))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return UniSeries(draw(st.dictionaries(st.integers(low, order), coeffs, max_size=8)), order)


@st.composite
def cancelling_pairs(draw):
    """a and b = c - a for a series c with integer coefficients, so that the
    sum a + b cancels every denominator of a."""
    a, c = draw(uni_series()), draw(uni_series())
    order = min(a.order, c.order)
    c = UniSeries({d: round(x) for d, x in c.coeffs.items() if d <= order}, order)
    return a, c - a


series_pairs = st.tuples(uni_series(), uni_series()) | cancelling_pairs()


def naive_product(a, b):
    """Termwise Fraction convolution under the product's order rule."""
    order = min(a.order + b.valuation(), b.order + a.valuation())
    out = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            if d1 + d2 <= order:
                out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + c1 * c2
    return UniSeries(out, order)


def stored_form(s):
    """The stored form's invariant: non-zero integer numerators over a
    positive denominator, with no common factor."""
    nums = list(s._nums.values())
    assert all(type(n) is int and n for n in nums) and type(s._den) is int and s._den > 0
    assert gcd(s._den, *nums) == 1
    return s


@settings(max_examples=100, deadline=None)
@given(series_pairs)
def test_product_matches_naive_convolution(pair):
    # ``==`` compares numerators and denominator, so a product left over an
    # unreduced denominator fails too
    a, b = pair
    assert stored_form(a * b) == naive_product(a, b)


@settings(max_examples=100, deadline=None)
@given(series_pairs, st.fractions(min_value=-4, max_value=4, max_denominator=6), st.data())
def test_operations_match_fraction_oracle(pair, factor, data):
    # each operation against the same operation on Fraction dicts, built
    # through the constructor
    a, b = pair
    A, B = a.coeffs, b.coeffs
    order = min(a.order, b.order)
    low = [d for d in A.keys() | B.keys() if d <= order]
    zero = Fraction(0)
    assert stored_form(a + b) == UniSeries({d: A.get(d, zero) + B.get(d, zero) for d in low}, order)
    assert stored_form(a - b) == UniSeries({d: A.get(d, zero) - B.get(d, zero) for d in low}, order)
    assert stored_form(a.scale(factor)) == UniSeries({d: c * factor for d, c in A.items()}, a.order)
    k = data.draw(st.integers(-3, 3))
    assert stored_form(a.shift(k)) == UniSeries({d + k: c for d, c in A.items()}, a.order + k)
    negated = UniSeries({d: -c if d % 2 else c for d, c in A.items()}, a.order)
    assert stored_form(a.negate_variable()) == negated
    top = data.draw(st.integers(a.order - 4, a.order))
    assert stored_form(a.truncate(top)) == UniSeries({d: c for d, c in A.items() if d <= top}, top)
    derived = UniSeries({d - 1: d * c for d, c in A.items()}, a.order - 1)
    assert stored_form(derivative(a)) == derived
