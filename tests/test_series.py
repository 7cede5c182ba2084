import random
from fractions import Fraction
from math import factorial

import pytest

from dmzv.bernoulli import bernoulli
from dmzv.series import (
    UniSeries,
    divide_with_valuation,
    exp_minus_one,
    exp_over_one_minus_exp,
    exp_series,
    laurent_divide,
)


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


def test_laurent_derivative():
    s = UniSeries({-1: 1}, 5)
    assert s.derivative() == UniSeries({-2: -1}, 4)
    assert UniSeries({0: 7}, 5).derivative() == UniSeries.zero(4)
    assert UniSeries({2: Fraction(1, 2)}, 5).derivative() == UniSeries({1: 1}, 4)


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
