import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmzv.genfun import ems_value, fkmt_series, fkmt_value
from dmzv.multipoly import LaurentPolynomial
from dmzv.multiseries import MultiSeries, substitute_linear_form, substitute_linear_forms
from dmzv.rationals import (
    binomial,
    exact_sum,
    format_rational,
    json_integer,
    multinomial,
    parse_rational,
    pochhammer,
)
from dmzv.series import UniSeries
from dmzv.words import Word, WordSum


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return tri


def test_binomial_examples():
    assert binomial(5, 0) == 1
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(7, -1) == 0


def test_binomial_against_pascal():
    tri = pascal_triangle(31)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


def test_binomial_recurrence():
    for n in range(2, 31):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_negative_n_raises():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pochhammer_examples():
    assert pochhammer(Fraction(7, 2), 0) == 1
    # product oracle: 1*2*3*4
    prod = 1
    for i in range(4):
        prod *= 1 + i
    assert pochhammer(1, 4) == prod == 24
    assert pochhammer(-2, 3) == 0  # factor (-2 + 2) = 0


def test_pochhammer_vandermonde_sampled():
    rng = random.Random(20240511)
    for _ in range(30):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        for n in range(11):
            rhs = sum(
                binomial(n, i) * pochhammer(a, i) * pochhammer(b, n - i)
                for i in range(n + 1)
            )
            assert pochhammer(a + b, n) == rhs


def test_multinomial_examples():
    assert multinomial([0, 0, 0]) == 1
    assert multinomial([1, 1]) == 2
    assert multinomial([2, 1]) == 3


def test_multinomial_against_factorials():
    from math import factorial

    rng = random.Random(7)
    for _ in range(50):
        parts = [rng.randint(0, 6) for _ in range(rng.randint(1, 5))]
        expected = factorial(sum(parts))
        for p in parts:
            expected //= factorial(p)
        assert multinomial(parts) == expected


def test_field_axioms_sampled():
    rng = random.Random(99)

    def sample():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

    for _ in range(100):
        a, b, c = sample(), sample(), sample()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


# Denominators drawn from a few small divisor-related values, so that runs
# repeat one and a new one often divides the running denominator, or from a
# wide range, so that most do not.
PAIRS = st.lists(
    st.tuples(st.integers(-30, 30),
              st.sampled_from([1, 2, 3, 4, 6, 12, 35]) | st.integers(1, 10**6)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(PAIRS)
@example([])
@example([(0, 7), (3, 4), (0, 4)])  # zero numerators
@example([(1, 12), (1, 6), (5, 3), (1, 12)])  # each later denominator divides the first
@example([(1, 4), (1, 6), (-5, 12), (1, 4)])  # 6 does not divide 4; then 12 and 4 divide 12
def test_exact_sum_matches_fraction_sum(pairs):
    total = exact_sum(pairs)
    assert type(total) is Fraction
    assert total == sum((Fraction(n, d) for n, d in pairs), Fraction(0))


def test_rational_serialization():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(0)) == "0"
    for text in ("1/2", "-3/4", "5", "0", "-7"):
        assert format_rational(parse_rational(text)) == text


# Each exact type's constructor, scaling and coefficient read, and each
# value route and substitution, called with one inexact argument: a float
# coefficient (0.1 would be stored as 3602879701896397/36028797018963968) or
# a non-integral degree, exponent, order, shape, index entry or weight
# (int() would truncate it).
REFUSED = {
    "UniSeries coefficient": lambda: UniSeries({0: 0.1}, 2),
    "UniSeries degree": lambda: UniSeries({1.5: 1}, 3),
    "UniSeries order": lambda: UniSeries({1: 1}, 3.9),
    "UniSeries scale": lambda: UniSeries({0: 1}, 2).scale(0.5),
    "UniSeries coefficient read": lambda: UniSeries({1: 1}, 2).coefficient(1.5),
    "MultiSeries coefficient": lambda: MultiSeries({(1,): 0.25}, 1, 2),
    "MultiSeries exponent": lambda: MultiSeries({(1.7,): 1}, 1, 2),
    "MultiSeries nvars": lambda: MultiSeries({}, 1.0, 2),
    "MultiSeries cap": lambda: MultiSeries({}, 1, 2.5),
    "MultiSeries scale": lambda: MultiSeries.constant(1, 1, 2).scale(0.5),
    "MultiSeries coefficient read": lambda: MultiSeries({(1,): 1}, 1, 2).coefficient((1.7,)),
    "LaurentPolynomial coefficient": lambda: LaurentPolynomial({(1,): 1.5}, ("x",)),
    "LaurentPolynomial exponent": lambda: LaurentPolynomial({(-1.5,): 1}, ("x",)),
    "LaurentPolynomial monomial": lambda: LaurentPolynomial.monomial(("x",), {"x": 2.0}),
    "LaurentPolynomial scale": lambda: LaurentPolynomial.constant(1, ("x",)).scale(0.5),
    "WordSum coefficient": lambda: WordSum({Word.parse("y"): 0.1}),
    "WordSum key": lambda: WordSum({"y": 1}),
    "WordSum scale": lambda: WordSum.of(Word.parse("y")).scale(0.5),
    "fkmt_value entry": lambda: fkmt_value((1.5, 2)),
    "ems_value entry": lambda: ems_value((2.9,)),
    "fkmt_series coefficient read": lambda: fkmt_series(1, 2).coefficient((1.5,)),
    "substitute_linear_form weight": lambda: substitute_linear_form(UniSeries({1: 1}, 2),
                                                                    (1.5, 1), 1),
    "substitute_linear_forms weight": lambda: substitute_linear_forms(
        MultiSeries({(1,): 1}, 1, 2), [(1.5, 1)], 1),
}

# A JSON field with a float, a string or a bool where an integer belongs,
# or a number or null where a "p/q" string belongs; the readers refuse it
# with ValueError, as they refuse any malformed record.
REFUSED_FIELDS = {
    "json_integer float": (lambda: json_integer(1.9, "depth"),
                           "depth must be an integer, got 1.9"),
    "json_integer bool": (lambda: json_integer(True, "depth"),
                          "depth must be an integer, got True"),
    "json_integer float entry": (lambda: json_integer(1.5, "args entry"),
                                 "args entry must be an integer, got 1.5"),
    "json_integer str": (lambda: json_integer("1", "args entry"),
                         "args entry must be an integer, got '1'"),
    "parse_rational float": (lambda: parse_rational(0.5), "rational must be a string, got 0.5"),
    "parse_rational int": (lambda: parse_rational(3), "rational must be a string, got 3"),
    "parse_rational null": (lambda: parse_rational(None), "rational must be a string, got None"),
}


@pytest.mark.parametrize("case", [*REFUSED, *REFUSED_FIELDS])
def test_exact_types_refuse_inexact_input(case):
    if case in REFUSED:
        with pytest.raises(TypeError):
            REFUSED[case]()
    else:
        read, message = REFUSED_FIELDS[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            read()


def test_exact_types_accept_integral_input():
    # what the refusals must not catch: ints, Fractions and integers of any
    # type that operator.index takes
    assert UniSeries({True: Fraction(2, 4)}, 3).coeffs == {1: Fraction(1, 2)}
    assert MultiSeries({(1,): 3}, 1, 2).scale(Fraction(1, 3)) == MultiSeries({(1,): 1}, 1, 2)
    assert WordSum.of(Word.parse("y"), 2).scale(Fraction(1, 2)) == WordSum.of(Word.parse("y"))
