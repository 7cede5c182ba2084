import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv.multipoly import LaurentPolynomial


VARS = ("u1", "v1", "v2")


def mono(exps, coeff=1, variables=VARS):
    return LaurentPolynomial.monomial(variables, exps, coeff)


def test_inverse_pair_cancels():
    v = mono({"v1": 1})
    vinv = mono({"v1": -1})
    assert v * vinv == LaurentPolynomial.constant(1, VARS)


def test_substitute_to_zero():
    p = mono({"v2": 1}) - mono({"v1": 1})
    q = p.substitute("v2", mono({"v1": 1}))
    assert q.is_zero()


def test_depth_one_bracket():
    # 1 - u1*v1*v1^{-1} collapses to 1 - u1
    p = LaurentPolynomial.constant(1, VARS) - mono({"u1": 1, "v1": 1}) * mono({"v1": -1})
    assert p == LaurentPolynomial.constant(1, VARS) - mono({"u1": 1})


def test_substitution_homomorphic():
    rng = random.Random(5150)

    def sample(variables):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 2) for _ in variables)
            terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-3, 3))
        return LaurentPolynomial(terms, variables)

    variables = ("a", "b")
    replacement = LaurentPolynomial(
        {(1, 0): 1, (0, 1): 2, (0, 0): -1}, variables
    )
    for _ in range(40):
        p, q = sample(variables), sample(variables)
        lhs = (p * q).substitute("a", replacement)
        rhs = p.substitute("a", replacement) * q.substitute("a", replacement)
        assert lhs == rhs
        lhs_add = (p + q).substitute("a", replacement)
        rhs_add = p.substitute("a", replacement) + q.substitute("a", replacement)
        assert lhs_add == rhs_add


def test_substitute_into_negative_power_raises():
    p = mono({"v1": -1})
    with pytest.raises(ValueError, match="negative power"):
        p.substitute("v1", mono({"v2": 1}))


def test_operations_work_in_one_ring():
    a = LaurentPolynomial({(1,): 1}, ("x",))
    b = LaurentPolynomial({(1,): 1}, ("y",))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.substitute("x", b)):
        with pytest.raises(ValueError, match=r"\('x',\) vs \('y',\)"):
            op()
    a_wide = a.with_variables(("x", "y"))
    assert a != a_wide
    # embedded into one ring, the same operands combine and agree
    b_wide = b.with_variables(("x", "y"))
    assert a_wide + b_wide == LaurentPolynomial({(1, 0): 1, (0, 1): 1}, ("x", "y"))
    assert a_wide * b_wide == LaurentPolynomial({(1, 1): 1}, ("x", "y"))
    assert a_wide.substitute("x", b_wide) == b_wide
    assert a_wide == LaurentPolynomial({(1, 0): 1}, ("x", "y"))


def test_shift_variable_and_degrees():
    p = mono({"u1": 1}) + mono({"u1": -2})
    assert p.min_degree("u1") == -2
    cleared = p.shift_variable("u1", 2)
    assert cleared.min_degree("u1") == 0
    assert cleared == mono({"u1": 3}) + LaurentPolynomial.constant(1, VARS)


@st.composite
def polynomial_pairs(draw):
    """Two sparse polynomials in one ring of 1-4 variables, exponents of
    either sign; either may be zero."""
    variables = tuple(f"x{i}" for i in range(draw(st.integers(1, 4))))
    exps = st.tuples(*[st.integers(-3, 3)] * len(variables))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = st.dictionaries(exps, coeffs, max_size=12)
    return (
        LaurentPolynomial(draw(terms), variables),
        LaurentPolynomial(draw(terms), variables),
    )


def naive_product(a, b):
    """Termwise Fraction convolution."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return LaurentPolynomial(out, a.variables)


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs())
def test_product_matches_naive_convolution(pair):
    a, b = pair
    product = a * b
    assert product == naive_product(a, b)
    assert all(type(c) is Fraction and c for c in product.terms.values())
    assert product.variables == a.variables


@pytest.mark.parametrize("a, b", [(1, 1), (Fraction(1, 2), Fraction(-2, 3))])
def test_product_drops_cancelled_terms(a, b):
    # (a x + b y)(a x - b y) = a^2 x^2 - b^2 y^2: the two xy sums are zero
    variables = ("x", "y")
    x, y = (LaurentPolynomial.monomial(variables, {name: 1}) for name in variables)
    product = (x * a + y * b) * (x * a - y * b)
    assert product.terms == {(2, 0): a * a, (0, 2): -b * b}
    assert all(type(c) is Fraction and c for c in product.terms.values())


@pytest.mark.parametrize("big", [3, 127, 128, 200, 40_000, 2**40])
def test_exponents_of_every_field_width(big):
    # exponents past 127 need wider packed fields, and a product or a sum
    # of operands with different widths repacks the narrower one
    variables = ("x", "y")
    a = LaurentPolynomial({(big, -1): Fraction(1, 2), (0, 3): 2}, variables)
    b = LaurentPolynomial({(-big, big): 3, (1, 0): Fraction(-1, 3)}, variables)
    product = a * b
    assert product == naive_product(a, b)
    assert product.sorted_terms() == sorted(naive_product(a, b).terms.items())
    assert (a + b) - b == a
    assert product.min_degree("x") == -big
    # a polynomial equals itself whatever width it is held at
    x = LaurentPolynomial.monomial(variables, {"x": 1})
    far = LaurentPolynomial.monomial(variables, {"x": big + 1})
    assert far * LaurentPolynomial.monomial(variables, {"x": -big}) == x


def test_exponents_too_large_to_pack_are_refused():
    with pytest.raises(ValueError, match="too large to pack"):
        LaurentPolynomial({(2**63,): 1}, ("x",))
