import random
from fractions import Fraction

import pytest

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


def test_evaluate_matches_direct():
    p = mono({"u1": 2}, 3) + mono({"v1": -1}, Fraction(1, 2)) - LaurentPolynomial.constant(
        4, VARS
    )
    point = {"u1": Fraction(2), "v1": Fraction(1, 3), "v2": Fraction(5)}
    expected = 3 * Fraction(2) ** 2 + Fraction(1, 2) * 3 - 4
    assert p.evaluate(point) == expected


def test_evaluate_requires_all_variables():
    p = mono({"u1": 1})
    with pytest.raises(ValueError, match="no value supplied"):
        p.evaluate({"u1": 1, "v1": 1})


def test_variable_alignment():
    a = LaurentPolynomial({(1,): 1}, ("x",))
    b = LaurentPolynomial({(1,): 1}, ("y",))
    s = a + b
    assert set(s.variables) == {"x", "y"}
    assert s.coefficient_of((1, 0)) == 1
    assert s.coefficient_of((0, 1)) == 1
    # equality aligns too
    a_wide = a.with_variables(("x", "y"))
    assert a == a_wide


def test_shift_variable_and_degrees():
    p = mono({"u1": 1}) + mono({"u1": -2})
    assert p.min_degree("u1") == -2
    cleared = p.shift_variable("u1", 2)
    assert cleared.min_degree("u1") == 0
    assert cleared == mono({"u1": 3}) + LaurentPolynomial.constant(1, VARS)
