"""A third oracle: Bernoulli numbers, the coefficients of every depth-1
series (the two factors, the conversion prefactor and the words kernel),
depth-2 generating-function coefficients and the two sides of the
shifted-zeta merge substitution from sympy, which shares no code with
either of the library's routes.  Skipped when sympy is not installed."""

from fractions import Fraction
from math import factorial

import pytest

from dmzv.bernoulli import bernoulli
from dmzv.genfun import (
    ems_factor,
    ems_prefactor,
    ems_series,
    ems_value,
    fkmt_factor,
    fkmt_series,
    fkmt_value,
)
from dmzv.series import exp_over_one_minus_exp
from dmzv.shiftcoeffs import merge_sides, shifted_zeta_expression

sympy = pytest.importorskip("sympy")


def as_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def test_bernoulli_numbers_match_sympy():
    # 0..201: every entry that ``convert --max-weight 200`` reads
    for m in range(202):
        expected = as_fraction(sympy.bernoulli(m))
        if m == 1:
            # sympy >= 1.12 uses B_1 = +1/2; earlier versions use -1/2
            expected = -abs(expected)
        assert bernoulli(m) == expected, m


CLOSED_FORMS = {
    "FKMT": (fkmt_factor, fkmt_value, lambda u, e: ((1 - u) * e - 1) / (e - 1) ** 2),
    "EMS": (ems_factor, ems_value, lambda u, e: (u - (e - 1)) / (u * (e - 1))),
}


@pytest.mark.parametrize("family", CLOSED_FORMS)
def test_depth1_factor_matches_sympy_series(family):
    factor, multisum, closed_form = CLOSED_FORMS[family]
    u = sympy.Symbol("u")
    expansion = sympy.series(closed_form(u, sympy.exp(u)), u, 0, 12).removeO()
    series = factor(11)
    for d in range(12):
        expected = as_fraction(expansion.coeff(u, d))
        # the series route's coefficient, and the multi-sum route's value
        assert series.coefficient(d) == expected, d
        assert multisum((d,)) == (-1) ** d * factorial(d) * expected, d


# the other two series built by the divided-power quotient, each with its
# closed form and its lowest degree
OTHER_SERIES = {
    "ems_prefactor": (ems_prefactor, lambda u, e: (1 - 1 / e) / u, 0),
    "exp_over_one_minus_exp": (exp_over_one_minus_exp, lambda u, e: e / (1 - e), -1),
}


@pytest.mark.parametrize("name", OTHER_SERIES)
def test_depth1_series_matches_sympy_series(name):
    builder, closed_form, low = OTHER_SERIES[name]
    u = sympy.Symbol("u")
    expansion = sympy.series(closed_form(u, sympy.exp(u)), u, 0, 12).removeO()
    series = builder(11)
    assert series.valuation() == low
    for d in range(low, 12):
        assert series.coefficient(d) == as_fraction(expansion.coeff(u, d)), d


@pytest.mark.parametrize("family, series", [("FKMT", fkmt_series), ("EMS", ems_series)])
def test_depth2_generating_function_matches_sympy(family, series):
    # f(t1 + t2) f(t2), with f expanded by sympy through the total degree
    # 2 * cap that the coefficient box reaches
    cap = 4
    closed_form = CLOSED_FORMS[family][2]
    u, t1, t2 = sympy.symbols("u t1 t2")
    f = sympy.series(closed_form(u, sympy.exp(u)), u, 0, 2 * cap + 1).removeO()
    product = sympy.Poly(sympy.expand(f.subs(u, t1 + t2) * f.subs(u, t2)), t1, t2)
    built = series(2, cap)
    for a in range(cap + 1):
        for b in range(cap + 1):
            expected = as_fraction(product.coeff_monomial(t1**a * t2**b))
            assert built.coefficient((a, b)) == expected, (a, b)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_merge_sides_match_sympy(depth):
    # each record's polynomial built in sympy from its terms, substituted
    # and expanded there, against the two sides the merge check expands in
    # closed form
    u = sympy.symbols(f"u1:{depth + 1}")
    v = sympy.symbols(f"v1:{depth + 1}")
    z = sympy.Symbol("z")

    def polynomial(d):
        return sum(coef * sympy.prod(u[i] ** l[i] * v[i] ** m[i] for i in range(d))
                   for coef, l, m in shifted_zeta_expression(d))

    def coefficients(expr):
        out = {}
        for monomial, coef in sympy.expand(expr).as_coefficients_dict().items():
            powers = monomial.as_powers_dict()
            out[tuple(int(powers.get(x, 0)) for x in (*u, *v, z))] = int(coef)
        return out

    lhs = polynomial(depth).subs(v[-1], v[-2] * (u[-1] + z) / u[-1])
    rhs = (1 + z) * polynomial(depth - 1).subs(u[-2], u[-2] + u[-1] + z)
    assert merge_sides(depth) == (coefficients(lhs), coefficients(rhs))
