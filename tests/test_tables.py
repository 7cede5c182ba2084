"""Value tables by the last-entry recurrence on integers (``dmzv.tables``),
against the series route that they replaced for ``values``: the family's
product generating function, read off its packed coefficients.  The
divided-power quotient, and every depth-1 series built from it, against
the ``UniSeries`` division chain of ``reference_series``."""

from functools import lru_cache
from math import comb, factorial, gcd, prod
from operator import lshift

import pytest
import reference_series
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv import genfun, series, tables, verify, words
from dmzv.genfun import EMS, FAMILIES, FKMT, _product_series, ems_value, index_box
from dmzv.rationals import _layout


def series_rows(series):
    """(k, the value at -k as "p/q" or "p") for every k in the box
    [0, cap]^depth of a product series, in lexicographic order:
    (-1)^|k| k! times the numerator of t^k over the series' denominator,
    reduced by one gcd.  The code of t^k is the zero vector's code plus
    each entry in its field, the first highest."""
    nums, den, (depth, cap) = series._nums, series._den, series._ring
    layout = _layout(depth, series._bound)
    shifts = range(layout.width * (depth - 1), -1, -layout.width)
    factorials = [factorial(e) for e in range(cap + 1)].__getitem__
    for k in index_box(depth, cap):
        n = nums.get(layout.zero + sum(map(lshift, k, shifts)), 0) * prod(map(factorials, k))
        g = gcd(n, den)
        n, d = (-n if sum(k) % 2 else n) // g, den // g
        yield k, f"{n}/{d}" if d != 1 else str(n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["FKMT", "EMS"]), st.integers(1, 4), st.integers(0, 5))
def test_recurrence_rows_are_the_series_rows(family, depth, weight):
    expected = list(series_rows(_product_series(FAMILIES[family], depth, weight)))
    assert list(tables.value_rows(family, depth, weight)) == expected


def test_value_rows_read_16_bit_fields():
    # from max weight 64 on, each exponent of the series takes a 16-bit field
    rows = dict(series_rows(_product_series(EMS, 2, 64)))
    assert len(rows) == 65 * 65
    for k in [(0, 0), (0, 64), (64, 0), (37, 12), (63, 64), (64, 64)]:
        assert rows[k] == str(ems_value(k)), k
    assert dict(tables.value_rows("ems", 2, 64)) == rows


@pytest.mark.parametrize("family", [FKMT, EMS])
def test_depth1_numerators_are_the_factor_coefficients(family):
    # the divided-power quotient against the UniSeries division, and the
    # closed form (-1)^n row_weight(n), through order 400
    order = 400
    nums, den = tables.depth1_numerators(family.name, order)
    assert len(nums) == order + 1
    assert gcd(den, *nums) == 1
    factor = reference(family.factor.__name__)
    for n, num in enumerate(nums):
        q = factor.coefficient(n) * factorial(n)
        assert num * q.denominator == (-1) ** n * q.numerator * den, n
        assert q == family.row_weight(n, None), n


# Each depth-1 series builder, its reference route and the order through
# which the two are compared.
BUILDERS = {
    "fkmt_factor": (genfun.fkmt_factor, reference_series.fkmt_factor, 400),
    "ems_factor": (genfun.ems_factor, reference_series.ems_factor, 400),
    "ems_prefactor": (genfun.ems_prefactor, reference_series.ems_prefactor, 400),
    "exp_over_one_minus_exp": (series.exp_over_one_minus_exp,
                               reference_series.exp_over_one_minus_exp, 200),
}


@lru_cache(maxsize=None)
def reference(name):
    _, route, top = BUILDERS[name]
    return route(top)


def stored(s):
    return s._nums, s._den, s.order


@pytest.mark.parametrize("name", BUILDERS)
def test_series_builders_are_the_reference_division(name):
    # the stored form, at every order through 40 and at the top order
    builder, route, top = BUILDERS[name]
    for order in range(41):
        assert stored(builder(order)) == stored(route(order)), order
    assert stored(builder(top)) == stored(reference(name))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(BUILDERS)), st.data())
def test_series_builders_store_the_reference_form_at_any_order(name, data):
    # the stored form is unique, so a builder at any order through the top
    # is the reference at the top, truncated
    builder, _, top = BUILDERS[name]
    order = data.draw(st.integers(0, top))
    assert stored(builder(order)) == stored(reference(name).truncate(order))


def test_a_wrong_divided_power_fails_routes(monkeypatch):
    alpha, beta = tables.DIVIDED_POWERS["FKMT"]
    monkeypatch.setitem(tables.DIVIDED_POWERS, "FKMT",
                        (alpha, lambda n: beta(n) + (n == 4)))
    report = verify.verify_routes(3, 4, verify.ValueStore())
    failed = {tuple(check.witness["k"]) for check in report.failures()}
    assert failed and all(sum(k) >= 2 for k in failed)
    assert all("desingularized" in check.description for check in report.failures())


def test_a_wrong_recurrence_binomial_fails_routes(monkeypatch):
    # the depth-1 values step their binomials by Pascal's rule, so only
    # the recurrence reads the wrong C(2, 1)
    monkeypatch.setattr(tables, "comb", lambda n, k: 3 if (n, k) == (2, 1) else comb(n, k))
    report = verify.verify_routes(3, 4, verify.ValueStore())
    failed = {tuple(check.witness["k"]) for check in report.failures()}
    # (a, 2) at depth 2 reads row 2
    assert (0, 2) in failed and all(len(k) > 1 for k in failed)


def test_a_wrong_pascal_entry_in_the_quotient_fails_routes_conversion_and_words(monkeypatch):
    # C(5, 2) = 11: the tables, the factors, the prefactor and the kernel
    # all step the rows of the one quotient, so the one fault must reach a
    # value suite and the words suite
    monkeypatch.setattr(tables, "add", lambda a, b: a + b + ((a, b) == (4, 6)))
    caches = (genfun.fkmt_factor, genfun.ems_factor, genfun.ems_prefactor,
              genfun.fkmt_series, genfun.ems_series, series.exp_over_one_minus_exp,
              words._kernel_powers)
    for cache in caches:
        cache.cache_clear()
    try:
        reports = verify.run_all(verify.VerifyConfig(
            suites=["routes", "telescope", "conversion", "words"]))
    finally:
        for cache in caches:
            cache.cache_clear()
    failed = {report.suite for report in reports if not report.passed}
    assert {"routes", "conversion", "words"} <= failed
    assert all("exception" not in (check.witness or {})
               for report in reports for check in report.failures())
