"""Value tables by the last-entry recurrence on integers (``dmzv.tables``),
against the series route that they replaced for ``values``: the family's
product generating function, read off its packed coefficients."""

from math import comb, factorial, gcd, prod
from operator import lshift

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv import tables, verify
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
    factor = family.factor(order)
    for n, num in enumerate(nums):
        q = factor.coefficient(n) * factorial(n)
        assert num * q.denominator == (-1) ** n * q.numerator * den, n
        assert q == family.row_weight(n, None), n


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
