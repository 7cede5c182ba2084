import json
from fractions import Fraction
from itertools import product as iter_product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv.bernoulli import BernoulliCache, bernoulli
from dmzv.genfun import (
    EMS,
    FKMT,
    conversion_table,
    ems_series,
    ems_series_from_fkmt,
    ems_value,
    fkmt_series,
    fkmt_value,
    value_table,
)
from dmzv.rationals import format_rational


def series_value(series, k):
    """The series route: the value at -k is (-1)^|k| k_1! ... k_r! times
    the coefficient of t^k in the generating function ``series(r, cap)``
    whose cap covers k."""
    k = tuple(k)
    value = series(len(k), max(k)).coefficient(k)
    for x in k:
        value *= factorial(x)
    return -value if sum(k) % 2 else value


def test_depth1_series_constant_and_linear_terms():
    s = fkmt_series(1, 4)
    assert s.coefficient((0,)) == Fraction(-1, 2)
    assert s.coefficient((1,)) == Fraction(1, 6)
    e = ems_series(1, 4)
    assert e.coefficient((0,)) == Fraction(-1, 2)
    assert e.coefficient((1,)) == Fraction(1, 12)


def test_depth2_constant_term():
    assert fkmt_series(2, 2).coefficient((0, 0)) == Fraction(1, 4)
    assert ems_series(2, 2).coefficient((0, 0)) == Fraction(1, 4)


def test_depth1_factor_is_bernoulli_series():
    # coefficient of u^m in the depth-1 series is B_{m+1}/m!
    s = fkmt_series(1, 10)
    for m in range(11):
        assert s.coefficient((m,)) == bernoulli(m + 1) / factorial(m)
    # and for the renormalized factor, B_{m+1}/(m+1)!
    e = ems_series(1, 10)
    for m in range(11):
        assert e.coefficient((m,)) == bernoulli(m + 1) / factorial(m + 1)


def test_depth1_values():
    assert series_value(fkmt_series, (0,)) == Fraction(-1, 2)
    assert series_value(fkmt_series, (1,)) == Fraction(-1, 6)
    assert series_value(fkmt_series, (0, 0)) == Fraction(1, 4)
    # closed forms for k <= 20, both routes
    for k in range(21):
        sign = -1 if k % 2 else 1
        assert fkmt_value((k,)) == sign * bernoulli(k + 1)
        assert series_value(fkmt_series, (k,)) == sign * bernoulli(k + 1)
        assert ems_value((k,)) == sign * bernoulli(k + 1) / (k + 1)
        assert series_value(ems_series, (k,)) == sign * bernoulli(k + 1) / (k + 1)


def test_multisum_single_matrix_cases():
    # depth 1: a single one-entry matrix per index
    assert fkmt_value((0,)) == bernoulli(1)
    assert fkmt_value((1,)) == -bernoulli(2)
    for k in range(2, 22, 2):
        assert fkmt_value((k,)) == 0  # (-1)^k B_{k+1} with odd index


def test_multisum_depth2_hand_expansion():
    # columns: nu11 = k1; nu12 + nu22 = k2, so the value is
    # (-1)^{k1+k2} sum_j C(k2, j) B_{k1+j+1} B_{k2-j+1}
    from dmzv.rationals import binomial

    for k1 in range(4):
        for k2 in range(4):
            expected = Fraction(0)
            for j in range(k2 + 1):
                expected += binomial(k2, j) * bernoulli(k1 + j + 1) * bernoulli(k2 - j + 1)
            if (k1 + k2) % 2:
                expected = -expected
            assert fkmt_value((k1, k2)) == expected


def enumerated_multisum(k, cache, row_weight):
    # the multi-sum matrix by matrix: every upper-triangular matrix whose
    # column j is a composition of k_j into j + 1 parts, each row's weights
    # read in row order up to the first zero, as the row-tail sum must
    # reproduce in both value and Bernoulli reads
    r = len(k)
    numerator = 1
    for x in k:
        numerator *= factorial(x)
    columns = [
        [c for c in iter_product(range(x + 1), repeat=j + 1) if sum(c) == x]
        for j, x in enumerate(k)
    ]
    total = Fraction(0)
    for cols in iter_product(*columns):
        row_tails = [0] * r
        denom = 1
        for col in cols:
            for i, entry in enumerate(col):
                row_tails[i] += entry
                denom *= factorial(entry)
        term = Fraction(numerator, denom)
        for tail in row_tails:
            weight = row_weight(tail, cache)
            if not weight:
                term = Fraction(0)
                break
            term *= weight
        total += term
    return -total if sum(k) % 2 else total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_multisum_matches_matrix_enumeration(k):
    k = tuple(k)
    assert fkmt_value(k) == enumerated_multisum(k, None, FKMT.row_weight)
    assert ems_value(k) == enumerated_multisum(k, None, EMS.row_weight)


# Besides a few generic indices, (m + 2, m - 1) reads B_m, for m = 4, 6
# and 8, only in a tail vector whose first row weight is 0, so a multi-sum
# that reads past a zero weight leaves a different unread set.  B_13 has no
# such index: the fill computes every later odd entry from the corrupted
# one, so none of them is 0.
CORRUPTED_CASE_INDICES = [(0,), (5,), (1, 2), (3, 3), (6, 3), (8, 5), (10, 7),
                          (1, 2, 3), (3, 0, 2, 1), (2, 2, 2, 2)]


@pytest.mark.parametrize("corrupted", [4, 6, 8, 13])
@pytest.mark.parametrize("family, multisum", [(FKMT, fkmt_value), (EMS, ems_value)],
                         ids=["FKMT", "EMS"])
def test_multisum_under_a_corrupted_bernoulli_table(corrupted, family, multisum):
    for k in CORRUPTED_CASE_INDICES:
        row_tail_cache, reference_cache = BernoulliCache(), BernoulliCache()
        row_tail_cache.corrupt(corrupted, Fraction(1, 5))
        reference_cache.corrupt(corrupted, Fraction(1, 5))
        value = multisum(k, row_tail_cache)
        assert value == enumerated_multisum(k, reference_cache, family.row_weight), k
        assert row_tail_cache.unread_corruptions() == reference_cache.unread_corruptions(), k
        assert row_tail_cache.known() == reference_cache.known(), k


def test_routes_agree_small_boxes():
    for depth in (1, 2):
        for k in iter_product(range(4), repeat=depth):
            assert fkmt_value(k) == series_value(fkmt_series, k)
            assert ems_value(k) == series_value(ems_series, k)


def test_depth2_value_via_product_recurrence():
    assert fkmt_value((0, 0)) == fkmt_value((0,)) * fkmt_value((0,))


def test_series_factorization_recurrence():
    # the depth-r series is the depth-(r-1) series in t_2..t_r times the
    # depth-1 factor at t_1 + ... + t_r, coefficientwise
    from dmzv.genfun import fkmt_factor
    from dmzv.multiseries import MultiSeries, substitute_linear_form

    for depth, cap in ((2, 4), (3, 3)):
        lower = fkmt_series(depth - 1, cap)
        embedded = MultiSeries(
            {(0,) + exps: c for exps, c in lower.coeffs.items()}, depth, cap
        )
        head = substitute_linear_form(fkmt_factor(depth * cap), (1,) * depth, cap)
        assert fkmt_series(depth, cap) == embedded * head


def test_conversion_series_equality():
    assert ems_series_from_fkmt(1, 8) == ems_series(1, 8)
    assert ems_series_from_fkmt(2, 4) == ems_series(2, 4)


def test_depth1_conversion_residuals():
    for k in (0, 5, 10):
        assert conversion_table(k)[k][2:] == (Fraction(0), Fraction(0))


def test_depth1_conversion_k1_by_hand():
    # the first relation at k=1 is ems(-1) = fkmt(-1)*(-1)... spelled out:
    # C(1,0)*(-1)^1/1 * fkmt(0-th? ) -- check the numbers directly
    lhs = ems_value((1,))
    rhs = Fraction(-1, 1) * fkmt_value((1,)) + Fraction(1, 2) * fkmt_value((0,))
    assert lhs == rhs == Fraction(-1, 12)


def naive_residuals(k, cache=None):
    # the two conversion relations at k, summed term by term in Fractions
    # from per-index values, as the table's one-pass sums must reproduce
    ems_from_fkmt = sum(
        (
            comb(k, i) * Fraction((-1) ** (k - i), i + 1) * fkmt_value((k - i,), cache)
            for i in range(k + 1)
        ),
        Fraction(0),
    )
    fkmt_from_ems = (-1) ** k * sum(
        (comb(k, i) * bernoulli(i, cache) * ems_value((k - i,), cache) for i in range(k + 1)),
        Fraction(0),
    )
    return ems_value((k,), cache) - ems_from_fkmt, fkmt_value((k,), cache) - fkmt_from_ems


def test_conversion_table_matches_per_k_sums():
    # up to the weight that ``convert --max-weight 200`` reads, where the
    # common denominators span the whole table
    rows = conversion_table(200)
    assert len(rows) == 201
    for k in [*range(61), 100, 199, 200]:
        fkmt, ems, first, second = rows[k]
        assert fkmt == (-1) ** k * bernoulli(k + 1)
        assert ems == (-1) ** k * bernoulli(k + 1) / (k + 1)
        assert (first, second) == naive_residuals(k) == (0, 0)
    # a shorter table is a prefix of the longer one
    assert conversion_table(30) == rows[:31]
    with pytest.raises(ValueError):
        conversion_table(-1)


@pytest.mark.parametrize("index", [5, 12, 31, 32, 33])
def test_conversion_table_under_a_corrupted_bernoulli_table(index):
    # rows 0..31 read B_0..B_32: the residuals stop vanishing exactly when
    # the corruption is among them, the table still equals the per-k sums,
    # and it leaves the same corruptions unread
    table_cache, per_k_cache = BernoulliCache(), BernoulliCache()
    table_cache.corrupt(index, Fraction(1, 5))
    per_k_cache.corrupt(index, Fraction(1, 5))
    residuals = [row[2:] for row in conversion_table(31, table_cache)]
    assert residuals == [naive_residuals(k, per_k_cache) for k in range(32)]
    assert any(r != (0, 0) for r in residuals) == (index <= 32)
    assert table_cache.unread_corruptions() == per_k_cache.unread_corruptions()
    assert table_cache.unread_corruptions() == ([] if index <= 32 else [index])


def test_value_table_json_and_rows(capsys):
    from dmzv.cli import main
    from dmzv.tables import value_rows

    table = value_table("fkmt", 1, 2)
    assert table == {(0,): Fraction(-1, 2), (1,): Fraction(-1, 6), (2,): 0}
    rows = list(value_rows("fkmt", 1, 2))
    assert rows == [((0,), "-1/2"), ((1,), "-1/6"), ((2,), "0")]
    assert [(k, format_rational(v)) for k, v in table.items()] == rows

    # the values file holds the same rows
    data = {"depth": 1, "family": "FKMT",
            "values": [{"args": list(k), "value": v} for k, v in rows]}
    assert main(["values", "--family", "fkmt", "--max-weight", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_series_and_multisum_tables_match():
    # every table entry, built by the last-entry recurrence, equals the
    # value computed on its own by the Bernoulli multi-sum
    for family, multisum in (("FKMT", fkmt_value), ("EMS", ems_value)):
        witness = {}
        for depth in (1, 2, 3):
            for weight in range(5):
                table = value_table(family, depth, weight)
                assert list(table) == list(iter_product(range(weight + 1), repeat=depth))
                for k, value in table.items():
                    if k not in witness:
                        witness[k] = multisum(k)
                    assert value == witness[k], (family, depth, weight, k)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        fkmt_value(())
    with pytest.raises(ValueError):
        fkmt_value((-1,))
    with pytest.raises(ValueError):
        value_table("bogus", 1, 2)
    with pytest.raises(ValueError):
        value_table("fkmt", 0, 2)
    with pytest.raises(ValueError):
        value_table("fkmt", 1, -1)
