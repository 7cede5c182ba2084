import copy
import json
import pickle
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv import genfun, shiftcoeffs, verify, words
from dmzv.bernoulli import BernoulliCache, bernoulli
from dmzv.multipoly import LaurentPolynomial
from dmzv.rationals import binomial, format_rational
from dmzv.report import Check, IdentityReport
from dmzv.series import UniSeries
from dmzv.verify import (
    SUITES,
    ValueStore,
    VerifyConfig,
    reports_pass,
    run_all,
    verify_bernoulli,
    verify_conversion,
    verify_ems_shuffle,
    verify_inversion,
    verify_last_entry,
    verify_recurrence,
    verify_shuffle,
)


def test_check_invariant():
    with pytest.raises(ValueError):
        Check("x", "fail")  # fail without witness
    with pytest.raises(ValueError):
        Check("x", "pass", {"unexpected": 1})
    assert Check.of("ok") == Check("ok", "pass", None)
    assert Check.of("bad", {"k": 1}) == Check("bad", "fail", {"k": 1})


def test_reports_compare_like_the_dataclasses_they_replaced():
    check = Check.of("bad", {"k": 1})
    assert check == Check("bad", "fail", {"k": 1}) != ("bad", "fail", {"k": 1})
    assert hash(Check.of("ok")) == hash(Check("ok", "pass"))
    assert repr(Check.of("ok")) == "Check(description='ok', status='pass', witness=None)"
    with pytest.raises(AttributeError):
        check.status = "pass"
    assert copy.deepcopy(check) == pickle.loads(pickle.dumps(check)) == check
    report = IdentityReport("demo")
    assert report == IdentityReport("demo", {}, [], 0.0)
    assert report.parameters is not IdentityReport("demo").parameters
    report.checks.append(check)
    assert report != IdentityReport("demo")
    with pytest.raises(TypeError):
        hash(report)


def test_small_suites_pass():
    store = ValueStore()
    report = verify_recurrence((2,), (2,), store)
    assert (report.suite, report.parameters) == ("recurrence", {"depths": (2,), "weights": (2,)})
    assert report.passed
    assert verify_shuffle(((1, 1),), 2, store).passed
    assert verify_last_entry((2,), 2, store).passed
    assert verify_inversion((2,), (2,), store).passed
    assert verify_ems_shuffle(2, store).passed
    assert verify_conversion(2, 3, 4, store).passed


def test_recurrence_base_case():
    store = ValueStore()
    assert store.fkmt((0, 0)) == store.fkmt((0,)) * store.fkmt((0,)) == Fraction(1, 4)


def test_run_all_empty_config():
    assert run_all(VerifyConfig(suites=[])) == []


def test_run_all_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_all(VerifyConfig(suites=["nope"]))


@pytest.mark.parametrize("corruptions", [
    ((1, Fraction(-1, 2)),),
    ((3, 0),),
    # the true B_6 after a corrupted B_4: the run's own table, filled from
    # the corrupted entry, reads 17/28 there
    ((4, Fraction(1, 5)), (6, Fraction(1, 42))),
])
def test_run_all_refuses_a_corruption_that_changes_nothing(corruptions):
    with pytest.raises(ValueError, match="injects no fault"):
        run_all(VerifyConfig(suites=["bernoulli"], corrupt_bernoulli=corruptions))


def test_run_all_takes_a_corruption_of_a_shifted_entry():
    # 17/28 is what B_6 already reads after B_4 = 1/5, but not its true value
    cfg = VerifyConfig(suites=["bernoulli"],
                       corrupt_bernoulli=((4, Fraction(1, 5)), (6, Fraction(17, 28))))
    assert not reports_pass(run_all(cfg))


def test_run_all_subset_and_determinism():
    cfg = VerifyConfig(suites=["bernoulli", "depth1", "conversion"])
    first = [r.to_json_dict() for r in run_all(cfg)]
    second = [r.to_json_dict() for r in run_all(cfg)]
    for a, b in zip(first, second):
        a.pop("elapsed")
        b.pop("elapsed")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert [r["suite"] for r in first] == ["bernoulli", "depth1", "conversion"]


def test_fault_injection_flips_suites():
    cfg = VerifyConfig(
        suites=["bernoulli", "depth1", "routes", "conversion"],
        corrupt_bernoulli=((4, Fraction(1, 5)),),
    )
    reports = run_all(cfg)
    assert not reports_pass(reports)
    failing = {r.suite for r in reports if not r.passed}
    # the corrupted table breaks the recurrence, the closed forms, the
    # route comparison, and the conversion residuals
    assert {"bernoulli", "depth1", "routes", "conversion"} <= failing
    witness = next(c for r in reports for c in r.failures()).witness
    assert witness is not None and "lhs" in witness and "rhs" in witness


@pytest.mark.parametrize("suite, first_keys, last_keys", [
    ("recurrence", {"k"}, {"k"}),
    ("shuffle", {"p", "q", "k", "l"}, {"p", "q", "k", "l"}),
    ("last-entry", {"k"}, {"k"}),
    ("inversion", {"k", "l"}, {"k", "l"}),
    ("ems-shuffle", {"a", "b"}, {"a", "b", "c"}),
])
def test_value_identity_suites_can_fail(monkeypatch, suite, first_keys, last_keys):
    # these suites hold for any Bernoulli table, so the fault goes into
    # the values the store returns instead
    fkmt, ems = ValueStore.fkmt, ValueStore.ems

    def shifted(lookup, at):
        return lambda store, k: lookup(store, k) + (Fraction(1, 7) if tuple(k) == at else 0)

    monkeypatch.setattr(ValueStore, "fkmt", shifted(fkmt, (1, 1)))
    monkeypatch.setattr(ValueStore, "ems", shifted(ems, (1,)))
    [report] = run_all(VerifyConfig(suites=[suite]))
    witnesses = [check.witness for check in report.failures()]
    assert witnesses, f"{suite} passed on a corrupted value"
    assert set(witnesses[0]) == first_keys | {"lhs", "rhs"}
    assert set(witnesses[-1]) == last_keys | {"lhs", "rhs"}


def _failed_checks(suite):
    """The failed checks of one suite's default run; a suite that raised
    instead of failing a check does not count."""
    [report] = run_all(VerifyConfig(suites=[suite]))
    failures = report.failures()
    assert all("exception" not in (check.witness or {}) for check in failures)
    assert not report.passed, f"{suite} passed on an injected fault"
    return failures


def test_telescope_can_fail(monkeypatch):
    # the factorization holds for any depth-1 factor, so the fault goes
    # into the tail weights that build the full generating function
    tail_weights = genfun._tail_weights

    def reversed_second(depth, i):
        weights = tail_weights(depth, i)
        return weights[::-1] if i == 2 else weights

    genfun.fkmt_series.cache_clear()
    monkeypatch.setattr(genfun, "_tail_weights", reversed_second)
    try:
        failures = _failed_checks("telescope")
    finally:
        genfun.fkmt_series.cache_clear()
    assert all("telescoped factorization" in check.description for check in failures)
    # each witness is the lowest exponent, in lexicographic order, at
    # which the two sides differ
    assert [check.witness for check in failures] == [
        {"exponent": [0, 1], "difference": "-1/6"},
        {"exponent": [0, 0, 1], "difference": "1/24"},
    ]


def _raise_first_coefficient(monkeypatch, faulty_depth):
    """Serve the shift-coeffs checks a record whose first coefficient at
    ``faulty_depth`` is raised by one."""
    expression = shiftcoeffs.shifted_zeta_expression

    def raised_first(depth):
        record = expression(depth)
        if depth != faulty_depth:
            return record
        (coef, l, m), *rest = record.terms
        return shiftcoeffs.ShiftedZetaExpression(record.depth, ((coef + 1, l, m), *rest))

    monkeypatch.setattr(shiftcoeffs, "shifted_zeta_expression", raised_first)


def test_shift_coeffs_can_fail(monkeypatch):
    # the merge substitution at depth 3 reads the depth-2 record as its
    # lower side, so it fails too
    _raise_first_coefficient(monkeypatch, 2)
    failures = _failed_checks("shift-coeffs")
    assert [check.description.split(" (")[0] for check in failures] == [
        "contraction identity at depth 2",
        "contraction identity at depth 3",
        "merge substitution identity at depth 2",
        "merge substitution identity at depth 3",
    ]


def test_shift_coeffs_fails_a_depth4_fault(monkeypatch):
    # contraction and reindexing stop at depth 3, so only the merge
    # substitution reads the depth-4 record
    _raise_first_coefficient(monkeypatch, 4)
    report = verify.verify_shift_coeffs(4)
    assert [check.description for check in report.failures()] == [
        "merge substitution identity at depth 4 (cleared by u4^0)",
    ]
    assert report.failures()[0].witness == {
        "monomial": {**{f"u{j}": 0 for j in range(1, 5)}, **{f"v{j}": 0 for j in range(1, 5)},
                     "z": 0},
        "difference": "1",
    }


def _record(depth, terms):
    """A record of the given (coef, l, m) terms, built past the checks of
    its constructor."""
    polynomial = LaurentPolynomial({(*l, *m): coef for coef, l, m in terms},
                                   shiftcoeffs.poly_variables(depth))
    return shiftcoeffs.ShiftedZetaExpression._of(depth, polynomial)


@pytest.mark.parametrize("terms, witness", [
    ([(1, (0, 0), (0, 0)), (2, (0, 1), (1, 0))],
     {"coef": "2", "l": [0, 1], "m": [1, 0], "reason": "shifts m=(1, 0) do not sum to zero"}),
    ([(Fraction(1, 2), (1, 0), (0, 0))],
     {"coef": "1/2", "l": [1, 0], "m": [0, 0],
      "reason": "non-integer coefficient 1/2 on l=(1, 0), m=(0, 0)"}),
    ([(1, (0, 0), (0, 0)), (-1, (-1, 1), (0, 0))],
     {"coef": "-1", "l": [-1, 1], "m": [0, 0],
      "reason": "negative Pochhammer degree in l=(-1, 1)"}),
])
def test_shift_coeffs_fails_a_bad_term(monkeypatch, terms, witness):
    record = _record(2, terms)
    expression = verify.shifted_zeta_expression
    monkeypatch.setattr(verify, "shifted_zeta_expression",
                        lambda depth: record if depth == 2 else expression(depth))
    report = verify.verify_shift_coeffs(3)
    # the other checks read the family through shiftcoeffs, which is whole
    assert [(check.description, check.witness) for check in report.failures()] == [
        (f"zero-sum shifts and integer coefficients at depth 2 ({len(terms)} entries)", witness),
    ]


def test_shift_coeffs_checks_each_term_the_packed_test_cannot_settle(monkeypatch):
    # exponents up to 127, past the 4-bit fields of the expansion's codes:
    # the row reads the record's terms one by one
    good = [(1, (127, 0, 0), (127, -127, 0))]
    bad = good + [(1, (0, 0, 0), (1, 1, 0))]
    expression = verify.shifted_zeta_expression
    for terms, failures in ((good, []), (bad, ["zero-sum shifts and integer coefficients "
                                                "at depth 3 (2 entries)"])):
        record = _record(3, terms)
        monkeypatch.setattr(verify, "shifted_zeta_expression",
                            lambda depth: record if depth == 3 else expression(depth))
        report = verify.verify_shift_coeffs(3)
        assert [check.description for check in report.failures()] == failures


def _extra_depth2_term(monkeypatch, term):
    """Serve the shift-coeffs checks a depth-2 record with one more term,
    one that the record's constructor accepts."""
    expression = shiftcoeffs.shifted_zeta_expression

    def with_term(depth):
        record = expression(depth)
        if depth != 2:
            return record
        return shiftcoeffs.ShiftedZetaExpression(2, (*record.terms, term))

    monkeypatch.setattr(shiftcoeffs, "shifted_zeta_expression", with_term)


def test_merge_substitution_fails_on_a_negative_last_shift(monkeypatch):
    # v2**-3 cannot be substituted into: the merge check fails with the
    # term as its witness, and the suite's other checks still run
    _extra_depth2_term(monkeypatch, (1, (0, 0), (3, -3)))
    [check] = shiftcoeffs.check_merge_substitution(2)
    assert check.description == "merge substitution identity at depth 2 (negative power of v2)"
    assert check.witness == {"negative_last_shift": {"l": [0, 0], "m": [3, -3], "coefficient": 1}}
    failures = _failed_checks("shift-coeffs")
    assert [check.description.split(" (")[0] for check in failures] == [
        "trailing-shift vanishing at depth 2",
        "contraction identity at depth 3",
        "merge substitution identity at depth 2",
        "merge substitution identity at depth 3",
    ]
    assert failures[0].witness == {"violations": [{"l": [0, 0], "m": [3, -3], "coefficient": 1}]}


# Check templates that no other injected fault fails, each with a fault in
# its own input
def test_constant_term_can_fail(monkeypatch):
    factor = verify.fkmt_factor
    monkeypatch.setattr(verify, "fkmt_factor",
                        lambda order: factor(order) + UniSeries({0: Fraction(1, 7)}, order))
    failures = _failed_checks("telescope")
    assert [check.witness for check in failures
            if check.description.startswith("constant term")] == [
        {"depth": 2, "lhs": "25/196", "rhs": "1/4"},
        {"depth": 3, "lhs": "-125/2744", "rhs": "-1/8"},
    ]


def test_series_conversion_can_fail(monkeypatch):
    prefactor = genfun.ems_prefactor
    monkeypatch.setattr(genfun, "ems_prefactor",
                        lambda order: prefactor(order) + UniSeries({2: Fraction(1, 7)}, order))
    failures = _failed_checks("conversion")
    assert [check.description for check in failures] == [
        f"series conversion at depth {depth}, cap 5" for depth in (1, 2, 3)
    ]


def test_trailing_shift_can_fail(monkeypatch):
    _extra_depth2_term(monkeypatch, (1, (0, 0), (-3, 3)))
    failures = _failed_checks("shift-coeffs")
    assert (failures[0].description, failures[0].witness) == (
        "trailing-shift vanishing at depth 2 (8 entries)",
        {"violations": [{"l": [0, 0], "m": [-3, 3], "coefficient": 1}]},
    )


def test_words_can_fail(monkeypatch):
    product_letters = words._product_letters

    # a product is its (letters, integer coefficient) terms
    def with_extra_yy(u, v):
        product = product_letters(u, v)
        if (u, v) == (("y",), ("d", "y")):
            product = product + ((("y", "y"), 1),)
        return product

    # the product recurses through the module-global name, and the d-rule
    # products it caches would keep terms built from the faulty one
    words._d_product.cache_clear()
    monkeypatch.setattr(words, "_product_letters", with_extra_yy)
    try:
        failures = _failed_checks("words")
    finally:
        words._d_product.cache_clear()
    assert len(failures) == 26


def test_words_kernel_fault_fails(monkeypatch):
    # The powers of the kernel are built by derivatives from x' = x + x^2,
    # so a kernel that breaks that equation makes the series product
    # x^a x^b disagree with the derivative chain's x^(a+b).
    kernel = words.exp_over_one_minus_exp
    monkeypatch.setattr(words, "exp_over_one_minus_exp",
                        lambda order: kernel(order) + UniSeries({3: Fraction(1, 7)}, order))
    # the cached power tables would keep the true kernel's powers
    words._kernel_powers.cache_clear()
    try:
        failures = _failed_checks("words")
    finally:
        words._kernel_powers.cache_clear()
    assert len(failures) == 49
    assert all(check.description.startswith("character multiplicative on ")
               for check in failures)


def test_run_all_releases_the_value_store_after_its_last_suite(monkeypatch):
    stores = []
    init = ValueStore.__init__

    def tracked(self, cache=None):
        init(self, cache)
        stores.append(weakref.ref(self))

    alive = {}
    run_suite = verify._run_suite

    def recorded(name, arguments):
        report = run_suite(name, arguments)
        del arguments
        alive[name] = stores[0]() is not None
        return report

    monkeypatch.setattr(ValueStore, "__init__", tracked)
    monkeypatch.setattr(verify, "_run_suite", recorded)
    assert reports_pass(run_all())
    # conversion is the last suite given the store
    assert [name for name in SUITES if not alive[name]] == ["conversion", "shift-coeffs", "words"]


def test_run_all_caches_no_generating_function():
    # each series a suite compares is built for that suite's caps alone
    caches = (genfun.fkmt_series, genfun.ems_series)
    for cache in caches:
        cache.cache_clear()
    assert reports_pass(run_all())
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]


def test_fault_injection_every_single_index():
    for m in range(0, 42):
        cfg = VerifyConfig(
            suites=["bernoulli"], corrupt_bernoulli=((m, Fraction(7, 13)),)
        )
        assert not reports_pass(run_all(cfg)), f"corruption of B_{m} undetected"


def test_default_cache_survives_fault_injection():
    run_all(VerifyConfig(suites=["bernoulli"], corrupt_bernoulli=((4, Fraction(1, 5)),)))
    assert bernoulli(4) == Fraction(-1, 30)
    assert reports_pass(run_all(VerifyConfig(suites=["bernoulli"])))


# The arguments run_all passes each suite, store and cache left out: the
# acceptance caps, then how each set of limits changes them.
_DEFAULT_ARGUMENTS = {
    "bernoulli": (40,),
    "depth1": (20,),
    "routes": (3, 4),
    "recurrence": ((2, 3, 4), (4, 4, 2)),
    "telescope": ((2, 3), 3),
    "shuffle": (((1, 1), (1, 2), (2, 1), (2, 2)), 3),
    "last-entry": ((2, 3), 4),
    "inversion": ((2, 3), (4, 2)),
    "ems-shuffle": (3,),
    "conversion": (3, 5, 10),
    "shift-coeffs": (4,),
    "words": (3, 10),
}

_LIMITED_ARGUMENTS = {
    "default": ({}, {}),
    "depth": (
        {"depth": 2},
        {
            "routes": (2, 4),
            "recurrence": ((2,), (4,)),
            "telescope": ((2,), 3),
            "last-entry": ((2,), 4),
            "inversion": ((2,), (4,)),
            "conversion": (2, 5, 10),
            "shift-coeffs": (2,),
        },
    ),
    "max_weight": (
        {"max_weight": 2},
        {
            "depth1": (2,),
            "routes": (3, 2),
            "recurrence": ((2, 3, 4), (2, 2, 2)),
            "telescope": ((2, 3), 2),
            "shuffle": (((1, 1), (1, 2), (2, 1), (2, 2)), 2),
            "last-entry": ((2, 3), 2),
            "inversion": ((2, 3), (2, 2)),
            "ems-shuffle": (2,),
            "conversion": (3, 5, 2),
        },
    ),
    # above some caps: the routes, last-entry, conversion and depth1
    # weights are replaced, the others only ever lowered
    "max_weight_above": (
        {"max_weight": 5},
        {
            "depth1": (5,),
            "routes": (3, 5),
            "last-entry": ((2, 3), 5),
            "conversion": (3, 5, 5),
        },
    ),
    "truncation": ({"truncation": 0}, {"conversion": (3, 0, 10), "words": (3, 0)}),
    "all": (
        {"depth": 2, "max_weight": 2, "truncation": 0},
        {
            "depth1": (2,),
            "routes": (2, 2),
            "recurrence": ((2,), (2,)),
            "telescope": ((2,), 2),
            "shuffle": (((1, 1), (1, 2), (2, 1), (2, 2)), 2),
            "last-entry": ((2,), 2),
            "inversion": ((2,), (2,)),
            "ems-shuffle": (2,),
            "conversion": (2, 0, 2),
            "shift-coeffs": (2,),
            "words": (3, 0),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_LIMITED_ARGUMENTS))
def test_run_all_suite_arguments(case, monkeypatch):
    limits, changed = _LIMITED_ARGUMENTS[case]
    received = {}
    for name in SUITES:
        def record(*args, _name=name):
            received[_name] = tuple(
                a for a in args if not isinstance(a, (ValueStore, BernoulliCache))
            )
            return IdentityReport(_name)

        monkeypatch.setattr(verify, "verify_" + name.replace("-", "_"), record)
    run_all(VerifyConfig(**limits))
    assert received == {**_DEFAULT_ARGUMENTS, **changed}


@pytest.mark.parametrize("caps", [
    {"depth": 2.5},
    {"depth": 2.0},
    {"max_weight": 2.5},
    {"truncation": 1.5},
    {"depth": "2"},
    {"max_weight": Fraction(2)},
])
def test_config_refuses_a_non_integral_cap(caps):
    with pytest.raises(TypeError):
        VerifyConfig(**caps)


def test_config_keeps_integral_caps_and_none():
    assert VerifyConfig(depth=None, max_weight=None, truncation=None) == VerifyConfig()
    config = VerifyConfig(depth=2, max_weight=0, truncation=14)
    assert (config.depth, config.max_weight, config.truncation) == (2, 0, 14)


def test_config_holds_only_what_a_caller_sets():
    assert VerifyConfig.__slots__ == (
        "suites", "depth", "max_weight", "truncation", "corrupt_bernoulli"
    )
    assert not hasattr(VerifyConfig(), "__dict__")


def test_config_compares_like_the_dataclass_it_replaced():
    config = VerifyConfig(suites=("words",), depth=2)
    assert VerifyConfig() == VerifyConfig(None, None, None, None, ())
    assert config == VerifyConfig(("words",), 2) != VerifyConfig(("words",), 3)
    assert config != (("words",), 2, None, None, ())
    assert hash(config) == hash(VerifyConfig(suites=("words",), depth=2))
    assert repr(VerifyConfig(max_weight=3)) == (
        "VerifyConfig(suites=None, depth=None, max_weight=3, truncation=None, "
        "corrupt_bernoulli=())"
    )
    with pytest.raises(AttributeError):
        config.depth = 3
    with pytest.raises(AttributeError):
        del config.depth
    assert config.depth == 2
    assert copy.deepcopy(config) == pickle.loads(pickle.dumps(config)) == config


def test_report_serialization():
    report = IdentityReport(
        suite="demo",
        parameters={"n": 1},
        checks=[Check.of("fine"), Check.of("broken", {"k": 2})],
        elapsed=0.5,
    )
    data = report.to_json_dict()
    assert data["passed"] is False
    assert data["checks"][1]["witness"] == {"k": 2}
    assert "FAIL" in report.summary_line()
    assert len(report.failures()) == 1


def test_suite_names_are_stable():
    assert SUITES == (
        "bernoulli",
        "depth1",
        "routes",
        "recurrence",
        "telescope",
        "shuffle",
        "last-entry",
        "inversion",
        "ems-shuffle",
        "conversion",
        "shift-coeffs",
        "words",
    )


# Each value identity's expanded side is summed on integer pairs; here it
# is summed one Fraction at a time, from values read off default and
# corrupted Bernoulli tables.
CORRUPTED_AT = (None, 4, 6, 13)


@lru_cache(maxsize=None)
def _store(corrupt_at):
    cache = BernoulliCache()
    if corrupt_at is not None:
        cache.corrupt(corrupt_at, Fraction(1, 5))
    return ValueStore(cache)


def _entries(max_depth, max_weight=3):
    return st.lists(st.integers(0, max_weight), min_size=1, max_size=max_depth).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CORRUPTED_AT), st.sampled_from(["fkmt", "ems"]), _entries(2), _entries(2))
def test_shuffle_expansion_is_the_fraction_sum(corrupt_at, family, k, l):
    value = getattr(_store(corrupt_at), family)
    expected = sum((coeff * value(at) for coeff, at in verify._shuffle_terms(k, l)), Fraction(0))
    assert verify._shuffle_expansion(value, k, l) == expected


def _recurrence_sum(fkmt, k):
    rest = k[1:]
    total = Fraction(0)
    for splits in product(*(range(x + 1) for x in rest)):
        coeff = 1
        for ka, ia in zip(rest, splits):
            coeff *= binomial(ka, ia)
        total += coeff * fkmt(splits) * fkmt((k[0] + sum(rest) - sum(splits),))
    return total


def _last_entry_sum(fkmt, k):
    return sum((binomial(k[-1], i) * fkmt(k[:-2] + (k[-2] + i,)) * fkmt((k[-1] - i,))
                for i in range(k[-1] + 1)), Fraction(0))


def _inversion_sum(fkmt, k, l):
    return sum(((-1) ** i * binomial(l, i) * fkmt(k[:-1] + (k[-1] + i, l - i))
                for i in range(l + 1)), Fraction(0))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CORRUPTED_AT), st.sampled_from(["recurrence", "last-entry", "inversion"]),
       st.integers(2, 3), st.integers(0, 3))
def test_value_identity_right_sides_are_the_fraction_sums(corrupt_at, suite, depth, weight):
    store = _store(corrupt_at)
    seen = []

    def recorded(description, lhs, rhs, index_info):
        seen.append((index_info, rhs))
        return value_check(description, lhs, rhs, index_info)

    value_check = verify._value_check
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_value_check", recorded)
        if suite == "recurrence":
            verify_recurrence((depth,), (weight,), store)
        elif suite == "last-entry":
            verify_last_entry((depth,), weight, store)
        else:
            verify_inversion((depth,), (weight,), store)
    assert seen
    for index_info, rhs in seen:
        k = tuple(index_info["k"])
        if suite == "recurrence":
            expected = _recurrence_sum(store.fkmt, k)
        elif suite == "last-entry":
            expected = _last_entry_sum(store.fkmt, k)
        else:
            expected = _inversion_sum(store.fkmt, k, index_info["l"])
        assert rhs == expected, index_info


# the benchmark's corrupted values (CORRUPTIONS in bench/ops.py)
BENCH_CORRUPTIONS = (
    "1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5",
    "4/5", "1/6", "5/6", "1/7", "2/7", "3/7", "4/7", "5/7",
)


@pytest.mark.parametrize("value", BENCH_CORRUPTIONS)
def test_bernoulli_witnesses_are_those_of_the_fraction_sum(value):
    cache = BernoulliCache()
    cache.corrupt(4, Fraction(value))
    report = verify_bernoulli(40, cache)
    assert cache.unread_corruptions() == []
    expected = []
    for m in range(1, 41):
        acc = sum((binomial(m + 1, j) * bernoulli(j, cache) for j in range(m + 1)), Fraction(0))
        if acc:
            expected.append({"m": m, "lhs": format_rational(acc), "rhs": "0"})
    witnesses = [check.witness for check in report.failures()
                 if check.description.startswith("convolution")]
    assert witnesses == expected
    assert witnesses[0]["m"] == 4
