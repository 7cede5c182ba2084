import dataclasses
import json
from fractions import Fraction

import pytest

from dmzv.report import Check, IdentityReport
from dmzv.verify import (
    SUITES,
    ValueStore,
    VerifyConfig,
    reports_pass,
    run_all,
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
    assert Check.passed("ok").witness is None
    assert Check.failed("bad", {"k": 1}).witness == {"k": 1}


def test_small_suites_pass():
    store = ValueStore()
    assert verify_recurrence((2,), (2,), store).passed
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


def test_fault_injection_every_single_index():
    for m in range(0, 42):
        cfg = VerifyConfig(
            suites=["bernoulli"], corrupt_bernoulli=((m, Fraction(7, 13)),)
        )
        assert not reports_pass(run_all(cfg)), f"corruption of B_{m} undetected"


def test_default_cache_survives_fault_injection():
    from dmzv.bernoulli import bernoulli

    run_all(VerifyConfig(suites=["bernoulli"], corrupt_bernoulli=((4, Fraction(1, 5)),)))
    assert bernoulli(4) == Fraction(-1, 30)
    assert reports_pass(run_all(VerifyConfig(suites=["bernoulli"])))


_CAPPED_CASES = {
    "depth": (
        {"depth": 2},
        {
            "routes_depth": 2,
            "recurrence_depths": (2,),
            "recurrence_weights": (4,),
            "telescope_depths": (2,),
            "last_entry_depths": (2,),
            "inversion_depths": (2,),
            "inversion_weights": (4,),
            "conversion_depth": 2,
            "shift_depth": 2,
        },
    ),
    "max_weight": (
        {"max_weight": 2},
        {
            "depth1_weight": 2,
            "routes_weight": 2,
            "recurrence_weights": (2, 2, 2),
            "telescope_weight": 2,
            "shuffle_weight": 2,
            "last_entry_weight": 2,
            "inversion_weights": (2, 2),
            "ems_weight": 2,
            "conversion_weight": 2,
        },
    ),
    "truncation": ({"truncation": 0}, {"conversion_cap": 0, "words_order": 0}),
    "all": (
        {"depth": 2, "max_weight": 2, "truncation": 0},
        {
            "depth1_weight": 2,
            "routes_depth": 2,
            "routes_weight": 2,
            "recurrence_depths": (2,),
            "recurrence_weights": (2,),
            "telescope_depths": (2,),
            "telescope_weight": 2,
            "shuffle_weight": 2,
            "last_entry_depths": (2,),
            "last_entry_weight": 2,
            "inversion_depths": (2,),
            "inversion_weights": (2,),
            "ems_weight": 2,
            "conversion_depth": 2,
            "conversion_cap": 0,
            "conversion_weight": 2,
            "shift_depth": 2,
            "words_order": 0,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_CAPPED_CASES))
def test_capped_config_fields(case):
    caps, changed = _CAPPED_CASES[case]
    default = VerifyConfig()
    capped = default.capped(**caps)
    differing = {
        f.name: getattr(capped, f.name)
        for f in dataclasses.fields(VerifyConfig)
        if getattr(capped, f.name) != getattr(default, f.name)
    }
    assert differing == changed
    assert default == VerifyConfig()  # the receiver is left unchanged


def test_report_serialization():
    report = IdentityReport(
        suite="demo",
        parameters={"n": 1},
        checks=[Check.passed("fine"), Check.failed("broken", {"k": 2})],
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
