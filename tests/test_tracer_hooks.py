"""The benchmark's layer tracer (``bench/layers.py``) installs its spans on
names in ``dmzv``: the ``verify_<suite>`` functions, ``ValueStore.fkmt``
and ``ValueStore.ems``, the ``(family, index)`` keys of the store's memo,
``words.word_product`` and ``words.character``, the ``LaurentPolynomial``
product and substitution, the shifted-zeta expansion, the ``MultiSeries``
and ``UniSeries`` products and the linear-form substitutions.  A traced
run must still find all of them.  The tracer runs in a subprocess;
nothing under ``bench/`` is written."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Span targets the tracer still names but the package no longer has; a
# traced run reports each as missing and times nothing under it.  Every
# other target must be found.
STALE_SPANS = {
    # a series class that was folded into UniSeries
    "series.LaurentSeries.__mul__",
    # the series-route value lookups, retired: the value tables are spanned
    # through series_value_table, and the tests read single values off
    # fkmt_series and ems_series
    "genfun.fkmt_value_series",
    "genfun.ems_value_series",
    # the dict form of the coefficient family, retired: the checks read
    # the records of shifted_zeta_expression, which is spanned
    "shiftcoeffs.shift_coefficients",
    # the series division chain, retired: every depth-1 series is a
    # divided-power quotient (dmzv.tables.divided_quotient)
    "series.divide_with_valuation",
}


def traced(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "traced", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # every spanned name but the known stale ones is still in the package,
    # and each stale one is still gone
    assert set(result["missing"]) == STALE_SPANS
    return result


def test_traced_verify_finds_every_verify_hook():
    result = traced("verify", "--suite", "depth1", "--format", "json")
    assert result["exit"] == 0
    assert [name for name in result["missing"] if name.startswith("verify")] == []
    assert result["counts"]["verify.store_lookups"] > 0
    assert result["calls"]["verify.depth1"] == 1


def test_traced_shuffle_finds_the_words_spans():
    result = traced("shuffle", "dy", "dy")
    assert result["exit"] == 0
    assert [name for name in result["missing"] if name.startswith("words")] == []
    assert result["calls"]["words.character"] >= 1
    assert result["calls"]["words.product"] >= 1


def test_traced_shift_coeffs_finds_the_polynomial_spans():
    result = traced("verify", "--suite", "shift-coeffs", "--format", "json")
    assert result["exit"] == 0
    assert [name for name in result["missing"]
            if name.startswith(("multipoly", "shiftcoeffs")) and name not in STALE_SPANS] == []
    assert result["calls"]["multipoly.mul"] >= 1
    assert result["calls"]["multipoly.substitute"] >= 1


def test_traced_gr_coeffs_sees_the_expansion():
    # gr-coeffs expands the family on packed integer codes: no polynomial
    # product and no coefficient_polynomial call
    result = traced("gr-coeffs", "--depth", "4", "--format", "json")
    assert result["exit"] == 0
    assert [name for name in result["missing"]
            if name.startswith(("multipoly", "shiftcoeffs")) and name not in STALE_SPANS] == []
    assert "multipoly.mul" not in result["calls"]
    assert result["counts"]["shiftcoeffs.terms"] == 0
    # the records of the shift-coeffs suite are polynomials of the same
    # expansion, and the span counts their terms at depths 1 to 4
    result = traced("verify", "--suite", "shift-coeffs", "--depth", "4", "--format", "json")
    assert result["exit"] == 0
    assert result["counts"]["shiftcoeffs.terms"] == 2 + 7 + 38 + 236


def test_traced_values_finds_the_series_spans():
    result = traced("values", "--family", "fkmt", "--depth", "2", "--max-weight", "2",
                    "--format", "json")
    assert result["exit"] == 0
    for name in ("multiseries.MultiSeries.__mul__", "multiseries.substitute_linear_form",
                 "series.UniSeries.__mul__"):
        assert name not in result["missing"]
    # values builds its tables on integers, with no series
    assert not {"multiseries.mul", "series.mul", "series.divide"} & set(result["calls"])
    # the telescope suite multiplies product series, and the term-pair
    # count reads the size of each product's operands
    result = traced("verify", "--suite", "telescope", "--format", "json")
    assert result["exit"] == 0
    assert result["calls"]["multiseries.mul"] >= 1
    assert result["counts"]["multiseries.term_pairs"] > 0
