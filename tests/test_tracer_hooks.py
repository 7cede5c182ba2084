"""The benchmark's layer tracer (``bench/layers.py``) installs its spans on
names in ``dmzv``: the ``verify_<suite>`` functions, ``ValueStore.fkmt``
and ``ValueStore.ems``, the ``(family, index)`` keys of the store's memo,
``words.word_product`` and ``words.character``, the shifted-zeta records
and their checks, the ``MultiSeries`` and ``UniSeries`` products and the
linear-form substitutions.  A traced
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
    # the polynomial class and the polynomial form of the family, retired:
    # the records hold the expansion's packed codes, and the merge check
    # expands its two sides in closed form
    "multipoly.LaurentPolynomial.__mul__",
    "multipoly.LaurentPolynomial.substitute",
    "shiftcoeffs.coefficient_polynomial",
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


def test_traced_shift_coeffs_finds_the_record_spans():
    result = traced("verify", "--suite", "shift-coeffs", "--format", "json")
    assert result["exit"] == 0
    assert [name for name in result["missing"]
            if name.startswith("shiftcoeffs") and name not in STALE_SPANS] == []
    # at depth 4: four trailing-shift checks, contraction and reindexing at
    # depths 2 and 3, and the merge substitution at depths 2 to 4
    assert result["calls"]["shiftcoeffs.checks"] == 4 + 2 + 2 + 3
    assert not any(name.startswith("multipoly") for name in result["calls"])


def test_traced_gr_coeffs_sees_the_expansion():
    # gr-coeffs expands the family on packed integer codes and builds no
    # record
    result = traced("gr-coeffs", "--depth", "4", "--format", "json")
    assert result["exit"] == 0
    assert [name for name in result["missing"]
            if name.startswith("shiftcoeffs") and name not in STALE_SPANS] == []
    assert not any(name.startswith(("multipoly", "shiftcoeffs")) for name in result["calls"])
    # the term count was taken off the polynomial form of the family, which
    # is retired: it reads 0 until a span counts the expansion's terms
    assert result["counts"]["shiftcoeffs.terms"] == 0


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
