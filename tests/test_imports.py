"""What each command loads.  The package resolves its public names on
first use and the CLI imports each command's layers inside the command,
so a process holds only the layers its command runs.  Each probe runs in
a fresh ``python -S`` process, so no site hook has loaded a module first."""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dmzv
from dmzv import cli, genfun, names, verify

ROOT = Path(__file__).resolve().parents[1]

# Runs ``dmzv.cli.main`` on the arguments with stdout discarded, then
# prints its exit code, the dmzv modules loaded and whether dataclasses,
# inspect, json, fractions and decimal are; json is imported to print
# only after that.
PROBE = """
import contextlib, io, sys
from dmzv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = {
    "exit": code,
    "modules": sorted(m for m in sys.modules if m == "dmzv" or m.startswith("dmzv.")),
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
    "json": "json" in sys.modules,
    "fractions": "fractions" in sys.modules,
    "decimal": "decimal" in sys.modules,
}
import json
print(json.dumps(loaded))
"""


def fresh(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Only a verify report is written through json, and values and the
# coefficient family are written from integers alone.
@pytest.mark.parametrize("argv, modules, uses_json, uses_fractions", [
    (["values", "--family", "ems", "--depth", "2", "--max-weight", "2", "--format", "json"],
     ["dmzv", "dmzv.cli", "dmzv.names", "dmzv.tables"], False, False),
    (["gr-coeffs", "--depth", "3", "--format", "json"],
     ["dmzv", "dmzv.cli", "dmzv.expansion", "dmzv.names"], False, False),
    (["convert", "--max-weight", "5", "--format", "json"],
     ["dmzv", "dmzv.bernoulli", "dmzv.cli", "dmzv.genfun", "dmzv.multiseries", "dmzv.names",
      "dmzv.rationals", "dmzv.series"], False, True),
    (["shuffle", "dy", "ydy"],
     ["dmzv", "dmzv.cli", "dmzv.names", "dmzv.rationals", "dmzv.series", "dmzv.tables",
      "dmzv.words"], False, True),
    (["verify", "--format", "json"],
     ["dmzv", "dmzv.bernoulli", "dmzv.cli", "dmzv.expansion", "dmzv.genfun",
      "dmzv.multipoly", "dmzv.multiseries", "dmzv.names", "dmzv.rationals", "dmzv.report",
      "dmzv.series", "dmzv.shiftcoeffs", "dmzv.tables", "dmzv.verify", "dmzv.words"],
     True, True),
])
def test_each_command_loads_only_its_layers(argv, modules, uses_json, uses_fractions):
    loaded = json.loads(fresh(PROBE, *argv))
    assert loaded == {"exit": 0, "modules": modules, "dataclasses": False, "inspect": False,
                      "json": uses_json, "fractions": uses_fractions,
                      "decimal": uses_fractions}


# The rise of the peak RSS (VmHWM) over a command run with stdout
# discarded, from after ``import dmzv.cli``: the command's layers, its
# arithmetic and its written output.
PEAK_RISE = """
import os, sys

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

from dmzv.cli import main
before = peak_kib()
with open(os.devnull, "w") as sys.stdout:
    code = main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, (peak_kib() - before) / 1024)
"""
# About 3.7 MiB (Python 3.11, x86-64 Linux), against 5.9 MiB when verify
# imported dataclasses and inspect, held every suite's working set to the
# end of the run and built the whole report before writing it.
VERIFY_PEAK_RISE_MIB = 4.6


def peak_rise(tmp_path, *argv: str) -> float:
    """The VmHWM rise in MiB of the command ``argv`` in a fresh ``python -S``
    process.  The first run caches the bytecode in a directory of the
    test's own, so the measured run compiles nothing: compiling a module
    inside the measured span would add its compiler's memory to the rise."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _ in range(2):
        done = subprocess.run([sys.executable, "-S", "-c", PEAK_RISE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    code, rise = done.stdout.split()
    assert code == "0"
    return float(rise)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_verify_peak_rss_rise(tmp_path):
    rise = peak_rise(tmp_path, "verify", "--format", "json")
    assert rise < VERIFY_PEAK_RISE_MIB, f"verify raised the peak by {rise} MiB"


# The same rise for ``gr-coeffs --format json``: the expansion's two code
# arrays and the written terms.  About 1.9 MiB at depth 6 and 5.1 MiB at
# depth 7 (Python 3.11, x86-64 Linux), against 4.0 and 11.8 MiB when the
# family was expanded as a LaurentPolynomial.
GR_PEAK_RISE_MIB = {6: 2.5, 7: 7}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("depth", sorted(GR_PEAK_RISE_MIB))
def test_gr_coeffs_peak_rss_rise(tmp_path, depth):
    rise = peak_rise(tmp_path, "gr-coeffs", "--depth", str(depth), "--format", "json")
    assert rise < GR_PEAK_RISE_MIB[depth], f"gr-coeffs raised the peak by {rise} MiB"


def test_importing_the_cli_loads_no_engine():
    code = ("import sys, dmzv.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('dmzv')), 'json' in sys.modules)")
    assert fresh(code) == "['dmzv', 'dmzv.cli', 'dmzv.names'] False\n"


# Every public name of the package and the module that defines it.
PUBLIC = {
    "bernoulli": ["BernoulliCache", "bernoulli", "default_cache"],
    "genfun": ["conversion_table", "ems_factor", "ems_prefactor", "ems_series",
               "ems_series_from_fkmt", "ems_value", "fkmt_factor", "fkmt_series", "fkmt_value",
               "series_value_table", "value_table"],
    "multipoly": ["LaurentPolynomial"],
    "multiseries": ["MultiSeries", "substitute_linear_form", "substitute_linear_forms"],
    "rationals": ["binomial", "format_rational", "multinomial", "parse_rational", "pochhammer"],
    "report": ["Check", "IdentityReport"],
    "series": ["UniSeries", "exp_over_one_minus_exp"],
    "shiftcoeffs": ["ShiftedZetaExpression", "coefficient_polynomial",
                    "shifted_zeta_expression"],
    "verify": ["SUITES", "ValueStore", "VerifyConfig", "reports_pass", "run_all"],
    "words": ["Word", "WordSum", "character", "leibniz_defect", "multiplicativity_defect",
              "word_product"],
}


def test_public_names_resolve_to_their_modules():
    assert sorted(dmzv.__all__) == sorted(name for group in PUBLIC.values() for name in group)
    for module, group in PUBLIC.items():
        source = importlib.import_module(f"dmzv.{module}")
        for name in group:
            assert getattr(dmzv, name) is getattr(source, name), name
    assert set(dmzv.__all__) <= set(dir(dmzv))
    with pytest.raises(AttributeError):
        dmzv.no_such_name
    with pytest.raises(ImportError):
        from dmzv import no_such_name  # noqa: F401


# Names the package no longer has, each with the module that defined it;
# the lazy lookup in ``dmzv.__getattr__`` must not bring one back.
RETIRED = {
    "genfun": ["fkmt_value_series", "ems_value_series", "_value_series", "ValueTable",
               "table_series", "value_rows"],
    "rationals": ["Rational"],
    "series": ["divide_with_valuation", "laurent_divide", "exp_series", "exp_minus_one"],
    "shiftcoeffs": ["shift_coefficients"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RETIRED.items() for n in names])
def test_retired_names_stay_retired(module, name):
    assert name not in dmzv.__all__
    with pytest.raises(AttributeError):
        getattr(dmzv, name)
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(f"dmzv.{module}"), name)


def test_retired_attributes_stay_retired():
    from dmzv.series import UniSeries

    assert not hasattr(UniSeries, "derivative")
    assert not hasattr(genfun.Family, "series")


def test_bernoulli_stays_the_function_after_its_module_loads():
    # loading genfun loads the bernoulli module, and the import system
    # binds each loaded submodule on the package
    code = ("import sys, dmzv.genfun\n"
            "from dmzv import bernoulli\n"
            "import dmzv\n"
            "module = sys.modules['dmzv.bernoulli']\n"
            "print(bernoulli is module.bernoulli, dmzv.bernoulli is module.bernoulli)")
    assert fresh(code).split() == ["True", "True"]


def _option(command: str, dest: str) -> argparse.Action:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if a.dest == dest)


def test_parser_lists_the_engines_names():
    assert _option("values", "family").choices == [name.lower() for name in genfun.FAMILIES]
    assert names.FAMILY_NAMES == tuple(genfun.FAMILIES)
    listed = _option("verify", "suite").help.split("default all of: ")[1]
    assert listed.split(", ") == list(verify.SUITES)
    assert names.SUITES is verify.SUITES
