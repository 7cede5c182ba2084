"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one line, so a run with ``pytest tests/test_acceptance.py -v -s``
gives a pass/fail line per criterion and the wall time against its budget.
All value comparisons are exact rational equality; there are no numeric
tolerances anywhere.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from dmzv.bernoulli import bernoulli
from dmzv.genfun import (
    conversion_table,
    ems_series,
    ems_series_from_fkmt,
    ems_value,
    fkmt_series,
    fkmt_value,
)
from dmzv.rationals import binomial, pochhammer
from dmzv.verify import (
    ValueStore,
    verify_ems_shuffle,
    verify_inversion,
    verify_last_entry,
    verify_recurrence,
    verify_routes,
    verify_shift_coeffs,
    verify_shuffle,
    verify_words,
)


class Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.started = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.started
        print(
            f"ACCEPTANCE {self.number:2d} ({self.description}): "
            f"PASS in {elapsed:.2f}s (budget {self.seconds}s)"
        )
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
        )


def test_criterion_01_depth1_values_both_routes():
    budget = Budget(1, "depth-1 closed form, both routes, k <= 20", 1)
    for k in range(21):
        expected = bernoulli(k + 1)
        if k % 2:
            expected = -expected
        assert fkmt_value((k,)) == expected
        # the series route: (-1)^k k! times the coefficient of t^k
        assert (-1) ** k * factorial(k) * fkmt_series(1, k).coefficient((k,)) == expected
    budget.done()


def test_criterion_02_route_equivalence():
    budget = Budget(2, "series route equals multi-sum route, r <= 3, entries <= 4", 30)
    report = verify_routes(3, 4)
    assert report.passed, report.failures()[:3]
    budget.done()


def test_criterion_03_depth_recurrence():
    budget = Budget(3, "depth recurrence, r in {2,3,4}", 60)
    report = verify_recurrence((2, 3, 4), (4, 4, 2))
    assert report.passed, report.failures()[:3]
    budget.done()


def test_criterion_04_shuffle_type_product():
    budget = Budget(4, "shuffle-type product, shapes (1,1),(1,2),(2,1),(2,2)", 60)
    report = verify_shuffle(((1, 1), (1, 2), (2, 1), (2, 2)), 3)
    assert report.passed, report.failures()[:3]
    budget.done()


def test_criterion_05_last_entry_and_inversion():
    budget = Budget(5, "last-entry recurrence and product inversion, r in {2,3}", 30)
    store = ValueStore()
    report = verify_last_entry((2, 3), 4, store)
    assert report.passed, report.failures()[:3]
    inversion = verify_inversion((2, 3), (4, 4), store)
    assert inversion.passed, inversion.failures()[:3]
    budget.done()


def test_criterion_06_conversion():
    budget = Budget(6, "family conversion: series r <= 3 cap 5, values k <= 10", 60)
    for depth in (1, 2, 3):
        assert ems_series_from_fkmt(depth, 5) == ems_series(depth, 5)
    for k in range(11):
        assert conversion_table(k)[k][2:] == (Fraction(0), Fraction(0))
    budget.done()


def test_criterion_07_ems_depth1_and_shuffle_examples():
    budget = Budget(7, "renormalized depth-1 closed form and product examples", 10)
    for k in range(21):
        expected = bernoulli(k + 1) / (k + 1)
        if k % 2:
            expected = -expected
        assert ems_value((k,)) == expected
        # the series route: (-1)^k k! times the coefficient of t^k
        assert (-1) ** k * factorial(k) * ems_series(1, k).coefficient((k,)) == expected
    report = verify_ems_shuffle(3)
    assert report.passed, report.failures()[:3]
    budget.done()


def test_criterion_08_shift_coefficient_machinery():
    budget = Budget(8, "coefficient family: vanishing, contraction, substitution", 120)
    report = verify_shift_coeffs(4)
    assert report.passed, report.failures()[:3]
    budget.done()


def test_criterion_09_word_algebra():
    budget = Budget(9, "character multiplicativity and Leibniz vanishing", 60)
    report = verify_words(3, 10)
    assert report.passed, report.failures()[:3]
    budget.done()


def test_criterion_10_pochhammer_vandermonde():
    budget = Budget(10, "Pochhammer addition formula, 50 random rational pairs", 5)
    rng = random.Random(123456)
    for _ in range(50):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
        for n in range(11):
            rhs = sum(
                binomial(n, i) * pochhammer(a, i) * pochhammer(b, n - i)
                for i in range(n + 1)
            )
            assert pochhammer(a + b, n) == rhs
    budget.done()


def test_criterion_11_end_to_end_cli():
    budget = Budget(11, "verify all exits 0; fault injection exits 1", 300)
    clean = subprocess.run(
        [sys.executable, "-m", "dmzv", "verify"],
        capture_output=True,
        text=True,
        timeout=280,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "all suites pass" in clean.stdout

    corrupted = subprocess.run(
        [
            sys.executable,
            "-m",
            "dmzv",
            "verify",
            "--suite",
            "bernoulli",
            "--suite",
            "depth1",
            "--suite",
            "routes",
            "--corrupt-bernoulli",
            "6=1/7",
        ],
        capture_output=True,
        text=True,
        timeout=280,
    )
    assert corrupted.returncode == 1, corrupted.stdout + corrupted.stderr
    assert "witness" in corrupted.stdout
    budget.done()
