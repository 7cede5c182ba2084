"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench      (or: python3 -m pytest bench)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import product
from pathlib import Path

import layers
import ops
import run

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))

from dmzv import genfun, verify  # noqa: E402


def traced_counts(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ops.BENCH_DIR / "layers.py"), "traced", *argv],
                         env=env, capture_output=True, check=True).stdout
    return json.loads(out)


class WorkCounts(unittest.TestCase):
    def test_matrix_formula_matches_enumeration(self):
        for depth in (1, 2, 3, 4):
            for k in product(range(4), repeat=depth):
                columns = [list(genfun._compositions(x, j + 1)) for j, x in enumerate(k)]
                self.assertEqual(layers.multisum_matrices(k), len(list(product(*columns))), k)

    def test_default_verify_counts_at_seed(self):
        result = traced_counts(["verify", "--format", "json"])
        counts = result["counts"]
        self.assertEqual(result["exit"], 0)
        self.assertEqual(counts["verify.store_lookups"], 9162)
        self.assertEqual(counts["verify.store_lookups"] - counts["verify.store_hits"], 901)
        self.assertEqual(counts["verify.checks"], 1571)
        # 55,680 for the store's 901 misses, plus 154 one-matrix depth-1
        # calls that the conversion suite's residuals make past the store
        self.assertEqual(counts["genfun.multisum_matrices"], 55680 + 154)
        self.assertEqual(counts["bernoulli.table_size"], 42)
        self.assertAlmostEqual(sum(result["self_s"].values()), result["inproc_s"], delta=0.05)

    def test_renamed_layer_is_listed_not_fatal(self):
        code = ("import dmzv.words, layers; del dmzv.words.character; "
                "tracer = layers.Tracer(); layers.install(tracer); print(tracer.missing)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ops.BENCH_DIR)]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             check=True, text=True).stdout
        self.assertEqual(out.strip(), "['words.character']")


class Workloads(unittest.TestCase):
    def test_every_seed_draws_referenced_operations(self):
        references = ops.load_references()
        for workload in ops.WORKLOADS:
            for seed in range(40):
                drawn = ops.build(workload, seed)
                self.assertEqual(drawn, ops.build(workload, seed))
                for argv in drawn:
                    self.assertIn(ops.key(argv), references)
        self.assertEqual(sorted(map(ops.key, ops.all_ops())), sorted(references))

    def test_shuffle_words_have_fixed_letter_counts(self):
        words = ops.shuffle_words()
        self.assertEqual(len(set(words)), 20)
        for word in words:
            self.assertEqual((len(word), word.count("d"), word[-1]), (7, 3, "y"))

    def test_suites_match_the_harness(self):
        self.assertEqual(run.SUITES, verify.SUITES)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(ops.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        per_layer = (list(run.SELF_TIMES) + list(run.CALLS) + list(run.COUNTS)
                     + list(run.RATIOS) + ["trace.overhead_s"])
        self.assertEqual([m["name"] for m in spec["per_layer"]], per_layer)
        for metric in spec["per_layer"]:
            self.assertEqual(metric["unit"], run.unit(metric["name"]))


class Correctness(unittest.TestCase):
    def test_judge(self):
        references = ops.load_references()
        default = ["verify", "--format", "json"]
        ref = references[ops.key(default)]
        self.assertEqual(run.judge(default, 0, ref["sha256"], references), (False, True))
        self.assertEqual(run.judge(default, 0, "0" * 64, references), (True, False))
        self.assertEqual(run.judge(default, 1, ref["sha256"], references), (True, False))
        vacuous = ops.build("verify-default", 0)[2]
        self.assertTrue(ops.known_defect(vacuous))
        seed = references[ops.key(vacuous)]
        self.assertEqual(seed["exit"], 0)
        self.assertEqual(run.judge(vacuous, 0, seed["sha256"], references), (True, True))
        self.assertEqual(run.judge(vacuous, 1, "0" * 64, references), (False, True))
        self.assertEqual(run.judge(vacuous, 2, "0" * 64, references), (True, False))

    def test_verify_digest_ignores_timings_and_added_fields(self):
        argv = ["verify", "--format", "json"]
        report = {"suite": "s", "parameters": {}, "checks": [], "passed": True}
        base = {"passed": True, "reports": [dict(report, elapsed=0.1)]}
        later = {"passed": True, "stats": {}, "reports": [dict(report, elapsed=0.2)]}
        self.assertEqual(ops.digest(argv, json.dumps(base).encode()),
                         ops.digest(argv, json.dumps(later).encode()))
        failed = {"passed": False, "reports": [dict(report, passed=False)]}
        self.assertNotEqual(ops.digest(argv, json.dumps(base).encode()),
                            ops.digest(argv, json.dumps(failed).encode()))

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ops.BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "values-table",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
