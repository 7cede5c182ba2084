"""Workload definitions shared by the harness, the traced child and the
reference maker.

An operation is one ``dmzv`` command line.  Each workload turns a seed
into a list of operations; the seed only ever picks from fixed pools, so
every operation it can produce has a reference digest recorded at the
seed commit in ``references.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("verify-default", "values-table", "algebra-export")

# Corrupted Bernoulli values for fault injection.  All are positive, so
# none equals the true (negative) B_4 = -1/30 or B_20 = -174611/330.
CORRUPTIONS = (
    "1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5",
    "4/5", "1/6", "5/6", "1/7", "2/7", "3/7", "4/7", "5/7",
)

# (family, depth, max weight) of the values-table workload.
VALUE_SIZES = (("fkmt", 4, 4), ("fkmt", 5, 2), ("fkmt", 6, 1),
               ("ems", 4, 4), ("ems", 5, 2), ("ems", 6, 1))

SHUFFLE_PAIRS = 4
SHUFFLE_TRUNCATION = 24


def shuffle_words() -> list[str]:
    """Length-7 words with exactly three d's that end in y.

    A fixed letter count keeps the work per pair within a narrow band
    (about 0.16-0.29 s in-process); free random words range from
    near-zero (words ending in d have character 0) to 0.35 s.
    """
    out = []
    for positions in itertools.combinations(range(6), 3):
        letters = ["y"] * 7
        for p in positions:
            letters[p] = "d"
        out.append("".join(letters))
    return out


def known_defect(argv: list[str]) -> bool:
    """The routes suite never reads B_20, so corrupting it passes vacuously
    (ROADMAP item 4).  Expected exit 1; it counts as failed until fixed."""
    return "routes" in argv and any(a.startswith("20=") for a in argv)


def _verify_ops(b4: str, b20: str) -> list[list[str]]:
    return [
        ["verify", "--format", "json"],
        ["verify", "--suite", "bernoulli", "--corrupt-bernoulli", f"4={b4}", "--format", "json"],
        ["verify", "--suite", "routes", "--corrupt-bernoulli", f"20={b20}", "--format", "json"],
    ]


def _shuffle_op(u: str, v: str) -> list[str]:
    return ["shuffle", u, v, "--truncation", str(SHUFFLE_TRUNCATION)]


_VALUES_OPS = [["values", "--family", family, "--depth", str(depth),
                "--max-weight", str(weight), "--format", "json"]
               for family, depth, weight in VALUE_SIZES]
_EXPORT_OPS = [["gr-coeffs", "--depth", "6", "--format", "json"],
               ["convert", "--max-weight", "200", "--format", "json"]]


def build(workload: str, seed: int) -> list[list[str]]:
    """The operations of one pass, as dmzv argument lists."""
    rng = random.Random(seed)
    if workload == "verify-default":
        return _verify_ops(rng.choice(CORRUPTIONS), rng.choice(CORRUPTIONS))
    if workload == "values-table":
        ops = list(_VALUES_OPS)
        rng.shuffle(ops)  # the sizes are fixed; the seed only sets the order
        return ops
    if workload == "algebra-export":
        words = shuffle_words()
        return _EXPORT_OPS + [_shuffle_op(rng.choice(words), rng.choice(words))
                              for _ in range(SHUFFLE_PAIRS)]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def all_ops() -> list[list[str]]:
    """Every operation any seed can produce, for recording references."""
    ops = _verify_ops(CORRUPTIONS[0], CORRUPTIONS[0])[:1]
    for value in CORRUPTIONS:
        ops += _verify_ops(value, value)[1:]
    words = shuffle_words()
    return ops + _VALUES_OPS + _EXPORT_OPS + [_shuffle_op(u, v) for u in words for v in words]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(argv: list[str], stdout: bytes) -> str:
    """sha256 of an operation's output.

    Verify reports are reduced to the fields the seed emits, minus the
    ``elapsed`` timings, so that a later report that adds fields (stats,
    environment) still compares equal on every verdict and witness.
    """
    if argv[0] == "verify":
        try:
            payload = json.loads(stdout)
            payload = {
                "passed": payload["passed"],
                "reports": [
                    {k: r[k] for k in ("suite", "parameters", "checks", "passed")}
                    for r in payload["reports"]
                ],
            }
        except (ValueError, KeyError, TypeError):
            return "unparsable:" + hashlib.sha256(stdout).hexdigest()
        stdout = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(stdout).hexdigest()


def load_references() -> dict[str, dict]:
    return json.loads(REFERENCES.read_text())["operations"]
