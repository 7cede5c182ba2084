"""Golden outputs: CLI commands whose exit code and sha256 output digest
are recorded in ``bench/references.json`` must reproduce them byte for
byte.  The commands run in-process; the file is only read.

A verify report is digested the way the references were recorded: each
report keeps its suite, parameters, checks and verdict, and drops its
``elapsed`` timing."""

import hashlib
import json
from pathlib import Path

import pytest

from dmzv.cli import main

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"

GOLDEN = [
    "convert --max-weight 200 --format json",
    "gr-coeffs --depth 6 --format json",
    *(
        f"values --family {family} --depth {depth} --max-weight {weight} --format json"
        for family in ("fkmt", "ems")
        for depth, weight in ((4, 4), (5, 2), (6, 1))
    ),
    "shuffle dddyyyy dydydyy --truncation 24",
    "shuffle ydyddyy ddyyydy --truncation 24",
    "verify --format json",
    "verify --suite bernoulli --corrupt-bernoulli 4=1/5 --format json",
]


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCES.read_text())["operations"]


@pytest.mark.parametrize("command", GOLDEN)
def test_output_matches_recorded_digest(capsys, references, command):
    code = main(command.split())
    out = capsys.readouterr().out
    if command.startswith("verify"):
        payload = json.loads(out)
        out = json.dumps(
            {
                "passed": payload["passed"],
                "reports": [
                    {k: r[k] for k in ("suite", "parameters", "checks", "passed")}
                    for r in payload["reports"]
                ],
            },
            sort_keys=True,
        )
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        references[command]["exit"],
        references[command]["sha256"],
    )
