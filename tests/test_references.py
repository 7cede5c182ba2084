"""Golden outputs: every CLI command whose exit code and sha256 output
digest are recorded in ``bench/references.json`` must reproduce them byte
for byte.  The commands run in-process; the file is only read.

A verify report is digested the way the references were recorded: each
report keeps its suite, parameters, checks and verdict, and drops its
``elapsed`` timing.

The file still records exit 0 for the 16 ``verify --suite routes
--corrupt-bernoulli 20=...`` commands, from a version whose routes suite
never read B_20.  The suite reads it now, so each of them must fail."""

import hashlib
import json
from pathlib import Path

import pytest

from dmzv.cli import main

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"

OPERATIONS = json.loads(REFERENCES.read_text())["operations"]


def stale(command: str) -> bool:
    """A corrupted B_20 that the recorded routes run never read."""
    return "--suite routes" in command and " 20=" in command


def test_every_recorded_operation_is_replayed():
    assert len(OPERATIONS) == 441
    assert sum(map(stale, OPERATIONS)) == 16


@pytest.mark.parametrize("command", sorted(OPERATIONS))
def test_output_matches_recorded_digest(capsys, command):
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
    if stale(command):
        assert (OPERATIONS[command]["exit"], code) == (0, 1)
        return
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        OPERATIONS[command]["exit"],
        OPERATIONS[command]["sha256"],
    )
