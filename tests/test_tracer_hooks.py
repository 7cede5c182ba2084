"""The benchmark's layer tracer (``bench/layers.py``) installs its spans on
names in ``dmzv``: the ``verify_<suite>`` functions, ``ValueStore.fkmt``
and ``ValueStore.ems``, and the ``(family, index)`` keys of the store's
memo.  A traced verify run must still find all of them.  The tracer
runs in a subprocess; nothing under ``bench/`` is written."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify_finds_every_verify_hook():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "traced",
         "verify", "--suite", "depth1", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exit"] == 0
    assert [name for name in result["missing"] if name.startswith("verify")] == []
    assert result["counts"]["verify.store_lookups"] > 0
    assert result["calls"]["verify.depth1"] == 1
