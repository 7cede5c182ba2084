"""Record the reference outputs the benchmark checks against.

    python3 bench/make_references.py

Runs every operation any seed can draw (ops.all_ops) once in a fresh
``python3 -m dmzv`` process and writes its exit code and output digest
to ``references.json``.  Run it only at a commit whose outputs are known
to be right; the committed file was recorded at the seed commit.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor

from ops import REFERENCES, all_ops, digest, key
from run import ROOT, git_sha, spawn


def record(argv: list[str], env: dict) -> tuple[str, dict]:
    child = spawn([sys.executable, "-m", "dmzv", *argv], env)
    if child.exit not in (0, 1):
        raise SystemExit(f"{key(argv)} exited {child.exit}: {child.stderr.decode()}")
    return key(argv), {"exit": child.exit, "sha256": digest(argv, child.stdout)}


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        operations = dict(pool.map(lambda argv: record(argv, env), all_ops()))
    payload = {"git_sha": git_sha(), "python": platform.python_version(),
               "operations": operations}
    REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(operations)} references to {REFERENCES}")


if __name__ == "__main__":
    main()
