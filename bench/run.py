"""The dmzv benchmark: one command, stdlib only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's dmzv commands as a closed loop with one client: each
operation is one CLI call in a fresh interpreter, started only after the
previous one has exited, so every cache starts cold as it does for a
user.  Passes over the operations repeat until ``--seconds`` have
elapsed.  Every output is checked against the reference recorded at the
seed commit (``references.json``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
operation twice more in fresh processes, through ``layers.py`` with and
without spans, and reports the per-layer metrics.  Earlier stdout lines
carry the environment and the raw samples; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from ops import BENCH_DIR, WORKLOADS, build, digest, key, known_defect, load_references

ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120

# Start-up probe: a fresh interpreter importing stdlib modules dmzv also
# uses.  It shares no code with dmzv, so no change to dmzv can move it,
# but interpreter start-up on this shared host drifts by a third between
# minutes, and the probe drifts with it.  setup_s is scaled to a host on
# which the probe takes REFERENCE_PROBE_S.
PROBE = "import argparse, csv, dataclasses, fractions, json, tempfile, threading"
REFERENCE_PROBE_S = 0.1

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "pass_ratio": "ratio"}

SUITES = ("bernoulli", "depth1", "routes", "recurrence", "telescope", "shuffle",
          "last-entry", "inversion", "ems-shuffle", "conversion", "shift-coeffs", "words")
# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "genfun.multisum_s": "genfun.multisum",
    "genfun.series_build_s": "genfun.series_build",
    "genfun.extract_s": "genfun.extract",
    "multiseries.mul_s": "multiseries.mul",
    "multiseries.substitute_s": "multiseries.substitute",
    "series.divide_s": "series.divide",
    "series.mul_s": "series.mul",
    "words.product_s": "words.product",
    "words.character_s": "words.character",
    "multipoly.mul_s": "multipoly.mul",
    "multipoly.substitute_s": "multipoly.substitute",
    "shiftcoeffs.expand_s": "shiftcoeffs.expand",
    "shiftcoeffs.checks_s": "shiftcoeffs.checks",
    "bernoulli.self_s": "bernoulli",
    "cli.self_s": "cli",
    **{f"verify.{suite}_s": f"verify.{suite}" for suite in SUITES},
}
# per-layer metric -> span whose call count it reports
CALLS = {
    "genfun.multisum_calls": "genfun.multisum",
    "multiseries.mul_calls": "multiseries.mul",
    "series.divide_calls": "series.divide",
    "series.mul_calls": "series.mul",
    "words.product_calls": "words.product",
    "words.character_calls": "words.character",
    "multipoly.mul_calls": "multipoly.mul",
    "bernoulli.calls": "bernoulli",
}
COUNTS = ("genfun.multisum_matrices", "multiseries.term_pairs", "shiftcoeffs.terms",
          "bernoulli.table_size", "verify.store_lookups", "verify.checks", "cli.bytes_out")
RATIOS = {  # metric -> (hits count, lookups count)
    "genfun.series_cache_hit_ratio": ("genfun.series_cache_hits", "genfun.series_cache_lookups"),
    "verify.store_hit_ratio": ("verify.store_hits", "verify.store_lookups"),
}
MAX_COUNTS = {"bernoulli.table_size"}  # a pass reports the largest, not the sum


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit: int
    stdout: bytes
    stderr: bytes


def spawn(cmd: list[str], env: dict) -> Child:
    """Run one command to completion through launch.py, which times it
    and reads its rusage."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(write_fd),
             str(CHILD_TIMEOUT_S), *cmd],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
            pass_fds=(write_fd,),
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reports:
        out, err = proc.communicate()
        report = reports.read()
    if proc.returncode != 0 or not report:
        raise RuntimeError(f"launcher failed for {cmd}: {err.decode()[-2000:]}")
    return Child(stdout=out, stderr=err, **json.loads(report))


def judge(argv: list[str], exit_code: int, output_digest: str, references: dict) -> tuple[bool, bool]:
    """(failed, correct) for one operation.

    An operation fails when its exit code or output digest differs from
    the reference.  The known vacuous pass (see ops.known_defect) is
    expected to exit 1; while it still reproduces the seed's output it
    counts as failed but not as incorrect.
    """
    ref = references[key(argv)]
    seed_outcome = exit_code == ref["exit"] and output_digest == ref["sha256"]
    if known_defect(argv):
        return exit_code != 1, exit_code == 1 or seed_outcome
    return not seed_outcome, seed_outcome


def environment(env: dict, seed: int, ops: list[list[str]]) -> dict:
    """Where and on what the run happened; also compiles the bytecode."""
    check = spawn([sys.executable, "-c",
                   "import dmzv, dmzv.cli; print(dmzv.__version__); print(dmzv.__file__)"], env)
    if check.exit != 0:
        raise SystemExit(f"cannot import dmzv from {ROOT / 'src'}: {check.stderr.decode()}")
    version, location = check.stdout.decode().split()
    if not Path(location).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dmzv was imported from {location}, not from {ROOT / 'src'}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "dmzv": version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "operations": [key(argv) for argv in ops],
    }


def git_sha() -> str:
    """HEAD read from the .git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def timed(code: str, env: dict) -> float:
    return spawn([sys.executable, "-c", code], env).wall_s


def end_to_end(ops, references, env, seconds):
    """Closed loop over the operations until the time is up.

    A set-up sample and a probe sample precede each pass, so their
    medians span the same stretch of time as the passes; the rest follow
    the last pass.
    """
    setup, probe, passes, attempted, failed, correct, problems = [], [], [], 0, 0, True, []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setup.append(timed("import dmzv.cli", env))
        probe.append(timed(PROBE, env))
        children = []
        for argv in ops:
            child = spawn([sys.executable, "-m", "dmzv", *argv], env)
            bad, ok = judge(argv, child.exit, digest(argv, child.stdout), references)
            attempted += 1
            failed += bad
            correct &= ok
            if bad:
                problems.append({"op": key(argv), "exit": child.exit,
                                 "stderr": child.stderr.decode()[-500:]})
            children.append(child)
        passes.append(children)
    for _ in range(SETUP_SAMPLES - len(setup)):
        setup.append(timed("import dmzv.cli", env))
        probe.append(timed(PROBE, env))
    walls = [sum(c.wall_s for c in p) for p in passes]
    metrics = {
        "wall_s": median(walls),
        "peak_rss_mb": median([max(c.rss_mb for c in p) for p in passes]),
        "setup_s": median(setup) * REFERENCE_PROBE_S / median(probe),
        "pass_ratio": (attempted - failed) / attempted,
    }
    detail = {
        "passes": len(passes),
        "wall_s_samples": walls,
        "cpu_s_samples": [sum(c.cpu_s for c in p) for p in passes],
        "raw_setup_s_samples": setup,
        "probe_s_samples": probe,
        "op_wall_s_median": {key(argv): median([p[i].wall_s for p in passes])
                             for i, argv in enumerate(ops)},
        "failures": problems[: len(ops)],
    }
    return metrics, attempted, failed, correct, detail


def exact(counts: dict) -> dict:
    """The counts that must repeat: verify's output length varies with
    the digits of its ``elapsed`` timings."""
    return {name: value for name, value in counts.items() if name != "cli.bytes_out"}


def traced(ops, references, env, seconds):
    """Pairs of passes, with and without spans, until the time is up."""
    layers = str(BENCH_DIR / "layers.py")
    samples, attempted, failed, correct, problems, missing = [], 0, 0, True, [], set()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        self_s, calls, counts, overhead = {}, {}, {}, 0.0
        for argv in ops:
            runs = {}
            for mode in ("traced", "plain"):
                child = spawn([sys.executable, layers, mode, *argv], env)
                try:
                    runs[mode] = json.loads(child.stdout)
                except ValueError:
                    runs[mode] = {"exit": None, "digest": "", "inproc_s": 0.0}
                bad, ok = judge(argv, runs[mode]["exit"], runs[mode]["digest"], references)
                attempted += 1
                failed += bad
                correct &= ok
                if bad:
                    problems.append({"op": key(argv), "mode": mode, "exit": runs[mode]["exit"],
                                     "stderr": child.stderr.decode()[-500:]})
            overhead += runs["traced"]["inproc_s"] - runs["plain"]["inproc_s"]
            for total, part in ((self_s, "self_s"), (calls, "calls"), (counts, "counts")):
                for name, value in runs["traced"].get(part, {}).items():
                    total[name] = (max if name in MAX_COUNTS else sum)((total.get(name, 0), value))
            missing.update(runs["traced"].get("missing", ()))
        samples.append((self_s, calls, counts, overhead))

    _, first_calls, first_counts, _ = samples[0]
    metrics = {metric: median([s[0].get(span, 0.0) for s in samples])
               for metric, span in SELF_TIMES.items()}
    metrics.update({metric: first_calls.get(span, 0) for metric, span in CALLS.items()})
    metrics.update({metric: first_counts.get(metric, 0) for metric in COUNTS})
    for metric, (hits, lookups) in RATIOS.items():
        total = first_counts.get(lookups, 0)
        metrics[metric] = first_counts.get(hits, 0) / total if total else 0.0
    metrics["trace.overhead_s"] = median([s[3] for s in samples])
    detail = {
        "pairs": len(samples),
        "counts_repeat": all((s[1], exact(s[2])) == (first_calls, exact(first_counts))
                             for s in samples),
        "self_s_all_spans": samples[0][0],
        "calls_all_spans": first_calls,
        "missing_spans": sorted(missing),
        "failures": problems[: 2 * len(ops)],
    }
    return metrics, attempted, failed, correct, detail


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "bytes" if metric == "cli.bytes_out" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dmzv" / "cli.py").is_file():
        print(f"error: no dmzv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children import from bytecode caches, as installs do
    ops = build(args.workload, args.seed)
    references = load_references()
    info = environment(env, args.seed, ops)
    measure = traced if args.trace else end_to_end
    metrics, attempted, failed, correct, detail = measure(ops, references, env, args.seconds)
    print(json.dumps({"environment": info, "workload": args.workload, **detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
