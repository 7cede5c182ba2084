"""Per-layer tracing of one dmzv command, run in a fresh process.

    python3 bench/layers.py traced|plain <dmzv arguments...>

Runs ``dmzv.cli.main`` in-process with stdout captured and prints one
JSON line: exit code, output digest, in-process time and, when traced,
the self time and call count of every span plus the exact work counts.

Spans are installed from here, around the public functions of each
module in ``src/dmzv``; nothing in the package changes.  A span's self
time is its duration minus that of the spans it encloses, and the root
span is ``cli.main``, so the self times add up to the in-process time.
``rationals`` and ``report`` get no span: their ``Fraction`` helpers run
hundreds of thousands of times per command, so a wrapper there would
mostly time itself.  For the same reason the Bernoulli span covers only
table fills, not the reads that hit the table.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
import time
from collections import defaultdict
from math import comb, prod

from ops import digest


def _count_matrices(tracer, result, k, *rest):
    tracer.counts["genfun.multisum_matrices"] += multisum_matrices(tuple(k))


def _count_term_pairs(tracer, result, a, b):
    if hasattr(b, "coeffs"):  # a product of two series, not a scaling
        tracer.counts["multiseries.term_pairs"] += len(a.coeffs) * len(b.coeffs)


def _count_terms(tracer, result, depth):
    tracer.expanded_terms[depth] = len(result.terms)


def _count_table(tracer, result, cache, m):
    counts = tracer.counts
    counts["bernoulli.table_size"] = max(counts["bernoulli.table_size"], cache.known())


def _count_checks(tracer, result, *args):
    tracer.counts["verify.checks"] += sum(len(r.checks) for r in result)


# (span name, module or module.Class, attributes, work-count hook)
SPANS = (
    ("genfun.multisum", "genfun", ("fkmt_value", "ems_value"), _count_matrices),
    ("genfun.series_build", "genfun", ("fkmt_factor", "ems_factor", "ems_prefactor",
                                       "fkmt_series", "ems_series", "ems_series_from_fkmt"),
     None),
    ("genfun.extract", "genfun", ("fkmt_value_series", "ems_value_series",
                                  "series_value_table"), None),
    ("multiseries.mul", "multiseries.MultiSeries", ("__mul__",), _count_term_pairs),
    ("multiseries.substitute", "multiseries", ("substitute_linear_form",
                                               "substitute_linear_forms"), None),
    ("series.divide", "series", ("divide_with_valuation",), None),
    ("series.mul", "series.UniSeries", ("__mul__",), None),
    ("series.mul", "series.LaurentSeries", ("__mul__",), None),
    ("words.product", "words", ("word_product",), None),
    ("words.character", "words", ("character",), None),
    ("multipoly.mul", "multipoly.LaurentPolynomial", ("__mul__",), None),
    ("multipoly.substitute", "multipoly.LaurentPolynomial", ("substitute",), None),
    ("shiftcoeffs.expand", "shiftcoeffs", ("coefficient_polynomial",), _count_terms),
    ("shiftcoeffs.expand", "shiftcoeffs", ("shift_coefficients", "shifted_zeta_expression"),
     None),
    ("shiftcoeffs.checks", "shiftcoeffs", ("check_trailing_shift", "check_contraction",
                                           "check_merge_substitution", "check_reindexing"),
     None),
    ("bernoulli", "bernoulli.BernoulliCache", ("_fill",), _count_table),
    ("verify.run_all", "verify", ("run_all",), _count_checks),
)

# lru_cache'd series builders whose cache_info gives the series hit ratio
SERIES_CACHES = ("fkmt_factor", "ems_factor", "ems_prefactor", "fkmt_series", "ems_series")


def multisum_matrices(k) -> int:
    """Upper-triangular matrices the multi-sum enumerates for index k:
    column j (0-based) is a composition of k_j into j + 1 parts."""
    return prod(comb(x + j, j) for j, x in enumerate(k))


class Tracer:
    """Span self times, call counts and work counts, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.expanded_terms: dict[int, int] = {}  # polynomial terms per depth
        self.missing: list[str] = []  # span targets the program does not have
        self._open: list[float] = []  # time covered by children, per open span

    def span(self, name, fn, hook=None):
        """Wrap fn in a span; hook(tracer, result, *args) records work counts."""
        open_spans, self_s, calls, clock = self._open, self.self_s, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(self, result, *args)
            return result

        return wrapper


def _replace(orig, wrapper, namespaces) -> None:
    for namespace in namespaces:
        for name, value in list(vars(namespace).items()):
            if value is orig:
                setattr(namespace, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer.  A function is replaced wherever a dmzv module
    holds it, so calls through ``from .x import f`` are traced too."""
    from dmzv import verify

    modules = [m for n, m in sys.modules.items() if n == "dmzv" or n.startswith("dmzv.")]
    spans = SPANS + tuple(
        (f"verify.{suite}", "verify", (f"verify_{suite.replace('-', '_')}",), None)
        for suite in verify.SUITES
    )
    for name, where, attrs, hook in spans:
        module_name, _, class_name = where.partition(".")
        try:
            owner = importlib.import_module(f"dmzv.{module_name}")
        except ImportError:
            owner = None
        if class_name:
            owner = getattr(owner, class_name, None)
        for attr in attrs:
            orig = getattr(owner, attr, None)
            if orig is None:  # the layer was renamed or removed: its span reads 0
                tracer.missing.append(f"{where}.{attr}")
                continue
            _replace(orig, tracer.span(name, orig, hook), [owner] if class_name else modules)

    counts = tracer.counts
    for family in ("FKMT", "EMS"):
        lookup = getattr(verify.ValueStore, family.lower())

        def counted(store, k, _lookup=lookup, _family=family):
            counts["verify.store_lookups"] += 1
            counts["verify.store_hits"] += (_family, tuple(k)) in store._memo
            return _lookup(store, k)

        setattr(verify.ValueStore, family.lower(), counted)


def run(argv: list[str], traced: bool) -> dict:
    from dmzv import cli, default_cache, genfun

    tracer = Tracer()
    cache_infos = [getattr(genfun, name).cache_info for name in SERIES_CACHES]
    if traced:
        install(tracer)
    main = tracer.span("cli", cli.main) if traced else cli.main
    captured, real_stdout = io.StringIO(), sys.stdout
    sys.stdout = captured
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        inproc_s = time.perf_counter() - start
        sys.stdout = real_stdout
    out = captured.getvalue().encode()
    result = {"exit": code, "digest": digest(argv, out), "inproc_s": inproc_s}
    if traced:
        counts = tracer.counts
        counts["cli.bytes_out"] = len(out)
        counts["bernoulli.table_size"] = max(counts["bernoulli.table_size"],
                                             default_cache().known())
        counts["shiftcoeffs.terms"] = sum(tracer.expanded_terms.values())
        for cache_info in cache_infos:
            info = cache_info()
            counts["genfun.series_cache_hits"] += info.hits
            counts["genfun.series_cache_lookups"] += info.hits + info.misses
        result.update(self_s=tracer.self_s, calls=tracer.calls, counts=counts,
                      missing=tracer.missing)
    return result


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("traced", "plain"):
        sys.exit("usage: layers.py traced|plain <dmzv arguments...>")
    print(json.dumps(run(sys.argv[2:], sys.argv[1] == "traced")))
