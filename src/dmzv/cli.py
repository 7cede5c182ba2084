"""Command-line front end.

Subcommands: ``values``, ``verify``, ``gr-coeffs``, ``convert``,
``shuffle``.  Exit codes: 0 on success, 1 when a verification fails,
2 on usage errors.  Files are written atomically (write to a temporary
sibling, then rename), and JSON is emitted with sorted keys so output
files are reproducible byte for byte.

Each command imports the layers it runs when it runs, so a process loads
only what its command needs; the parser takes its family and suite names
from :mod:`dmzv.names`, which loads neither.  Every command but ``verify``
computes on integers and writes each rational from its numerator and
denominator by one gcd (:func:`dmzv.tables.rows`,
:func:`dmzv.rationals.format_pair`), so only ``verify`` loads
``fractions``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .names import FAMILY_NAMES, SUITES

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Bounds on a ``values`` request, checked before any arithmetic: the
# table's (max_weight + 1) ** depth entries, held as integers, and
# depth * (max_weight + 1), which also bounds the depth at max_weight 0.
# With ``--format json`` in a fresh process (median of 3, Python 3.11.7, a
# shared 2-vCPU x86-64 host): 0.23 s and 18.8 MiB at depth 6, max weight 5;
# 3.7 s and 32.0 MiB at depth 2, max weight 222; 0.15 s and 14.9 MiB at
# depth 1, max weight 499.
MAX_TABLE_ENTRIES = 50_000
MAX_TABLE_SPAN = 500
# Bound on ``convert --max-weight``, checked before any arithmetic.  The
# Bernoulli table fill and the residual sums grow with about the cube of
# the weight.  In a fresh process (median of 5, Python 3.11.7, a shared
# 2-vCPU x86-64 host) it takes 0.20 s at 500; the table alone takes
# 0.84 s at 800 (median of 3) and 11.6 s at 1600 (one run).
MAX_CONVERT_WEIGHT = 500
# Bounds on ``verify``'s caps, checked before any arithmetic.  In a fresh
# process (median of 5, Python 3.11.7, a shared 2-vCPU x86-64 host), a
# whole ``verify`` run takes 0.12 s at the default caps, 0.26 s at
# ``--depth 6`` (past depth 3 it only deepens the shift-coeffs expansion,
# which grows about eightfold per depth), 0.18 s at ``--max-weight 8``
# (0.26 s at 10; it sets the routes and last-entry boxes), 1.04 s at
# ``--truncation 14`` (2.1 s at 16; it sets the conversion series cap and
# the character order), and 1.25 s with all three at their limits.
MAX_VERIFY_DEPTH = 6
MAX_VERIFY_WEIGHT = 8
MAX_VERIFY_TRUNCATION = 14
# Bound on the index M of ``verify --corrupt-bernoulli M=P/Q``: the run's
# Bernoulli table, and the true one that P/Q is checked against, are
# filled up to B_M first.  In a fresh process (median of 9, Python 3.11.7,
# a shared 2-vCPU x86-64 host), ``verify --suite bernoulli`` with M = 500
# takes 0.18 s (0.14 s at 400; 0.12 s and 0.10 s with the run's fill only).
MAX_CORRUPT_INDEX = 500
# Bounds on ``shuffle``, checked before any arithmetic: the length of each
# word and ``--truncation``.  Two length-16 words at truncation 64 took at
# most 0.25 s over 40 random pairs; the product's terms grow about
# fourfold per two letters added to each word (length 20: 0.42 s), and
# truncation 128 took 0.89 s.
MAX_SHUFFLE_LENGTH = 16
MAX_SHUFFLE_TRUNCATION = 64


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _corruption(text: str) -> tuple[int, Fraction]:
    from .rationals import parse_rational

    try:
        index, _, value = text.partition("=")
        m, value = int(index), parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected M=P/Q, e.g. 4=1/5, got {text!r}"
        ) from exc
    if not 0 <= m <= MAX_CORRUPT_INDEX:
        raise argparse.ArgumentTypeError(
            f"the index M must be in 0..{MAX_CORRUPT_INDEX}, got {m}"
        )
    return m, value


def _usage_error(message: str) -> int:
    """Report a usage error on stderr and return its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _oversized(*limits: tuple[str, Optional[int], int]) -> str:
    """The flags whose values are above their limits, listed for a usage
    error ('' when there are none).  Each limit is (flag, value, limit);
    an unset flag (None) is within it.  A command checks this before any
    arithmetic."""
    return ", ".join(
        f"{flag} {value} (the limit is {limit})"
        for flag, value, limit in limits
        if value is not None and value > limit
    )


@contextmanager
def _output(out_path: Optional[str]):
    """stdout, or a temporary sibling of the given path that replaces it
    once everything is written."""
    if out_path is None:
        yield sys.stdout
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dmzv-tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        # mkstemp creates the file with mode 0600; give it the mode a
        # shell redirect would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_batches(handle, items, sep: str = "") -> None:
    """Write the strings ``items`` joined by ``sep`` while they are made, so
    the whole text is never held at once.  Items are joined in batches of
    64: an unbuffered stdout (``PYTHONUNBUFFERED``) would otherwise take
    one write per item, and larger batches raise the peak RSS of the
    smaller outputs (a verify report's passing check is one item of about
    150 bytes, so 256 of them raised a default run's peak by 0.1 MiB)."""
    lead = ""
    while batch := sep.join(islice(items, 64)):
        handle.write(lead + batch)
        lead = sep


def _write_joined(head: str, items, sep: str, tail: str, out_path: Optional[str]) -> None:
    """Write head, the strings ``items`` joined by ``sep``, and tail, through
    :func:`_write_batches`, to stdout or atomically to the given path."""
    with _output(out_path) as handle:
        handle.write(head)
        _write_batches(handle, items, sep)
        handle.write(tail)


def _json_ints(count: int) -> str:
    """The template of a list of ``count`` ints as json.dumps(indent=2)
    writes it as a field of an object in a list in an object."""
    return "[\n        " + ",\n        ".join(["%d"] * count) + "\n      ]"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_values(args) -> int:
    span = args.depth * (args.max_weight + 1)
    if span > MAX_TABLE_SPAN or (args.max_weight + 1) ** args.depth > MAX_TABLE_ENTRIES:
        return _usage_error(
            f"a depth-{args.depth} table with max weight {args.max_weight} is too "
            f"large: the limits are (max_weight + 1) ** depth <= {MAX_TABLE_ENTRIES:,} "
            f"entries and depth * (max_weight + 1) <= {MAX_TABLE_SPAN}"
        )
    from .tables import last_level, rows

    # the recurrence's last level is built once; each row is reduced as it is written
    depth, weight, family = args.depth, args.max_weight, args.family.upper()
    level = last_level(family, depth, weight)
    if args.format == "json":
        # the text of json.dumps({"depth": ..., "family": ..., "values": [{"args":
        # k, "value": "p/q"}, ...]}, sort_keys=True, indent=2)
        template = '    {\n      "args": ' + _json_ints(depth) + ',\n      "value": "%s"\n    }'
        head = '{\n  "depth": %d,\n  "family": "%s",\n  "values": [\n' % (depth, family)
        _write_joined(head, (template % (*k, v) for k, v in rows(level, depth, weight)),
                      ",\n", "\n  ]\n}\n", args.out)
        return EXIT_OK
    header = [f"k{i}" for i in range(1, depth + 1)] + ["value"]
    if args.format == "csv":
        # every cell is an integer, a p/q rational or a header: none needs quoting
        head, template = ",".join(header), "%d," * depth + "%s"
    else:
        # each index column holds 0..max_weight; the value column's width
        # takes one pass over the values, which the lines then reduce again
        widths = [max(len(h), len(str(weight))) for h in header[:-1]]
        widths.append(max(len("value"), max(len(v) for _, v in rows(level, depth, weight))))
        head = "  ".join(map(str.rjust, header, widths))
        template = "  ".join([f"%{width}d" for width in widths[:-1]] + [f"%{widths[-1]}s"])
    _write_joined(head + "\n", (template % (*k, v) for k, v in rows(level, depth, weight)),
                  "\n", "\n", args.out)
    return EXIT_OK


# A check with no witness, as json.dumps(check.to_json_dict(), indent=2)
# writes it at its place in the verify report, the description aside
_PASSING_CHECK = (
    '{\n          "description": %s,\n          "status": "pass",\n'
    '          "witness": null\n        }'
)


def _report_chunks(passed: bool, reports) -> Iterator[str]:
    """The text of ``json.dumps({"passed": passed, "reports": [r.to_json_dict()
    for r in reports]}, sort_keys=True, indent=2)`` in chunks, one check at
    a time.  A passing check is one string from a template, as a
    ``gr-coeffs`` term is.  A failing check and a report's parameters are
    few and small: each is its own ``json.dumps`` text with the indent of
    its place after every newline (json escapes a newline in a string)."""
    import json
    from json.encoder import encode_basestring_ascii as quote

    def nested(value, indent: str) -> str:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)

    yield '{\n  "passed": ' + ("true" if passed else "false") + ',\n  "reports": '
    if not reports:
        yield "[]"
    else:
        head = "[\n    "
        for report in reports:
            # the report's keys in sorted order
            yield head + '{\n      "checks": '
            if not report.checks:
                yield "[]"
            else:
                lead = "[\n        "
                for check in report.checks:
                    if check.witness is None:
                        yield lead + _PASSING_CHECK % quote(check.description)
                    else:
                        yield lead + nested(check.to_json_dict(), "        ")
                    lead = ",\n        "
                yield "\n      ]"
            yield ',\n      "elapsed": ' + json.dumps(report.elapsed)
            yield ',\n      "parameters": ' + nested(report.parameters, "      ")
            yield ',\n      "passed": ' + ("true" if report.passed else "false")
            yield ',\n      "suite": ' + quote(report.suite) + "\n    }"
            head = ",\n    "
        yield "\n  ]"
    yield "\n}"


def _cmd_verify(args) -> int:
    if oversized := _oversized(
        ("--depth", args.depth, MAX_VERIFY_DEPTH),
        ("--max-weight", args.max_weight, MAX_VERIFY_WEIGHT),
        ("--truncation", args.truncation, MAX_VERIFY_TRUNCATION),
    ):
        return _usage_error(f"verify caps too large: {oversized}")
    from .verify import VerifyConfig, reports_pass, run_all

    config = VerifyConfig(
        suites=tuple(args.suite) if args.suite else None,
        depth=args.depth,
        max_weight=args.max_weight,
        truncation=args.truncation,
        corrupt_bernoulli=tuple(args.corrupt_bernoulli or ()),
    )
    try:
        reports = run_all(config)
    except ValueError as exc:  # an unknown suite, or a corruption that changes nothing
        return _usage_error(str(exc))
    passed = reports_pass(reports)

    # the JSON report goes to --out, or to stdout for --format json; the
    # summary to stdout unless the JSON went there
    if args.out is not None or args.format == "json":
        _write_joined("", _report_chunks(passed, reports), "", "\n", args.out)
    if args.out is not None or args.format == "text":
        import json

        for report in reports:
            print(report.summary_line())
            for failure in report.failures()[:5]:
                print(f"     witness: {json.dumps(failure.witness, sort_keys=True)}")
        print("result: " + ("all suites pass" if passed else "FAILURES detected"))
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_gr_coeffs(args) -> int:
    from .expansion import MAX_DEPTH, family, rendered_text, terms

    if oversized := _oversized(("--depth", args.depth, MAX_DEPTH)):
        return _usage_error(f"gr-coeffs request too large: {oversized}")
    # every term is checked before the first byte is written; each is read
    # as (coef, exponent vector l + m), in (l, m) order
    depth = args.depth
    codes, coefs = family(depth)
    if args.format == "text":
        # one pass for the term lines, one for the one-line rendering
        entries = "[" + ", ".join(["%d"] * depth) + "]"
        line = "  l=" + entries + "  m=" + entries + "  coef=%d\n"
        with _output(args.out) as handle:
            handle.write(f"depth {depth}: {len(codes)} nonzero coefficients\n")
            _write_batches(handle, (line % (*e, coef) for coef, e in terms(depth, codes, coefs)))
            _write_batches(handle, rendered_text(depth, (
                (coef, e[:depth], e[depth:]) for coef, e in terms(depth, codes, coefs))))
            handle.write("\n")
        return EXIT_OK
    # the depth fixes each term's shape, so one template formats them all
    if args.format == "json":
        # the text of json.dumps(record.to_json_dict(), sort_keys=True, indent=2)
        entries = _json_ints(depth)
        template = (
            '    {\n      "coef": %d,\n      "l": ' + entries + ',\n      "m": ' + entries
            + "\n    }"
        )
        head = '{\n  "depth": %d,\n  "terms": [\n' % depth
        _write_joined(head, (template % (coef, *e) for coef, e in terms(depth, codes, coefs)),
                      ",\n", "\n  ]\n}\n", args.out)
    else:
        # integers never need CSV quoting
        header = [f"l{i}" for i in range(1, depth + 1)] + [f"m{i}" for i in range(1, depth + 1)]
        template = ",".join(["%d"] * (2 * depth + 1))
        _write_joined(",".join(header + ["coef"]) + "\n",
                      (template % (*e, coef) for coef, e in terms(depth, codes, coefs)),
                      "\n", "\n", args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    if oversized := _oversized(("--max-weight", args.max_weight, MAX_CONVERT_WEIGHT)):
        return _usage_error(f"conversion table too large: {oversized}")
    from .genfun import conversion_pairs
    from .rationals import format_pair

    # one template per row, each cell a pair written as p/q, or p when q is 1
    head, sep, tail = "k,fkmt,ems,ems_from_fkmt_residual,fkmt_from_ems_residual\n", "\n", "\n"
    # every csv cell is an integer, a p/q rational or a header: none needs quoting
    template = "%(k)d,%(fkmt)s,%(ems)s,%(first)s,%(second)s"
    if args.format == "json":
        # the text of json.dumps(payload, sort_keys=True, indent=2)
        head = '{\n  "max_weight": %d,\n  "rows": [\n' % args.max_weight
        sep, tail = ",\n", "\n  ]\n}\n"
        template = ('    {\n      "ems": "%(ems)s",\n'
                    '      "ems_from_fkmt_residual": "%(first)s",\n      "fkmt": "%(fkmt)s",\n'
                    '      "fkmt_from_ems_residual": "%(second)s",\n      "k": %(k)d\n    }')
    elif args.format == "text":
        head = "k  fkmt  ems  residuals\n"
        template = "%(k)d  %(fkmt)s  %(ems)s  (%(first)s, %(second)s)"
    cells = ("fkmt", "ems", "first", "second")
    rows = (dict(zip(cells, [format_pair(*cell) for cell in row]), k=k)
            for k, row in enumerate(conversion_pairs(args.max_weight)))
    _write_joined(head, map(template.__mod__, rows), sep, tail, args.out)
    return EXIT_OK


def _cmd_shuffle(args) -> int:
    from .words import Word, multiplicativity_defect, word_product

    try:
        u = Word.parse(args.u)
        v = Word.parse(args.v)
    except ValueError as exc:
        return _usage_error(str(exc))
    if oversized := _oversized(
        ("u has length", len(u), MAX_SHUFFLE_LENGTH),
        ("v has length", len(v), MAX_SHUFFLE_LENGTH),
        ("--truncation", args.truncation, MAX_SHUFFLE_TRUNCATION),
    ):
        return _usage_error(f"shuffle request too large: {oversized}")
    product = word_product(u, v)
    print(f"{u} * {v} = {product}")
    defect = multiplicativity_defect(u, v, args.truncation)
    if defect.is_zero():
        print(f"residual = 0 through order {args.truncation}")
        return EXIT_OK
    degree = defect.valuation()
    print(
        f"residual != 0: first nonzero coefficient at degree {degree}: "
        f"{defect._formatted(degree)}"
    )
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmzv",
        description=(
            "Exact desingularized and renormalized multiple zeta values at "
            "non-positive integers, and verification of their identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_values = sub.add_parser("values", help="emit a grid of exact values")
    p_values.add_argument(
        "--family", choices=[name.lower() for name in FAMILY_NAMES], required=True
    )
    p_values.add_argument("--depth", type=_positive_int, default=1)
    p_values.add_argument("--max-weight", type=_non_negative_int, default=4)
    p_values.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_values.add_argument("--out", default=None, metavar="PATH")
    p_values.set_defaults(func=_cmd_values)

    p_verify = sub.add_parser("verify", help="run the identity verification suites")
    p_verify.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help=f"suite to run (repeatable); default all of: {', '.join(SUITES)}",
    )
    p_verify.add_argument("--depth", type=_positive_int, default=None)
    p_verify.add_argument("--max-weight", type=_non_negative_int, default=None)
    p_verify.add_argument("--truncation", type=_non_negative_int, default=None)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--out", default=None, metavar="PATH")
    p_verify.add_argument(
        "--corrupt-bernoulli",
        action="append",
        type=_corruption,
        default=None,
        metavar="M=P/Q",
        help="fault injection: run against a Bernoulli table with entry M "
        "overwritten by P/Q (the harness must then fail)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_gr = sub.add_parser(
        "gr-coeffs", help="emit the shifted-zeta coefficient family"
    )
    p_gr.add_argument("--depth", type=_positive_int, required=True)
    p_gr.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_gr.add_argument("--out", default=None, metavar="PATH")
    p_gr.set_defaults(func=_cmd_gr_coeffs)

    p_convert = sub.add_parser(
        "convert", help="depth-1 conversion table between the two families"
    )
    p_convert.add_argument("--max-weight", type=_non_negative_int, default=10)
    p_convert.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_convert.add_argument("--out", default=None, metavar="PATH")
    p_convert.set_defaults(func=_cmd_convert)

    p_shuffle = sub.add_parser(
        "shuffle", help="word product and character multiplicativity residual"
    )
    p_shuffle.add_argument("u", help="word over {d, y}; use 1 for the empty word")
    p_shuffle.add_argument("v")
    p_shuffle.add_argument("--truncation", type=_non_negative_int, default=8)
    p_shuffle.set_defaults(func=_cmd_shuffle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an --out that cannot be written is refused before any arithmetic
    out = getattr(args, "out", None)
    if out is not None:
        # not normalized: '' and a path ending in a separator name directories
        target = os.path.join(os.getcwd(), out)
        if os.path.isdir(target):
            return _usage_error(f"--out {target} is a directory")
        if not os.path.isdir(os.path.dirname(target)):
            return _usage_error(f"--out {target}: no directory {os.path.dirname(target)}")
    return args.func(args)


def entry() -> None:  # console-script wrapper
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``| head``): devnull takes the exit flush (Python docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)
