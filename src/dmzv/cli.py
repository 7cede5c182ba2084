"""Command-line front end.

Subcommands: ``values``, ``verify``, ``gr-coeffs``, ``convert``,
``shuffle``.  Exit codes: 0 on success, 1 when a verification fails,
2 on usage errors.  Files are written atomically (write to a temporary
sibling, then rename), and JSON is emitted with sorted keys so output
files are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional, Sequence

from .genfun import FAMILIES, depth1_conversion_residuals, ems_value, fkmt_value, value_table
from .rationals import format_rational, parse_rational
from .shiftcoeffs import shift_coefficients, shifted_zeta_expression
from .verify import SUITES, VerifyConfig, reports_pass, run_all
from .words import Word, multiplicativity_defect, word_product

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Bounds on a ``values`` request, checked before any arithmetic.  The
# table is read off one series held in memory over the whole index box,
# so the box's (max_weight + 1) ** depth entries are bounded.  The depth-1
# factor behind it is a series division whose cost grows with the cube
# of its order, depth * max_weight, so depth * (max_weight + 1), which
# also bounds the depth when max_weight is 0, is bounded as well.
MAX_TABLE_ENTRIES = 50_000
MAX_TABLE_SPAN = 500


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
    try:
        index, _, value = text.partition("=")
        return int(index), parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected M=P/Q, e.g. 4=1/5, got {text!r}"
        ) from exc


def _write_output(text: str, out_path: Optional[str]) -> None:
    """Print to stdout, or write atomically to the given path."""
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dmzv-tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _csv_text(rows: list[list[str]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_values(args) -> int:
    span = args.depth * (args.max_weight + 1)
    if span > MAX_TABLE_SPAN or (args.max_weight + 1) ** args.depth > MAX_TABLE_ENTRIES:
        print(
            f"error: a depth-{args.depth} table with max weight {args.max_weight} is too "
            f"large: the limits are (max_weight + 1) ** depth <= {MAX_TABLE_ENTRIES:,} "
            f"entries and depth * (max_weight + 1) <= {MAX_TABLE_SPAN}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    table = value_table(args.family, args.depth, args.max_weight)
    if args.format == "json":
        text = _json_text(table.to_json_dict())
    elif args.format == "csv":
        text = _csv_text(table.to_csv_rows())
    else:
        rows = table.to_csv_rows()
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            for row in rows
        ]
        text = "\n".join(lines)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite:
        unknown = [s for s in args.suite if s not in SUITES]
        if unknown:
            print(
                f"error: unknown suite names {unknown}; valid: {', '.join(SUITES)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    config = VerifyConfig(
        suites=tuple(args.suite) if args.suite else None,
        corrupt_bernoulli=tuple(args.corrupt_bernoulli or ()),
    ).capped(args.depth, args.max_weight, args.truncation)

    reports = run_all(config)
    passed = reports_pass(reports)
    payload = {"passed": passed, "reports": [r.to_json_dict() for r in reports]}

    if args.out is not None:
        _write_output(_json_text(payload), args.out)
    if args.format == "json" and args.out is None:
        _write_output(_json_text(payload), None)
    else:
        for report in reports:
            print(report.summary_line())
            for failure in report.failures()[:5]:
                print(f"     witness: {json.dumps(failure.witness, sort_keys=True)}")
        print("result: " + ("all suites pass" if passed else "FAILURES detected"))
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_gr_coeffs(args) -> int:
    coeffs = shift_coefficients(args.depth)
    expression = shifted_zeta_expression(args.depth)
    if args.format == "json":
        text = _json_text(expression.to_json_dict())
    elif args.format == "csv":
        rows = [
            [f"l{i}" for i in range(1, args.depth + 1)]
            + [f"m{i}" for i in range(1, args.depth + 1)]
            + ["coef"]
        ]
        for coef, l, m in expression.terms:
            rows.append([str(x) for x in l] + [str(x) for x in m] + [str(coef)])
        text = _csv_text(rows)
    else:
        lines = [f"depth {args.depth}: {len(coeffs.entries)} nonzero coefficients"]
        for coef, l, m in expression.terms:
            lines.append(f"  l={list(l)}  m={list(m)}  coef={coef}")
        lines.append(expression.render_text())
        text = "\n".join(lines)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    rows = []
    for k in range(args.max_weight + 1):
        first, second = depth1_conversion_residuals(k)
        rows.append(
            {
                "k": k,
                "fkmt": format_rational(fkmt_value((k,))),
                "ems": format_rational(ems_value((k,))),
                "ems_from_fkmt_residual": format_rational(first),
                "fkmt_from_ems_residual": format_rational(second),
            }
        )
    if args.format == "json":
        text = _json_text({"max_weight": args.max_weight, "rows": rows})
    elif args.format == "csv":
        header = ["k", "fkmt", "ems", "ems_from_fkmt_residual", "fkmt_from_ems_residual"]
        table = [header] + [[str(row[h]) for h in header] for row in rows]
        text = _csv_text(table)
    else:
        lines = ["k  fkmt  ems  residuals"]
        for row in rows:
            lines.append(
                f"{row['k']}  {row['fkmt']}  {row['ems']}  "
                f"({row['ems_from_fkmt_residual']}, {row['fkmt_from_ems_residual']})"
            )
        text = "\n".join(lines)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_shuffle(args) -> int:
    try:
        u = Word.parse(args.u)
        v = Word.parse(args.v)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    product = word_product(u, v)
    print(f"{u} * {v} = {product}")
    defect = multiplicativity_defect(u, v, args.truncation)
    if defect.is_zero():
        print(f"residual = 0 through order {args.truncation}")
        return EXIT_OK
    degree = defect.valuation()
    print(
        f"residual != 0: first nonzero coefficient at degree {degree}: "
        f"{format_rational(defect.coefficient(degree))}"
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
        "--family", choices=[name.lower() for name in FAMILIES], required=True
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
    return args.func(args)


def entry() -> None:  # console-script wrapper
    sys.exit(main())
