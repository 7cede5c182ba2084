import json
import os
import stat
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv import cli, genfun, shiftcoeffs, verify, words
from dmzv.cli import main


def test_values_fkmt_depth1_json(capsys):
    assert main(["values", "--family", "fkmt", "--depth", "1", "--max-weight", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "FKMT"
    assert data["values"] == [
        {"args": [0], "value": "-1/2"},
        {"args": [1], "value": "-1/6"},
        {"args": [2], "value": "0"},
    ]


def test_values_ems_depth1(capsys):
    assert main(["values", "--family", "ems", "--depth", "1", "--max-weight", "1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == [
        {"args": [0], "value": "-1/2"},
        {"args": [1], "value": "-1/12"},
    ]


def test_values_depth2_weight0(capsys):
    assert main(["values", "--family", "fkmt", "--depth", "2", "--max-weight", "0",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["k1,k2,value", "0,0,1/4"]


def test_values_json_round_trips_byte_identical(tmp_path):
    out_path = tmp_path / "table.json"
    assert main(["values", "--family", "fkmt", "--depth", "2", "--max-weight", "2",
                 "--format", "json", "--out", str(out_path)]) == 0
    blob = out_path.read_text()
    parsed = json.loads(blob)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == blob


def test_values_rejects_bad_flags(capsys):
    with pytest.raises(SystemExit) as err:
        main(["values", "--family", "fkmt", "--depth", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["values", "--family", "nope"])
    assert err.value.code == 2


@pytest.mark.parametrize("depth, weight", [(6, 6), (1, 600), (600, 0)])
def test_values_refuses_oversized_tables(capsys, monkeypatch, depth, weight):
    def no_arithmetic(*args):
        raise AssertionError("an oversized table must be refused before it is built")

    monkeypatch.setattr(genfun, "value_table", no_arithmetic)
    assert main(["values", "--family", "fkmt", "--depth", str(depth),
                 "--max-weight", str(weight)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err


def test_convert_refuses_oversized_tables(capsys, monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("an oversized table must be refused before it is built")

    monkeypatch.setattr(genfun, "conversion_table", no_arithmetic)
    assert main(["convert", "--max-weight", str(cli.MAX_CONVERT_WEIGHT + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err

    monkeypatch.setattr(genfun, "conversion_table", lambda max_weight: [])
    assert main(["convert", "--max-weight", str(cli.MAX_CONVERT_WEIGHT)]) == 0


def test_gr_coeffs_depth1(capsys):
    assert main(["gr-coeffs", "--depth", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "depth": 1,
        "terms": [
            {"coef": 1, "l": [0], "m": [0]},
            {"coef": -1, "l": [1], "m": [0]},
        ],
    }


def test_gr_coeffs_schema_round_trip(tmp_path):
    # JSON and CSV are streamed from the expansion: equal to the record's
    # own encodings, and the cached record is never built
    import csv
    import io

    from dmzv.shiftcoeffs import ShiftedZetaExpression, shifted_zeta_expression

    for depth in range(1, 7):
        shifted_zeta_expression.cache_clear()
        for fmt in ("json", "csv"):
            assert main(["gr-coeffs", "--depth", str(depth), "--format", fmt,
                         "--out", str(tmp_path / f"coeffs.{fmt}")]) == 0
        assert shifted_zeta_expression.cache_info().misses == 0

        record = shifted_zeta_expression(depth)
        blob = (tmp_path / "coeffs.json").read_text()
        assert blob == json.dumps(record.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert ShiftedZetaExpression.from_json_dict(json.loads(blob)) == record

        rows = io.StringIO()
        writer = csv.writer(rows, lineterminator="\n")
        writer.writerow([f"l{i}" for i in range(1, depth + 1)]
                        + [f"m{i}" for i in range(1, depth + 1)] + ["coef"])
        writer.writerows([*map(str, l), *map(str, m), str(coef)]
                         for coef, l, m in record.terms)
        assert (tmp_path / "coeffs.csv").read_text() == rows.getvalue()


def csv_module_text(rows):
    """The rows as the stdlib's csv writer writes them, one line each."""
    import csv
    import io

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("family", ["fkmt", "ems"])
@pytest.mark.parametrize("depth, max_weight", [(1, 30), (2, 10), (3, 5), (4, 4)])
def test_values_csv_is_what_the_csv_module_writes(capsys, family, depth, max_weight):
    # every cell is an integer, a p/q rational or a header, so joining the
    # cells with commas quotes nothing the csv module would quote
    assert main(["values", "--family", family, "--depth", str(depth),
                 "--max-weight", str(max_weight), "--format", "csv"]) == 0
    table = genfun.value_table(family, depth, max_weight)
    assert capsys.readouterr().out == csv_module_text(table.to_csv_rows())


def test_convert_csv_is_what_the_csv_module_writes(capsys):
    from dmzv.rationals import format_rational

    assert main(["convert", "--max-weight", "200", "--format", "csv"]) == 0
    rows = [["k", "fkmt", "ems", "ems_from_fkmt_residual", "fkmt_from_ems_residual"]]
    rows += [[str(k), *map(format_rational, row)]
             for k, row in enumerate(genfun.conversion_table(200))]
    assert capsys.readouterr().out == csv_module_text(rows)


DEPTH2_TEXT = """\
depth 2: 7 nonzero coefficients
  l=[0, 0]  m=[0, 0]  coef=1
  l=[0, 1]  m=[0, 0]  coef=-1
  l=[0, 2]  m=[-2, 2]  coef=-1
  l=[0, 2]  m=[-1, 1]  coef=1
  l=[1, 0]  m=[0, 0]  coef=-1
  l=[1, 1]  m=[-1, 1]  coef=-1
  l=[1, 1]  m=[0, 0]  coef=1
value(s1, s2) = zeta(s1, s2) - poch(s2,1)*zeta(s1, s2) - poch(s2,2)*zeta(s1-2, s2+2) \
+ poch(s2,2)*zeta(s1-1, s2+1) - poch(s1,1)*zeta(s1, s2) - poch(s1,1)*poch(s2,1)*zeta(s1-1, s2+1) \
+ poch(s1,1)*poch(s2,1)*zeta(s1, s2)
"""


def test_gr_coeffs_text_is_streamed(tmp_path, capsys):
    # the term lines and the one-line rendering are written from the term
    # stream; the cached record is never built
    from dmzv.shiftcoeffs import rendered_text, shifted_zeta_expression

    shifted_zeta_expression.cache_clear()
    assert main(["gr-coeffs", "--depth", "2"]) == 0
    assert capsys.readouterr().out == DEPTH2_TEXT
    for depth in range(1, 6):
        assert main(["gr-coeffs", "--depth", str(depth), "--out", str(tmp_path / "text")]) == 0
        assert shifted_zeta_expression.cache_info().misses == 0
        record = shifted_zeta_expression(depth)
        lines = [f"  l={list(l)}  m={list(m)}  coef={coef}\n" for coef, l, m in record.terms]
        head = f"depth {depth}: {len(record.terms)} nonzero coefficients\n"
        expected = head + "".join(lines) + "".join(rendered_text(depth, record)) + "\n"
        assert (tmp_path / "text").read_text() == expected
        shifted_zeta_expression.cache_clear()


@pytest.mark.parametrize("extra, coef, message", [
    ({"u1": 9}, Fraction(1, 2), "non-integer coefficient 1/2"),
    ({"u1": 9, "u2": -1}, 1, "negative Pochhammer degree"),
    ({"u1": 9, "v1": 1}, 1, "do not sum to zero"),
])
def test_gr_coeffs_stream_keeps_the_record_checks(tmp_path, capsys, monkeypatch,
                                                  extra, coef, message):
    # the faulty term sorts last, so a writer that checked terms as it
    # wrote them would leave a partial output behind
    from dmzv.multipoly import LaurentPolynomial

    expand = shiftcoeffs.coefficient_polynomial

    def faulty(depth):
        variables = shiftcoeffs.poly_variables(depth)
        return expand(depth) + LaurentPolynomial.monomial(variables, extra, coef)

    monkeypatch.setattr(shiftcoeffs, "coefficient_polynomial", faulty)
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError, match=message):
            main(["gr-coeffs", "--depth", "2", "--format", fmt])
        assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match=message):
            main(["gr-coeffs", "--depth", "2", "--format", fmt,
                  "--out", str(tmp_path / "coeffs")])
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_gr_coeffs_refuses_oversized_depth(capsys, monkeypatch, fmt):
    def no_arithmetic(*args):
        raise AssertionError("an oversized depth must be refused before any arithmetic")

    monkeypatch.setattr(shiftcoeffs, "shifted_zeta_expression", no_arithmetic)
    monkeypatch.setattr(shiftcoeffs, "shifted_zeta_terms", no_arithmetic)
    argv = ["gr-coeffs", "--format", fmt, "--depth"]
    assert main([*argv, str(cli.MAX_GR_DEPTH + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err

    with pytest.raises(AssertionError, match="refused"):
        main([*argv, str(cli.MAX_GR_DEPTH)])


def launched_gr_coeffs_depth7(fmt):
    """The launcher's report on a fresh ``gr-coeffs --depth 7`` process,
    started through the benchmark's launcher, which reports the child's
    own peak RSS; nothing under bench/ is written."""
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd) as report_pipe:
        try:
            subprocess.run(
                [sys.executable, "-S", str(root / "bench" / "launch.py"), str(write_fd),
                 "120", sys.executable, "-m", "dmzv", "gr-coeffs", "--depth", "7",
                 "--format", fmt],
                env=env, stdout=subprocess.DEVNULL, pass_fds=(write_fd,), timeout=150,
                check=True,
            )
        finally:
            os.close(write_fd)
        return json.loads(report_pipe.read())


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_gr_coeffs_depth7_json_peak_rss():
    report = launched_gr_coeffs_depth7("json")
    assert report["exit"] == 0
    assert report["rss_mb"] < 50, report


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_gr_coeffs_depth7_text_peak_rss():
    # streamed like json: no record and no joined one-line rendering
    report = launched_gr_coeffs_depth7("text")
    assert report["exit"] == 0
    assert report["rss_mb"] < 50, report


# Golden digests of ``gr-coeffs --depth 7``, past the depth-6 runs that
# bench/references.json records.
GR_DEPTH7_SHA256 = {
    "json": "9aef87b93cfda280e4ca3ac16a7ca7884191f21c3ef6ad6b78623f3ced0a7fb3",
    "csv": "a07c57fa7872c02ff60d0fa484ca0653715b1ce6cec2137d30abbe78f32cc839",
    "text": "095d2a96a0b5fdd38e5a360279b6c5d1b61c3a7f94ef315f637b978f2c39e4af",
}


@pytest.mark.parametrize("fmt", sorted(GR_DEPTH7_SHA256))
def test_gr_coeffs_depth7_matches_its_digest(tmp_path, fmt):
    import hashlib

    out = tmp_path / "coeffs"
    assert main(["gr-coeffs", "--depth", "7", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GR_DEPTH7_SHA256[fmt]


# The checks of ``verify --depth 6 --suite shift-coeffs``, past the default
# depth 4 that the references record.
SHIFT_COEFFS_DEPTH6_CHECKS = [
    ("zero-sum shifts and integer coefficients at depth 1 (2 entries)", "pass"),
    ("trailing-shift vanishing at depth 1 (2 entries)", "pass"),
    ("zero-sum shifts and integer coefficients at depth 2 (7 entries)", "pass"),
    ("trailing-shift vanishing at depth 2 (7 entries)", "pass"),
    ("zero-sum shifts and integer coefficients at depth 3 (38 entries)", "pass"),
    ("trailing-shift vanishing at depth 3 (38 entries)", "pass"),
    ("zero-sum shifts and integer coefficients at depth 4 (236 entries)", "pass"),
    ("trailing-shift vanishing at depth 4 (236 entries)", "pass"),
    ("zero-sum shifts and integer coefficients at depth 5 (1573 entries)", "pass"),
    ("trailing-shift vanishing at depth 5 (1573 entries)", "pass"),
    ("zero-sum shifts and integer coefficients at depth 6 (10992 entries)", "pass"),
    ("trailing-shift vanishing at depth 6 (10992 entries)", "pass"),
    ("contraction identity at depth 2 (12 index pairs scanned)", "pass"),
    ("shift regrouping at depth 2 (3 shift vectors)", "pass"),
    ("degree regrouping at depth 2 (5 degree vectors)", "pass"),
    ("contraction identity at depth 3 (300 index pairs scanned)", "pass"),
    ("shift regrouping at depth 3 (11 shift vectors)", "pass"),
    ("degree regrouping at depth 3 (14 degree vectors)", "pass"),
    ("merge substitution identity at depth 2 (cleared by u2^0)", "pass"),
    ("merge substitution identity at depth 3 (cleared by u3^0)", "pass"),
    ("merge substitution identity at depth 4 (cleared by u4^0)", "pass"),
    ("merge substitution identity at depth 5 (cleared by u5^0)", "pass"),
    ("merge substitution identity at depth 6 (cleared by u6^0)", "pass"),
]


def test_verify_shift_coeffs_depth6_check_list(capsys):
    assert main(["verify", "--depth", "6", "--suite", "shift-coeffs", "--format", "json"]) == 0
    [report] = json.loads(capsys.readouterr().out)["reports"]
    assert [(c["description"], c["status"]) for c in report["checks"]] == (
        SHIFT_COEFFS_DEPTH6_CHECKS)


def test_gr_coeffs_depth0_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["gr-coeffs", "--depth", "0"])
    assert err.value.code == 2


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "bernoulli"]) == 0
    out = capsys.readouterr().out
    assert "all suites pass" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "not-a-suite"]) == 2
    assert "unknown suite names: ['not-a-suite']" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--corrupt-bernoulli=-1=1/2"],
    ["--corrupt-bernoulli", "100000000=1/2"],
    ["--corrupt-bernoulli", f"{cli.MAX_CORRUPT_INDEX + 1}=1/2"],
    ["--depth", str(cli.MAX_VERIFY_DEPTH + 1)],
    ["--max-weight", str(cli.MAX_VERIFY_WEIGHT + 1)],
    ["--truncation", str(cli.MAX_VERIFY_TRUNCATION + 1)],
])
def test_verify_refuses_out_of_range_input(capsys, monkeypatch, argv):
    def unreachable(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(verify, "run_all", unreachable)
    with pytest.raises(SystemExit) as err:
        sys.exit(main(["verify", "--suite", "bernoulli", *argv]))
    assert err.value.code == 2
    assert "error" in capsys.readouterr().err


def test_verify_fault_injection(capsys):
    code = main(["verify", "--suite", "bernoulli", "--corrupt-bernoulli", "4=1/5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_verify_fault_injection_report_unchanged_when_read(capsys):
    code = main(["verify", "--suite", "bernoulli", "--corrupt-bernoulli", "4=1/5",
                 "--format", "json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in data["reports"]] == ["bernoulli"]


@pytest.mark.parametrize("argv, unread", [
    (["--suite", "routes", "--corrupt-bernoulli", "20=1"], [20]),
    (["--corrupt-bernoulli", "42=1"], [42]),
    (["--suite", "words", "--corrupt-bernoulli", "3=1"], [3]),
])
def test_verify_unread_fault_fails(capsys, argv, unread):
    assert main(["verify", *argv]) == 1
    out = capsys.readouterr().out
    assert "injected fault not exercised" in out
    assert f'"unread": {unread}' in out
    assert "FAILURES detected" in out


def test_verify_suite_that_raises_fails_the_run(capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(verify, "verify_depth1", broken)
    argv = ["verify", "--suite", "bernoulli", "--suite", "depth1", "--suite", "conversion"]
    assert main([*argv, "--max-weight", "2", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [(r["suite"], r["passed"]) for r in reports] == [
        ("bernoulli", True), ("depth1", False), ("conversion", True)
    ]
    assert reports[1]["checks"] == [{
        "description": "suite raised ZeroDivisionError: injected",
        "status": "fail",
        "witness": {"exception": "ZeroDivisionError", "message": "injected"},
    }]


def test_verify_json_output(capsys):
    assert main(["verify", "--suite", "depth1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["reports"][0]["suite"] == "depth1"


def _raise_in_depth1(monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(verify, "verify_depth1", broken)


@pytest.mark.parametrize("argv, code, fault", [
    (["--format", "json"], 0, None),
    (["--corrupt-bernoulli", "4=1/5", "--format", "json"], 1, None),
    (["--format", "text", "--out", "PATH"], 0, None),
    (["--suite", "words", "--format", "json", "--out", "PATH"], 0, None),
    # the fault-injection report of a fault no suite read
    (["--suite", "routes", "--corrupt-bernoulli", "20=1/5", "--format", "json"], 1, None),
    (["--suite", "bernoulli", "--suite", "depth1", "--format", "json"], 1, _raise_in_depth1),
])
def test_verify_json_is_streamed_as_json_dumps_writes_it(capsys, monkeypatch, tmp_path,
                                                        argv, code, fault):
    # the report is written one check at a time; the text is that of the
    # whole payload encoded at once
    if fault is not None:
        fault(monkeypatch)
    runs = []
    run_all = verify.run_all
    monkeypatch.setattr(verify, "run_all", lambda config: runs.append(run_all(config)) or runs[-1])
    out = tmp_path / "report.json"
    assert main(["verify", *[str(out) if a == "PATH" else a for a in argv]]) == code
    [reports] = runs
    payload = {"passed": code == 0, "reports": [r.to_json_dict() for r in reports]}
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    written = capsys.readouterr().out
    if "PATH" in argv:
        assert out.read_text() == expected
        assert written.splitlines()[-1] == "result: all suites pass"
    else:
        assert written == expected


def test_report_chunks_match_json_dumps_at_the_edges():
    from dmzv.report import Check, IdentityReport

    reports = [
        IdentityReport("empty"),
        IdentityReport("d\u00e9pth", {"n": [1, 2], "pairs": ((1, 2),)},
                       [Check.of('quoted "\u00e9" \\ \n'), Check.of("bad", {"k": [1], "x": None}),
                        Check.of("ok")], 0.25),
    ]
    for passed, listed in ((True, []), (False, reports)):
        payload = {"passed": passed, "reports": [r.to_json_dict() for r in listed]}
        assert "".join(cli._report_chunks(passed, listed)) == json.dumps(
            payload, sort_keys=True, indent=2)


# sha256 of the reduced JSON reports of verify runs past the caps that
# bench/references.json records, reduced as bench/ops.py digests them:
# each report keeps its suite, parameters, checks and verdict
VERIFY_SHA256 = {
    "--max-weight 6": "12ef41fe6af222113707a6b2dd59cfb5ede6fb9ac2a34d566024a7b8c29c07ae",
    "--depth 6 --max-weight 4": "255363e98d45991b519c7a9b068f9fa47921e9a7b0a42d31721ed0c8f298afba",
}


@pytest.mark.parametrize("caps", sorted(VERIFY_SHA256))
def test_verify_report_matches_its_digest(capsys, caps):
    import hashlib

    assert main(["verify", *caps.split(), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    reduced = {
        "passed": payload["passed"],
        "reports": [{k: r[k] for k in ("suite", "parameters", "checks", "passed")}
                    for r in payload["reports"]],
    }
    digest = hashlib.sha256(json.dumps(reduced, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_SHA256[caps]


def test_convert_residuals_zero(capsys):
    assert main(["convert", "--max-weight", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for row in data["rows"]:
        assert row["ems_from_fkmt_residual"] == "0"
        assert row["fkmt_from_ems_residual"] == "0"
    assert data["rows"][1]["fkmt"] == "-1/6"
    assert data["rows"][1]["ems"] == "-1/12"


def test_shuffle_command(capsys):
    assert main(["shuffle", "dy", "dy"]) == 0
    out = capsys.readouterr().out
    assert "dydy - yddy" in out
    assert "residual = 0" in out


def test_shuffle_bad_alphabet(capsys):
    assert main(["shuffle", "a", "y"]) == 2


def test_shuffle_empty_word(capsys):
    assert main(["shuffle", "1", "y"]) == 0
    out = capsys.readouterr().out
    assert "1 * y = y" in out


@pytest.mark.parametrize(
    "argv",
    [["y" * 17, "y"], ["dy", "d" * 16 + "y"], ["dy", "dy", "--truncation", "65"]],
)
def test_shuffle_refuses_oversized_input(capsys, monkeypatch, argv):
    def no_arithmetic(*args):
        raise AssertionError("an oversized shuffle must be refused before any arithmetic")

    monkeypatch.setattr(words, "word_product", no_arithmetic)
    assert main(["shuffle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err

    # at the limits, and the benchmark's length-7 words at truncation 24
    for accepted in (["y" * 16, "d" * 15 + "y", "--truncation", "64"],
                     ["dydydyy", "yyydddy", "--truncation", "24"], ["dy", "dy"]):
        with pytest.raises(AssertionError, match="refused"):
            main(["shuffle", *accepted])


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out_path = tmp_path / "out.json"
    assert main(["values", "--family", "ems", "--depth", "1", "--max-weight", "3",
                 "--format", "json", "--out", str(out_path)]) == 0
    assert out_path.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []


def test_out_file_gets_the_umask_mode(tmp_path):
    out_path = tmp_path / "out.txt"
    previous = os.umask(0o022)
    try:
        assert main(["convert", "--max-weight", "3", "--out", str(out_path)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o644


# JSON trees as the CLI's payloads hold them: string keys, lists and
# tuples, ints (bools mixed in, which an int fast path must not print as
# 1 or 0), None, floats of every kind and non-ASCII strings
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=st.characters(max_codepoint=0x1F600), max_size=6)
)
json_trees = st.recursive(
    json_scalars | st.lists(st.integers() | st.booleans(), max_size=5),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_json_chunks_match_the_stdlib_encoder(value):
    assert "".join(cli._json_chunks(value)) == json.dumps(value, sort_keys=True, indent=2)


def test_write_json_streams_the_same_text(capsys, tmp_path):
    # more chunks than one batch holds
    payload = {"b": [1, True, None], "a": {"x": [[], {}], "é": 1.5},
               "c": [{"k": [k, -k], "v": str(k)} for k in range(300)]}
    cli._write_json(payload, None)
    cli._write_json(payload, str(tmp_path / "out.json"))
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert (tmp_path / "out.json").read_text() == expected
