import json
import os
import stat
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmzv import cli, expansion, genfun, tables, verify, words
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

    # the builder that ``values`` calls: an accepted table reaches it
    monkeypatch.setattr(tables, "last_level", no_arithmetic)
    with pytest.raises(AssertionError, match="refused"):
        main(["values", "--family", "fkmt", "--depth", "6", "--max-weight", "5"])
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
    from dmzv.rationals import format_rational

    assert main(["values", "--family", family, "--depth", str(depth),
                 "--max-weight", str(max_weight), "--format", "csv"]) == 0
    table = genfun.value_table(family, depth, max_weight)
    rows = [[f"k{i}" for i in range(1, depth + 1)] + ["value"]]
    rows += [[*map(str, k), format_rational(v)] for k, v in sorted(table.items())]
    assert capsys.readouterr().out == csv_module_text(rows)


# Golden digests of ``values`` in every format, recorded before the rows
# were streamed (the depth-4 and depth-6 tables at weights 13 and 5 when
# they were read off the product series); bench/references.json records
# six json sizes only.
VALUES_SHA256 = {
    ("fkmt", 1, 30, "text"): "0ee0ffff034eda2a79ff73c6fe1ef8efc7793000f9b4beafcf536f76142fcb35",
    ("fkmt", 1, 30, "csv"): "d3f0075b5d1a12050a42e2c5221311c81a75a8f7646c7d27591ed2cb533fd8ba",
    ("fkmt", 1, 30, "json"): "7830e80b10a04f8731cbe0c9401a4821360fbf4b66d3780c2aa23e17cb751d2e",
    ("fkmt", 2, 10, "text"): "a75a9ab71c4f09169b58c36d919dcb67a94dccc33b5141757daf6fec260eb7d0",
    ("fkmt", 2, 10, "csv"): "0dbea0ed059339db10a32905015922eafc4b8f21e98cf5efeb89528764784d59",
    ("fkmt", 2, 10, "json"): "427c1c0e6ce69f9af302b4f6962ccedb3b8aaee2112a5ff65204ac7b5fc2fdef",
    ("fkmt", 3, 5, "text"): "a6cb31ed418aa0dcdaf5775710de09fca44f10ba74299915e878e93382cfb8f3",
    ("fkmt", 3, 5, "csv"): "406fd8a9d3a5b731a9d6bb5e67a3183804c0d1c60fb95d389e63faf293b28a9a",
    ("fkmt", 3, 5, "json"): "4af4f074c509907246e89a7f9ced413b950ca1bc6b80ca9cb16a940455464dcb",
    ("fkmt", 4, 4, "text"): "847a76572817d249a7bba5b3d3061abc7df0fa03794990dd54b4ffecc6a22829",
    ("fkmt", 4, 4, "csv"): "c63ac7f0a679202b0f15690d2399d7a9e6f8e938a0aa1bb30a4c734ff1cdedd8",
    ("fkmt", 4, 4, "json"): "ad29f5a498942ed25a55513027ec3189c03b16989cc4095abd92243cb767e430",
    ("ems", 1, 30, "text"): "14a4f090eedd81f99f41cdd006ee704afebf960aeaa5d6ad62058b16107200dc",
    ("ems", 1, 30, "csv"): "185eac647df0efc25b5eef04824c09e57c3691dd11f2a996d49c550cbe7b63ac",
    ("ems", 1, 30, "json"): "908bc1b96f353e54b290ae9e8340e7a11890f53e6b809cf634168577a3739094",
    ("ems", 2, 10, "text"): "5f97df7e112441605e452401d5b5277e3cd92859e1cd66031a9e1187bf9dc6df",
    ("ems", 2, 10, "csv"): "028fee9ed050536f20578d5322ecc58dcd0bdb92b6684163bf73713d7f811b81",
    ("ems", 2, 10, "json"): "3a3c2230de4c04fc0f8b1a80922b822fca747dff44981a36434bf7ced254c129",
    ("ems", 3, 5, "text"): "66f267c03867d7ade28954bfdb0d071be13718b0471ffe63d80236acff12dff4",
    ("ems", 3, 5, "csv"): "58b083b48e76a002768cfca3b624426d522957db304b517ab31afe9670fe1cbe",
    ("ems", 3, 5, "json"): "68dda13cba7d6b5b5b27a0ea2a93c7da294fc68c8c621aa4eff4790153dbf356",
    ("ems", 4, 4, "text"): "611ecbf4dda28f1b33e79ee0b6cafee4947a84cb87d07819f976d90a59020146",
    ("ems", 4, 4, "csv"): "2ff0929c97ed54ea3d3cd2f467d415f8f9419f56a387a119390b36aba482a852",
    ("ems", 4, 4, "json"): "511de4fd18e5a5bc2a2c696ee5060d0898b0834a1ff737317e5e8fa95b1dd6b6",
    ("fkmt", 4, 13, "text"): "a71d29d324820897b21305f6f7c63988d6d777b7f390334ea229d95c53a24d86",
    ("fkmt", 4, 13, "csv"): "c85e416292c9d366d22e1e4e5a49350153159ba9caa46b5e0ecc81b1d9b5d0cb",
    ("fkmt", 4, 13, "json"): "d2803cdf4d85b884da2d4b0070fdc37cb31e9bc39db38ae884f2de2a1cf7a4c9",
    ("fkmt", 6, 5, "text"): "058533c2dbccb0a8598938b75b4fa5fbc412b9c0bde241544cb572de097ed4e5",
    ("fkmt", 6, 5, "csv"): "801fb3020421a2cd9a0f58a8989038a1e73e534833fc6010e5926c01eada1915",
    ("fkmt", 6, 5, "json"): "5e948dda3606752c94b4933ec49710f7a68b2f2484d0ee2bd510022e27085759",
    ("ems", 4, 13, "text"): "8c561d64d2447a77659775eb35d1e9336459a7414a6c9380927fac15d350a818",
    ("ems", 4, 13, "csv"): "02d667e8aec09422b3355a4a47dbf6829a798ec68d29e327052bc6df02aff6f4",
    ("ems", 4, 13, "json"): "29c270206c2e0f07e80618ff1dff1feb3538275af2184a74b260cd73b0f5e6e4",
    ("ems", 6, 5, "text"): "8ed8933287eaac58d6e6babcf796916595441c803d62badce6514dde7c237b6e",
    ("ems", 6, 5, "csv"): "a2d0a8a1add5996c2bbf06f1a56fe57c631a9aa674431993ee55d45bb5c3d31b",
    ("ems", 6, 5, "json"): "88365d0cd1f54960262e9a108ed06ff4dbc5a9beeedb6c0c21ef49f5ddc0c98d",
}


@pytest.mark.parametrize("family, depth, max_weight, fmt", sorted(VALUES_SHA256))
def test_values_match_their_digests(tmp_path, family, depth, max_weight, fmt):
    import hashlib

    out = tmp_path / "table"
    assert main(["values", "--family", family, "--depth", str(depth), "--max-weight",
                 str(max_weight), "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == VALUES_SHA256[family, depth, max_weight, fmt]


def test_values_text_builds_the_table_once(monkeypatch, capsys):
    # the width pass and the line pass read the same last level
    built = []
    last_level = tables.last_level

    def counted(*args):
        built.append(args)
        return last_level(*args)

    monkeypatch.setattr(tables, "last_level", counted)
    assert main(["values", "--family", "ems", "--depth", "3", "--max-weight", "4"]) == 0
    assert built == [("EMS", 3, 4)]
    assert capsys.readouterr().out.count("\n") == 1 + 5**3


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
    from dmzv.expansion import rendered_text
    from dmzv.shiftcoeffs import shifted_zeta_expression

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


def _with_term(depth, exponents, coef):
    """expansion.expand with one more term, whose exponents are given by
    variable name (the rest are 0), at its place in code order: a code
    spells each exponent plus 8 as one hex digit, u1 first and v_r last."""
    expand = expansion.expand
    names = [f"u{i}" for i in range(1, depth + 1)] + [f"v{i}" for i in range(1, depth + 1)]
    code = int("".join(f"{exponents.get(name, 0) + 8:x}" for name in names), 16)

    def faulty(d):
        codes, coefs = expand(d)
        pairs = sorted([*zip(codes, coefs), (code, coef)], key=lambda pair: pair[0])
        return [c for c, _ in pairs], [n for _, n in pairs]

    return faulty


@pytest.mark.parametrize("extra, coef, message", [
    ({"u1": 7}, Fraction(1, 2), "non-integer coefficient 1/2"),
    ({"u1": 7, "u2": -1}, 1, "negative Pochhammer degree"),
    ({"u1": 7, "v1": 1}, 1, "do not sum to zero"),
])
def test_gr_coeffs_stream_keeps_the_record_checks(tmp_path, capsys, monkeypatch,
                                                  extra, coef, message):
    # the faulty term sorts last, so a writer that checked terms as it
    # wrote them would leave a partial output behind
    monkeypatch.setattr(expansion, "expand", _with_term(2, extra, coef))
    for fmt in ("json", "csv", "text"):
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

    monkeypatch.setattr(expansion, "expand", no_arithmetic)
    argv = ["gr-coeffs", "--format", fmt, "--depth"]
    assert main([*argv, str(expansion.MAX_DEPTH + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err

    with pytest.raises(AssertionError, match="refused"):
        main([*argv, str(expansion.MAX_DEPTH)])


def launched(*argv):
    """The launcher's report on a fresh ``dmzv`` process with the arguments
    ``argv``, started through the benchmark's launcher, which reports the
    child's own peak RSS; nothing under bench/ is written."""
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd) as report_pipe:
        try:
            subprocess.run(
                [sys.executable, "-S", str(root / "bench" / "launch.py"), str(write_fd),
                 "120", sys.executable, "-m", "dmzv", *argv],
                env=env, stdout=subprocess.DEVNULL, pass_fds=(write_fd,), timeout=150,
                check=True,
            )
        finally:
            os.close(write_fd)
        return json.loads(report_pipe.read())


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_gr_coeffs_depth7_json_peak_rss():
    report = launched("gr-coeffs", "--depth", "7", "--format", "json")
    assert report["exit"] == 0
    assert report["rss_mb"] < 50, report


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_gr_coeffs_depth7_text_peak_rss():
    # streamed like json: no record and no joined one-line rendering
    report = launched("gr-coeffs", "--depth", "7", "--format", "text")
    assert report["exit"] == 0
    assert report["rss_mb"] < 50, report


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_values_depth2_text_peak_rss():
    # each row is written when it is computed and the text view keeps no
    # value string, so text peaks where json does (about 21 MiB on a
    # 2-vCPU x86-64 host); holding the table and its lines took 33 MiB
    report = launched("values", "--family", "fkmt", "--depth", "2", "--max-weight", "100",
                      "--format", "text")
    assert report["exit"] == 0
    assert report["rss_mb"] < 27, report


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_values_depth6_json_peak_rss():
    # the recurrence holds two levels of integers (about 20 MiB on a
    # 2-vCPU x86-64 host); the product series took 44.8 MiB
    report = launched("values", "--family", "fkmt", "--depth", "6", "--max-weight", "5",
                      "--format", "json")
    assert report["exit"] == 0
    assert report["rss_mb"] < 30, report


# Golden digests of ``gr-coeffs --depth 1..7`` in each format, recorded
# from the LaurentPolynomial expansion that the heap product replaced.
GR_SHA256 = {
    (1, "json"): "98dc5d9848f69bc0c90188082bf46330f45a4b7523fcf3ceb63deaec5957ca49",
    (1, "csv"): "b59e24bd4a9753ce2e927d91bbd265b3b0dee0078104fc0b48afb79735ee36ad",
    (1, "text"): "584ce5978f44fc2f8c32e1a87af7f230d95b5071800b9ead3e13db5b0d28d13a",
    (2, "json"): "b7fe88dada1b08acec3d4377f31e45d2a31b613d2f397548fc857a010d952ea3",
    (2, "csv"): "4c88cdd1b2051334c02ddb7c1b36d4a24edc93c9d6f570ca180d7f409202c3ec",
    (2, "text"): "031ca8948f9577d1efaf2bac27723f9da4b885732ff86a80902e544e0a3149bd",
    (3, "json"): "5830cace842cee9b0ecd5dd7e2bd6491eb4b74c73c1b427a4954089e21aa21ec",
    (3, "csv"): "87c9f1095a1216cb935d06ad082b6ba273b9eb894be253eedd6260ec08cd889c",
    (3, "text"): "e93dfb83b3ae61d638b05fee46ed1a6b043fdab01c5e0b65bcf98006c0bf26a6",
    (4, "json"): "6da22c3ca8f564a37f0634ae4a53474092f5736aeda0ee6e3f439bd7a23bf374",
    (4, "csv"): "4709aaee117318f09fe37b3c5ff8e6ddb053cb31514b682979bb60b2995d335d",
    (4, "text"): "e085ca58bdab604f1ae92c565d569a04743d2315cea56d0e63075c0b548ef9c5",
    (5, "json"): "a33f63898bc43187c3064f95e7eb8d1b19bf57d47d3efb875544c6af388ad43d",
    (5, "csv"): "ed80133171a3f622bb0d5447d9ec4e0cec758430c77149ab9a42ea405e841917",
    (5, "text"): "6242e478eea274df33e7c7678dba5027e3e1dfd99e57e769800ada75728370ed",
    (6, "json"): "225105bfdc275d54fa1f62eb3884115dd804610da5b52197c8e17037a6407af0",
    (6, "csv"): "4f98b9e485442f0644cd5c75817b2c36297ab319a3d43c4ad735bf89c1db1589",
    (6, "text"): "834d736dfe69ee660e4b1cb5c7ea8da92961676802f6e4f9fc5fff23c2a4dd27",
    (7, "json"): "9aef87b93cfda280e4ca3ac16a7ca7884191f21c3ef6ad6b78623f3ced0a7fb3",
    (7, "csv"): "a07c57fa7872c02ff60d0fa484ca0653715b1ce6cec2137d30abbe78f32cc839",
    (7, "text"): "095d2a96a0b5fdd38e5a360279b6c5d1b61c3a7f94ef315f637b978f2c39e4af",
}


@pytest.mark.parametrize("depth, fmt", sorted(GR_SHA256))
def test_gr_coeffs_matches_its_digest(tmp_path, depth, fmt):
    import hashlib

    out = tmp_path / "coeffs"
    assert main(["gr-coeffs", "--depth", str(depth), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GR_SHA256[depth, fmt]


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


@pytest.mark.parametrize("corruption", ["1=-1/2", "3=0", "4=-1/30"])
def test_verify_refuses_a_corruption_that_changes_nothing(capsys, corruption):
    # each value is the true B_M: no fault would be injected, and the run
    # would pass
    assert main(["verify", "--suite", "bernoulli", "--corrupt-bernoulli", corruption]) == 2
    captured = capsys.readouterr()
    assert "injects no fault" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("argv", [
    ["gr-coeffs", "--depth", "5", "--format", "json"],
    ["values", "--family", "fkmt", "--depth", "2", "--max-weight", "60"],
])
def test_a_closed_pipe_exits_1_without_a_traceback(argv):
    # as ``dmzv ... | head -c 10``: the reader leaves after 10 of some
    # 300 kB, more than the pipe holds
    import subprocess
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen([sys.executable, "-m", "dmzv", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 1


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out_path = tmp_path / "out.json"
    assert main(["values", "--family", "ems", "--depth", "1", "--max-weight", "3",
                 "--format", "json", "--out", str(out_path)]) == 0
    assert out_path.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_values_out_stays_atomic_when_a_row_fails(tmp_path, monkeypatch, fmt):
    # the rows are computed while the file is written, more than one batch
    # of them before the failure: the old file stays and no temporary is left
    rows = tables.rows

    def failing(*args):
        for i, row in enumerate(rows(*args)):
            if i == 100:
                raise RuntimeError("row 100 failed")
            yield row

    monkeypatch.setattr(tables, "rows", failing)
    out = tmp_path / "table"
    out.write_text("old\n")
    with pytest.raises(RuntimeError, match="row 100 failed"):
        main(["values", "--family", "fkmt", "--depth", "2", "--max-weight", "10",
              "--format", fmt, "--out", str(out)])
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


# Each command that takes --out, with the layer function its arithmetic
# starts in
OUT_COMMANDS = {
    "values": (["values", "--family", "fkmt", "--depth", "2"], tables, "last_level"),
    "verify": (["verify", "--suite", "bernoulli"], verify, "run_all"),
    "gr-coeffs": (["gr-coeffs", "--depth", "3"], expansion, "expand"),
    "convert": (["convert"], genfun, "conversion_table"),
}


@pytest.mark.parametrize("case", ["missing directory", "a directory", "empty", "trailing slash"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_an_unwritable_out_is_a_usage_error(capsys, monkeypatch, tmp_path, command, case):
    argv, module, name = OUT_COMMANDS[command]

    def unreachable(*args):
        raise AssertionError("the arithmetic started")

    monkeypatch.setattr(module, name, unreachable)
    # an empty path names the working directory, and one ending in a
    # separator a directory, here one that does not exist
    monkeypatch.chdir(tmp_path)
    target = {"missing directory": str(tmp_path / "missing" / "x.json"),
              "a directory": str(tmp_path), "empty": "",
              "trailing slash": str(tmp_path / "new") + os.sep}[case]
    # an exception would propagate here as the traceback of a console run
    assert main([*argv, "--out", target]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {target or tmp_path}")
    assert list(tmp_path.iterdir()) == []
    assert [p for p in tmp_path.parent.iterdir() if p.name.startswith(".dmzv-tmp-")] == []


def test_out_file_gets_the_umask_mode(tmp_path):
    out_path = tmp_path / "out.txt"
    previous = os.umask(0o022)
    try:
        assert main(["convert", "--max-weight", "3", "--out", str(out_path)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o644


# JSON trees as a verify report's witnesses and parameters hold them:
# string keys, lists and tuples, ints and bools, None, floats of every kind
# and strings with control and non-ASCII characters
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
@given(st.dictionaries(st.text(max_size=4), json_trees, max_size=4),
       json_trees.filter(lambda witness: witness is not None), st.text(max_size=6))
def test_report_chunks_match_json_dumps_for_any_payload(parameters, witness, description):
    # a failing check and the parameters are written by json.dumps with the
    # indent of their place inserted after each newline: a newline inside a
    # string must stay escaped
    from dmzv.report import Check, IdentityReport

    reports = [IdentityReport(description, parameters,
                              [Check.of(description), Check.of(description, witness)], 0.5)]
    payload = {"passed": False, "reports": [r.to_json_dict() for r in reports]}
    assert "".join(cli._report_chunks(False, reports)) == json.dumps(
        payload, sort_keys=True, indent=2)


def test_write_json_streams_the_same_text(capsys, tmp_path):
    # more chunks than one batch holds
    payload = {"b": [1, True, None], "a": {"x": [[], {}], "é": 1.5},
               "c": [{"k": [k, -k], "v": str(k)} for k in range(300)]}
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode
    for out_path in (None, str(tmp_path / "out.json")):
        cli._write_joined("", chunks(payload), "", "\n", out_path)
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert (tmp_path / "out.json").read_text() == expected
