import json

import pytest

from dmzv import cli
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

    monkeypatch.setattr(cli, "value_table", no_arithmetic)
    assert main(["values", "--family", "fkmt", "--depth", str(depth),
                 "--max-weight", str(weight)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err


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


def test_gr_coeffs_schema_round_trip(tmp_path, capsys):
    out_path = tmp_path / "coeffs.json"
    assert main(["gr-coeffs", "--depth", "2", "--format", "json",
                 "--out", str(out_path)]) == 0
    blob = out_path.read_text()
    data = json.loads(blob)
    from dmzv.shiftcoeffs import ShiftedZetaExpression, shifted_zeta_expression

    assert ShiftedZetaExpression.from_json_dict(data) == shifted_zeta_expression(2)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == blob


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


def test_verify_json_output(capsys):
    assert main(["verify", "--suite", "depth1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["reports"][0]["suite"] == "depth1"


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


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out_path = tmp_path / "out.json"
    assert main(["values", "--family", "ems", "--depth", "1", "--max-weight", "3",
                 "--format", "json", "--out", str(out_path)]) == 0
    assert out_path.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []
