import json
import os

import pytest

from halfsquares.cli import main
from halfsquares.exactpoly import SparsePolynomial
from halfsquares.fixtures import build_fixture
from halfsquares.generate import MOTZKIN


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_oddweights_subcommand(capsys):
    code, out = run(capsys, "oddweights", "--ell", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == [1, -2, 3]
    assert payload["weights"] == ["1/24", "1/30", "1/120"]


def test_oddweights_invalid_ell(capsys):
    assert main(["oddweights", "--ell", "4"]) == 2


def test_coeffs_partitions(capsys):
    code, out = run(capsys, "coeffs", "--beta", "1,2", "--mode", "partitions")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["partitions"]) == 4


def test_coeffs_sqrt_fractions(capsys):
    code, out = run(capsys, "coeffs", "--beta", "2", "--mode", "sqrt")
    payload = json.loads(out)
    coeffs = {t["coefficient"] for t in payload["terms"]}
    assert coeffs == {"1/2", "-1/4"}


def test_verify_motzkin_file(tmp_path, capsys):
    path = tmp_path / "motzkin.json"
    path.write_text(MOTZKIN.dumps())
    code, out = run(capsys, "verify", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["not_sos"]["monomial"] == [2, 2]


def test_verify_square_fails(tmp_path, capsys):
    square = SparsePolynomial(1, {(2,): 1, (1,): -2, (0,): 1})
    path = tmp_path / "square.json"
    path.write_text(square.dumps())
    code, out = run(capsys, "verify", "--in", str(path))
    assert code == 1


def test_verify_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nvars": 2, "terms": [{"exp": [0, 0], "num": "1", "den": "0"}]}')
    assert main(["verify", "--in", str(path)]) == 2


def test_gen_nonsos_writes_idempotent_outputs(tmp_path, capsys):
    out_prefix = str(tmp_path / "hit")
    args = [
        "gen-nonsos", "--nvars", "2", "--degree", "6",
        "--budget", "3000", "--seed", "7", "--out", out_prefix,
    ]
    assert main(args) == 0
    first = (tmp_path / "hit.poly.json").read_text()
    assert main(args) == 0
    assert (tmp_path / "hit.poly.json").read_text() == first
    poly = SparsePolynomial.loads(first)
    assert poly.degree() == 6


def test_gen_nonsos_degree_four_exhausts(tmp_path):
    code = main(
        ["gen-nonsos", "--nvars", "2", "--degree", "4", "--out", str(tmp_path / "x")]
    )
    assert code == 1


def test_gen_nonsos_invalid_parameters(tmp_path):
    assert main(["gen-nonsos", "--nvars", "1", "--degree", "6", "--out", str(tmp_path / "x")]) == 2
    assert main(["gen-nonsos", "--nvars", "2", "--degree", "7", "--out", str(tmp_path / "x")]) == 2


def test_gen_nonsos_negative_budget_is_input_error(tmp_path, capsys):
    args = ["gen-nonsos", "--nvars", "2", "--degree", "6", "--budget", "-1"]
    assert main(args + ["--out", str(tmp_path / "x")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_table_row_filter(tmp_path, capsys):
    report_path = tmp_path / "table.json"
    code, out = run(capsys, "table", "--rows", "2x6", "--json", str(report_path))
    assert code == 0
    assert "n=2 d=6" in out
    payload = json.loads(report_path.read_text())
    assert len(payload["rows"]) == 1 and payload["rows"][0]["ok"]


def test_check_malgrange_fixture(capsys):
    code, out = run(capsys, "check", "--kind", "malgrange", "--fixture", "bony", "--alpha", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_seminorm_from_file(tmp_path, capsys):
    f = build_fixture("power_alpha", alpha=0.5, points=2001)
    path = tmp_path / "f.json"
    path.write_text(f.dumps())
    code, out = run(capsys, "check", "--kind", "seminorm", "--in", str(path), "--alpha", "0.5")
    assert code == 0
    assert abs(json.loads(out)["estimate"] - 1.0) < 0.05


def test_decompose_and_partial_subcommands(tmp_path, capsys):
    f = build_fixture("parabola", points=1001)
    source = tmp_path / "f.json"
    source.write_text(f.dumps())
    out_path = tmp_path / "decomp.json"
    code, out = run(
        capsys, "decompose", "--in", str(source), "--k", "2", "--alpha", "1.0",
        "--out", str(out_path),
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["report"]["ok"] is True
    assert len(blob["squares"]) == blob["report"]["square_count"]

    code, out = run(
        capsys, "partial", "--in", str(source), "--k", "2", "--alpha", "1.0",
        "--eps", "1e-3",
    )
    assert code == 0
    assert json.loads(out)["residual_max"] <= 1e-3


def test_decompose_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["decompose", "--in", str(path), "--k", "2", "--alpha", "1.0", "--out", str(tmp_path / "o.json")]) == 2


def _exits_2_with_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["decompose", "--k", "2", "--alpha", "1.0", "--out", os.devnull],
    ["partial", "--k", "2", "--alpha", "1.0", "--eps", "1e-3"],
    ["check", "--kind", "seminorm"],
])
@pytest.mark.parametrize("changes", [
    {"values": [1.0, float("nan")] + [1.0] * 99},
    {"values": [float("inf")] * 101},
    {"spacing": 0.0},
    {"spacing": -0.01},
], ids=["nan-sample", "inf-sample", "zero-spacing", "negative-spacing"])
def test_bad_sampled_file_is_input_error(tmp_path, capsys, command, changes):
    data = build_fixture("parabola", points=101).to_json_dict()
    data.update(changes)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    _exits_2_with_input_error(capsys, command[:1] + ["--in", str(path)] + command[1:])


@pytest.mark.parametrize("text", [
    '{"nvars": 2, "terms": [{"exp": [true, 2], "num": "1", "den": "1"}]}',
    '{"nvars": true, "terms": [{"exp": [2], "num": "1", "den": "1"}]}',
], ids=["exponent", "nvars"])
def test_bool_in_polynomial_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    _exits_2_with_input_error(capsys, ["verify", "--in", str(path)])


@pytest.mark.parametrize("text", [
    '{"nvars": 1, "terms": 5}',
    '{"nvars": 1, "terms": [5]}',
    '{"nvars": 1, "terms": [["exp", "num", "den"]]}',
], ids=["terms-not-list", "term-not-object", "term-is-list"])
def test_malformed_terms_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    _exits_2_with_input_error(capsys, ["verify", "--in", str(path)])


@pytest.mark.parametrize("num, den", [
    (1.5, "1"), (True, "1"), (1, "1"), ("1", 1), ("1.5", "1"), ("+1", "1"), (" 1", "1"), ("1_0", "1"),
], ids=["float", "bool", "int", "int-den", "decimal-point", "plus-sign", "space", "underscore"])
def test_non_decimal_string_coefficient_is_input_error(tmp_path, capsys, num, den):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"nvars": 1, "terms": [{"exp": [2], "num": num, "den": den}]}))
    _exits_2_with_input_error(capsys, ["verify", "--in", str(path)])


@pytest.mark.parametrize("inequality", [
    {"target": 5, "shares": [], "origin": {"num": "1", "den": "1"}},
    {"target": [2, 2], "shares": [{"v": [True, 0], "num": "1", "den": "1"}], "origin": {"num": "0", "den": "1"}},
    {"target": [2, 2], "shares": [{"v": [4, 0, 2], "num": "1", "den": "1"}], "origin": {"num": "0", "den": "1"}},
    {"target": [2, 2], "shares": [], "origin": {"num": "1", "den": "0"}},
    {"target": [2, 2], "shares": [], "origin": 1},
    {"target": [2, 2], "shares": [], "origin": {"num": 1.5, "den": "1"}},
    {"target": [2, 2], "shares": [{"v": [4, 2], "num": True, "den": "1"}], "origin": {"num": "0", "den": "1"}},
    {"target": [2, 2], "shares": [], "origin": {"num": "1", "den": 1}},
    {"target": [2, 2], "shares": [], "origin": {"num": "1", "den": "-1"}},
], ids=["int-target", "bool-share", "share-length", "zero-den", "origin-not-object", "float-num", "bool-num",
        "int-den", "signed-den"])
def test_malformed_certificate_is_input_error(tmp_path, capsys, inequality):
    poly = tmp_path / "motzkin.json"
    poly.write_text(MOTZKIN.dumps())
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"inequalities": [inequality]}))
    _exits_2_with_input_error(capsys, ["verify", "--in", str(poly), "--cert", str(cert)])


def test_derivative_control_refines_a_parametrized_fixture(capsys):
    code, out = run(capsys, "check", "--kind", "derivative-control", "--fixture", "power_alpha", "--alpha", "0.5")
    assert code in (0, 1)
    payload = json.loads(out)
    assert payload["parameters"]["alpha"] == 0.5 and "refined_constant" in payload


def _sampled_file(tmp_path, **changes):
    data = build_fixture("parabola", points=101).to_json_dict()
    data.update(changes)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", [
    ["decompose", "--k", "2", "--alpha", "1.0", "--out", os.devnull],
    ["partial", "--k", "2", "--alpha", "1.0", "--eps", "1e-3"],
])
@pytest.mark.parametrize("changes", [
    {"shape": [0], "values": []},
    {"n": 1.5},
    {"shape": [100.5]},
    {"shape": [True], "values": [1.0]},
], ids=["empty-grid", "fractional-n", "fractional-shape", "bool-shape"])
def test_degenerate_grid_is_input_error(tmp_path, capsys, command, changes):
    path = _sampled_file(tmp_path, **changes)
    _exits_2_with_input_error(capsys, command[:1] + ["--in", path] + command[1:])


def _fails_with_message(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_decompose_of_a_2d_grid_below_four_points_per_axis_fails(tmp_path, capsys):
    path = _sampled_file(tmp_path, n=2, origin=[0.0, 0.0], shape=[3, 3], values=[1.0] * 9)
    argv = ["decompose", "--in", path, "--k", "2", "--alpha", "1.0", "--out", os.devnull]
    _fails_with_message(capsys, argv, "4 points per axis")


@pytest.mark.parametrize("command", [
    ["decompose", "--k", "2", "--alpha", "1.0", "--out", os.devnull],
    ["partial", "--k", "2", "--alpha", "1.0", "--eps", "1e-3"],
])
def test_overflowing_grid_step_fails(tmp_path, capsys, command):
    path = _sampled_file(tmp_path, spacing=1e300)
    _fails_with_message(capsys, command[:1] + ["--in", path] + command[1:], "overflows")
