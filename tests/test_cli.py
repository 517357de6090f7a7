import json
import os

import numpy as np
import pytest

from halfsquares import InputError
from halfsquares.cli import main
from halfsquares.decompose import RECONSTRUCTION_TOLERANCE, decompose
from halfsquares.exactpoly import SparsePolynomial
from halfsquares.fixtures import build_fixture
from halfsquares.generate import MOTZKIN
from halfsquares.holder import SampledFunction


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


def test_coeffs_implicit_terms(capsys):
    """The terms of d^(2,1) g where G(x, g(x)) = 0: the chain-rule terms of
    d^(2,1) G(x, g(x)) but the one with Gamma = {(2, 1)}, in their order."""
    code, out = run(capsys, "coeffs", "--beta", "2,1", "--mode", "implicit")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert all(set(t) == {"x_deriv", "vertical_order", "coefficient", "factors"} for t in terms)
    assert [(t["x_deriv"], t["vertical_order"], t["coefficient"], t["factors"]) for t in terms] == [
        ([2, 1], 0, "1", []),
        ([2, 0], 1, "1", [[0, 1]]),
        ([1, 1], 1, "2", [[1, 0]]),
        ([1, 0], 2, "2", [[0, 1], [1, 0]]),
        ([1, 0], 1, "2", [[1, 1]]),
        ([0, 1], 2, "1", [[1, 0], [1, 0]]),
        ([0, 1], 1, "1", [[2, 0]]),
        ([0, 0], 3, "1", [[0, 1], [1, 0], [1, 0]]),
        ([0, 0], 2, "1", [[0, 1], [2, 0]]),
        ([0, 0], 2, "2", [[1, 0], [1, 1]]),
    ]


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


@pytest.mark.parametrize(
    "rows, named", [("9x4", "9x4"), ("2x5,2x6", "2x5"), ("2x6,3x3,5x8", "3x3,5x8")]
)
def test_table_rows_outside_the_catalog_are_bad_input(tmp_path, capsys, rows, named):
    report_path = tmp_path / "table.json"
    assert main(["table", "--rows", rows, "--json", str(report_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"input error: rows not in the catalog: {named}"
    assert captured.out == "" and not report_path.exists()


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


@pytest.mark.filterwarnings("error")
def test_huge_nu_runs_without_warnings(tmp_path, capsys):
    """nu = 1e308 overflows lengths to inf, which the program reads as reaching
    the whole grid; nothing is printed to stderr."""
    source = tmp_path / "f.json"
    source.write_text(build_fixture("constant", points=101).dumps())
    commands = [
        ["decompose", "--in", str(source), "--k", "2", "--alpha", "1.0", "--nu", "1e308", "--out", os.devnull],
        ["check", "--kind", "slowvar", "--fixture", "parabola", "--points", "101", "--nu", "1e308"],
    ]
    for argv in commands:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is True and captured.err == ""


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


@pytest.mark.parametrize("command", [
    ["decompose", "--k", "2", "--alpha", "1.0", "--out", os.devnull],
    ["partial", "--k", "2", "--alpha", "1.0", "--eps", "1e-3"],
])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_origin_is_input_error(tmp_path, capsys, command, n, bad):
    """A non-finite origin is rejected on reading, before any search runs on
    coordinates that are all NaN or infinite."""
    data = build_fixture("parabola" if n == 1 else "paraboloid", points=21).to_json_dict()
    data["origin"][0] = bad
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    _exits_2_with_input_error(capsys, command[:1] + ["--in", str(path)] + command[1:])


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


# -- one input boundary: InputError and OSError exit 2, other failures exit 1

OPTIONS = {
    "decompose": {"--k": "2", "--alpha": "1.0", "--out": os.devnull},
    "partial": {"--k": "2", "--alpha": "1.0", "--eps": "1e-3"},
}


@pytest.mark.parametrize("command, option, value", [
    ("decompose", "--k", "7"),
    ("decompose", "--alpha", "0"),
    ("decompose", "--alpha", "nan"),
    ("decompose", "--nu", "nan"),
    ("decompose", "--nu", "-1"),
    ("decompose", "--nu", "0"),
    ("decompose", "--nu", "inf"),
    ("decompose", "--omega", "inf"),
    ("decompose", "--omega", "-1"),
    ("decompose", "--omega", "0"),
    ("partial", "--eps", "0"),
    ("partial", "--eps", "inf"),
    ("partial", "--eps", "nan"),
    ("partial", "--k", "9"),
])
def test_parameter_out_of_range_is_input_error(tmp_path, capsys, command, option, value):
    options = dict(OPTIONS[command], **{option: value})
    argv = [command, "--in", _sampled_file(tmp_path)] + [item for pair in options.items() for item in pair]
    _exits_2_with_input_error(capsys, argv)


def test_partial_ok_is_relative_to_max_f(tmp_path, capsys):
    """At 1e12 times bony the reconstruction gap is 9e-5 absolute but 6e-16
    relative to max |f|, within VerifyReport's tolerance."""
    f = build_fixture("bony", points=2001)
    path = tmp_path / "f.json"
    path.write_text(SampledFunction(f.origin, f.spacing, f.values * 1e12).dumps())
    code, out = run(capsys, "partial", "--in", str(path), "--k", "2", "--alpha", "1.0", "--eps", "1e9")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert 1e-8 < payload["reconstruction_gap"] <= RECONSTRUCTION_TOLERANCE * 1e12 * float(f.values.max())


@pytest.mark.parametrize("options", [
    ["--nu", "0"], ["--nu", "-1"], ["--nu", "nan"], ["--nu", "inf"], ["--k", "9"],
    ["--kind", "derivative-control", "--k", "7", "--ell", "5"],
    ["--kind", "derivative-control", "--k", "1", "--alpha", "-1"],
])
def test_check_parameter_out_of_range_is_input_error(capsys, options):
    _exits_2_with_input_error(capsys, ["check", "--kind", "slowvar", "--points", "401"] + options)


def test_check_slowvar_default_nu_is_a_quarter_and_echoed_as_null(capsys):
    code, out = run(capsys, "check", "--kind", "slowvar", "--points", "401")
    default = json.loads(out)
    _, out = run(capsys, "check", "--kind", "slowvar", "--points", "401", "--nu", "0.25")
    assert default["parameters"]["nu"] is None
    assert default["worst_ratio"] == json.loads(out)["worst_ratio"]


@pytest.mark.parametrize("options", [
    ["--points", "1"], ["--points", "0"], ["--points", "-3"],
    ["--fixture", "cantor", "--iterations", "-5"], ["--fixture", "cantor", "--iterations", "65"],
    ["--fixture", "power_alpha", "--alpha", "-1"], ["--fixture", "power_alpha", "--alpha", "nan"],
])
def test_bad_fixture_parameter_is_input_error(capsys, options):
    _exits_2_with_input_error(capsys, ["check", "--kind", "seminorm"] + options)
    with pytest.raises(InputError):
        build_fixture("nope")


def test_malgrange_on_a_kink_writes_strict_json(tmp_path, capsys):
    x = np.linspace(-1.0, 1.0, 201)
    path = tmp_path / "kink.json"
    path.write_text(SampledFunction((-1.0,), x[1] - x[0], np.maximum(x, 0.0)).dumps())
    code, out = run(capsys, "check", "--kind", "malgrange", "--in", str(path))

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out, parse_constant=refuse)
    assert code == 1 and payload["max_ratio"] == "inf" and payload["ok"] is False


@pytest.mark.parametrize("command", [
    "gen-nonsos", "verify", "table", "decompose", "partial", "check", "oddweights", "coeffs",
])
def test_every_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "usage" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [],
    ["check", "--kind", "bogus"],
    ["coeffs", "--beta", "1", "--mode", "bogus"],
    ["coeffs", "--beta", "x"],
    ["oddweights"],
    ["oddweights", "--ell", "3", "--nodes", "1"],
    ["oddweights", "--nodes", "1,x"],
    ["table", "--rows", "abc"],
], ids=["no-command", "check-kind", "coeffs-mode", "coeffs-beta", "oddweights-none", "oddweights-both",
        "oddweights-nodes", "table-rows"])
def test_command_line_syntax_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--kind", "malgrange", "--in", "NEG"],
    ["check", "--kind", "induc", "--k", "4", "--in", "NEG"],
    ["check", "--kind", "slowvar", "--points", "2"],
    ["check", "--kind", "malgrange", "--points", "2"],
    ["check", "--kind", "slowvar", "--in", "HUGE_STEP"],
    ["check", "--kind", "malgrange", "--fixture", "paraboloid", "--points", "2"],
    ["check", "--kind", "derivative-control", "--points", "2"],
    ["check", "--kind", "derivative-control", "--fixture", "paraboloid", "--points", "2"],
    ["check", "--kind", "induc", "--k", "4", "--points", "4"],
], ids=["malgrange-negative", "induc-negative", "slowvar-two-points", "malgrange-two-points", "slowvar-overflow",
        "malgrange-2d-two-points", "derivative-control-two-points", "derivative-control-2d-two-points",
        "induc-level-4-on-four-points"])
def test_check_that_cannot_run_on_its_data_fails(tmp_path, capsys, argv):
    changes = {"NEG": {"values": [-1.0] * 101}, "HUGE_STEP": {"spacing": 1e300}}
    argv = [_sampled_file(tmp_path, **changes[a]) if a in changes else a for a in argv]
    _fails_with_message(capsys, argv, "check failed")


@pytest.mark.parametrize("argv", [
    ["check", "--kind", "induc", "--k", "6", "--points", "4"],
    ["check", "--kind", "induc", "--k", "6", "--points", "101"],
    ["check", "--kind", "induc", "--k", "7", "--points", "101"],
], ids=["k6-four-points", "k6", "k7"])
def test_induc_k_past_the_stencils_is_input_error(capsys, argv):
    """k = 6 and 7 need a sixth-order stencil: bad input on any grid, before
    a level is computed."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error: need k in {4, 5}" in err and "Traceback" not in err


@pytest.mark.parametrize("terms, message", [
    ([], "polynomial is zero"),
    ([{"exp": [0, 0], "num": "1", "den": "1"}, {"exp": [2, 2], "num": "-3", "den": "1"},
      {"exp": [10**400, 2], "num": "1", "den": "1"}], "lattice points to scan"),
], ids=["zero", "huge-degree"])
def test_polynomial_the_certifiers_cannot_take_fails(tmp_path, capsys, terms, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"nvars": 2, "terms": terms}))
    _fails_with_message(capsys, ["verify", "--in", str(path)], message)


@pytest.mark.parametrize("command", [
    ["decompose", "--in", "F", "--k", "2", "--alpha", "1.0", "--out", "MISSING/o.json"],
    ["table", "--rows", "2x6", "--json", "MISSING/t.json"],
    ["gen-nonsos", "--nvars", "2", "--degree", "6", "--budget", "300", "--out", "MISSING/x"],
], ids=["decompose-out", "table-json", "gen-nonsos-out"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    names = {"F": _sampled_file(tmp_path), "MISSING": str(tmp_path / "missing")}
    argv = [names["MISSING"] + a[7:] if a.startswith("MISSING") else names.get(a, a) for a in command]
    _exits_2_with_input_error(capsys, argv)


def test_a_given_nu_below_the_floor_is_tried():
    f = build_fixture("parabola", points=101)
    assert decompose(f, 2, 1.0, nu=1e-9).nu == 1e-9
