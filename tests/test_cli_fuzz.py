"""The command line's 0/1/2 contract under mutated files and options.

Every subcommand is driven in-process through ``main(argv)``.  Each
example spoils at most one thing: an input file with one node mutated (a
type swap, a NaN or infinity string, an empty or ragged list, a missing
key, a huge integer) or one option set out of range, to a non-finite
value or to a word.  Every run must exit 0, 1 or 2, print no traceback,
write strict JSON (RFC 8259: no NaN or Infinity) and finish within a
wall-time cap.  Options whose cost grows with their value (--degree,
--nvars, --points, --ell, --iterations, --beta length) take small valid
values or invalid ones only.
"""

import contextlib
import io
import json
import time
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from halfsquares.certificates import certify_nonnegative
from halfsquares.cli import main
from halfsquares.fixtures import build_fixture
from halfsquares.generate import MOTZKIN

SECONDS_PER_RUN = 5.0
JUNK = st.sampled_from(
    ["nan", "inf", "-inf", "", "x", None, True, [], [[]], {}, 10**400, -(10**400), 0, -1, 1.5,
     float("nan"), float("inf")]
)
BAD_FLOATS = ["0", "-1", "2", "nan", "inf", "-inf", "1e400", "x"]
BAD_INTS = ["-1", "1.5", "x", ""]


@dataclass(frozen=True)
class Doc:
    """An input file written from one of ``keys``, mutated or not."""

    keys: tuple
    mutate: bool


@dataclass(frozen=True)
class Path:
    """A path under the example's directory."""

    name: str


FLAG = True
SAMPLED, SPOILT = Doc(("f1", "f2"), False), Doc(("f1", "f2"), True)
OUT, NO_DIR = Path("out"), Path("missing/out")

# command -> [(option, valid values, invalid values)]; None omits the option
COMMANDS = {
    "gen-nonsos": [
        ("--nvars", ["2"], ["1", "0"] + BAD_INTS),
        ("--degree", ["4", "6"], ["5", "2", "-2"] + BAD_INTS),
        ("--budget", [None, "0", "30", "300", str(10**30)], BAD_INTS),
        ("--seed", [None, "0", "7", "-3", str(10**30)], BAD_INTS),
        ("--single-zero", [None, FLAG], []),
        ("--out", [OUT], [NO_DIR]),
    ],
    "verify": [
        ("--in", [Doc(("poly",), False)], [Doc(("poly",), True), Path("none.json")]),
        ("--cert", [None, Doc(("cert",), False)], [Doc(("cert",), True), Path("none.json")]),
    ],
    "table": [
        ("--rows", [None, "2x6", "2x8", "2x6,2x8"], ["9x4", "2x5,2x6", "abc", "", "2x", "2x6,"]),
        ("--json", [None, Path("table.json")], [Path("missing/table.json")]),
    ],
    "decompose": [
        ("--in", [SAMPLED], [SPOILT, Path("none.json")]),
        ("--k", ["2", "3"], ["7", "0"] + BAD_INTS),
        ("--alpha", ["1.0", "0.5"], BAD_FLOATS),
        ("--nu", [None, "0.25", "0.1", "1e-9"], BAD_FLOATS),
        ("--omega", [None, "0.5", "1e-3"], BAD_FLOATS),
        ("--out", [OUT], [NO_DIR]),
    ],
    "partial": [
        ("--in", [SAMPLED], [SPOILT, Path("none.json")]),
        ("--k", ["2", "3"], ["7", "0"] + BAD_INTS),
        ("--alpha", ["1.0", "0.5"], BAD_FLOATS),
        ("--eps", ["1e-3", "1.0", "1e300"], ["0", "-1", "nan", "inf", "-inf", "x"]),
        ("--out", [None, OUT], [NO_DIR]),
    ],
    "check": [
        ("--kind", ["malgrange", "seminorm", "slowvar", "derivative-control", "interpolation", "induc"],
         ["bogus"]),
        ("--in", [None, SAMPLED], [SPOILT, Path("none.json")]),
        ("--fixture", ["bony", "cantor", "power_alpha", "parabola", "paraboloid", "radial_bump"], ["nope"]),
        ("--points", ["2", "3", "5", "17"], ["1", "0", "-3"] + BAD_INTS),
        ("--iterations", [None, "0", "3", "12"], ["-5", "65"] + BAD_INTS),
        ("--alpha", [None, "1.0", "0.5", "0.25"], BAD_FLOATS),
        ("--beta", [None, "1.0"], BAD_FLOATS),
        ("--gamma", [None, "0.75"], BAD_FLOATS),
        ("--eta", [None, "0.5"], BAD_FLOATS),
        ("--nu", [None, "0.25", "0.1"], BAD_FLOATS),
        ("--k", [None, "1", "2", "3", "4", "5"], ["9", "0"] + BAD_INTS),
        ("--ell", [None, "0", "1", "2"], ["3", "5"] + BAD_INTS),
    ],
    # --ell and --nodes exclude each other; None or both is a usage error
    "oddweights": [
        ("--ell", ["1", "3", "5", "7"], [None, "4", "0"] + BAD_INTS),
        ("--nodes", [None], ["1,-2"]),
    ],
    "oddweights --nodes": [
        ("--nodes", ["1,-2", "1,-2,3", "2,5"], ["0", "1,-1", "1,,2"] + BAD_INTS),
        ("--ell", [None], ["3"]),
    ],
    "coeffs": [
        ("--beta", ["1", "2", "0,1", "1,2", "2,2,2"], ["0", "-1", "1,,2"] + BAD_INTS),
        ("--mode", [None, "partitions", "chain", "sqrt", "leibniz", "implicit", "directional"], ["bogus"]),
        ("--order", [None, "0", "1", "3"], BAD_INTS),
    ],
}
# examples per command; the whole test stays under 15 s
EXAMPLES = {
    "gen-nonsos": 40, "verify": 120, "table": 30, "decompose": 120, "partial": 80,
    "check": 200, "oddweights": 20, "oddweights --nodes": 20, "coeffs": 60,
}


def _paths(node, path=()):
    """Every node of a JSON document, as a path of keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, base):
    """``base`` as JSON text with one node mutated."""
    doc = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    op = draw(st.sampled_from(["junk", "delete", "truncate", "append", "stringify"]))
    if op == "delete":
        del parent[key]
    elif op == "truncate" and isinstance(value, list) and value:
        del value[draw(st.integers(0, len(value) - 1)):]
    elif op == "append" and isinstance(value, list):
        value.append(draw(JUNK))
    elif op == "stringify":
        parent[key] = json.dumps(value)
    else:
        parent[key] = draw(JUNK)
    return json.dumps(doc)  # NaN and Infinity tokens pass, as a careless writer emits them


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return {
        "root": tmp_path_factory.mktemp("fuzz"),
        "f1": build_fixture("parabola", points=41).to_json_dict(),
        "f2": build_fixture("paraboloid", points=9).to_json_dict(),
        "poly": MOTZKIN.to_json_dict(),
        "cert": certify_nonnegative(MOTZKIN).certificate.to_json_dict(),
    }


def _argv(draw, files, command):
    """argv with at most one option or file spoilt, after writing its files."""
    options = COMMANDS[command]
    spoilt = draw(st.sampled_from([None] + [name for name, _, invalid in options if invalid]))
    argv = command.split()[:1]
    for name, valid, invalid in options:
        value = draw(st.sampled_from(invalid if name == spoilt else valid))
        if isinstance(value, Doc):
            base = files[draw(st.sampled_from(value.keys))]
            path = files["root"] / f"{name[2:]}.json"
            path.write_text(draw(mutated(base)) if value.mutate else json.dumps(base))
            value = str(path)
        elif isinstance(value, Path):
            value = str(files["root"] / value.name)
        if value is FLAG:
            argv.append(name)
        elif value is not None:
            argv += [name, value]
    return argv


def _strict(text: str):
    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_exit_code_contract(files, command):
    report = files["root"] / "table.json"

    @settings(max_examples=EXAMPLES[command], derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def run(data):
        argv = _argv(data.draw, files, command)
        report.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue(), argv
        assert elapsed < SECONDS_PER_RUN, (argv, elapsed)
        if command != "table" and stdout.getvalue():
            _strict(stdout.getvalue())
        if report.exists():
            _strict(report.read_text())

    run()
