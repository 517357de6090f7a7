"""Command-line front end.

Exit codes: 0 pass; 1 a check failed, the search budget ran out or the
computation could not be done on this input; 2 bad input: a file that
cannot be read or parsed, or a parameter outside its range.  ``main`` is
the one place that maps errors to exit codes.  Numbers that originate in
exact arithmetic are printed as fraction strings, never floats; reports
are strict JSON with sorted keys and a full parameter echo, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .certificates import (
    AmgmCertificate,
    CertificateError,
    SosCriterionInconclusive,
    certify_nonnegative,
    certify_not_sos,
)
from .checks import (
    check_derivative_control,
    check_induc,
    check_interpolation,
    check_malgrange,
    refinement_stability,
)
from .decompose import NU_START, DecompositionError, decompose, partial_decompose, verify
from .errors import InputError
from .exactpoly import SparsePolynomial
from .fixtures import FIXTURES, build_fixture
from .generate import construct_candidate, direct_search, emitted_certificate, reproduce_table
from .holder import SampledFunction, check_slow_variation, control_field, estimate_seminorm
from .multiindex import (
    chain_terms,
    directional_expand,
    enumerate_partitions,
    implicit_derivative_terms,
    leibniz_expand,
    sqrt_expansion,
)
from .oddweights import solve as oddweights_solve, weights_for_nodes

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _report(payload: dict, args) -> dict:
    payload["version"] = __version__
    payload["parameters"] = {
        key: value for key, value in sorted(vars(args).items()) if key != "func"
    }
    return payload


def _plain(obj):
    """obj for strict JSON: fractions and non-finite floats as strings.

    A fraction is written as "p/q" and a non-finite float as "inf",
    "-inf" or "nan", because RFC 8259 has no NaN or Infinity.
    """
    if isinstance(obj, Fraction) or isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


def _json(payload, indent=None) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=indent, allow_nan=False, default=str)


def _emit(payload: dict):
    print(_json(payload, indent=2))


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load(cls, path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return cls.loads(handle.read())


def cmd_gen_nonsos(args) -> int:
    single_zero = 1 if args.single_zero else 0
    hits = direct_search(args.nvars, args.degree, args.budget, args.seed, single_zero, max_hits=1)
    if not hits:
        _emit(_report({"found": False}, args))
        return FAIL
    inst = hits[0]
    poly = construct_candidate(inst)
    outputs = [args.out + ".poly.json", args.out + ".cert.json"]
    _write(outputs[0], poly.dumps())
    _write(outputs[1], emitted_certificate(inst).dumps())
    payload = {
        "found": True,
        "polynomial": str(poly),
        "half_vertices": inst.half_vertices,
        "target": inst.target,
        "weights": [*inst.weights, inst.origin_weight],
        "scale": inst.scale,
        "outputs": outputs,
    }
    _emit(_report(payload, args))
    return PASS


def cmd_verify(args) -> int:
    poly = _load(SparsePolynomial, args.infile)
    cert = _load(AmgmCertificate, args.cert) if args.cert else None
    outcome = {"polynomial": str(poly)}
    ok = True
    try:
        verified = certify_nonnegative(poly, cert)
        outcome["nonnegative"] = {
            "ok": True,
            "inequalities": verified.certificate.to_json_dict()["inequalities"],
        }
    except CertificateError as err:
        ok = False
        outcome["nonnegative"] = {"ok": False, "reason": str(err)}
    try:
        witness = certify_not_sos(poly)
        outcome["not_sos"] = {
            "ok": True,
            "monomial": witness.monomial,
            "half_lattice": witness.half_lattice,
        }
    except SosCriterionInconclusive as err:
        ok = False
        outcome["not_sos"] = {
            "ok": False,
            "reason": "criterion inconclusive",
            "pairs": {str(list(m)): pair for m, pair in err.pairs.items()},
        }
    _emit(_report(outcome, args))
    return PASS if ok else FAIL


def cmd_table(args) -> int:
    report = reproduce_table(args.rows)
    for row in report.rows:
        status = "PASS" if row.ok else "FAIL"
        print(f"[{status}] n={row.n} d={row.d}: {row.detail}")
    if args.json:
        _write(args.json, _json(_report(report.to_json_dict(), args), indent=2))
    return PASS if report.ok else FAIL


def cmd_decompose(args) -> int:
    f = _load(SampledFunction, args.infile)
    result = decompose(f, args.k, args.alpha, nu=args.nu, omega=args.omega)
    report = verify(result, f)
    payload = _report(
        {
            "reconstruction_error": report.reconstruction_error,
            "square_count": report.square_count,
            "square_bound": report.square_bound,
            "overlap_max": report.overlap_max,
            "class_count": report.class_count,
            "nu": result.nu,
            "omega": result.omega,
            "branch_a": result.branch_a,
            "branch_b": result.branch_b,
            "ok": report.ok,
        },
        args,
    )
    blob = result.to_json_dict()
    blob["report"] = payload
    _write(args.out, _json(blob))
    _emit(payload)
    return PASS if report.ok else FAIL


def cmd_partial(args) -> int:
    f = _load(SampledFunction, args.infile)
    result = partial_decompose(f, args.k, args.alpha, args.eps)
    gap, bound = result.reconstruction_gap(f)
    payload = _report(
        {
            "residual_max": float(result.residual.max(initial=0.0)),
            "residual_min": float(result.residual.min(initial=0.0)),
            "eps": args.eps,
            "square_count": result.square_count,
            "reconstruction_gap": gap,
            "nu": result.nu,
            "ok": bool(result.residual.max(initial=0.0) <= args.eps and gap <= bound),
        },
        args,
    )
    if args.out:
        blob = result.to_json_dict()
        blob["report"] = payload
        _write(args.out, _json(blob))
    _emit(payload)
    return PASS if payload["ok"] else FAIL


def _fixture(args, points) -> SampledFunction:
    params = {}
    if args.fixture == "power_alpha":
        params["alpha"] = args.alpha
    elif args.fixture == "cantor" and args.iterations is not None:
        params["iterations"] = args.iterations
    return build_fixture(args.fixture, points=points, **params)


def cmd_check(args) -> int:
    f = _load(SampledFunction, args.infile) if args.infile else _fixture(args, args.points)
    kind = args.kind
    if kind == "malgrange":
        report = check_malgrange(f, args.alpha)
        payload = {"max_ratio": report.max_ratio, "constant": report.constant, "ok": report.ok}
    elif kind == "seminorm":
        est = estimate_seminorm(f, args.alpha)
        payload = {"estimate": est.value, "ok": True}
    elif kind == "slowvar":
        cf = control_field(f, args.k, args.alpha)
        report = check_slow_variation(cf, NU_START if args.nu is None else args.nu)
        payload = {"worst_ratio": report.worst_ratio, "ok": report.ok}
    elif kind == "derivative-control":
        report = check_derivative_control(f, args.k, args.alpha, args.ell)
        payload = {"constant": report.constant, "ok": report.ok}
        if not args.infile:
            fine = check_derivative_control(_fixture(args, 2 * f.shape[0] - 1), args.k, args.alpha, args.ell).constant
            payload.update(refined_constant=fine, ok=refinement_stability(report.constant, fine))
    elif kind == "interpolation":
        report = check_interpolation(f, args.alpha, args.gamma, args.beta)
        payload = {"lhs": report.lhs, "rhs": report.rhs, "ok": report.ok}
    else:
        report = check_induc(f, args.k, args.alpha, args.eta)
        payload = {"constants": {str(level): c for level, c in report.constants.items()}, "ok": report.ok}
    _emit(_report(payload, args))
    return PASS if payload["ok"] else FAIL


def cmd_oddweights(args) -> int:
    if args.nodes is not None:
        weights = weights_for_nodes(args.nodes)
        payload = {"nodes": args.nodes, "weights": weights, "all_positive": all(w > 0 for w in weights)}
    else:
        system = oddweights_solve(args.ell)
        payload = {"ell": system.ell, "nodes": system.nodes, "weights": system.weights}
    _emit(_report(payload, args))
    return PASS


# --mode -> the expansion of beta (--order for directional) as a payload
COEFF_MODES = {
    "partitions": lambda beta, order: {"partitions": [p.expand() for p in enumerate_partitions(beta)]},
    "chain": lambda beta, order: {"terms": [
        {"x_deriv": t.x_deriv, "inner_order": t.inner_order, "coefficient": t.coefficient,
         "factors": t.factors.expand()}
        for t in chain_terms(beta)
    ]},
    "sqrt": lambda beta, order: {"terms": [
        {"coefficient": t.coefficient, "power": t.power, "factors": t.factors.expand()}
        for t in sqrt_expansion(beta)
    ]},
    "leibniz": lambda beta, order: {"terms": [
        {"binom": c, "gamma": g, "complement": d} for c, g, d in leibniz_expand(beta)
    ]},
    "implicit": lambda beta, order: {"terms": [
        {"x_deriv": t.x_deriv, "vertical_order": t.inner_order, "coefficient": t.coefficient,
         "factors": t.factors.expand()}
        for t in implicit_derivative_terms(beta)
    ]},
    "directional": lambda beta, order: {"terms": [
        {"multinomial": c, "beta": b} for c, b in directional_expand(order, len(beta))
    ]},
}


def cmd_coeffs(args) -> int:
    _emit(_report(COEFF_MODES[args.mode](tuple(args.beta), args.order), args))
    return PASS


def int_list(text: str) -> list[int]:
    """A comma list like 1,-2,3; argparse turns a bad item into a usage error."""
    return [int(tok) for tok in text.split(",")]


def row_list(text: str) -> list[tuple[int, int]]:
    """A comma list like 2x6,3x4 of (n, d) pairs, checked like ``int_list``."""
    rows = []
    for token in text.split(","):
        n, d = token.lower().split("x")
        rows.append((int(n), int(d)))
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfsquares",
        description="non-SOS polynomial certificates and sum-of-squares decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-nonsos", help="search for a certified non-SOS polynomial")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-zero", action="store_true")
    p.add_argument("--out", default="nonsos")
    p.set_defaults(func=cmd_gen_nonsos)

    p = sub.add_parser("verify", help="run both certifiers on a polynomial file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="verify the catalog of example polynomials")
    p.add_argument("--rows", type=row_list, default=None, help="comma list like 2x6,3x4")
    p.add_argument("--json", default=None, help="write the report here")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("decompose", help="decompose a sampled function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("partial", help="partial decomposition with a small residual")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_partial)

    p = sub.add_parser("check", help="run an inequality checker")
    p.add_argument(
        "--kind", required=True,
        choices=("malgrange", "seminorm", "slowvar", "derivative-control", "interpolation", "induc"),
    )
    p.add_argument("--fixture", default="bony", choices=sorted(FIXTURES))
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.75)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None, help="cantor fixture depth")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oddweights", help="print an exact odd-moment weight system")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ell", type=int, default=None)
    group.add_argument("--nodes", type=int_list, default=None, help="comma list of nonzero integers")
    p.set_defaults(func=cmd_oddweights)

    p = sub.add_parser("coeffs", help="multi-index expansions and coefficients")
    p.add_argument("--beta", type=int_list, required=True, help="comma list like 1,2")
    p.add_argument("--mode", default="partitions", choices=COEFF_MODES)
    p.add_argument("--order", type=int, default=1, help="k for --mode directional")
    p.set_defaults(func=cmd_coeffs)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place where errors become exit codes.

    InputError and OSError (a bad file, a bad parameter) exit 2 with
    "input error: ..."; DecompositionError and any other ValueError (the
    computation could not be done) exit 1 with the command's name.
    Command-line syntax errors are argparse's: exit 2 with the usage.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DecompositionError) as err:
        bad_input = isinstance(err, (InputError, OSError))
        print(f"input error: {err}" if bad_input else f"{args.command} failed: {err}", file=sys.stderr)
        return BAD_INPUT if bad_input else FAIL


if __name__ == "__main__":
    sys.exit(main())
