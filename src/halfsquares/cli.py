"""Command-line front end.

Exit codes: 0 pass, 1 a check failed or the search budget ran out, 2 bad
input.  Numbers that originate in exact arithmetic are printed as
fraction strings, never floats; reports serialize with sorted keys and a
full parameter echo so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

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
from .decompose import DecompositionError, decompose, partial_decompose, verify
from .exactpoly import PolynomialFormatError, SparsePolynomial
from .fixtures import FIXTURES, build_fixture
from .generate import (
    TABLE_ROWS,
    construct_candidate,
    direct_search,
    emitted_certificate,
    reproduce_table,
)
from .holder import SampledFunction, SampledFunctionFormatError, check_slow_variation, control_field, estimate_seminorm
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


def _fr(q: Fraction) -> str:
    return str(q)


def _report(payload: dict, args) -> dict:
    payload["version"] = __version__
    payload["parameters"] = {
        key: value for key, value in sorted(vars(args).items()) if key != "func"
    }
    return payload


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=2, default=str))


def _load_poly(path: str) -> SparsePolynomial:
    with open(path, "r", encoding="utf-8") as handle:
        return SparsePolynomial.loads(handle.read())


def cmd_gen_nonsos(args) -> int:
    try:
        hits = direct_search(
            args.nvars,
            args.degree,
            budget=args.budget,
            seed=args.seed,
            single_zero_coeff=1 if args.single_zero else 0,
            max_hits=1,
        )
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    if not hits:
        _emit(_report({"found": False}, args))
        return FAIL
    inst = hits[0]
    poly = construct_candidate(inst)
    cert = emitted_certificate(inst)
    with open(args.out + ".poly.json", "w", encoding="utf-8") as handle:
        handle.write(poly.dumps())
    with open(args.out + ".cert.json", "w", encoding="utf-8") as handle:
        handle.write(cert.dumps())
    _emit(
        _report(
            {
                "found": True,
                "polynomial": str(poly),
                "half_vertices": [list(q) for q in inst.half_vertices],
                "target": list(inst.target),
                "weights": [_fr(w) for w in inst.weights] + [_fr(inst.origin_weight)],
                "scale": inst.scale,
                "outputs": [args.out + ".poly.json", args.out + ".cert.json"],
            },
            args,
        )
    )
    return PASS


def cmd_verify(args) -> int:
    try:
        poly = _load_poly(args.infile)
        cert = None
        if args.cert:
            with open(args.cert, "r", encoding="utf-8") as handle:
                cert = AmgmCertificate.loads(handle.read())
    except (OSError, PolynomialFormatError, KeyError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
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
            "monomial": list(witness.monomial),
            "half_lattice": [list(t) for t in witness.half_lattice],
        }
    except SosCriterionInconclusive as err:
        ok = False
        outcome["not_sos"] = {
            "ok": False,
            "reason": "criterion inconclusive",
            "pairs": {str(list(m)): [list(p[0]), list(p[1])] for m, p in err.pairs.items()},
        }
    _emit(_report(outcome, args))
    return PASS if ok else FAIL


def cmd_table(args) -> int:
    rows = None
    if args.rows:
        rows = []
        try:
            for token in args.rows.split(","):
                n, d = token.lower().split("x")
                rows.append((int(n), int(d)))
        except ValueError:
            print(f"bad --rows value {args.rows!r}; expected e.g. 2x6,3x4", file=sys.stderr)
            return BAD_INPUT
        unknown = [f"{n}x{d}" for n, d in rows if (n, d) not in {r[:2] for r in TABLE_ROWS}]
        if unknown:
            print(f"--rows not in the catalog: {','.join(unknown)}", file=sys.stderr)
            return BAD_INPUT
    report = reproduce_table(rows)
    for row in report.rows:
        status = "PASS" if row.ok else "FAIL"
        print(f"[{status}] n={row.n} d={row.d}: {row.detail}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_report(report.to_json_dict(), args), handle, sort_keys=True, indent=2)
    return PASS if report.ok else FAIL


def _load_sampled(path: str) -> SampledFunction:
    with open(path, "r", encoding="utf-8") as handle:
        return SampledFunction.loads(handle.read())


def cmd_decompose(args) -> int:
    try:
        f = _load_sampled(args.infile)
    except (OSError, SampledFunctionFormatError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    try:
        result = decompose(f, args.k, args.alpha, nu=args.nu, omega=args.omega)
    except (DecompositionError, ValueError) as err:
        print(f"decomposition failed: {err}", file=sys.stderr)
        return FAIL
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
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(blob, handle, sort_keys=True)
    _emit(payload)
    return PASS if report.ok else FAIL


def cmd_partial(args) -> int:
    try:
        f = _load_sampled(args.infile)
    except (OSError, SampledFunctionFormatError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    try:
        result = partial_decompose(f, args.k, args.alpha, args.eps)
    except (DecompositionError, ValueError) as err:
        print(f"partial decomposition failed: {err}", file=sys.stderr)
        return FAIL
    mask = result.verified_mask()
    gap = float(np.max(np.abs(result.reconstruction() - f.values)[mask])) if mask.any() else 0.0
    payload = _report(
        {
            "residual_max": float(result.residual.max(initial=0.0)),
            "residual_min": float(result.residual.min(initial=0.0)),
            "eps": args.eps,
            "square_count": result.square_count,
            "reconstruction_gap": gap,
            "nu": result.nu,
            "ok": bool(result.residual.max(initial=0.0) <= args.eps and gap <= 1e-8),
        },
        args,
    )
    if args.out:
        blob = result.to_json_dict()
        blob["report"] = payload
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, sort_keys=True)
    _emit(payload)
    return PASS if payload["ok"] else FAIL


def _fixture(args, points) -> SampledFunction:
    params = {}
    if args.fixture == "power_alpha":
        params["alpha"] = args.alpha
    elif args.fixture == "cantor" and args.iterations:
        params["iterations"] = args.iterations
    return build_fixture(args.fixture, points=points, **params)


def _checker_input(args) -> SampledFunction:
    if args.infile:
        return _load_sampled(args.infile)
    return _fixture(args, args.points)


def cmd_check(args) -> int:
    try:
        f = _checker_input(args)
    except (OSError, SampledFunctionFormatError, KeyError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    kind = args.kind
    try:
        if kind == "malgrange":
            report = check_malgrange(f, args.alpha)
            payload = {"max_ratio": report.max_ratio, "constant": report.constant, "ok": report.ok}
        elif kind == "seminorm":
            est = estimate_seminorm(f, args.alpha)
            payload = {"estimate": est.value, "ok": True}
        elif kind == "slowvar":
            cf = control_field(f, args.k, args.alpha)
            report = check_slow_variation(cf, args.nu if args.nu else 0.25)
            payload = {"worst_ratio": report.worst_ratio, "ok": report.ok}
        elif kind == "derivative-control":
            coarse = check_derivative_control(f, args.k, args.alpha, args.ell).constant
            if args.infile:
                payload = {"constant": coarse, "ok": bool(np.isfinite(coarse))}
            else:
                fine_f = _fixture(args, 2 * f.shape[0] - 1)
                fine = check_derivative_control(fine_f, args.k, args.alpha, args.ell).constant
                stability = refinement_stability(coarse, fine)
                payload = {
                    "constant": coarse,
                    "refined_constant": fine,
                    "ok": stability.ok,
                }
        elif kind == "interpolation":
            report = check_interpolation(f, args.alpha, args.gamma, args.beta)
            payload = {"lhs": report.lhs, "rhs": report.rhs, "ok": report.ok}
        elif kind == "induc":
            report = check_induc(f, args.k, args.alpha, args.eta)
            payload = {
                "constants": {str(level): c for level, c in report.constants.items()},
                "ok": report.ok,
            }
        else:
            print(f"unknown check kind {kind}", file=sys.stderr)
            return BAD_INPUT
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    _emit(_report(payload, args))
    return PASS if payload["ok"] else FAIL


def cmd_oddweights(args) -> int:
    try:
        if args.nodes:
            nodes = [int(tok) for tok in args.nodes.split(",")]
            weights = weights_for_nodes(nodes)
            payload = {
                "nodes": nodes,
                "weights": [_fr(w) for w in weights],
                "all_positive": all(w > 0 for w in weights),
            }
        else:
            system = oddweights_solve(args.ell)
            payload = {
                "ell": system.ell,
                "nodes": list(system.nodes),
                "weights": [_fr(w) for w in system.weights],
            }
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    _emit(_report(payload, args))
    return PASS


def cmd_coeffs(args) -> int:
    try:
        beta = tuple(int(tok) for tok in args.beta.split(","))
        mode = args.mode
        if mode == "partitions":
            payload = {
                "partitions": [
                    [list(part) for part in p.expand()] for p in enumerate_partitions(beta)
                ]
            }
        elif mode == "chain":
            payload = {
                "terms": [
                    {
                        "x_deriv": list(t.x_deriv),
                        "inner_order": t.inner_order,
                        "coefficient": _fr(t.coefficient),
                        "factors": [list(g) for g in t.factors.expand()],
                    }
                    for t in chain_terms(beta)
                ]
            }
        elif mode == "sqrt":
            payload = {
                "terms": [
                    {
                        "coefficient": _fr(t.coefficient),
                        "power": _fr(t.power),
                        "factors": [list(g) for g in t.factors.expand()],
                    }
                    for t in sqrt_expansion(beta)
                ]
            }
        elif mode == "leibniz":
            payload = {
                "terms": [
                    {"binom": c, "gamma": list(g), "complement": list(d)}
                    for c, g, d in leibniz_expand(beta)
                ]
            }
        elif mode == "implicit":
            payload = {
                "terms": [
                    {
                        "x_deriv": list(t.x_deriv),
                        "vertical_order": t.vertical_order,
                        "coefficient": _fr(t.coefficient),
                        "factors": [list(g) for g in t.factors.expand()],
                    }
                    for t in implicit_derivative_terms(beta)
                ]
            }
        elif mode == "directional":
            payload = {
                "terms": [
                    {"multinomial": c, "beta": list(b)}
                    for c, b in directional_expand(args.order, len(beta))
                ]
            }
        else:
            print(f"unknown mode {mode}", file=sys.stderr)
            return BAD_INPUT
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT
    _emit(_report(payload, args))
    return PASS


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
    p.add_argument("--rows", default=None, help="comma list like 2x6,3x4")
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
    p.add_argument("--kind", required=True)
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
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--nodes", default=None, help="comma list of nonzero integers")
    p.set_defaults(func=cmd_oddweights)

    p = sub.add_parser("coeffs", help="multi-index expansions and coefficients")
    p.add_argument("--beta", required=True, help="comma list like 1,2")
    p.add_argument("--mode", default="partitions")
    p.add_argument("--order", type=int, default=1, help="k for --mode directional")
    p.set_defaults(func=cmd_coeffs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "ell", None) is None and getattr(args, "nodes", None) is None and args.command == "oddweights":
        parser.error("oddweights needs --ell or --nodes")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
