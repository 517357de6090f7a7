"""Non-negativity and non-SOS certification of exact polynomials.

Non-negativity certificates dominate every monomial that can go negative
(odd-exponent monomials of either sign and even ones with a negative
coefficient) through a weighted AM-GM inequality against even-exponent
monomials with positive coefficients.  One exact LP over all of them at
once finds such a certificate whenever one exists.  The non-SOS side is
the Newton polytope criterion: a negative monomial that is not the sum of
two distinct lattice points of the half polytope cannot arise from a sum
of squares.  The criterion is sufficient only; when every negative
monomial admits such a pair the outcome is "inconclusive", never "SOS".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .errors import InputError
from .exactpoly import SparsePolynomial, decimal_num_den
from .multiindex import MultiIndex
from .polytope import GeneralPolytope


class CertificateError(ValueError):
    """A non-negativity certificate is missing, invalid or over-committed."""

    def __init__(self, message, monomial=None):
        super().__init__(message)
        self.monomial = monomial


class CertificateFormatError(InputError):
    """Serialized certificate data violates the format contract."""


class SosCriterionInconclusive(Exception):
    """Every negative monomial admits a distinct half-polytope pair.

    Not a proof that the polynomial is a sum of squares.
    """

    def __init__(self, pairs):
        self.pairs = pairs
        super().__init__(f"criterion inconclusive: distinct pairs exist ({pairs})")


def _is_even(exp: MultiIndex) -> bool:
    return all(e % 2 == 0 for e in exp)


def _fr_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _fr_parse(data) -> Fraction:
    return Fraction(*decimal_num_den(data["num"], data["den"]))


def _exp_parse(data) -> MultiIndex:
    if not isinstance(data, list) or any(type(e) is not int or e < 0 for e in data):
        raise ValueError(f"bad exponent vector {data!r}")
    return tuple(data)


@dataclass(frozen=True)
class AmgmInequality:
    """x^target <= sum lambda_j x^(v_j) + origin_share, an exact AM-GM bound.

    The v_j are nonzero even lattice points, the weights are non-negative
    with total weight sum lambda_j + origin_share = 1, and target equals
    the weighted average of the v_j (the origin carrying origin_share).
    """

    target: MultiIndex
    shares: tuple[tuple[MultiIndex, Fraction], ...]
    origin_share: Fraction

    def validate(self):
        total = self.origin_share
        if self.origin_share < 0:
            raise CertificateError("negative origin share", self.target)
        avg = [Fraction(0)] * len(self.target)
        for v, lam in self.shares:
            if lam < 0:
                raise CertificateError("negative weight", self.target)
            if not _is_even(v) or all(x == 0 for x in v):
                raise CertificateError(f"dominator {v} is not a nonzero even point", self.target)
            total += lam
            for i, x in enumerate(v):
                avg[i] += lam * x
        if total != 1:
            raise CertificateError("weights do not sum to one", self.target)
        if tuple(avg) != tuple(Fraction(t) for t in self.target):
            raise CertificateError("weighted average does not match target", self.target)


@dataclass(frozen=True)
class AmgmCertificate:
    inequalities: tuple[AmgmInequality, ...]

    def to_json_dict(self) -> dict:
        return {
            "inequalities": [
                {
                    "target": list(ineq.target),
                    "shares": [
                        {"v": list(v), **_fr_json(lam)} for v, lam in ineq.shares
                    ],
                    "origin": _fr_json(ineq.origin_share),
                }
                for ineq in self.inequalities
            ]
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "AmgmCertificate":
        ineqs = []
        try:
            for item in data["inequalities"]:
                target = _exp_parse(item["target"])
                shares = tuple((_exp_parse(s["v"]), _fr_parse(s)) for s in item["shares"])
                if any(len(v) != len(target) for v, _ in shares):
                    raise ValueError("share and target exponents differ in length")
                ineqs.append(AmgmInequality(target, shares, _fr_parse(item["origin"])))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
            raise CertificateFormatError(f"bad certificate data: {err}") from err
        return cls(tuple(ineqs))

    @classmethod
    def loads(cls, text: str) -> "AmgmCertificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise CertificateFormatError(f"invalid JSON: {err}") from err
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class VerifiedCertificate:
    """Outcome of an exact non-negativity verification."""

    certificate: AmgmCertificate
    risky: tuple[MultiIndex, ...]


def risky_monomials(P: SparsePolynomial) -> list[MultiIndex]:
    """Monomials that can take negative values somewhere.

    Odd-exponent monomials of either sign, and even-exponent monomials
    with negative coefficients.
    """
    return sorted(m for m, c in P.terms.items() if (not _is_even(m)) or c < 0)


def _dominator_capacities(P: SparsePolynomial) -> dict[MultiIndex, Fraction]:
    """Even-exponent monomials with positive coefficients (incl. constant)."""
    return {m: c for m, c in P.terms.items() if _is_even(m) and c > 0}


def verify_certificate(P: SparsePolynomial, cert: AmgmCertificate) -> VerifiedCertificate:
    risky = risky_monomials(P)
    origin = tuple(0 for _ in range(P.nvars))
    capacities = _dominator_capacities(P)
    targets = [ineq.target for ineq in cert.inequalities]
    if sorted(targets) != sorted(set(targets)):
        raise CertificateError("duplicate inequality targets")
    missing = [m for m in risky if m not in targets]
    if missing:
        raise CertificateError(f"monomial {missing[0]} has no inequality", missing[0])
    committed: dict[MultiIndex, Fraction] = {}
    for ineq in cert.inequalities:
        if ineq.target not in risky:
            raise CertificateError(
                f"target {ineq.target} is not a risky monomial", ineq.target
            )
        ineq.validate()
        magnitude = abs(P.terms[ineq.target])
        for v, lam in ineq.shares:
            committed[v] = committed.get(v, Fraction(0)) + magnitude * lam
        if ineq.origin_share:
            committed[origin] = (
                committed.get(origin, Fraction(0)) + magnitude * ineq.origin_share
            )
    for v, used in committed.items():
        if used > capacities.get(v, Fraction(0)):
            raise CertificateError(
                f"dominator {v} over-committed: needs {used}, has "
                f"{capacities.get(v, Fraction(0))}",
                v,
            )
    return VerifiedCertificate(cert, tuple(risky))


def discover_certificate(P: SparsePolynomial) -> AmgmCertificate:
    """One exact LP over every risky monomial m and dominator v at once.

    mu[m, v] >= 0 is the part of |c_m| that v covers: sum_v mu[m, v] = |c_m|
    and sum_v mu[m, v] v = |c_m| m for each m, and sum_m mu[m, v] plus a
    slack s_v >= 0 is c_v for each v.  Such mu exist exactly when a
    certificate of this class does (Reznick 1989);
    ``ratmat.nonnegative_solution`` decides it, and the shares are
    mu[m, v] / |c_m|.  The error names the first risky monomial by
    decreasing |c|, then lex.
    """
    risky = risky_monomials(P)
    capacities = _dominator_capacities(P)
    doms = sorted(capacities)
    D, k = len(doms), len(risky) * len(doms)
    matrix, rhs = [], []
    for a, m in enumerate(risky):
        for i, t in enumerate((1, *m)):  # the total weight, then each moment
            matrix.append([0] * (a * D) + [(1, *v)[i] for v in doms] + [0] * (k - a * D))
            rhs.append(abs(P.terms[m]) * t)
    for b, v in enumerate(doms):  # mu[., v] and the slack of v: the columns b mod D
        matrix.append([int(j % D == b) for j in range(k + D)])
        rhs.append(capacities[v])
    mu = ratmat.nonnegative_solution(matrix, rhs)
    if mu is None:
        m = min(risky, key=lambda m: (-abs(P.terms[m]), m))
        raise CertificateError(f"no valid AM-GM certificate found for monomial {m}", m)
    inequalities = []
    for a, m in enumerate(risky):
        lam = {v: x / abs(P.terms[m]) for v, x in zip(doms, mu[a * D:]) if x}
        origin_share = lam.pop(tuple([0] * P.nvars), Fraction(0))
        inequalities.append(AmgmInequality(m, tuple(lam.items()), origin_share))
    return AmgmCertificate(tuple(inequalities))


def certify_nonnegative(
    P: SparsePolynomial, cert: AmgmCertificate | None = None
) -> VerifiedCertificate:
    """Verify (or discover, then verify) an exact non-negativity certificate."""
    if cert is None:
        cert = discover_certificate(P)
    return verify_certificate(P, cert)


@dataclass(frozen=True)
class NotSosWitness:
    """A negative monomial with no distinct half-polytope pair.

    ``half_lattice`` is the exhaustively examined lattice of (1/2)C_P.
    """

    monomial: MultiIndex
    coefficient: Fraction
    half_lattice: tuple[MultiIndex, ...]
    generators: tuple[MultiIndex, ...]

    def __post_init__(self):
        if self.coefficient >= 0:
            raise ValueError("witness monomial must have a negative coefficient")


def certify_not_sos(P: SparsePolynomial) -> NotSosWitness:
    """Newton-polytope witness that P is not a sum of squares.

    Raises SosCriterionInconclusive when every negative monomial is the
    sum of two distinct lattice points of the half polytope (which is
    always the case for actual squares).
    """
    if P.is_zero():
        raise ValueError("polynomial is zero")
    negatives = sorted(m for m, c in P.terms.items() if c < 0)
    pairs = {}
    if not negatives:
        raise SosCriterionInconclusive(pairs)
    hull = GeneralPolytope(P.support())
    for m in negatives:
        pair = hull.distinct_pair_witness(m)
        if pair is None:
            return NotSosWitness(
                monomial=m,
                coefficient=P.terms[m],
                half_lattice=tuple(hull.half_lattice_points()),
                generators=hull.generators,
            )
        pairs[m] = pair
    raise SosCriterionInconclusive(pairs)
