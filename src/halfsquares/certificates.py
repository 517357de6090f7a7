"""Non-negativity and non-SOS certification of exact polynomials.

Non-negativity certificates dominate every monomial that can go negative
(odd-exponent monomials of either sign and even ones with a negative
coefficient) through a weighted AM-GM inequality against even-exponent
monomials with positive coefficients.  The non-SOS side is the Newton
polytope criterion: a negative monomial that is not the sum of two
distinct lattice points of the half polytope cannot arise from a sum of
squares.  The criterion is sufficient only; when every negative monomial
admits such a pair the outcome is "inconclusive", never "SOS".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

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
    committed: dict = field(hash=False)


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
    return VerifiedCertificate(cert, tuple(risky), committed)


def _feasible_weights(points, m, magnitude, capacities):
    """Weights lambda >= 0 on ``points`` with sum 1, average m, and
    magnitude * lambda_i <= capacity_i.  Tries affinely independent
    subsets first, then one-parameter families over n+2 points."""
    n = len(m)
    target = list(m) + [1]

    def bounds_ok(subset, lam):
        return all(
            0 <= w and magnitude * w <= capacities[v] for v, w in zip(subset, lam)
        )

    for size in range(1, min(n + 1, len(points)) + 1):
        for subset in combinations(points, size):
            matrix = [[v[i] for v in subset] for i in range(n)]
            matrix.append([1] * size)
            lam = ratmat.solve_rectangular(matrix, target)
            if lam is not None and bounds_ok(subset, lam):
                return dict(zip(subset, lam))
    if len(points) >= n + 2:
        for subset in combinations(points, n + 2):
            matrix = [[v[i] for v in subset] for i in range(n)]
            matrix.append([1] * (n + 2))
            solved = ratmat.solve_underdetermined(matrix, target)
            if solved is None:
                continue
            particular, basis = solved
            if len(basis) != 1:
                continue
            direction = basis[0]
            lo, hi = None, None
            feasible = True
            for v, p, d in zip(subset, particular, direction):
                cap = capacities[v] / magnitude
                if d == 0:
                    if not (0 <= p <= cap):
                        feasible = False
                        break
                    continue
                t_at_zero = -p / d
                t_at_cap = (cap - p) / d
                lo_i, hi_i = sorted((t_at_zero, t_at_cap))
                lo = lo_i if lo is None else max(lo, lo_i)
                hi = hi_i if hi is None else min(hi, hi_i)
            if not feasible or (lo is not None and hi is not None and lo > hi):
                continue
            t = Fraction(0)
            if lo is not None:
                t = (lo + hi) / 2 if hi is not None else lo
            lam = [p + t * d for p, d in zip(particular, direction)]
            if bounds_ok(subset, lam):
                return dict(zip(subset, lam))
    return None


def discover_certificate(P: SparsePolynomial) -> AmgmCertificate:
    """Find AM-GM inequalities monomial by monomial, greedily.

    Complete for the single-negative-monomial case the generator pipeline
    relies on; with several risky monomials the capacities are consumed
    greedily in order of decreasing magnitude.
    """
    origin = tuple(0 for _ in range(P.nvars))
    remaining = _dominator_capacities(P)
    risky = risky_monomials(P)
    risky.sort(key=lambda m: (-abs(P.terms[m]), m))
    inequalities = []
    for m in risky:
        magnitude = abs(P.terms[m])
        points = sorted(v for v, cap in remaining.items() if cap > 0)
        weights = _feasible_weights(points, m, magnitude, remaining)
        if weights is None:
            raise CertificateError(
                f"no valid AM-GM certificate found for monomial {m}", m
            )
        shares = tuple(
            (v, lam) for v, lam in sorted(weights.items()) if v != origin and lam
        )
        origin_share = weights.get(origin, Fraction(0))
        inequalities.append(AmgmInequality(m, shares, origin_share))
        for v, lam in weights.items():
            remaining[v] = remaining[v] - magnitude * lam
    inequalities.sort(key=lambda q: q.target)
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


def _support_pair(P: SparsePolynomial, m: MultiIndex):
    """Distinct pair with both doubled halves in the support, if any.

    Cheap sufficient check: support points are trivially in the polytope.
    """
    support = set(P.support())
    doubled = tuple(2 * x for x in m)
    for a in sorted(support):
        if not _is_even(a):
            continue
        b = tuple(d - x for d, x in zip(doubled, a))
        if b == a or any(x < 0 for x in b):
            continue
        if b in support and _is_even(b):
            t1 = tuple(x // 2 for x in a)
            t2 = tuple(x // 2 for x in b)
            return (t1, t2) if t1 < t2 else (t2, t1)
    return None


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
        pair = _support_pair(P, m) or hull.distinct_pair_witness(m)
        if pair is None:
            return NotSosWitness(
                monomial=m,
                coefficient=P.terms[m],
                half_lattice=tuple(hull.half_lattice_points()),
                generators=hull.generators,
            )
        pairs[m] = pair
    raise SosCriterionInconclusive(pairs)
