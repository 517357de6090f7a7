"""Construction of non-negative polynomials that are not sums of squares.

A generator instance is a simplex of half-vertices q_1..q_n (the support
of the candidate's positive part is {2q_j} plus the constant) together
with an interior lattice point m of the full polytope conv{0, 2q_1, ...,
2q_n} serving as the negative monomial.  The barycentric weights of m
make the candidate non-negative by AM-GM, and the half-polytope pair
criterion certifies it is not a sum of squares.  Optional single-zero
terms c*(x^(2q_j) + 1 - 2 x^(q_j)) pin the only zero at the all-ones
point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import ratmat
from .certificates import (
    AmgmCertificate,
    AmgmInequality,
    CertificateError,
    NotSosWitness,
    SosCriterionInconclusive,
    certify_nonnegative,
    certify_not_sos,
)
from .errors import InputError
from .exactpoly import SparsePolynomial
from .multiindex import MultiIndex, order
from .polytope import SimplexPolytope, _box

# direct_search takes the vertex tuples in lex order up to this many, else seeded
EXHAUSTIVE_LIMIT = 5000


@dataclass(frozen=True)
class GeneratorInstance:
    """Half-vertices, negative-monomial exponent and its exact weights."""

    half_vertices: tuple[MultiIndex, ...]
    target: MultiIndex  # exponent of the negative monomial, interior lattice point
    weights: tuple[Fraction, ...]  # barycentric weights of target, all > 0
    origin_weight: Fraction  # 1 - sum(weights), > 0
    scale: int  # least common denominator: scale * weights are integers
    single_zero_coeff: int = 0

    @property
    def nvars(self) -> int:
        return len(self.target)


def make_instance(half_vertices, target, single_zero_coeff=0) -> GeneratorInstance:
    """Build an instance, checking strict interiority of the target exactly."""
    qs = tuple(tuple(int(x) for x in q) for q in half_vertices)
    target = tuple(int(x) for x in target)
    simplex = SimplexPolytope([tuple(2 * x for x in q) for q in qs])
    bary = simplex.barycentric(target)
    if any(w <= 0 for w in bary.weights):
        raise ValueError(
            f"target {target} is not strictly interior to the full polytope"
        )
    weights = bary.weights[:-1]
    origin_weight = bary.weights[-1]
    scale = math.lcm(*(w.denominator for w in bary.weights))
    if single_zero_coeff < 0:
        raise ValueError("single-zero coefficient must be non-negative")
    return GeneratorInstance(qs, target, weights, origin_weight, scale, single_zero_coeff)


def construct_candidate(inst: GeneratorInstance) -> SparsePolynomial:
    """scale * (sum lambda_j x^(2q_j) + lambda_0 - x^target) plus the
    single-zero terms c * (x^(2q_j) + 1 - 2 x^(q_j))."""
    n = inst.nvars
    origin = tuple(0 for _ in range(n))
    terms: dict[MultiIndex, Fraction] = {}

    def bump(exp, value):
        terms[exp] = terms.get(exp, Fraction(0)) + value

    for q, lam in zip(inst.half_vertices, inst.weights):
        bump(tuple(2 * x for x in q), inst.scale * lam)
    bump(origin, inst.scale * inst.origin_weight)
    bump(inst.target, Fraction(-inst.scale))
    c = inst.single_zero_coeff
    if c:
        for q in inst.half_vertices:
            bump(tuple(2 * x for x in q), Fraction(c))
            bump(origin, Fraction(c))
            bump(q, Fraction(-2 * c))
    P = SparsePolynomial(n, terms)
    if any(v.denominator != 1 for v in P.terms.values()):
        raise AssertionError("scaling failed to clear denominators")
    return P


def emitted_certificate(inst: GeneratorInstance) -> AmgmCertificate:
    """The certificate the construction itself guarantees.

    The main inequality reuses the barycentric weights of the target; each
    single-zero monomial q_j is dominated half by x^(2q_j) and half by the
    constant.
    """
    inequalities = [
        AmgmInequality(
            target=inst.target,
            shares=tuple(
                sorted(
                    (tuple(2 * x for x in q), lam)
                    for q, lam in zip(inst.half_vertices, inst.weights)
                )
            ),
            origin_share=inst.origin_weight,
        )
    ]
    if inst.single_zero_coeff:
        half = Fraction(1, 2)
        for q in inst.half_vertices:
            inequalities.append(
                AmgmInequality(
                    target=q,
                    shares=((tuple(2 * x for x in q), half),),
                    origin_share=half,
                )
            )
    inequalities.sort(key=lambda q: q.target)
    return AmgmCertificate(tuple(inequalities))


def _half_vertex_tuples(n: int, d: int):
    """(points, rows): the nonzero lattice points with |q|_1 <= d/2, and
    the index rows (K, n) of every unordered, linearly independent tuple
    of them with at least one point attaining d/2, in lex order.
    Combinations stream in chunks, each filtered by array masks."""
    bound = d // 2
    points = [p for p in product(range(bound + 1), repeat=n) if 0 < order(p) <= bound]
    coords = np.array(points, dtype=np.int64).reshape(-1, n)
    orders = coords.sum(axis=1)
    rows = [np.empty((0, n), dtype=np.intp)]
    for chunk in ratmat.combination_chunks(len(points), n):
        chunk = chunk[orders[chunk].max(axis=1) == bound]
        # rows q_j: the transpose of the column matrix, same determinant
        rows.append(chunk[ratmat.det_stack(coords[chunk]) != 0])
    return points, np.concatenate(rows)


def _seeded_order(count: int, seed: int):
    """A seeded random permutation of range(count), drawn one item at a
    time: a forward Fisher-Yates shuffle that keeps only the slots it has
    moved, so b draws cost O(b) whatever the count."""
    rng = random.Random(seed)
    moved = {}
    for i in range(count):
        j = rng.randrange(i, count)
        yield moved.get(j, j)
        moved[j] = moved.get(i, i)


def _interior_targets(qs):
    """Lattice points strictly interior to conv{0, 2q_j} and outside the
    half polytope (otherwise (0, m) is already a distinct pair), lex-sorted.

    The weights of m are U / D with U = adj m and D = |det| (see
    ``SimplexPolytope``): all positive is U > 0 and sum U < D, outside the
    half polytope is 2 sum U > D.
    """
    n = len(qs[0])
    simplex = SimplexPolytope([tuple(2 * x for x in q) for q in qs])
    hi = tuple(max(2 * q[i] for q in qs) for i in range(n))
    adjugate = np.array(simplex.adjugate, dtype=np.int64).T
    D = simplex.absdet
    targets = []
    for slab in _box((0,) * n, hi):
        # |U| <= n max(hi) max|adj|, far inside int64 for any box small enough to scan
        U = slab @ adjugate
        total = U.sum(axis=1)
        keep = (U > 0).all(axis=1) & (total < D) & (2 * total > D)
        targets += map(tuple, slab[keep].tolist())
    return targets


def direct_search(
    n: int,
    d: int,
    budget: int = 10000,
    seed: int = 0,
    single_zero_coeff: int = 0,
    max_hits: int | None = None,
) -> list[GeneratorInstance]:
    """Scan vertex tuples and interior targets for verified instances.

    Deterministic for a fixed seed: tuples are enumerated exhaustively in
    lex order when there are at most EXHAUSTIVE_LIMIT of them, else
    drawn one at a time in a seeded random order (``_seeded_order``: the
    same for a fixed seed, though not ``random.shuffle``'s permutation).
    Either way a tuple is built only when its turn comes.  ``budget``
    counts (vertex-tuple, target) pairs examined.  Raises InputError for
    n < 2, an odd d or d < 4, a negative budget, a negative
    ``single_zero_coeff`` or ``max_hits`` below 1.
    """
    if n < 2 or d < 4 or d % 2:
        raise InputError("need n >= 2 and even d >= 4")
    if budget < 0 or (max_hits is not None and max_hits < 1):
        raise InputError("need budget >= 0 and max_hits >= 1")
    if single_zero_coeff < 0:
        raise InputError("single-zero coefficient must be non-negative")
    points, rows = _half_vertex_tuples(n, d)
    count = len(rows)
    hits = []
    examined = 0
    for k in range(count) if count <= EXHAUSTIVE_LIMIT else _seeded_order(count, seed):
        if examined >= budget:
            break
        qs = tuple(points[i] for i in rows[k])
        for m in _interior_targets(qs):
            if examined >= budget:
                break
            examined += 1
            inst = make_instance(qs, m, single_zero_coeff)
            P = construct_candidate(inst)
            try:
                certify_nonnegative(P, emitted_certificate(inst))
                certify_not_sos(P)
            except (CertificateError, SosCriterionInconclusive):
                continue
            hits.append(inst)
            if max_hits is not None and len(hits) >= max_hits:
                return hits
    return hits


@dataclass(frozen=True)
class LiftResult:
    """A homogenization lift with its certificate and consistency check."""

    polynomial: SparsePolynomial
    certificate: AmgmCertificate
    dehomogenized_witness: NotSosWitness
    direct_witness: NotSosWitness | None


def homogenize_lift(P: SparsePolynomial) -> LiftResult:
    """Lift a certified non-SOS polynomial to n+1 variables, same degree.

    Homogenize, then append the origin to the support by adding
    x^(2q') + 1 - 2 x^(q') for the lifted constant vertex 2q' =
    (0, ..., 0, d).  Non-negativity is certified directly; the non-SOS
    property is inherited through dehomogenization, which is re-checked
    exactly (substituting 1 for the new variable recovers P).
    """
    certify_nonnegative(P)
    d = P.degree()
    constant = tuple(0 for _ in range(P.nvars))
    if P.terms.get(constant, Fraction(0)) <= 0:
        raise ValueError("lift expects a positive constant term")
    hP = P.homogenize()
    n1 = hP.nvars
    qprime = tuple(0 for _ in range(n1 - 1)) + (d // 2,)
    top = tuple(0 for _ in range(n1 - 1)) + (d,)
    lifted = hP + SparsePolynomial(
        n1, {top: Fraction(1), tuple(0 for _ in range(n1)): Fraction(1), qprime: Fraction(-2)}
    )
    recovered = lifted.dehomogenize()
    if recovered != P:
        raise AssertionError("dehomogenization does not recover the input")
    dehom_witness = certify_not_sos(recovered)  # raises if P itself is uncertified
    certificate = certify_nonnegative(lifted).certificate
    try:
        direct = certify_not_sos(lifted)
    except SosCriterionInconclusive:
        direct = None
    return LiftResult(lifted, certificate, dehom_witness, direct)


def degree_lift(inst: GeneratorInstance, offsets, s: int) -> GeneratorInstance:
    """Lift an instance to n+1 variables with even offsets r_0..r_n and s.

    New half-vertices (q_j, r_j/2) plus (0, ..., 0, r_0/2), new target
    (m, s); fails if the lifted target is not strictly interior.
    """
    offsets = [int(r) for r in offsets]
    if len(offsets) != inst.nvars + 1:
        raise ValueError("need n+1 offsets r_0..r_n")
    if any(r < 0 or r % 2 for r in offsets) or s < 0 or s % 2:
        raise ValueError("offsets and s must be non-negative even integers")
    r0, rest = offsets[0], offsets[1:]
    new_vertices = tuple(
        q + (r // 2,) for q, r in zip(inst.half_vertices, rest)
    ) + ((tuple(0 for _ in range(inst.nvars)) + (r0 // 2,)),)
    new_target = inst.target + (s,)
    try:
        lifted = make_instance(new_vertices, new_target, inst.single_zero_coeff)
    except ValueError as err:
        raise ValueError(
            f"lifted target {new_target} is not interior; choose different offsets"
        ) from err
    P = construct_candidate(lifted)
    certify_nonnegative(P, emitted_certificate(lifted))
    certify_not_sos(P)
    return lifted


# ---------------------------------------------------------------------------
# Catalog of example polynomials (n <= 4, d <= 20), kept verbatim.
# ---------------------------------------------------------------------------

MOTZKIN = SparsePolynomial(
    2, {(4, 2): 1, (2, 4): 1, (2, 2): -3, (0, 0): 1}
)

CHOI_LAM = SparsePolynomial(
    3, {(2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 1): -4, (0, 0, 0): 1}
)

LIFTED_44 = "homogenization lift of the (3, 4) row"

TABLE_ROWS: tuple[tuple[int, int, dict | str], ...] = (
    (2, 6, {(4, 2): 1, (2, 4): 1, (2, 2): -3, (0, 0): 1}),
    (2, 8, {(6, 2): 1, (2, 4): 2, (2, 2): -5, (0, 0): 2}),
    (2, 10, {(4, 6): 1, (2, 6): 1, (2, 4): -3, (0, 0): 1}),
    (2, 12, {(8, 4): 2, (0, 8): 13, (1, 7): -16, (0, 0): 1}),
    (2, 14, {(4, 10): 1, (2, 2): 1, (2, 4): -3, (0, 0): 1}),
    (2, 16, {(6, 10): 1, (0, 2): 1, (2, 4): -3, (0, 0): 1}),
    (2, 18, {(14, 4): 1, (4, 2): 1, (6, 2): -3, (0, 0): 1}),
    (2, 20, {(10, 10): 3, (0, 6): 20, (1, 5): -30, (0, 0): 7}),
    (3, 4, {(2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 1): -4, (0, 0, 0): 1}),
    (3, 6, {(4, 0, 2): 1, (2, 0, 4): 4, (0, 4, 2): 3, (1, 1, 2): -12, (0, 0, 0): 4}),
    (3, 8, {(2, 2, 4): 1, (2, 4, 2): 1, (4, 2, 2): 1, (2, 2, 2): -4, (0, 0, 0): 1}),
    (3, 10, {(2, 2, 6): 1, (4, 2, 2): 1, (2, 4, 0): 1, (2, 2, 2): -4, (0, 0, 0): 1}),
    (3, 12, {(4, 2, 6): 1, (4, 4, 2): 1, (0, 2, 0): 1, (2, 2, 2): -4, (0, 0, 0): 1}),
    (3, 14, {(4, 4, 6): 1, (6, 2, 0): 1, (6, 2, 2): 1, (4, 2, 2): -4, (0, 0, 0): 1}),
    (3, 16, {(8, 6, 2): 1, (0, 2, 0): 1, (0, 0, 6): 1, (2, 2, 2): -4, (0, 0, 0): 1}),
    (3, 18, {(6, 8, 4): 1, (0, 0, 6): 1, (2, 0, 6): 1, (2, 2, 4): -4, (0, 0, 0): 1}),
    (3, 20, {(14, 2, 4): 1, (2, 0, 2): 1, (0, 6, 2): 1, (4, 2, 2): -4, (0, 0, 0): 1}),
    (4, 4, LIFTED_44),
    (
        4, 6,
        {(2, 0, 2, 2): 3, (0, 2, 4, 0): 1, (0, 2, 0, 2): 2, (2, 2, 0, 0): 2,
         (1, 1, 1, 1): -10, (0, 0, 0, 0): 2},
    ),
    (
        4, 8,
        {(2, 2, 4, 0): 1, (0, 4, 4, 0): 1, (2, 2, 0, 4): 1, (2, 0, 4, 2): 2,
         (1, 1, 2, 1): -8, (0, 0, 0, 0): 3},
    ),
    (
        4, 10,
        {(6, 2, 2, 0): 1, (2, 0, 0, 8): 1, (0, 8, 0, 2): 1, (2, 0, 8, 0): 1,
         (2, 2, 2, 2): -5, (0, 0, 0, 0): 1},
    ),
    (
        4, 12,
        {(6, 4, 0, 2): 1, (6, 4, 0, 0): 1, (0, 0, 6, 6): 1, (0, 4, 4, 0): 1,
         (0, 0, 2, 4): 1, (2, 2, 2, 2): -5, (0, 0, 0, 0): 1},
    ),
    (
        4, 14,
        {(2, 6, 4, 2): 1, (4, 0, 4, 4): 1, (4, 4, 0, 2): 1, (0, 0, 2, 2): 1,
         (2, 2, 2, 2): -5, (0, 0, 0, 0): 1},
    ),
    (
        4, 16,
        # catalogued as x^8z^4w^4 + x^8y^2z^2 + x^4y^6x^2 + y^2z^2w^6 - 5x^4y^2z^2w^2 + 1;
        # the repeated x factor is kept verbatim as x^6y^6
        {(8, 0, 4, 4): 1, (8, 2, 2, 0): 1, (6, 6, 0, 0): 1, (0, 2, 2, 6): 1,
         (4, 2, 2, 2): -5, (0, 0, 0, 0): 1},
    ),
    (
        4, 18,
        {(8, 4, 0, 0): 1, (2, 4, 2, 2): 1, (4, 0, 8, 6): 1, (6, 0, 0, 2): 1,
         (4, 4, 4, 2): 1, (4, 2, 2, 2): -6, (0, 0, 0, 0): 1},
    ),
    (
        4, 20,
        {(10, 6, 0, 2): 1, (0, 6, 10, 0): 1, (0, 6, 6, 8): 1, (0, 6, 4, 0): 1,
         (2, 4, 4, 2): -1, (0, 0, 0, 0): 1},
    ),
)


@dataclass
class TableRowResult:
    n: int
    d: int
    polynomial: SparsePolynomial | None
    nonnegative: bool
    not_sos: bool
    detail: str

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.not_sos


@dataclass
class TableReport:
    rows: list[TableRowResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "n": r.n,
                    "d": r.d,
                    "polynomial": str(r.polynomial) if r.polynomial is not None else None,
                    "nonnegative": r.nonnegative,
                    "not_sos": r.not_sos,
                    "detail": r.detail,
                    "ok": r.ok,
                }
                for r in self.rows
            ],
            "ok": self.ok,
        }


def _verify_row(P: SparsePolynomial) -> tuple[bool, bool, str]:
    notes = []
    try:
        certify_nonnegative(P)
        nonneg = True
    except CertificateError as err:
        nonneg = False
        notes.append(f"nonnegativity: {err}")
    try:
        witness = certify_not_sos(P)
        not_sos = True
        notes.append(f"witness monomial {witness.monomial}")
    except SosCriterionInconclusive as err:
        not_sos = False
        first = sorted(err.pairs.items())[0] if err.pairs else None
        notes.append(
            "not-SOS criterion inconclusive"
            + (f": {first[0]} = {first[1][0]} + {first[1][1]}" if first else "")
        )
    return nonneg, not_sos, "; ".join(notes)


def reproduce_table(rows: list[tuple[int, int]] | None = None) -> TableReport:
    """Run both certifiers on every catalog row.

    The (4, 4) entry has no direct example; it is produced by the
    homogenization lift of the (3, 4) row and counted as passing when the
    lift is certified non-negative and its dehomogenization is certified
    non-SOS.  Rows whose catalogued polynomial fails a certifier are
    reported as failing with the exact reason.  Raises InputError for a
    requested (n, d) that is not in the catalog.
    """
    catalog = {(n, d) for n, d, _ in TABLE_ROWS}
    unknown = [f"{n}x{d}" for n, d in rows or () if (n, d) not in catalog]
    if unknown:
        raise InputError(f"rows not in the catalog: {','.join(unknown)}")
    results = []
    for n, d, data in TABLE_ROWS:
        if rows is not None and (n, d) not in rows:
            continue
        if data == LIFTED_44:
            try:
                lift = homogenize_lift(CHOI_LAM)
                detail = "lift of the (3,4) row; non-SOS via dehomogenization"
                if lift.direct_witness is not None:
                    detail += f"; direct witness {lift.direct_witness.monomial}"
                results.append(TableRowResult(n, d, lift.polynomial, True, True, detail))
            except (CertificateError, SosCriterionInconclusive, ValueError) as err:
                results.append(TableRowResult(n, d, None, False, False, str(err)))
            continue
        P = SparsePolynomial(n, data)
        nonneg, not_sos, detail = _verify_row(P)
        results.append(TableRowResult(n, d, P, nonneg, not_sos, detail))
    return TableReport(results)
