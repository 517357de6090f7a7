"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line per criterion (run with
``pytest -s`` to see them live).  One sub-criterion is implemented
faithfully as stated even though the inputs it quotes are defective,
and is expected to fail; its docstring carries the analysis: criterion
1's "every single-negative table row passes both certifiers".  Five
catalog rows are provably broken (three are not even non-negative, with
exact rational counterexample points; two admit explicit distinct
half-polytope pairs, so the criterion itself cannot certify them).

Criterion 8's "first-derivative semi-norm stable within x1.5 under
refinement" is stated as faithfully and holds on every fixture; its
docstring says what it took for the two essentially-flat oscillatory
fixtures.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from halfsquares import multiindex as mi
from halfsquares import oddweights as ow
from halfsquares import ratmat
from halfsquares.certificates import (
    SosCriterionInconclusive,
    certify_nonnegative,
    certify_not_sos,
)
from halfsquares.checks import check_malgrange
from halfsquares.decompose import decompose, partial_decompose, square_count_bound, verify
from halfsquares.exactpoly import SparsePolynomial
from halfsquares.fixtures import FIXTURES, build_fixture
from halfsquares.generate import (
    construct_candidate,
    direct_search,
    emitted_certificate,
    make_instance,
    reproduce_table,
)
from halfsquares.holder import estimate_seminorm

from oracles import (
    SqrtExpression,
    compose_last,
    implicit_test_problem,
    poly_partial,
    random_polynomial,
)

LOG32 = math.log(2) / math.log(3)


def emit(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# -- criterion 1: table reproduction ---------------------------------------

def test_criterion_01_table_reproduction_named_rows():
    started = time.time()
    report = reproduce_table()
    elapsed = time.time() - started
    named = {(2, 6), (2, 8), (3, 4), (3, 8), (4, 4)}
    named_ok = all(row.ok for row in report.rows if (row.n, row.d) in named)
    ok = named_ok and elapsed <= 60.0
    emit(
        "1 (named rows)",
        ok,
        f"Motzkin/(2,8)/(3,4)/(3,8)/lifted (4,4) all pass, {elapsed:.1f}s <= 60s; "
        f"{sum(r.ok for r in report.rows)}/{len(report.rows)} rows pass overall",
    )
    assert named_ok
    assert elapsed <= 60.0


def test_criterion_01_every_single_negative_row_as_stated():
    """Faithful form of the criterion: both certifiers pass on every row.

    Five catalog rows are defective, demonstrated here with exact
    arithmetic before the criterion assertion runs:

    * (4,16) evaluates to -2519/15625 at (1, 6/5, 6/5, 1);
    * (4,18) is negative at (1, 1, 19/20, 1);
    * (4,20) is negative at (2^27, 2^-50, 2^30, 2^15) because its
      negative monomial lies outside the convex hull of its even
      support;
    * (2,12): (1,7) = (0,4) + (1,3) with both halves in (1/2)C, so the
      distinct-pair criterion is inconclusive on it;
    * (2,20): (1,5) = (0,2) + (1,3) likewise.
    """
    row_4_16 = SparsePolynomial(
        4, {(8, 0, 4, 4): 1, (8, 2, 2, 0): 1, (6, 6, 0, 0): 1, (0, 2, 2, 6): 1,
            (4, 2, 2, 2): -5, (0, 0, 0, 0): 1}
    )
    assert row_4_16.evaluate([1, Fraction(6, 5), Fraction(6, 5), 1]) == Fraction(-2519, 15625)
    row_4_18 = SparsePolynomial(
        4, {(8, 4, 0, 0): 1, (2, 4, 2, 2): 1, (4, 0, 8, 6): 1, (6, 0, 0, 2): 1,
            (4, 4, 4, 2): 1, (4, 2, 2, 2): -6, (0, 0, 0, 0): 1}
    )
    assert row_4_18.evaluate([1, 1, Fraction(19, 20), 1]) < 0
    row_4_20 = SparsePolynomial(
        4, {(10, 6, 0, 2): 1, (0, 6, 10, 0): 1, (0, 6, 6, 8): 1, (0, 6, 4, 0): 1,
            (2, 4, 4, 2): -1, (0, 0, 0, 0): 1}
    )
    point = [Fraction(2) ** 27, Fraction(2) ** -50, Fraction(2) ** 30, Fraction(2) ** 15]
    assert row_4_20.evaluate(point) < 0

    report = reproduce_table()
    failing = [(r.n, r.d, r.detail) for r in report.rows if not r.ok]
    emit(
        "1 (all rows, as stated)",
        report.ok,
        "all 26 rows pass" if report.ok else f"defective catalog rows: {failing}",
    )
    assert report.ok, (
        f"the example catalog contains defective rows (see test docstring): {failing}"
    )


# -- criterion 2: generator soundness ---------------------------------------

def test_criterion_02_generator_soundness():
    started = time.time()
    hits = []
    for (n, d) in ((2, 6), (2, 8), (3, 6), (3, 8)):
        hits.extend(direct_search(n, d, budget=20000, max_hits=60, seed=1))
        if len(hits) >= 100:
            break
    hits = hits[:100]
    assert len(hits) == 100
    rng = random.Random(2024)
    for inst in hits:
        single_zero = make_instance(inst.half_vertices, inst.target, single_zero_coeff=1)
        P = construct_candidate(single_zero)
        certify_nonnegative(P, emitted_certificate(single_zero))
        certify_not_sos(P)
        assert P.evaluate([1] * P.nvars) == 0
        for _ in range(10000):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(P.nvars)]
            assert P.evaluate(point) >= 0
    elapsed = time.time() - started
    ok = elapsed <= 300.0
    emit(
        "2",
        ok,
        f"100 search hits certified, zero at all-ones, >= 0 at 10^4 rational "
        f"points each (exact), {elapsed:.0f}s <= 300s",
    )
    assert ok


# -- criterion 3: negative control ------------------------------------------

def test_criterion_03_negative_control():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        g = random_polynomial(rng, n, 4, rng.randint(2, 7))
        square = g * g
        if square.is_zero():
            continue
        with pytest.raises(SosCriterionInconclusive):
            certify_not_sos(square)
        checked += 1
    emit("3", True, "certify_not_sos inconclusive on 200 random squares g^2 (exact)")


# -- criterion 4: odd-weight identities -------------------------------------

def test_criterion_04_odd_weight_identities():
    for ell in range(1, 21, 2):
        system = ow.solve(ell)
        for j in range(1, ell, 2):
            assert system.moment(j) == 0
        assert system.moment(ell) == 1
    for ell in range(1, 15, 2):
        nodes = ow.solve(ell).nodes
        linear_solve = ratmat.solve_rectangular(ow.moment_matrix(nodes), [0] * (len(nodes) - 1) + [1])
        assert ow.weights_for_nodes(nodes) == list(ow.solve(ell).weights) == linear_solve
    emit("4", True, "exact moment identities for odd ell <= 19; closed form == linear solve for ell <= 13")


# -- criterion 5: chain-rule fidelity ----------------------------------------

def _chain_case(rng):
    n = rng.randint(1, 3)
    g = random_polynomial(rng, n, 3, 4)
    f = random_polynomial(rng, n + 1, 3, 4)
    beta = tuple(rng.randint(0, 2) for _ in range(n))
    while not 1 <= mi.order(beta) <= 4:
        beta = tuple(rng.randint(0, 2) for _ in range(n))
    point = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    h = compose_last(f, g)
    expected = float(poly_partial(h, beta).evaluate(point))
    inner = list(point) + [g.evaluate(point)]
    got = 0.0
    for term in mi.chain_terms(beta):
        value = float(term.coefficient) * float(
            poly_partial(f, term.x_deriv + (term.inner_order,)).evaluate(inner)
        )
        for gamma in term.factors.expand():
            value *= float(poly_partial(g, gamma).evaluate(point))
        got += value
    return got, expected


def _sqrt_case(rng):
    n = rng.randint(1, 3)
    base = random_polynomial(rng, n, 2, 3)
    g = base * base + SparsePolynomial.constant(n, rng.randint(1, 3))
    beta = tuple(rng.randint(0, 2) for _ in range(n))
    while not 1 <= mi.order(beta) <= 4:
        beta = tuple(rng.randint(0, 2) for _ in range(n))
    point = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    expected = SqrtExpression(g).partial(beta).evaluate(point)
    gval = float(g.evaluate(point))
    got = 0.0
    for term in mi.sqrt_expansion(beta):
        value = float(term.coefficient) * gval ** float(term.power)
        for gamma in term.factors.expand():
            value *= float(poly_partial(g, gamma).evaluate(point))
        got += value
    return got, expected


def _leibniz_case(rng):
    n = rng.randint(1, 3)
    f = random_polynomial(rng, n, 3, 4)
    g = random_polynomial(rng, n, 3, 4)
    beta = tuple(rng.randint(0, 2) for _ in range(n))
    while not 1 <= mi.order(beta) <= 4:
        beta = tuple(rng.randint(0, 2) for _ in range(n))
    point = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    expected = float(poly_partial(f * g, beta).evaluate(point))
    got = sum(
        float(coeff)
        * float(poly_partial(f, gamma).evaluate(point))
        * float(poly_partial(g, rest).evaluate(point))
        for coeff, gamma, rest in mi.leibniz_expand(beta)
    )
    return got, expected


def _implicit_case(rng):
    n = rng.randint(1, 2)
    g = random_polynomial(rng, n, 3, 3)
    residual = random_polynomial(rng, n + 1, 1, 2, coeff_range=(-2, 2))
    G = implicit_test_problem(g, residual, shift=rng.randint(1, 3))
    x0 = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
    y0 = g.evaluate(x0)
    beta = tuple(rng.randint(0, 2) for _ in range(n))
    while not 1 <= mi.order(beta) <= 4:
        beta = tuple(rng.randint(0, 2) for _ in range(n))

    def g_partial(alpha, j):
        return poly_partial(G, tuple(alpha) + (j,)).evaluate(list(x0) + [y0])

    derivs = mi.implicit_derivatives(beta, g_partial)
    got = float(derivs[beta])
    expected = float(poly_partial(g, beta).evaluate(x0))
    return got, expected


def test_criterion_05_chain_rule_fidelity():
    rng = random.Random(55)
    cases = [_chain_case, _sqrt_case, _leibniz_case, _implicit_case]
    worst = 0.0
    for i in range(50):
        got, expected = cases[i % 4](rng)
        scale = max(abs(expected), 1e-9)
        rel = abs(got - expected) / scale
        worst = max(worst, rel)
        assert rel <= 1e-9
    emit("5", True, f"50 random compositions, worst relative error {worst:.2e} <= 1e-9")


# -- criterion 6: Hoelder estimator calibration ------------------------------

def test_criterion_06_seminorm_calibration():
    sqrt_abs = build_fixture("power_alpha", alpha=0.5, points=4001)
    est = estimate_seminorm(sqrt_abs, 0.5).value
    cantor = estimate_seminorm(build_fixture("cantor"), LOG32).value
    const = estimate_seminorm(build_fixture("constant"), 0.5).value
    ok = 0.95 <= est <= 1.05 and cantor <= 1.02 and const == 0.0
    emit(
        "6",
        ok,
        f"[sqrt|x|]_1/2 = {est:.6f} in [0.95, 1.05]; cantor at log3(2): "
        f"{cantor:.4f} <= 1.02; constant: {const}",
    )
    assert ok


# -- criterion 7: Malgrange checker ------------------------------------------

def test_criterion_07_malgrange():
    worst = 0.0
    for name, spec in FIXTURES.items():
        if not (spec.nonnegative and spec.c1alpha and spec.n == 1):
            continue
        for alpha in (0.5, 1.0):
            report = check_malgrange(build_fixture(name), alpha)
            assert report.constant == (alpha + 1) / alpha ** (alpha / (1 + alpha))
            worst = max(worst, report.max_ratio)
            assert report.max_ratio <= 1.05, (name, alpha, report.max_ratio)
    emit("7", True, f"ratio <= 1.05 on all C^(1,alpha) fixtures at alpha in {{0.5, 1}}; worst {worst:.4f}")


# -- criterion 8: one-dimensional decomposition -------------------------------

CASES_1D = (
    ("parabola", 2001),
    ("constant", 1001),
    ("bony", 4001),
    ("smooth_bump", 3001),
)

_decomp_cache = {}


def _decomposed(name, k, points):
    key = (name, k, points)
    if key not in _decomp_cache:
        f = build_fixture(name, points=points)
        started = time.time()
        d = decompose(f, k, 1.0)
        elapsed = time.time() - started
        _decomp_cache[key] = (f, d, verify(d, f), elapsed)
    return _decomp_cache[key]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name,points", CASES_1D)
def test_criterion_08_decomposition_core(name, points, k):
    f, d, rep, elapsed = _decomposed(name, k, points)
    ok = (
        rep.reconstruction_error <= 1e-6
        and rep.square_count <= 30
        and rep.partition_deviation <= 1e-10
        and rep.overlap_max <= 15
        and all(math.isfinite(s) for s in rep.derivative_seminorms)
        and elapsed <= 120.0
    )
    emit(
        f"8 ({name}, k={k})",
        ok,
        f"recon {rep.reconstruction_error:.1e} <= 1e-6, squares {rep.square_count} <= 30, "
        f"overlap {rep.overlap_max} <= 15, pou dev {rep.partition_deviation:.1e}, "
        f"[g']_{rep.half_exponent} finite, {elapsed:.0f}s <= 120s",
    )
    assert ok


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name,points", CASES_1D)
def test_criterion_08_seminorm_stability_as_stated(name, points, k):
    """Faithful form of the x1.5 refinement-stability clause.

    ``verify`` measures the semi-norms where the balls are at least three
    cells wide, so the clause holds only if the partition scale nu r is
    a length the grid resolves.  Two faults of the decomposition broke it
    for the two essentially-flat oscillatory fixtures:

    * the control field mixed derivative orders of raw f, so it was not
      a length: slow variation forced nu down to 1.5e-5 (bony) and 1e-3
      (smooth_bump), the largest balls were ~5 cells wide and the two
      grids measured sups over 5-7% of the domain, different each time
      (ratios 5.05 and 3.73 at k = 2; at k = 3 bony had no resolved
      region at 4001 points and smooth_bump read 5.56);
    * for k = 3, [g']_1 is about sup |psi''| sqrt(f), and the old
      exp(1 - 1/(1 - u^2)) cutoff concentrates its second derivative so
      tightly that a 10-20 cell ball read only 27-67% of it.

    Decomposing f / M (M the sampled C^(k,alpha) norm) keeps nu = 0.25
    with 70-95% of each grid resolved, and the degree-7 smoothstep
    cutoff is read to within 5% at 20 cells; the measured ratios are
    then 1.09 and 1.06 at k = 2, 1.43 and 1.28 at k = 3.
    """
    _, _, coarse, _ = _decomposed(name, k, points)
    _, _, fine, _ = _decomposed(name, k, 2 * points - 1)
    a = max(coarse.derivative_seminorms, default=0.0)
    b = max(fine.derivative_seminorms, default=0.0)
    if min(a, b) > 0:
        ratio = max(a, b) / min(a, b)
    else:
        ratio = 1.0 if max(a, b) == 0 else math.inf
    ok = ratio <= 1.5
    emit(
        f"8 stability ({name}, k={k})",
        ok,
        f"[g']_h {a:.4g} -> {b:.4g} under x2 refinement, ratio {ratio:.2f} "
        f"{'<=' if ok else '>'} 1.5",
    )
    assert ok, (
        f"semi-norm refinement ratio {ratio:.2f} > 1.5 for {name} (k={k}); "
        "the fixture's partition scale is below grid resolution (see docstring)"
    )


# -- criterion 9: two-dimensional smoke ---------------------------------------

@pytest.mark.parametrize("name", ["paraboloid", "radial_bump"])
def test_criterion_09_two_dimensional(name):
    f = build_fixture(name, points=201)
    started = time.time()
    d = decompose(f, 2, 1.0)
    rep = verify(d, f, seminorm_window=20 * f.spacing)
    elapsed = time.time() - started
    bound = square_count_bound(2)
    ok = (
        rep.reconstruction_error <= 1e-4
        and rep.overlap_max <= 225
        and rep.square_count <= bound
        and elapsed <= 300.0
    )
    emit(
        f"9 ({name})",
        ok,
        f"201^2 grid: recon {rep.reconstruction_error:.1e} <= 1e-4, overlap "
        f"{rep.overlap_max} <= 225, squares {rep.square_count} <= {bound}, {elapsed:.0f}s <= 300s",
    )
    assert ok


# -- criterion 10: partial decomposition --------------------------------------

@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_criterion_10_partial_decomposition(eps):
    f = build_fixture("bony", points=4001)
    result = partial_decompose(f, 3, 1.0, eps)
    h = result.residual
    mask = result.verified_mask()
    gap = float(np.max(np.abs(result.reconstruction() - f.values)[mask]))
    ok = float(h.min()) >= 0.0 and float(h.max()) <= eps and gap <= 1e-8
    emit(
        f"10 (eps={eps:g})",
        ok,
        f"0 <= h <= {eps:g} pointwise (max {h.max():.2e}), square sum matches "
        f"f - h within {gap:.1e} <= 1e-8",
    )
    assert ok
