"""Independent oracles for the tests.

The derivative oracles differentiate explicit polynomial expressions by
repeated single-variable differentiation, never through the term-list
formulas under test.  The exact-arithmetic oracles are the plain
algorithms the fast paths replaced: Fraction evaluation term by term,
hull membership by a Caratheodory scan over generator subsets, the
lattice and pair-witness scans one membership query per box point, facets by
one Fraction kernel solve per generator subset, the matrix inverse by
Fraction Gauss-Jordan, AM-GM certificates by the greedy subset search
the exact LP replaced, non-negative solutions by every basic solution,
the direct search's tuple and target loops, one
determinant or one Fraction barycentric solve per candidate, and the
search itself with every tuple built and shuffled before the first visit.  The
numerical oracles are likewise the plain scans the decomposition replaced:
ball coloring over all earlier balls, fiber minima over the whole domain
diagonal, the windowed fiber search one ball at a time with a scalar
descent, its parabola and the two fiber splines one ball at a time in
Python floats, the windowed fiber search one block at a time (whose
descent is the program's ``_descend`` over a padded table), the cover
layer ball by ball (greedy scan over a grid mask, the 1D scalar scan over
covered runs, one window of bumps,
overlap counts by distance and k-d tree query per ball), one
Hoelder pair scan per semi-norm, the row-order pair loops of the slow
variation, omega, Malgrange and 2D pointwise scans over offsets of their
own, the nu search walking slow variation and calibrating omega at every
nu, and the decomposition with a nu loop of
its own for each entry point and the branch squares written out where
each path builds them (grid balls, partial squares, re-evaluation at
arbitrary points), recursing on every 2D fiber curve, zero or not.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from halfsquares import generate, ratmat
from halfsquares.certificates import (
    AmgmCertificate,
    AmgmInequality,
    CertificateError,
    _dominator_capacities,
    risky_monomials,
)
from halfsquares.cover import Cover, CoverBall, PartitionOfUnity, WindowTable, bump
from scipy.interpolate import CubicSpline, RectBivariateSpline

from halfsquares.decompose import (
    NU_FLOOR,
    NU_START,
    Decomposition,
    DecompositionError,
    _NuTooLarge,
    _descend,
    _parabolic_min,
    _normalized,
    _omega_calibration,
    _rescaled,
)
from halfsquares.cover import build_cover, partition_functions
from halfsquares.finitediff import fd_noise, nabla_norm, partial as fd_partial
from halfsquares.holder import _REACH_SLACK, SampledFunction, check_slow_variation, control_field
from halfsquares.exactpoly import SparsePolynomial
from halfsquares.multiindex import order


def fraction_evaluate(P: SparsePolynomial, point) -> Fraction:
    """P at a rational point, in Fraction arithmetic term by term."""
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for exp, coeff in P.terms.items():
        val = coeff
        for x, e in zip(point, exp):
            val *= x**e
        total += val
    return total


def caratheodory_member(generators, point) -> bool:
    """Exact test point in conv(generators) by Caratheodory's theorem.

    The point is in the hull exactly when it is a convex combination of
    at most n+1 affinely independent generators, so every subset of size
    <= n+1 is tried with one exact solve of the affine system.
    """
    gens = sorted({tuple(int(x) for x in g) for g in generators})
    point = [Fraction(x) for x in point]
    n = len(point)
    for i in range(n):
        if not min(g[i] for g in gens) <= point[i] <= max(g[i] for g in gens):
            return False
    for size in range(1, n + 2):
        for subset in combinations(gens, size):
            # sum lambda_i s_i = point, sum lambda_i = 1
            matrix = [[s[i] for s in subset] for i in range(n)] + [[1] * size]
            lam = ratmat.solve_rectangular(matrix, point + [1])
            if lam is not None and all(w >= 0 for w in lam):
                return True
    return False


def _lattice_box(generators, scale):
    """Corners of the box of integer t with scale * t in the generators' bounding box."""
    n = len(generators[0])
    lo = tuple(-(-min(g[i] for g in generators) // scale) for i in range(n))
    hi = tuple(max(g[i] for g in generators) // scale for i in range(n))
    return lo, hi


def scan_lattice(member, generators, scale=1):
    """Integer t of the hull's box with scale * t in the hull, lex-sorted,
    asking ``member`` about one box point at a time."""
    lo, hi = _lattice_box(generators, scale)
    box = product(*(range(l, h + 1) for l, h in zip(lo, hi)))
    return [t for t in box if member(tuple(scale * x for x in t))]


def scan_pair_witness(member, generators, m):
    """``GeneralPolytope.distinct_pair_witness`` as a per-point scan.

    Scans the half box in lex order, asking ``member`` about 2t, and
    returns the first pair met.  A pair is met at its lesser point t1,
    with t2 ahead of the scan, and stops the scan; a t2 found outside the
    half polytope is not asked about again when the scan reaches it.
    """
    m = tuple(int(x) for x in m)
    lo, hi = _lattice_box(generators, 2)
    outside = set()
    for t1 in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if t1 in outside or not member(tuple(2 * x for x in t1)):
            continue
        t2 = tuple(a - b for a, b in zip(m, t1))
        if t2 > t1 and all(l <= x <= h for l, x, h in zip(lo, t2, hi)):
            if member(tuple(2 * x for x in t2)):
                return t1, t2
            outside.add(t2)
    return None


def _primitive_kernel(rows, n):
    """Primitive integer basis of {x in Q^n : r.x = 0 for every row r}."""
    basis = ratmat.solve_underdetermined(rows or [[0] * n], [0] * max(len(rows), 1))[1]
    out = []
    for vec in basis:
        den = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = math.gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return out


def _dot(a, p):
    return sum(x * y for x, y in zip(a, p))


def subset_facets(generators):
    """(equalities, facets) of ``GeneralPolytope`` by one exact solve per subset.

    The equalities are the primitive kernel of the generators' differences
    from the first.  For every subset of dim generators (dim the hull's
    dimension) the kernel of its differences and the equality normals is
    solved in Fractions; when it is one-dimensional its primitive vector a
    with b = a.s0 is a facet if a.x <= b or -a.x <= -b holds on every
    generator.
    """
    pts = sorted({tuple(int(x) for x in g) for g in generators})
    n, p0 = len(pts[0]), pts[0]
    normals = _primitive_kernel([[a - b for a, b in zip(p, p0)] for p in pts[1:]], n)
    equalities = tuple((a, _dot(a, p0)) for a in normals)
    dim = n - len(normals)
    found = set()
    for subset in combinations(pts, dim) if dim else ():
        s0 = subset[0]
        kernel = _primitive_kernel(
            [[a - b for a, b in zip(s, s0)] for s in subset[1:]] + [list(a) for a in normals], n
        )
        if len(kernel) != 1:
            continue
        (a,) = kernel
        b = _dot(a, s0)
        values = [_dot(a, g) for g in pts]
        if max(values) == b:
            found.add((a, b))
        elif min(values) == b:
            found.add((tuple(-x for x in a), -b))
    return equalities, tuple(sorted(found))


def loop_half_vertex_tuples(n: int, d: int):
    """The tuples of ``generate._half_vertex_tuples``'s index rows, by one
    exact determinant per combination."""
    bound = d // 2
    points = [p for p in product(range(bound + 1), repeat=n) if 0 < order(p) <= bound]
    tuples = []
    for combo in combinations(points, n):
        if max(order(q) for q in combo) != bound:
            continue
        matrix = [[combo[j][i] for j in range(n)] for i in range(n)]
        if ratmat.det(matrix) == 0:
            continue
        tuples.append(combo)
    return tuples


def fraction_interior_targets(qs):
    """``generate._interior_targets`` by Fraction barycentric weights.

    The weights solve Q lambda = m for the columns 2q_j of Q exactly,
    with ``ratmat.solve_rectangular``; m is kept when every weight and
    1 - sum(weights) is positive and the weights sum past 1/2.
    """
    n = len(qs[0])
    matrix = [[2 * q[i] for q in qs] for i in range(n)]
    hi = tuple(max(2 * q[i] for q in qs) for i in range(n))
    out = []
    for m in product(*(range(h + 1) for h in hi)):
        if order(m) == 0:
            continue
        lam = ratmat.solve_rectangular(matrix, list(m))
        if any(w <= 0 for w in lam) or sum(lam) >= 1:
            continue
        if sum(lam) <= Fraction(1, 2):
            continue
        out.append(m)
    return out


def inverse(matrix) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix by Fraction Gauss-Jordan; None if singular."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        found = next((i for i in range(col, n) if rows[i][col]), None)
        if found is None:
            return None
        rows[col], rows[found] = rows[found], rows[col]
        top = [x / rows[col][col] for x in rows[col]]
        rows[col] = top
        for i in range(n):
            if i != col and rows[i][col]:
                a = rows[i][col]
                rows[i] = [x - a * y for x, y in zip(rows[i], top)]
    return [row[n:] for row in rows]


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


def greedy_discover_certificate(P: SparsePolynomial) -> AmgmCertificate:
    """``certificates.discover_certificate`` as the greedy subset search.

    Risky monomials in order of decreasing |c|, then lex, each take AM-GM
    weights from what their predecessors left of the capacities: first on
    affinely independent dominator subsets of size <= n+1, then on
    one-parameter families over n+2 of them.  It can miss certificates
    that exist, never report one that does not.
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


def basic_nonnegative_solution_exists(matrix, rhs) -> bool:
    """Whether matrix x = rhs has a solution x >= 0, by its basic solutions.

    A feasible system has a basic feasible solution (the fundamental
    theorem of linear programming): x >= 0 supported on linearly
    independent columns.  Every column subset, the empty one included, is
    solved exactly with ``ratmat.solve_underdetermined``.
    """
    k = len(matrix[0]) if matrix else 0
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            columns = [[row[j] for j in subset] for row in matrix]
            solved = ratmat.solve_underdetermined(columns, rhs)
            if solved is not None and not solved[1] and all(x >= 0 for x in solved[0]):
                return True
    return False


def shuffled_direct_search(
    n, d, budget=10000, seed=0, single_zero_coeff=0, max_hits=None, exhaustive_limit=5000
):
    """``generate.direct_search`` as it was with every tuple built up front:
    the determinant loop's list, in lex order up to ``exhaustive_limit``
    tuples and else ``random.shuffle``d by ``random.Random(seed)``."""
    tuples = loop_half_vertex_tuples(n, d)
    if len(tuples) > exhaustive_limit:
        rng = random.Random(seed)
        rng.shuffle(tuples)
    hits = []
    examined = 0
    for qs in tuples:
        if examined >= budget:
            break
        for m in generate._interior_targets(qs):
            if examined >= budget:
                break
            examined += 1
            try:
                inst = generate.make_instance(qs, m, single_zero_coeff)
            except ValueError:
                continue
            P = generate.construct_candidate(inst)
            try:
                generate.certify_nonnegative(P, generate.emitted_certificate(inst))
                generate.certify_not_sos(P)
            except (generate.CertificateError, generate.SosCriterionInconclusive):
                continue
            hits.append(inst)
            if max_hits is not None and len(hits) >= max_hits:
                return hits
    return hits


def poly_derivative(P: SparsePolynomial, axis: int) -> SparsePolynomial:
    terms = {}
    for exp, coeff in P.terms.items():
        if exp[axis] == 0:
            continue
        new = list(exp)
        new[axis] -= 1
        terms[tuple(new)] = terms.get(tuple(new), Fraction(0)) + coeff * exp[axis]
    return SparsePolynomial(P.nvars, terms)


def poly_partial(P: SparsePolynomial, beta) -> SparsePolynomial:
    out = P
    for axis, count in enumerate(beta):
        for _ in range(count):
            out = poly_derivative(out, axis)
    return out


def compose_last(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    """h(x) = f(x, g(x)): substitute g for the last variable of f."""
    if f.nvars != g.nvars + 1:
        raise ValueError("f must have one more variable than g")
    h = SparsePolynomial.zero(g.nvars)
    powers = {0: SparsePolynomial.constant(g.nvars, 1)}

    def g_power(k):
        if k not in powers:
            powers[k] = g_power(k - 1) * g
        return powers[k]

    for exp, coeff in f.terms.items():
        base = SparsePolynomial.monomial(exp[:-1], coeff)
        h = h + base * g_power(exp[-1])
    return h


class SqrtExpression:
    """Sum of P_s(x) * g(x)^s terms, closed under differentiation.

    Starting from g^(1/2) and differentiating repeatedly gives the exact
    symbolic derivatives of sqrt(g) for polynomial g.
    """

    def __init__(self, g: SparsePolynomial, terms=None):
        self.g = g
        if terms is None:
            terms = {Fraction(1, 2): SparsePolynomial.constant(g.nvars, 1)}
        self.terms = terms

    def differentiate(self, axis: int) -> "SqrtExpression":
        gprime = poly_derivative(self.g, axis)
        out: dict[Fraction, SparsePolynomial] = {}

        def add(power, poly):
            if poly.is_zero():
                return
            if power in out:
                out[power] = out[power] + poly
            else:
                out[power] = poly

        for power, poly in self.terms.items():
            add(power, poly_derivative(poly, axis))
            add(power - 1, poly.scale(power) * gprime)
        return SqrtExpression(self.g, out)

    def partial(self, beta) -> "SqrtExpression":
        out = self
        for axis, count in enumerate(beta):
            for _ in range(count):
                out = out.differentiate(axis)
        return out

    def evaluate(self, point) -> float:
        gval = float(self.g.evaluate(point))
        total = 0.0
        for power, poly in self.terms.items():
            total += float(poly.evaluate(point)) * gval ** float(power)
        return total


def implicit_test_problem(g: SparsePolynomial, residual: SparsePolynomial, shift: int = 1):
    """G(x, y) = (y - g(x)) * (shift + residual(x, y)^2), solved by y = g(x).

    The second factor is positive everywhere, so d_y G > 0 along the
    solution branch and the implicit recursion applies; the exact
    derivatives of the implicit function are those of g.
    """
    n = g.nvars
    y_minus_g = SparsePolynomial.monomial(
        tuple(0 for _ in range(n)) + (1,), 1
    ) - lift_to_ambient(g)
    factor = SparsePolynomial.constant(n + 1, shift) + residual * residual
    return y_minus_g * factor


def lift_to_ambient(g: SparsePolynomial) -> SparsePolynomial:
    """View an n-variable polynomial inside n+1 variables (no y-dependence)."""
    return SparsePolynomial(g.nvars + 1, {exp + (0,): c for exp, c in g.terms.items()})


def random_polynomial(rng, nvars, degree, terms, coeff_range=(-4, 4)) -> SparsePolynomial:
    out = {}
    for _ in range(terms):
        exp = []
        remaining = degree
        for _ in range(nvars):
            e = rng.randint(0, remaining)
            exp.append(e)
            remaining -= e
        c = 0
        while c == 0:
            c = rng.randint(*coeff_range)
        out[tuple(exp)] = Fraction(c)
    return SparsePolynomial(nvars, out)


def pairwise_color_classes(balls) -> list[int]:
    """Greedy coloring in ball-index order, testing every earlier ball."""
    colors: list[int] = []
    for j, ball in enumerate(balls):
        taken = set()
        for i in range(j):
            other = balls[i]
            gap = math.dist(ball.center, other.center)
            if gap < ball.radius + other.radius:
                taken.add(colors[i])
        color = 0
        while color in taken:
            color += 1
        colors.append(color)
    return colors


def descend(values, start: int) -> int:
    """Walk downhill from ``start`` to the nearest discrete local minimum,
    one step at a time in Python; out of range counts as +inf."""
    i = start
    last = len(values) - 1
    while True:
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i < last else math.inf
        here = values[i]
        if left < here and left <= right:
            i -= 1
        elif right < here:
            i += 1
        else:
            return i


def parabolic_min(x0: float, h: float, fm: float, f0: float, fp: float):
    """Vertex of the parabola through (x0 - h, fm), (x0, f0), (x0 + h, fp),
    one point in Python floats.

    Assumes f0 <= min(fm, fp); returns (x*, f*) clamped to the bracket
    and never above the sampled minimum.
    """
    curv = fm - 2.0 * f0 + fp
    if curv <= 0.0:
        return x0, f0
    shift = 0.5 * (fm - fp) / curv
    shift = max(-1.0, min(1.0, shift))
    f_star = f0 - 0.125 * (fm - fp) ** 2 / curv
    return x0 + shift * h, min(f_star, f0)


def per_ball_fiber_minima(f, spline, ball, eu, ev, u_grid):
    """Minimizer and minimum of v -> f(x_j + u eu + v ev) for each u of u_grid.

    Each fiber is sampled on the lattice v = h j, |j| <= n_v, which spans
    the domain diagonal, but evaluated only on a window |j| <= w: w starts
    a few cells past the ball radius and doubles, capped at n_v, for the
    rows whose descent stops on the window edge or that have no in-domain
    sample in the window.  ``spline.ev`` evaluates each point on its own,
    descent steps only to neighbours, and the in-domain samples of a line
    through the box are one run of the lattice, so every start, minimum,
    edge verdict and parabolic vertex is that of the whole-lattice scan.
    Raises _NuTooLarge when a fiber crossing the ball has no interior
    minimum.
    """
    h = f.spacing
    center = np.array(ball.center)
    lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
    hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
    extent = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    n_v = int(extent / h) + 1
    v_grid = h * np.arange(-n_v, n_v + 1)

    x_min = np.empty(len(u_grid))
    f_min = np.empty(len(u_grid))
    interior_needed = np.abs(u_grid) <= ball.radius + h
    rows = np.arange(len(u_grid))
    w = min(n_v, int(ball.radius / h) + 4)
    while rows.size:
        v_win = v_grid[n_v - w : n_v + w + 1]
        pts = (
            center
            + np.outer(u_grid[rows], eu).reshape(len(rows), 1, 2)
            + np.outer(v_win, ev).reshape(1, len(v_win), 2)
        )
        inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=-1)
        clipped = np.clip(pts, lo, hi)
        fiber_vals = spline.ev(clipped[..., 0], clipped[..., 1])
        # clipped samples repeat the boundary value; poison them so descent
        # cannot mistake the clip shelf for an interior minimum
        fiber_vals = np.where(inside, fiber_vals, np.inf)

        short_window = w < n_v
        grow = []
        for i, row in zip(rows, fiber_vals):
            start = w
            if not np.isfinite(row[start]):
                finite_idx = np.flatnonzero(np.isfinite(row))
                if finite_idx.size == 0:
                    if short_window:
                        grow.append(i)
                        continue
                    x_min[i] = 0.0
                    f_min[i] = 0.0
                    continue
                start = int(finite_idx[np.argmin(np.abs(finite_idx - w))])
            arg = descend(row, start)
            on_window_edge = arg in (0, len(v_win) - 1)
            if on_window_edge and short_window:
                grow.append(i)
                continue
            if on_window_edge or not np.isfinite(row[arg - 1]) or not np.isfinite(row[arg + 1]):
                if interior_needed[i]:
                    raise _NuTooLarge(f"fiber minimum hits the domain edge at ball {ball.index}")
                x_min[i] = v_win[arg]
                f_min[i] = max(float(row[arg]), 0.0)
                continue
            v_star, f_star = parabolic_min(
                float(v_win[arg]), h, float(row[arg - 1]), float(row[arg]), float(row[arg + 1])
            )
            x_min[i] = v_star
            f_min[i] = max(f_star, 0.0)
        rows = np.array(grow, dtype=int)
        w = min(2 * w, n_v)
    return x_min, f_min


def full_diagonal_fiber_minima(f, spline, ball, eu, ev, u_grid):
    """Fiber minima from samples along the whole domain diagonal of every fiber.

    Same contract as ``per_ball_fiber_minima``: returns (x_min, f_min)
    per u of u_grid, or raises _NuTooLarge.
    """
    h = f.spacing
    center = np.array(ball.center)
    lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
    hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
    extent = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    n_v = int(extent / h) + 1
    v_grid = h * np.arange(-n_v, n_v + 1)

    pts = (
        center
        + np.outer(u_grid, eu).reshape(len(u_grid), 1, 2)
        + np.outer(v_grid, ev).reshape(1, len(v_grid), 2)
    )
    inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=-1)
    clipped = np.clip(pts, lo, hi)
    fiber_vals = np.where(inside, spline.ev(clipped[..., 0], clipped[..., 1]), np.inf)

    x_min = np.empty(len(u_grid))
    f_min = np.empty(len(u_grid))
    interior_needed = np.abs(u_grid) <= ball.radius + h
    v_center = len(v_grid) // 2
    for i in range(len(u_grid)):
        row = fiber_vals[i]
        start = v_center
        if not np.isfinite(row[start]):
            finite_idx = np.flatnonzero(np.isfinite(row))
            if finite_idx.size == 0:
                x_min[i] = 0.0
                f_min[i] = 0.0
                continue
            start = int(finite_idx[np.argmin(np.abs(finite_idx - v_center))])
        arg = descend(row, start)
        at_edge = (
            arg in (0, len(v_grid) - 1)
            or not np.isfinite(row[arg - 1])
            or not np.isfinite(row[arg + 1])
        )
        if at_edge:
            if interior_needed[i]:
                raise _NuTooLarge(f"fiber minimum hits the domain edge at ball {ball.index}")
            x_min[i] = v_grid[arg]
            f_min[i] = max(float(row[arg]), 0.0)
            continue
        v_star, f_star = parabolic_min(
            float(v_grid[arg]), h, float(row[arg - 1]), float(row[arg]), float(row[arg + 1])
        )
        x_min[i] = v_star
        f_min[i] = max(f_star, 0.0)
    return x_min, f_min


def lattice_walks(f, spline, ball, eu, ev, u_grid):
    """The whole-lattice scan of ``full_diagonal_fiber_minima``, row by row.

    Returns the lattice offsets (start, stop) of each row's descent, or
    (None, None) for a row with no in-domain sample, and the clipped point
    and in-domain flag of every sample, offset i in column n_v + i.
    """
    h = f.spacing
    lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
    hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
    n_v = int(float(np.hypot(hi[0] - lo[0], hi[1] - lo[1])) / h) + 1
    v_grid = h * np.arange(-n_v, n_v + 1)
    pts = (
        np.array(ball.center)
        + np.outer(u_grid, eu).reshape(len(u_grid), 1, 2)
        + np.outer(v_grid, ev).reshape(1, len(v_grid), 2)
    )
    inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=-1)
    clipped = np.clip(pts, lo, hi)
    values = np.where(inside, spline.ev(clipped[..., 0], clipped[..., 1]), np.inf)
    walks = []
    for row, ok in zip(values, inside):
        columns = np.flatnonzero(ok)
        if not columns.size:
            walks.append((None, None))
            continue
        start = int(columns[np.argmin(np.abs(columns - n_v))])
        walks.append((start - n_v, descend(row, start) - n_v))
    return walks, clipped, inside


def windowed_block_fiber_minima(f, spline, balls, eu, ev, u_grids):
    """``decompose._block_fiber_minima`` by windows that double: minimizer
    and minimum of v -> f(x_j + u eu_j + v ev_j) for each u of each ball's
    u grid, over a block of balls at once.

    Each fiber row is sampled on the lattice v = h i, |i| <= n_v, which
    spans the domain diagonal, but evaluated only on a window |i| <= w of
    its own: w starts a few cells past its ball's radius and doubles,
    capped at n_v, while the row's descent stops on the window edge or the
    window holds no in-domain sample.  A round evaluates the windows of
    all open rows with one ``spline.ev`` call and descends on all of them
    at once (``decompose._descend``) in a table padded with +inf, which
    stands for the end of the row.  ``spline.ev`` evaluates each point on
    its own, descent steps only to lower neighbours, and the in-domain
    samples of a line through the box are one run of the lattice, so
    every start, minimum, edge verdict and parabolic vertex is that of the
    whole-lattice scan of the fiber alone.

    Returns x_min and f_min, row after row, of the balls before the first
    ball crossed by a fiber with no interior minimum, and that ball's
    position in ``balls`` (len(balls) when there is none).  Rows of that
    ball and of later ones are dropped as soon as it is known.
    """
    h = f.spacing
    lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
    hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
    extent = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    n_v = int(extent / h) + 1
    v_grid = h * np.arange(-n_v, n_v + 1)

    # one row per (ball, u): its owner, base point x_j + u eu, direction and window
    sizes = [len(u_grid) for u_grid in u_grids]
    owner = np.repeat(np.arange(len(balls)), sizes)
    u = np.concatenate(u_grids)
    base = balls.center[owner] + u[:, None] * eu[owner]
    direction = ev[owner]
    interior_needed = np.abs(u) <= balls.radius[owner] + h
    half = np.minimum(n_v, (balls.radius / h).astype(np.intp) + 4)[owner]

    x_min = np.empty(u.size)
    f_min = np.empty(u.size)
    rejected = len(balls)
    rows = np.arange(u.size)
    while rows.size:
        w = half[rows]
        wide = int(w.max())
        width = 2 * w + 1
        entry = np.repeat(np.arange(rows.size), width)
        offset = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width + w, width)
        pts = base[rows[entry]] + v_grid[n_v + offset][:, None] * direction[rows[entry]]
        inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=-1)
        clipped = np.clip(pts, lo, hi)
        # clipped samples repeat the boundary value; poison them so descent
        # cannot mistake the clip shelf for an interior minimum
        fiber_vals = np.where(inside, spline.ev(clipped[:, 0], clipped[:, 1]), np.inf)
        # column wide + 1 + i holds lattice offset i; columns 0 and -1 stay +inf
        table = np.full((rows.size, 2 * wide + 3), np.inf)
        table[entry, wide + 1 + offset] = fiber_vals
        # free the point arrays before the descent allocates its own
        del pts, inside, clipped, fiber_vals, entry, offset

        finite = np.isfinite(table)
        sampled = finite.any(axis=1)
        # the finite column nearest the window centre, the lower one on a tie
        gap = np.abs(np.arange(table.shape[1]) - (wide + 1))
        pos = np.argmin(np.where(finite, gap, table.shape[1]), axis=1)
        # descends in place; no row needs an interior minimum here, edges are judged below
        _descend(lambda at, i: table[at, i], pos, np.zeros(rows.size, dtype=np.intp), np.zeros(rows.size, dtype=bool))
        arg = pos - (wide + 1)
        pick = np.arange(rows.size)
        here, left, right = table[pick, pos], table[pick, pos - 1], table[pick, pos + 1]

        grow = (np.abs(arg) == w) | ~sampled
        grow &= w < n_v
        edge = sampled & ~grow & ((np.abs(arg) == w) | ~np.isfinite(left) | ~np.isfinite(right))
        vertex = sampled & ~grow & ~edge
        empty = ~sampled & ~grow
        x_min[rows[empty]] = 0.0
        f_min[rows[empty]] = 0.0
        x_min[rows[edge]] = v_grid[n_v + arg[edge]]
        f_min[rows[edge]] = np.maximum(here[edge], 0.0)
        v_star, f_star = _parabolic_min(
            v_grid[n_v + arg[vertex]], h, left[vertex], here[vertex], right[vertex]
        )
        x_min[rows[vertex]] = v_star
        f_min[rows[vertex]] = np.maximum(f_star, 0.0)
        fails = rows[edge & interior_needed[rows]]
        if fails.size:
            rejected = min(rejected, int(owner[fails].min()))
        rows = rows[grow]
        half[rows] = np.minimum(2 * half[rows], n_v)
        rows = rows[owner[rows] < rejected]

    rows = sum(sizes[:rejected])
    return x_min[:rows], f_min[:rows], rejected


def _window(shape, index, steps):
    """The cells within ``steps`` of ``index``, in Python ints, which hold any step count."""
    return tuple(
        slice(max(0, int(i) - steps), min(s, int(i) + steps + 1)) for i, s in zip(index, shape)
    )


def _distance_grid(field, window, center):
    axes = []
    for axis, sl in enumerate(window):
        coords = field.origin[axis] + field.spacing * np.arange(sl.start, sl.stop)
        axes.append(coords - center[axis])
    if len(axes) == 1:
        return np.abs(axes[0])
    du, dv = np.meshgrid(*axes, indexing="ij")
    return np.hypot(du, dv)


def loop_build_cover(field, nu, min_radius_cells=4.0):
    """``cover.build_cover`` by a grid mask updated ball by ball, in any dimension."""
    from scipy.ndimage import distance_transform_edt

    r = field.values
    h = field.spacing
    positive = field.positive_mask()
    zero_dist = distance_transform_edt(positive, sampling=h)
    covered = ~positive
    balls = []
    flat = covered.ravel()
    size = flat.size
    pos = 0
    while True:
        nxt = int(np.argmin(flat[pos:])) + pos if pos < size else size
        if nxt >= size or flat[nxt]:
            break
        pos = nxt
        index = np.unravel_index(nxt, covered.shape)
        rj = float(r[index])
        center = tuple(field.origin[axis] + h * index[axis] for axis in range(r.ndim))
        floor = min(min_radius_cells * h, 0.5 * float(zero_dist[index]))
        radius = max(nu * rj, floor)
        balls.append(CoverBall(tuple(int(i) for i in index), center, rj, radius))
        steps = int(radius / 2.0 / h) + 1
        win = _window(covered.shape, index, steps)
        dist = _distance_grid(field, win, center)
        covered[win] |= dist <= radius / 2.0 + 1e-12 * radius
        flat = covered.ravel()
    return balls


def run_scan_cover_1d(field, nu, min_radius_cells=4.0):
    """``cover.build_cover`` in 1D by a scalar scan: from each center, step
    to the last cell within half its radius, then on to the next cell of
    {r > 0}; one ball per step, in Python floats."""
    from scipy.ndimage import distance_transform_edt

    h, positive = field.spacing, field.positive_mask()
    size = positive.size
    floor = np.minimum(min_radius_cells * h, 0.5 * distance_transform_edt(positive, sampling=h))
    coords = (field.origin[0] + h * np.arange(size)).tolist()
    radii = np.maximum(nu * field.values, floor).tolist()
    # the first cell of {r > 0} at or after each index, size if none
    after = np.append(np.where(positive, np.arange(size), size), size)
    next_positive = np.minimum.accumulate(after[::-1])[::-1].tolist()
    balls, i = [], next_positive[0]
    while i < size:
        c, rad = coords[i], radii[i]
        balls.append(CoverBall((i,), (c,), float(field.values[i]), rad))
        reach = rad / 2.0 + 1e-12 * rad
        last = min(size - 1, i + int(rad / 2.0 / h) + 1)  # the window's edge
        m = min(last, i + int(reach / h))
        while m < last and abs(coords[m + 1] - c) <= reach:
            m += 1
        while abs(coords[m] - c) > reach:
            m -= 1
        i = next_positive[m + 1]
    return balls


def loop_overlap_counts(field, balls):
    """``cover.overlap_counts`` by one window update per ball."""
    counts = np.zeros_like(field.values, dtype=int)
    h = field.spacing
    for ball in balls:
        steps = int(ball.radius / h) + 1
        win = _window(counts.shape, ball.index, steps)
        dist = _distance_grid(field, win, ball.center)
        counts[win] += dist < ball.radius
    return counts


def loop_color_classes(balls):
    """``cover.color_classes`` by one k-d tree query per ball."""
    if not balls:
        return []
    from scipy.spatial import cKDTree

    centers = np.array([ball.center for ball in balls], dtype=float)
    tree = cKDTree(centers)
    max_radius = max(ball.radius for ball in balls)
    slack = 1e-9 * float(np.abs(centers).max())
    colors = []
    for j, ball in enumerate(balls):
        near = tree.query_ball_point(centers[j], (ball.radius + max_radius) * (1.0 + 1e-9) + slack)
        taken = {
            colors[i]
            for i in near
            if i < j and math.dist(ball.center, balls[i].center) < ball.radius + balls[i].radius
        }
        color = 0
        while color in taken:
            color += 1
        colors.append(color)
    return colors


def loop_partition_functions(field, balls):
    """``cover.partition_functions`` with one window of bumps and updates per ball.

    psi_j are separate arrays; the flat ``psi`` and the window table the
    consumers read are assembled from them.
    """
    h = field.spacing
    shape = field.values.shape
    weights = []
    windows = []
    denom = np.zeros(shape, dtype=float)
    for ball in balls:
        steps = int(ball.radius / h) + 1
        win = _window(shape, ball.index, steps)
        dist = _distance_grid(field, win, ball.center)
        w = bump(dist / ball.radius)
        weights.append(w)
        windows.append(win)
        denom[win] += w**2
    positive = field.positive_mask()
    if balls and float(denom[positive].min(initial=np.inf)) < 1.0 - 1e-9:
        raise RuntimeError("partition normalization below one at a covered point; cover is broken")
    root = np.sqrt(denom, out=np.zeros_like(denom), where=denom > 0)
    psis = []
    total = np.zeros(shape, dtype=float)
    for win, w in zip(windows, weights):
        psi = np.zeros_like(w)
        np.divide(w, root[win], out=psi, where=root[win] > 0)
        psis.append(psi)
        total[win] += psi**2
    lo = np.array([[sl.start for sl in win] for win in windows], dtype=np.intp).reshape(-1, len(shape))
    hi = np.array([[sl.stop for sl in win] for win in windows], dtype=np.intp).reshape(-1, len(shape))
    part = PartitionOfUnity(
        balls=cover_of(balls, len(shape)),
        sum_squares=total,
        table=WindowTable(lo, hi, shape),
        psi=np.concatenate([p.ravel() for p in psis]) if psis else np.zeros(0),
    )
    # the part the kernel builds on first read, given here by the loop
    part.colors = loop_color_classes(balls)
    return part


def windows(part):
    """Each ball's window of ``part`` as a tuple of slices."""
    return [tuple(map(slice, a, b)) for a, b in zip(part.table.lo.tolist(), part.table.hi.tolist())]


def psis(part):
    """Each ball's psi of ``part`` on its window, shaped like the window."""
    ends = np.cumsum(part.table.sizes).tolist()
    shapes = (part.table.hi - part.table.lo).tolist()
    return [part.psi[a:b].reshape(x) for a, b, x in zip([0] + ends, ends, shapes)]


def cover_of(balls, n=1):
    """The ``Cover`` whose balls are the CoverBalls ``balls``, of dimension n when empty."""
    balls = list(balls)
    n = len(balls[0].index) if balls else n

    def column(name, dtype):
        return np.array([getattr(ball, name) for ball in balls], dtype=dtype)

    return Cover(
        column("index", np.intp).reshape(-1, n),
        column("center", float).reshape(-1, n),
        column("r", float),
        column("radius", float),
    )


def half_space_offsets(shape, reach):
    """Pair offsets, first nonzero step positive, row by row, at most ``reach``
    steps long (up to the pair walk's rounding slack) and capped by the grid
    diagonal, beyond which no pair fits."""
    reach = min(reach, math.hypot(*(s - 1 for s in shape))) + _REACH_SLACK
    top = int(reach)
    if len(shape) == 1:
        return [(d,) for d in range(1, top + 1)]
    return [
        (di, dj)
        for di in range(top + 1)
        for dj in range(-top, top + 1)
        if (di > 0 or dj > 0) and math.hypot(di, dj) <= reach
    ]


def shifted_views(values, off):
    """Equal-shape views of ``values`` separated by ``off``; empty beyond the extent."""
    a = [slice(None)] * values.ndim
    b = [slice(None)] * values.ndim
    for axis, d in enumerate(off):
        n = values.shape[axis]
        if d >= 0:
            a[axis] = slice(0, max(0, n - d))
            b[axis] = slice(min(d, n), n)
        else:
            a[axis] = slice(min(-d, n), n)
            b[axis] = slice(0, max(0, n + d))
    return values[tuple(a)], values[tuple(b)]


def loop_check_slow_variation(r, nu, fail_fast=False):
    """``holder.check_slow_variation``'s (ok, worst_ratio), one offset at a time in row order."""
    h, vals = r.spacing, r.values
    finite = np.isfinite(vals)
    rmax = float(vals[finite].max()) if finite.any() else 0.0
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for off in half_space_offsets(vals.shape, nu * rmax / h):
            a, b = shifted_views(vals, off)
            dist = h * (math.hypot(*off) if r.n == 2 else off[0])
            for base, other in ((a, b), (b, a)):
                mask = (dist <= nu * base) & (np.abs(base - other) >= 0)
                if not mask.any():
                    continue
                worst = max(worst, float((np.abs(base[mask] - other[mask]) / base[mask]).max()))
                if fail_fast and worst > 0.25:
                    return False, worst
    return worst <= 0.25, worst


def _omega_gradient_probe(f, cf):
    """``decompose._omega_calibration``'s short-pair probe, before doubling."""
    from scipy.ndimage import maximum_filter, minimum_filter

    h, r = f.spacing, cf.values
    grad = nabla_norm(f.values, h, 1)
    grad = np.where(grad > fd_noise(f.values, h, 1), grad, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        probe = grad / r ** (cf.k + cf.alpha - 1.0)
    low = minimum_filter(f.values, size=3, mode="nearest")
    resolved = (low > 0) & (maximum_filter(f.values, size=3, mode="nearest") <= 2.0 * low)
    ok = np.isfinite(probe) & (r > 0) & (grad > 0) & resolved
    return float(probe[ok].max()) if ok.any() else 0.0


def loop_calibrate_omega(f, cf, nu):
    """``decompose._omega_calibration(f, cf)(nu)`` with its pair probe one offset at a time in row order."""
    h, r = f.spacing, cf.values
    power = cf.k + cf.alpha
    finite = np.isfinite(r)
    rmax = float(r[finite].max()) if finite.any() else 0.0
    best = _omega_gradient_probe(f, cf)
    for off in half_space_offsets(f.shape, nu * rmax / h):
        fa, fb = shifted_views(f.values, off)
        ra, rb = shifted_views(r, off)
        dist = h * (math.hypot(*off) if f.n == 2 else off[0])
        for base, other, rbase in ((fa, fb, ra), (fb, fa, rb)):
            with np.errstate(invalid="ignore"):
                mask = np.isfinite(rbase) & (rbase > 0) & (dist <= nu * rbase)
            if mask.any():
                ratios = np.abs(base[mask] - other[mask]) / (nu * rbase[mask] ** power)
                best = max(best, float(ratios.max()))
    return 2.0 * best


def loop_gradient_seminorm_2d(f, alpha):
    """``check_malgrange``'s 2D [grad f]_alpha over every pair of the grid, in row order."""
    h = f.spacing
    gx = fd_partial(f.values, h, (1, 0))
    gy = fd_partial(f.values, h, (0, 1))
    best = 0.0
    for off in half_space_offsets(f.shape, math.inf):
        ax, bx = shifted_views(gx, off)
        ay, by = shifted_views(gy, off)
        gaps = np.hypot(ax - bx, ay - by)
        finite = np.isfinite(gaps)
        if finite.any():
            best = max(best, float(np.max(gaps[finite])) / (h * math.hypot(*off)) ** alpha)
    return best


def loop_pointwise_seminorm_2d(values, h, alpha, w):
    """One window of ``holder.pointwise_seminorms`` in 2D: pairs through each point."""
    out = np.zeros_like(values, dtype=float)
    for off in half_space_offsets(values.shape, w):
        a, b = shifted_views(values, off)
        with np.errstate(invalid="ignore"):
            ratio = np.abs(a - b) / (h * math.hypot(*off)) ** alpha
        ratio = np.where(np.isnan(ratio), 0.0, ratio)
        for region in shifted_views(out, off):
            np.maximum(region, ratio, out=region)
    return out


def single_scan_seminorm(f, alpha, derivative=None, window=None, mask=None) -> float:
    """``holder.estimate_seminorm`` by its own pair scan, masked or not."""
    from halfsquares import finitediff

    h = f.spacing
    values = f.values
    if derivative is not None and order(tuple(derivative)) > 0:
        values = finitediff.partial(values, h, tuple(derivative))
    if mask is not None:
        values = np.where(mask, values, np.nan)
    if window is None:
        window = max((s - 1) * h for s in f.shape) * math.sqrt(f.n)
    best = 0.0
    finite_all = values[np.isfinite(values)]
    if finite_all.size == 0:
        return 0.0
    gap_bound = float(finite_all.max() - finite_all.min())
    clean = finite_all.size == values.size
    # longest axis step first: a pair at least ``steps`` long cannot beat the bound
    for off in sorted(half_space_offsets(f.shape, window / h), key=lambda o: max(map(abs, o))):
        steps = max(map(abs, off))
        if steps >= max(f.shape) or gap_bound / (h * steps) ** alpha <= best:
            break
        dist = h * math.hypot(*off)
        a, b = shifted_views(values, off)
        if a.size == 0:
            continue
        gaps = np.abs(a - b)
        if clean:
            gap = float(np.max(gaps))
        else:
            finite = np.isfinite(gaps)
            if not finite.any():
                continue
            gap = float(np.max(gaps[finite]))
        best = max(best, gap / dist**alpha)
    return best


def all_pairs(shape):
    """Every unordered pair of cells (p, q), p first in row order, with the offset q - p."""
    cells = list(np.ndindex(*shape))
    for i, p in enumerate(cells):
        for q in cells[i + 1:]:
            yield p, q, tuple(b - a for a, b in zip(p, q))


def all_pairs_sup_ratio(components, h, alpha, reach, mask=None):
    """sup of gap / (h hypot(offset))^alpha over every pair of cells at most
    ``reach`` steps apart, both ends finite in every component (and in
    ``mask``); the gap is |dv| for one component, np.hypot of the
    differences for two."""
    best = 0.0
    for p, q, off in all_pairs(components[0].shape):
        length = math.hypot(*off)
        ends = [c[x] for c in components for x in (p, q)]
        if length > reach + _REACH_SLACK or not np.isfinite(ends).all():
            continue
        if mask is not None and not (mask[p] and mask[q]):
            continue
        diffs = [c[p] - c[q] for c in components]
        gap = abs(diffs[0]) if len(diffs) == 1 else np.hypot(*diffs)
        best = max(best, float(gap) / (h * length) ** alpha)
    return best


def all_pairs_slow_variation(r, nu):
    """``check_slow_variation``'s worst ratio |r(x) - r(y)| / r(x) over every
    ordered pair with h hypot(offset) <= nu r(x) and r finite at both ends."""
    vals, worst = r.values, 0.0
    for p, q, off in all_pairs(vals.shape):
        dist = r.spacing * math.hypot(*off)
        for x, y in ((p, q), (q, p)):
            if np.isfinite(vals[y]) and dist <= nu * vals[x]:
                worst = max(worst, float(abs(vals[x] - vals[y]) / vals[x]))
    return worst


def all_pairs_calibrate_omega(f, cf, nu):
    """``decompose._omega_calibration(f, cf)(nu)`` with the pair probe over every ordered
    pair with h hypot(offset) <= nu r(x)."""
    with np.errstate(invalid="ignore"):
        den = nu * cf.values ** (cf.k + cf.alpha)
    best = _omega_gradient_probe(f, cf)
    for p, q, off in all_pairs(f.shape):
        dist = f.spacing * math.hypot(*off)
        for x, y in ((p, q), (q, p)):
            if dist <= nu * cf.values[x]:
                best = max(best, float(abs(f.values[x] - f.values[y]) / den[x]))
    return 2.0 * best


def loop_resolved_mask(d):
    """``verify``'s resolved region: windows of balls under 3 cells cleared ball by ball."""
    from scipy.ndimage import binary_erosion

    resolved = d.verified_mask().copy()
    for ball, win in zip(d.partition.balls, windows(d.partition)):
        if d.nu * ball.r < 3.0 * d.spacing:
            resolved[win] = False
    if resolved.any() and not resolved.all():
        resolved = binary_erosion(resolved, structure=np.ones((3,) * d.n, dtype=bool), iterations=3)
    return resolved


def _ratio_or_inf(num, den, noise):
    """num / den where den > 0, else inf for num > noise and 0 for the rest."""
    if den > 0:
        return num / den
    return math.inf if num > noise else 0.0


def loop_verify_constants(d):
    """``verify``'s value_constant and derivative_constant square by square and
    cell by cell: sup |g| / r^p and sup |grad g| / r^(p - 1), p = (k + alpha) / 2,
    over the verified cells, for every square g of f / M; |grad g| is the central
    difference, and cells where it is undefined are skipped.  The powers are
    ``np.power``'s, which squares where the exponent is 2, not libm's pow."""
    mask, power = d.verified_mask(), (d.k + d.alpha) / 2.0
    cells = list(zip(*np.nonzero(mask)))
    value = derivative = 0.0
    for g in d.squares:
        g = g / math.sqrt(d.scale)
        grad = nabla_norm(g, d.spacing, 1)
        for cell in cells:
            r = d.control.values[cell]
            value = max(value, _ratio_or_inf(abs(float(g[cell])), float(np.power(r, power)), 1e-12))
            if math.isfinite(grad[cell]):
                den = float(np.power(r, power - 1.0))
                derivative = max(derivative, _ratio_or_inf(float(grad[cell]), den, 1e-9))
    return value, derivative


def loop_decompose(f, k, alpha, nu=None, omega=None):
    """``decompose`` by its own nu loop and per-branch square code."""
    unit, scale = _normalized(f, k, alpha)
    cf = control_field(unit, k, alpha)
    current = NU_START if nu is None else nu
    last_err = None
    while current >= NU_FLOOR:
        report = check_slow_variation(cf, current, fail_fast=True)
        if report.ok:
            w = _omega_calibration(unit, cf)(current) if omega is None else omega
            try:
                return _rescaled(_loop_decompose_at(unit, cf, k, alpha, current, w), scale)
            except _NuTooLarge as err:
                last_err = err
        else:
            last_err = RuntimeError(
                f"slow variation fails at nu={current}: ratio {report.worst_ratio:.3f}"
            )
        if nu is not None:
            raise DecompositionError(f"decomposition failed at fixed nu={nu}: {last_err}")
        current /= 2.0
    raise DecompositionError(f"nu underflowed {NU_FLOOR} ({last_err})")


def every_nu_search(f, k, alpha, attempt, floor, nu=None, omega=None):
    """``decompose._search_nu`` with slow variation walked and omega calibrated
    afresh at every nu tried, not only until the walk first passes."""
    unit, scale = _normalized(f, k, alpha)
    cf = control_field(unit, k, alpha)
    current = NU_START if nu is None else nu
    while True:
        report = check_slow_variation(cf, current, fail_fast=True)
        if report.ok:
            w = _omega_calibration(unit, cf)(current) if omega is None else omega
            try:
                return _rescaled(attempt(unit, scale, cf, current, w), scale)
            except _NuTooLarge as err:
                reason = str(err)
        else:
            reason = f"slow variation fails at nu={current}: ratio {report.worst_ratio:.3f}"
        if nu is not None:
            raise DecompositionError(f"decomposition failed at fixed nu={nu}: {reason}")
        current /= 2.0
        if current < floor:
            raise DecompositionError(f"nu underflowed {floor} ({reason})")


def _loop_decompose_at(f, cf, k, alpha, nu, omega):
    balls = build_cover(cf, nu)
    part = partition_functions(cf, balls)
    threshold_scale = omega * nu
    per_ball_squares = []
    branch_info = []
    clamp_max = 0.0
    branch_a = branch_b = 0
    values = np.clip(f.values, 0.0, None)

    if f.n == 2:
        spline = RectBivariateSpline(f.axis_coords(0), f.axis_coords(1), f.values, kx=3, ky=3)
        h = f.spacing
        hessian = (
            fd_partial(f.values, h, (2, 0)),
            fd_partial(f.values, h, (1, 1)),
            fd_partial(f.values, h, (0, 2)),
        )

    for ball, win, psi in zip(part.balls, windows(part), psis(part)):
        fc = float(f.values[ball.index])
        threshold = threshold_scale * ball.r ** (k + alpha)
        if fc >= threshold:
            branch_a += 1
            branch_info.append(("A",))
            per_ball_squares.append([psi * np.sqrt(values[win])])
            continue
        branch_b += 1
        if f.n == 1:
            squares, clamp, info = _loop_branch_b_1d(f, ball, win, psi)
        else:
            squares, clamp = _loop_branch_b_2d(f, hessian, spline, ball, win, psi, k, alpha)
            info = ("B2",)
        branch_info.append(info)
        clamp_max = max(clamp_max, clamp)
        per_ball_squares.append(squares)

    squares, labels = _loop_recombine(f.values.shape, part, per_ball_squares)
    return Decomposition(
        origin=f.origin,
        spacing=f.spacing,
        k=k,
        alpha=alpha,
        nu=nu,
        omega=omega,
        squares=squares,
        residual=np.zeros_like(f.values, dtype=float),
        control=cf,
        partition=part,
        branch_a=branch_a,
        branch_b=branch_b,
        clamp_max=clamp_max,
        square_labels=labels,
        branch_info=branch_info,
    )


def _loop_branch_b_1d(f, ball, win, psi):
    coords = f.axis_coords(0)
    seg = f.values[win]
    start = win[0].start + int(np.argmin(seg))
    arg = descend(f.values, start)
    if arg in (0, len(f.values) - 1):
        raise _NuTooLarge(f"minimum hits the domain edge at ball {ball.index}")
    x_min, f_min = parabolic_min(
        float(coords[arg]),
        f.spacing,
        float(f.values[arg - 1]),
        float(f.values[arg]),
        float(f.values[arg + 1]),
    )
    f_min = max(f_min, 0.0)
    window_vals = f.values[win]
    window_coords = coords[win[0]]
    diff = window_vals - f_min
    clamp = max(0.0, float(-diff.min(initial=0.0)))
    g1 = psi * np.sign(window_coords - x_min) * np.sqrt(np.clip(diff, 0.0, None))
    g2 = psi * math.sqrt(f_min)
    return [g1, g2], clamp, ("B1", x_min, f_min)


def _loop_branch_b_2d(f, hessian, spline, ball, win, psi, k, alpha):
    h = f.spacing
    fxx = float(hessian[0][ball.index])
    fxy = float(hessian[1][ball.index])
    fyy = float(hessian[2][ball.index])
    best_theta, best_val = 0.0, -math.inf
    for idx in range(64):
        theta = math.pi * idx / 64
        c, s = math.cos(theta), math.sin(theta)
        val = c * c * fxx + 2 * c * s * fxy + s * s * fyy
        if val > best_val:
            best_theta, best_val = theta, val
    ev = np.array([math.cos(best_theta), math.sin(best_theta)])
    eu = np.array([-ev[1], ev[0]])
    center = np.array(ball.center)

    u_max = 2.0 * ball.radius + 6.0 * h
    n_u = int(u_max / h) + 1
    u_grid = h * np.arange(-n_u, n_u + 1)
    x_min, f_min = per_ball_fiber_minima(f, spline, ball, eu, ev, u_grid)

    phi = bump(u_grid / (2.0 * ball.radius))
    f_curve = CubicSpline(u_grid, f_min)
    x_curve = CubicSpline(u_grid, x_min)

    xx, yy = np.meshgrid(f.axis_coords(0)[win[0]], f.axis_coords(1)[win[1]], indexing="ij")
    du = (xx - center[0]) * eu[0] + (yy - center[1]) * eu[1]
    dv = (xx - center[0]) * ev[0] + (yy - center[1]) * ev[1]
    f_on_curve = f_curve(du)
    diff = f.values[win] - f_on_curve
    clamp = max(0.0, float(-diff.min(initial=0.0)))
    g1 = psi * np.sign(dv - x_curve(du)) * np.sqrt(np.clip(diff, 0.0, None))
    squares = [g1]

    sub = loop_decompose(
        SampledFunction((float(u_grid[0]),), h, np.clip(phi * f_min, 0.0, None)),
        k,
        alpha,
    )

    def f_of_u(u):
        return np.clip(bump(u / (2.0 * ball.radius)) * f_curve(u), 0.0, None)

    flat_du = du.ravel()
    for g_sub in pointwise_evaluate_1d_squares(sub, flat_du, f_of_u):
        squares.append(psi * g_sub.reshape(du.shape))
    return squares, max(clamp, sub.clamp_max)


def pointwise_evaluate_1d_squares(d, points, f_of_u):
    """``decompose.evaluate_1d_squares`` with its branch squares written out."""
    if d.n != 1:
        raise ValueError("only one-dimensional decompositions can be re-evaluated")
    points = np.asarray(points, dtype=float)
    weights = []
    for ball in d.partition.balls:
        weights.append(bump(np.abs(points - ball.center[0]) / ball.radius))
    denom = np.sqrt(sum(w**2 for w in weights)) if weights else np.zeros_like(points)
    fu = np.clip(np.asarray(f_of_u(points), dtype=float), 0.0, None)
    acc = {}

    def add(key, contribution):
        if key not in acc:
            acc[key] = np.zeros_like(points)
        acc[key] += contribution

    for ball_idx, (ball, w) in enumerate(zip(d.partition.balls, weights)):
        psi = np.zeros_like(points)
        np.divide(w, denom, out=psi, where=denom > 0)
        color = d.partition.colors[ball_idx]
        info = d.branch_info[ball_idx]
        if info[0] == "A":
            add((color, 0), psi * np.sqrt(fu))
        elif info[0] == "B1":
            _, x_min, f_min = info
            add(
                (color, 0),
                psi * np.sign(points - x_min) * np.sqrt(np.clip(fu - f_min, 0.0, None)),
            )
            add((color, 1), psi * math.sqrt(f_min))
        elif info[0] != "B":  # a partial decomposition's branch B leaves no square
            raise ValueError(f"cannot re-evaluate branch {info[0]}")
    return [acc.get(label, np.zeros_like(points)) for label in d.square_labels]


def _loop_recombine(shape, part, per_ball_squares):
    acc = {}
    for ball_idx, (squares, win) in enumerate(zip(per_ball_squares, windows(part))):
        color = part.colors[ball_idx]
        for slot, g in enumerate(squares):
            key = (color, slot)
            if key not in acc:
                acc[key] = np.zeros(shape, dtype=float)
            acc[key][win] += g
    labels = sorted(acc)
    squares = [acc[key] for key in labels if np.any(acc[key])]
    labels = [key for key in labels if np.any(acc[key])]
    return squares, labels


def loop_partial_decompose(f, k, alpha, eps):
    """``partial_decompose`` by its own nu loop, cover and branch test; each
    ball's branch is recorded as ("A",) or ("B",)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    unit, scale = _normalized(f, k, alpha)
    cf = control_field(unit, k, alpha)
    nu = NU_START
    while nu >= 1e-12:
        if not check_slow_variation(cf, nu, fail_fast=True).ok:
            nu /= 2.0
            continue
        omega = _omega_calibration(unit, cf)(nu)
        balls = build_cover(cf, nu)
        part = partition_functions(cf, balls)
        bounded = [
            float(unit.values[ball.index]) >= omega * nu * ball.r ** (k + alpha)
            for ball in part.balls
        ]
        branch_b = np.logical_not(bounded)
        cells = part.table.select(branch_b).cells()
        psi = part.psi[part.table.per_entry(branch_b)]
        residual = np.zeros(unit.values.size)
        np.add.at(residual, cells, psi**2 * unit.values.ravel()[cells])
        residual = residual.reshape(unit.values.shape)
        if float(residual.max(initial=0.0)) * scale <= eps:
            values = np.clip(unit.values, 0.0, None)
            per_ball = [
                [psi * np.sqrt(values[win])] if a else []
                for a, win, psi in zip(bounded, windows(part), psis(part))
            ]
            branch_a = sum(bounded)
            squares, labels = _loop_recombine(unit.values.shape, part, per_ball)
            return _rescaled(Decomposition(
                origin=f.origin,
                spacing=f.spacing,
                k=k,
                alpha=alpha,
                nu=nu,
                omega=omega,
                squares=squares,
                residual=residual,
                control=cf,
                partition=part,
                branch_a=branch_a,
                branch_b=len(bounded) - branch_a,
                clamp_max=0.0,
                square_labels=labels,
                branch_info=[("A",) if a else ("B",) for a in bounded],
            ), scale)
        nu /= 2.0
    raise DecompositionError(f"nu underflowed 1e-12 before the residual reached {eps}")
