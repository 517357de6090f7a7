"""Independent oracles for the tests.

The derivative oracles differentiate explicit polynomial expressions by
repeated single-variable differentiation, never through the term-list
formulas under test.  The exact-arithmetic oracles are the plain
algorithms the fast paths replaced: Fraction evaluation term by term,
hull membership by a Caratheodory scan over generator subsets, and the
direct search's tuple and target loops, one determinant or one Fraction
barycentric solve per candidate.  The
numerical oracles are likewise the plain scans the decomposition replaced:
ball coloring over all earlier balls, and fiber minima over the whole
domain diagonal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from halfsquares import ratmat
from halfsquares.decompose import _NuTooLarge, _descend, _parabolic_min
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


def loop_half_vertex_tuples(n: int, d: int):
    """``generate._half_vertex_tuples`` by one exact determinant per combination."""
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


def full_diagonal_fiber_minima(f, spline, ball, eu, ev, u_grid):
    """Fiber minima from samples along the whole domain diagonal of every fiber.

    Same contract as ``decompose._fiber_minima``: returns (x_min, f_min)
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
        arg = _descend(row, start)
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
        v_star, f_star = _parabolic_min(
            float(v_grid[arg]), h, float(row[arg - 1]), float(row[arg]), float(row[arg + 1])
        )
        x_min[i] = v_star
        f_min[i] = max(f_star, 0.0)
    return x_min, f_min
