"""Newton polytopes with exact membership tests.

Simplex polytopes (origin plus n independent lattice vertices) get the
closed-form barycentric solve; general vertex sets are decided by
enumerating affinely independent generator subsets of size <= n+1
(Caratheodory), which is fully exact and adequate for the small hulls
arising from polynomial supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import ratmat
from .multiindex import MultiIndex

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


@dataclass(frozen=True)
class BarycentricCoords:
    """Weights lambda_1..lambda_{n+1}; the last is 1 - sum of the others."""

    weights: tuple[Fraction, ...]

    @property
    def last(self) -> Fraction:
        return self.weights[-1]

    def classify(self) -> str:
        if any(w < 0 for w in self.weights):
            return EXTERIOR
        if any(w == 0 for w in self.weights):
            return BOUNDARY
        return INTERIOR


class SimplexPolytope:
    """Convex hull of the origin and n linearly independent lattice points."""

    def __init__(self, vertices):
        qs = [tuple(int(x) for x in q) for q in vertices]
        if not qs:
            raise ValueError("need at least one vertex besides the origin")
        n = len(qs[0])
        if len(qs) != n or any(len(q) != n for q in qs):
            raise ValueError("need exactly n lattice points of dimension n")
        if any(x < 0 for q in qs for x in q):
            raise ValueError("vertex coordinates must be non-negative")
        matrix = [[qs[j][i] for j in range(n)] for i in range(n)]  # columns q_j
        d = ratmat.det(matrix)
        if d == 0:
            raise ValueError("vertices are linearly dependent")
        self.n = n
        self.vertices = tuple(qs)
        self.detq = d
        self.qinv = ratmat.inverse(matrix)

    def barycentric(self, point) -> BarycentricCoords:
        """Exact weights with point = sum lambda_j q_j and total weight 1."""
        p = [Fraction(x) for x in point]
        if len(p) != self.n:
            raise ValueError("dimension mismatch")
        lam = [sum(row[j] * p[j] for j in range(self.n)) for row in self.qinv]
        lam.append(1 - sum(lam))
        return BarycentricCoords(tuple(lam))

    def classify(self, point) -> str:
        return self.barycentric(point).classify()


class GeneralPolytope:
    """Convex hull of a finite set of non-negative lattice generators."""

    def __init__(self, generators):
        pts = sorted({tuple(int(x) for x in g) for g in generators})
        if not pts:
            raise ValueError("generators must be non-empty")
        n = len(pts[0])
        if any(len(p) != n for p in pts) or any(x < 0 for p in pts for x in p):
            raise ValueError("generators must be non-negative lattice points of equal dimension")
        self.n = n
        self.generators = tuple(pts)
        self._member_cache: dict[tuple, bool] = {}
        self._generator_set = {tuple(Fraction(x) for x in p) for p in pts}
        self._coord_min = tuple(min(p[i] for p in pts) for i in range(n))
        self._coord_max = tuple(max(p[i] for p in pts) for i in range(n))
        self._sum_min = min(sum(p) for p in pts)
        self._sum_max = max(sum(p) for p in pts)

    def _outside_bounds(self, point) -> bool:
        total = Fraction(0)
        for x, lo, hi in zip(point, self._coord_min, self._coord_max):
            if x < lo or x > hi:
                return True
            total += x
        return total < self._sum_min or total > self._sum_max

    def member(self, point) -> bool:
        """Exact test point in conv(generators)."""
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.n:
            raise ValueError("dimension mismatch")
        cached = self._member_cache.get(point)
        if cached is not None:
            return cached
        result = self._member_uncached(point)
        self._member_cache[point] = result
        return result

    def _member_uncached(self, point) -> bool:
        if point in self._generator_set:
            return True
        if self._outside_bounds(point):
            return False
        gens = self.generators
        for size in range(2, self.n + 2):
            for subset in combinations(gens, size):
                # affine system: sum lambda_i s_i = point, sum lambda_i = 1
                matrix = [[s[i] for s in subset] for i in range(self.n)]
                matrix.append([1] * size)
                rhs = list(point) + [1]
                lam = ratmat.solve_rectangular(matrix, rhs)
                if lam is not None and all(w >= 0 for w in lam):
                    return True
        return False

    def lattice_points(self) -> list[MultiIndex]:
        """All integer points of the hull, lex-sorted."""
        return self._box_lattice(self._coord_min, self._coord_max, scale=1)

    def half_lattice_points(self) -> list[MultiIndex]:
        """Integer points t with 2t in the hull, i.e. the lattice of (1/2)C."""
        lo = tuple((x + 1) // 2 for x in self._coord_min)
        hi = tuple(x // 2 for x in self._coord_max)
        return self._box_lattice(lo, hi, scale=2)

    def _box_lattice(self, lo, hi, scale) -> list[MultiIndex]:
        out = []
        point = list(lo)
        n = self.n
        if any(l > h for l, h in zip(lo, hi)):
            return out
        while True:
            t = tuple(point)
            if self.member(tuple(scale * x for x in t)):
                out.append(t)
            i = n - 1
            while i >= 0 and point[i] == hi[i]:
                point[i] = lo[i]
                i -= 1
            if i < 0:
                return out
            point[i] += 1

    def distinct_pair_witness(self, m) -> tuple[MultiIndex, MultiIndex] | None:
        """Distinct lattice t1 != t2 of (1/2)C with t1 + t2 = m, if any.

        Scans the half-polytope lattice in lex order and returns the first
        pair encountered (which has t1 < t2), or None after an exhaustive
        scan; membership results are cached across calls.
        """
        m = tuple(int(x) for x in m)
        lo = tuple((x + 1) // 2 for x in self._coord_min)
        hi = tuple(x // 2 for x in self._coord_max)
        if any(l > h for l, h in zip(lo, hi)):
            return None
        point = list(lo)
        while True:
            t1 = tuple(point)
            if self.member(tuple(2 * x for x in t1)):
                t2 = tuple(a - b for a, b in zip(m, t1))
                if t2 != t1 and all(x >= 0 for x in t2) and self.member(
                    tuple(2 * x for x in t2)
                ):
                    return (t1, t2) if t1 < t2 else (t2, t1)
            i = self.n - 1
            while i >= 0 and point[i] == hi[i]:
                point[i] = lo[i]
                i -= 1
            if i < 0:
                return None
            point[i] += 1
