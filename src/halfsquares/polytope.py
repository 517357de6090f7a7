"""Newton polytopes with exact membership tests.

Simplex polytopes (origin plus n independent lattice vertices) keep the
integer adjugate of their vertex matrix: barycentric weights are integer
dot products divided once by the determinant.  General vertex sets are
described once by integer equalities for their affine hull and one
integer inequality per facet, whose normals are signed integer minors of
every generator subset of the hull's dimension, batched through
``ratmat.det_stack`` (lrs, Avis & Fukuda 1992, is the exact route for
supports far past the catalog's).  One kernel tests an integer array of
points with one product per constraint: the lattice scans give it a
box a slab at a time, ``member`` one row, and the pair witness reads the
half lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import numpy as np

from . import ratmat
from .multiindex import MultiIndex

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"
# rows of a lattice box one scan tests at once, which bounds its memory whatever the box
BOX_SLAB = 2**13


def _dot(a, p):
    return sum(x * y for x, y in zip(a, p))


def _primitive(vec):
    """The primitive integer vector with the direction of a nonzero rational one."""
    ints, _ = ratmat.over_common_denominator(vec)
    g = gcd(*ints)
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class BarycentricCoords:
    """Weights lambda_1..lambda_{n+1}; the last is 1 - sum of the others."""

    weights: tuple[Fraction, ...]

    def classify(self) -> str:
        if any(w < 0 for w in self.weights):
            return EXTERIOR
        if any(w == 0 for w in self.weights):
            return BOUNDARY
        return INTERIOR


class SimplexPolytope:
    """Convex hull of the origin and n linearly independent lattice points.

    With Q the matrix of columns q_j it keeps ``absdet`` = |det Q| and the
    integer ``adjugate`` = |det Q| Q^-1.
    """

    def __init__(self, vertices):
        qs = [tuple(int(x) for x in q) for q in vertices]
        if not qs:
            raise ValueError("need at least one vertex besides the origin")
        n = len(qs[0])
        if len(qs) != n or any(len(q) != n for q in qs):
            raise ValueError("need exactly n lattice points of dimension n")
        if any(x < 0 for q in qs for x in q):
            raise ValueError("vertex coordinates must be non-negative")
        # one fraction-free elimination of [Q | I]: the last pivot is +-det Q
        # and the right block pivot Q^-1, so +-adj Q with the pivot's sign
        rows, pivot_cols, pivot, _, _ = ratmat._reduce(
            [[qs[j][i] for j in range(n)] + [int(i == j) for j in range(n)] for i in range(n)]
        )
        if pivot_cols[:n] != list(range(n)):
            raise ValueError("vertices are linearly dependent")
        self.n = n
        self.vertices = tuple(qs)
        self.absdet = abs(pivot)
        sign = 1 if pivot > 0 else -1
        self.adjugate = tuple(tuple(sign * x for x in row[n:]) for row in rows)

    def barycentric(self, point) -> BarycentricCoords:
        """Exact weights with point = sum lambda_j q_j and total weight 1.

        With the point as p / den, lambda_j = (adj_j . p) / (|det Q| den).
        """
        if len(point) != self.n:
            raise ValueError("dimension mismatch")
        p, den = ratmat.over_common_denominator(point)
        scale = self.absdet * den
        dots = [_dot(row, p) for row in self.adjugate]
        return BarycentricCoords(tuple(Fraction(u, scale) for u in dots + [scale - sum(dots)]))

    def classify(self, point) -> str:
        return self.barycentric(point).classify()


class GeneralPolytope:
    """Convex hull of a finite set of non-negative lattice generators.

    The hull is stored as its H-representation, computed once: integer
    equalities a.x = b cutting out the affine hull and integer facet
    inequalities a.x <= b.  Membership is one integer product per constraint.
    """

    def __init__(self, generators):
        pts = sorted({tuple(int(x) for x in g) for g in generators})
        if not pts:
            raise ValueError("generators must be non-empty")
        n = len(pts[0])
        if any(len(p) != n for p in pts) or any(x < 0 for p in pts for x in p):
            raise ValueError("generators must be non-negative lattice points of equal dimension")
        self.n = n
        self.generators = tuple(pts)
        self._half_lattice = None  # the lattice of (1/2)C once a scan has listed it
        self._coord_min = tuple(min(p[i] for p in pts) for i in range(n))
        self._coord_max = tuple(max(p[i] for p in pts) for i in range(n))
        p0 = pts[0]
        diffs = [[a - b for a, b in zip(p, p0)] for p in pts[1:]] or [[0] * n]
        kernel = ratmat.solve_underdetermined(diffs, [0] * len(diffs))[1]
        normals = [_primitive(v) for v in kernel]
        self.equalities = tuple((a, _dot(a, p0)) for a in normals)
        self.facets = self._facets(n - len(normals), normals)
        self._normals = np.array([a for a, _ in self.equalities + self.facets], dtype=object)
        self._span = n * int(np.abs(self._normals).max())

    def _facets(self, dim, normals):
        """Primitive integer (a, b) with a.x <= b on the hull, one per facet.

        A facet of the dim-dimensional hull is spanned by dim affinely
        independent generators s_0..s_{dim-1}.  Its normal is orthogonal
        to the rows s_i - s_0 and the equality normals; with those n - 1
        rows as M it is a_j = (-1)^j det(M without column j), nonzero
        exactly when M has rank n - 1.  ``det_stack`` finds the minors of
        a chunk of subsets at once.
        """
        if dim == 0:
            return ()
        n = self.n
        top = max([*self._coord_max, *(abs(x) for a in normals for x in a)])
        dtype = np.int64 if top < 2**62 else object
        gens = np.array(self.generators, dtype=dtype)
        eqs = np.array(normals, dtype=dtype).reshape(-1, n)
        found = set()
        for chunk in ratmat.combination_chunks(len(gens), dim):
            k = len(chunk)
            s0 = gens[chunk[:, 0]]
            rows = np.concatenate(
                [gens[chunk[:, 1:]] - s0[:, None], np.broadcast_to(eqs, (k, n - dim, n))], axis=1
            )
            minors = np.stack([np.delete(rows, j, axis=2) for j in range(n)], axis=1)
            a = ratmat.det_stack(minors.reshape(k * n, n - 1, n - 1)).reshape(k, n)
            spans = (a != 0).any(axis=1)
            a, s0 = a[spans] * (-1) ** np.arange(n), s0[spans]
            a //= np.gcd.reduce(a, axis=1)[:, None]
            a = a.astype(np.int64 if n * int(np.abs(a).max(initial=0)) * top < 2**63 else object)
            b = (a * s0).sum(axis=1)
            values = a @ gens.T
            up = values.max(axis=1) == b
            keep = up | (values.min(axis=1) == b)
            a, b = np.where(up[:, None], a, -a)[keep], np.where(up, b, -b)[keep]
            found.update(zip(map(tuple, a.tolist()), b.tolist()))
        return tuple(sorted(found))

    def _inside(self, points, den=1):
        """Mask of the rows p of an integer array with p / den in the hull.

        One integer product per constraint, a.p == b den or a.p <= b den,
        in int64 while n max|a| max(|p|, den max|g|) over the generators g
        stays below 2^63 (|b| <= n max|a| max|g|), else in Python ints.
        """
        top = self._span * max(int(points.max(initial=0)), -int(points.min(initial=0)), den * max(self._coord_max))
        points = points.astype(np.int64 if top < 2**63 else object, copy=False)
        inside = np.ones(len(points), dtype=bool)
        normals = self._normals.astype(points.dtype)
        for k, (_, b) in enumerate(self.equalities + self.facets):
            values = points @ normals[k]
            inside &= values == b * den if k < len(self.equalities) else values <= b * den
        return inside

    def member(self, point) -> bool:
        """Exact test point in conv(generators)."""
        p, den = ratmat.over_common_denominator(point)
        if len(p) != self.n:
            raise ValueError("dimension mismatch")
        return bool(self._inside(np.array([p], dtype=object), den)[0])

    def lattice_points(self) -> list[MultiIndex]:
        """All integer points of the hull, lex-sorted."""
        return self._box_lattice(self._coord_min, self._coord_max, scale=1)

    def half_lattice_points(self) -> list[MultiIndex]:
        """Integer points t with 2t in the hull, i.e. the lattice of (1/2)C."""
        if self._half_lattice is None:
            lo = tuple((x + 1) // 2 for x in self._coord_min)
            hi = tuple(x // 2 for x in self._coord_max)
            self._half_lattice = self._box_lattice(lo, hi, scale=2)
        return list(self._half_lattice)

    def _box_lattice(self, lo, hi, scale) -> list[MultiIndex]:
        """Integer t of the box lo <= t <= hi with scale * t in the hull, lex-sorted."""
        return [tuple(t) for slab in _box(lo, hi) for t in slab[self._inside(scale * slab)].tolist()]

    def distinct_pair_witness(self, m) -> tuple[MultiIndex, MultiIndex] | None:
        """Distinct lattice t1 != t2 of (1/2)C with t1 + t2 = m, if any.

        Read from the half lattice, listed once per hull: the first t1 in lex
        order whose partner t2 = m - t1 is a lattice point after it, or None.
        """
        lattice = self.half_lattice_points()
        members = set(lattice)
        for t1 in lattice:
            t2 = tuple(int(a) - b for a, b in zip(m, t1))
            if t2 > t1 and t2 in members:
                return t1, t2
        return None


def _box(lo, hi):
    """The integer points of lo <= t <= hi as array rows in lex order, BOX_SLAB rows at a time."""
    shape = [max(h - l + 1, 0) for l, h in zip(lo, hi)]
    origin = np.array(lo, dtype=np.int64 if max(map(abs, (*lo, *hi))) < 2**62 else object)
    size = prod(shape)
    if size >= 2**63:  # past what an index array can count
        raise ValueError("the box has 2^63 or more lattice points to scan")
    for start in range(0, size, BOX_SLAB):
        yield np.column_stack(np.unravel_index(np.arange(start, min(start + BOX_SLAB, size)), shape)) + origin
