import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfsquares import ratmat
from halfsquares.polytope import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    GeneralPolytope,
    SimplexPolytope,
)

from oracles import caratheodory_member, inverse, scan_lattice, scan_pair_witness, subset_facets


def test_barycentric_motzkin_triangle():
    tri = SimplexPolytope([(4, 2), (2, 4)])
    lam = tri.barycentric((2, 2)).weights
    assert lam == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_barycentric_lifted_tetrahedron():
    tet = SimplexPolytope([(4, 6, 2), (2, 6, 2), (0, 0, 4)])
    lam = tet.barycentric((2, 4, 2)).weights
    assert lam == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6))


def test_barycentric_at_vertex():
    tri = SimplexPolytope([(4, 2), (2, 4)])
    assert tri.barycentric((4, 2)).weights == (1, 0, 0)


def test_classify_examples():
    assert SimplexPolytope([(6, 2), (2, 4)]).classify((2, 2)) == INTERIOR
    tri = SimplexPolytope([(4, 2), (2, 4)])
    assert tri.classify((4, 2)) == BOUNDARY
    bc = tri.barycentric((5, 5))
    assert sum(bc.weights[:-1]) == Fraction(5, 3)
    assert tri.classify((5, 5)) == EXTERIOR


def test_degenerate_vertices_rejected():
    with pytest.raises(ValueError):
        SimplexPolytope([(1, 2), (2, 4)])


@st.composite
def simplex_vertices(draw):
    """n <= 5 non-negative lattice vertices; swapping the first two flips
    the sign of det Q, and some draws repeat a multiple of a vertex."""
    n = draw(st.integers(1, 5))
    qs = [draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        qs[0], qs[1] = qs[1], qs[0]
    if n >= 2 and draw(st.booleans()):
        qs[-1] = [draw(st.integers(0, 2)) * x for x in qs[0]]
    return qs


@settings(max_examples=300)
@given(simplex_vertices())
def test_adjugate_is_absdet_times_the_fraction_inverse(qs):
    n = len(qs)
    inv = inverse([[q[i] for q in qs] for i in range(n)])  # columns q_j
    if inv is None:
        with pytest.raises(ValueError):
            SimplexPolytope(qs)
        return
    simplex = SimplexPolytope(qs)
    assert simplex.absdet == abs(ratmat.det(qs)) > 0
    assert simplex.adjugate == tuple(tuple(simplex.absdet * x for x in row) for row in inv)
    assert all(type(x) is int for row in simplex.adjugate for x in row)


def test_member_general_examples():
    half_motzkin = GeneralPolytope([(0, 0), (2, 1), (1, 2)])
    assert half_motzkin.member((1, 1))
    assert not half_motzkin.member((0, 1))
    for g in half_motzkin.generators:
        assert half_motzkin.member(g)


def test_member_agrees_with_simplex_classify():
    rng = random.Random(23)
    tri = SimplexPolytope([(5, 1), (2, 4)])
    hull = GeneralPolytope([(0, 0), (5, 1), (2, 4)])
    for _ in range(500):
        p = (Fraction(rng.randint(0, 10), 2), Fraction(rng.randint(0, 10), 2))
        inside = tri.classify(p) in (INTERIOR, BOUNDARY)
        assert hull.member(p) == inside


def test_interior_round_trip():
    rng = random.Random(29)
    tet = SimplexPolytope([(4, 6, 2), (2, 6, 2), (0, 0, 4)])
    for _ in range(50):
        lams = [Fraction(rng.randint(1, 5), 20) for _ in range(3)]
        if sum(lams) >= 1:
            continue
        p = [sum(l * v[i] for l, v in zip(lams, tet.vertices)) for i in range(3)]
        assert tet.classify(p) == INTERIOR


def test_lattice_points_motzkin_half():
    hull = GeneralPolytope([(0, 0), (2, 1), (1, 2)])
    assert hull.lattice_points() == [(0, 0), (1, 1), (1, 2), (2, 1)]


def test_lattice_points_single_point_and_bigger_triangle():
    assert GeneralPolytope([(3, 4)]).lattice_points() == [(3, 4)]
    hull = GeneralPolytope([(0, 0), (3, 1), (1, 2)])
    assert hull.lattice_points() == [(0, 0), (1, 1), (1, 2), (2, 1), (3, 1)]


def test_lattice_points_closed_under_membership():
    hull = GeneralPolytope([(0, 0), (6, 2), (2, 4)])
    pts = hull.lattice_points()
    for p in pts:
        assert hull.member(p)
    for g in hull.generators:
        assert g in pts


def test_distinct_pair_witness_motzkin():
    motzkin_hull = GeneralPolytope([(0, 0), (4, 2), (2, 4), (2, 2)])
    assert motzkin_hull.distinct_pair_witness((2, 2)) is None


def test_distinct_pair_witness_scaled_triangle():
    hull = GeneralPolytope([(0, 0), (6, 2), (2, 4)])
    assert hull.distinct_pair_witness((2, 2)) is None


def test_distinct_pair_witness_found():
    hull = GeneralPolytope([(0, 0), (4, 0), (0, 4)])
    pair = hull.distinct_pair_witness((1, 1))
    assert pair is not None
    t1, t2 = pair
    assert t1 != t2
    assert tuple(a + b for a, b in zip(t1, t2)) == (1, 1)
    assert hull.member(tuple(2 * x for x in t1))
    assert hull.member(tuple(2 * x for x in t2))


def test_witness_pair_postconditions_random():
    rng = random.Random(31)
    for _ in range(40):
        gens = [(0, 0)] + [
            (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(2, 5))
        ]
        hull = GeneralPolytope(gens)
        m = (rng.randint(0, 8), rng.randint(0, 8))
        pair = hull.distinct_pair_witness(m)
        if pair is None:
            continue
        t1, t2 = pair
        assert t1 != t2
        assert tuple(a + b for a, b in zip(t1, t2)) == m
        assert hull.member(tuple(2 * x for x in t1))
        assert hull.member(tuple(2 * x for x in t2))


# -- differential tests against the Caratheodory scan ---------------------

COORD = st.integers(0, 4)


@st.composite
def supports(draw):
    """Generator sets, with the degenerate hulls the facet description must handle."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["general", "homogeneous", "collinear", "single"]))
    if kind == "single":
        return [tuple(draw(COORD) for _ in range(n))]
    if kind == "homogeneous":
        # all on sum(x) = d, d >= 1, so the origin is not among them
        d = draw(st.integers(1, 5))
        pts = []
        for _ in range(draw(st.integers(1, 6))):
            cuts = sorted(draw(st.integers(0, d)) for _ in range(n - 1))
            pts.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [d])))
        return pts
    if kind == "collinear":
        base = [draw(COORD) for _ in range(n)]
        step = [draw(st.integers(-2, 2)) for _ in range(n)]
        ts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        pts = [tuple(b + t * s for b, s in zip(base, step)) for t in ts]
        return [p for p in pts if min(p) >= 0] or [tuple(base)]
    return draw(st.lists(st.tuples(*[COORD] * n), min_size=1, max_size=6))


def query_points(n):
    return st.lists(
        st.tuples(*[st.fractions(min_value=-1, max_value=5, max_denominator=3)] * n),
        min_size=1, max_size=20,
    )


@settings(max_examples=300)
@given(st.data())
def test_member_matches_caratheodory_scan(data):
    gens = data.draw(supports())
    hull = GeneralPolytope(gens)
    points = data.draw(query_points(hull.n)) + [tuple(Fraction(x) for x in g) for g in gens]
    for p in points:
        assert hull.member(p) == caratheodory_member(gens, p), (gens, p)


@settings(max_examples=150)
@given(st.data())
def test_lattice_scans_match_caratheodory_scan(data):
    gens = data.draw(supports())
    hull = GeneralPolytope(gens)
    member = functools.cache(lambda p: caratheodory_member(gens, p))
    assert hull.lattice_points() == scan_lattice(member, gens)
    assert hull.half_lattice_points() == scan_lattice(member, gens, scale=2)
    for _ in range(3):
        m = tuple(data.draw(st.integers(0, 5)) for _ in range(hull.n))
        assert hull.distinct_pair_witness(m) == scan_pair_witness(member, gens, m), (gens, m)


@pytest.mark.parametrize("den", [1, 3])
@pytest.mark.parametrize("side", [0, 1], ids=["int64", "python-int"])
def test_kernel_matches_fractions_across_the_int64_bound(den, side):
    """The simplex B + conv{0, 2e_1, ..., 2e_4} has facets -x_i <= -B and
    x_1 + ... + x_4 <= 4B + 2.  A point p / den with max|p| = den (B + 2)
    has the kernel's bound n max|a| max(|p|, den max|g|) = 4 den (B + 2),
    which B puts just below 2^63 or at or above it.  There int64 would wrap
    the coordinate sum of the far point and call it inside."""
    n = 4
    B = (2**63 - 1) // (4 * den) - 2 + side
    assert (4 * den * (B + 2) < 2**63) == (side == 0)
    gens = [(B,) * n] + [tuple(B + 2 * (i == j) for j in range(n)) for i in range(n)]
    hull = GeneralPolytope(gens)

    def inside(p):
        x = [Fraction(v) - B for v in p]
        return min(x) >= 0 and sum(x) <= 2

    if den == 1:
        box = itertools.product(range(B, B + 3), repeat=n)
        assert hull.lattice_points() == [t for t in box if inside(t)]
    rng = random.Random(2 * den + side)
    grid = [B + Fraction(k, den) for k in range(-1, 2 * den + 1)]
    far = (B + 2,) * (n - 1) + (B + 2 - Fraction(den - 1, den),)
    points = [far, (Fraction(1, 2**40),) * n] + [tuple(rng.choice(grid) for _ in range(n)) for _ in range(300)]
    for p in points:
        assert hull.member(p) == inside(p), p
    for p in points[:8]:
        assert hull.member(p) == caratheodory_member(gens, p), p


def test_lattice_scans_stream_a_box_in_slabs():
    """The full box has 2 (10^6 + 1) points, more than 32 MB as one int64
    array; scanned a slab at a time the traced peak stays below 16 MB."""
    hull = GeneralPolytope([(0, 0), (10**6, 1)])
    tracemalloc.start()
    try:
        assert hull.lattice_points() == [(0, 0), (10**6, 1)]
        assert hull.half_lattice_points() == [(0, 0)]  # a half box of 500,001 points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _rank(rows, n):
    return n - len(ratmat.solve_underdetermined(rows, [0] * len(rows))[1]) if rows else 0


@settings(max_examples=300)
@given(supports())
def test_facets_are_valid_and_supported(gens):
    hull = GeneralPolytope(gens)
    n, pts = hull.n, hull.generators
    dim = _rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]], n)
    assert len(hull.equalities) == n - dim
    assert all(sum(x * y for x, y in zip(a, p)) == b for a, b in hull.equalities for p in pts)
    assert (dim == 0) == (not hull.facets)
    for a, b in hull.facets:
        assert all(type(x) is int for x in a) and math.gcd(*a) == 1
        values = [sum(x * y for x, y in zip(a, p)) for p in pts]
        assert max(values) == b
        tight = [p for p, v in zip(pts, values) if v == b]
        # a facet is spanned by dim affinely independent generators
        assert _rank([[x - y for x, y in zip(p, tight[0])] for p in tight[1:]], n) == dim - 1


def test_homogeneous_hull_is_lower_dimensional():
    hull = GeneralPolytope([(4, 0, 0, 2), (0, 4, 0, 2), (0, 0, 4, 2), (2, 2, 2, 0)])
    assert hull.equalities == (((1, 1, 1, 1), 6),)
    assert hull.member((2, 2, 1, 1)) and not hull.member((2, 2, 1, 0))
    assert hull.member((Fraction(3, 2), Fraction(3, 2), 1, 2))


# -- differential tests against the per-subset facet loop ------------------


@st.composite
def facet_supports(draw):
    """Supports in 1-5 variables: general, on a line or a plane (so the
    hull has equalities) or a single point.  Coordinates up to 10^6 put
    det_stack on Python ints from 3 variables on, and up to 10^20 put the
    generators themselves past int64."""
    n = draw(st.integers(1, 5))
    coord = st.integers(0, draw(st.sampled_from([4, 4, 10**6, 10**20])))
    kind = draw(st.sampled_from(["general", "line", "plane", "single"]))
    if kind == "single":
        return [tuple(draw(coord) for _ in range(n))]
    if kind == "general":
        return draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=7))
    base = [draw(coord) for _ in range(n)]
    dirs = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(1 if kind == "line" else 2)]
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        ts = [draw(st.integers(0, 3)) for _ in dirs]
        pts.append(tuple(b + sum(t * d[i] for t, d in zip(ts, dirs)) for i, b in enumerate(base)))
    return [p for p in pts if min(p) >= 0] or [tuple(base)]


@settings(max_examples=400)
@given(facet_supports())
def test_facets_match_subset_loop(gens):
    hull = GeneralPolytope(gens)
    assert (hull.equalities, hull.facets) == subset_facets(gens)


def test_facets_match_subset_loop_on_python_int_minors(monkeypatch):
    dtypes, det_stack = [], ratmat.det_stack

    def recording(stack):
        dets = det_stack(stack)
        dtypes.append(dets.dtype)
        return dets

    monkeypatch.setattr(ratmat, "det_stack", recording)
    for gens in (
        [(3 * 10**6, 1, 0), (0, 10**6, 7), (0, 0, 0), (5, 5, 5), (10**6, 10**6, 10**6)],
        [(10**20, 0, 0, 1), (0, 10**20, 0, 2), (0, 0, 10**20, 3), (1, 2, 3, 4), (7, 0, 0, 0)],
        # a plane in 4 variables: one equality, and its normal enters the minors
        [(10**6, 0, 0, 0), (0, 10**6, 0, 0), (0, 0, 10**6, 0), (0, 0, 0, 10**6), (10**6 // 4,) * 4],
    ):
        hull = GeneralPolytope(gens)
        assert (hull.equalities, hull.facets) == subset_facets(gens)
        assert all(type(x) is int for a, _ in hull.facets for x in a)
    assert dtypes and all(d == object for d in dtypes)
