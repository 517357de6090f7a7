import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_array_equal

from halfsquares.cover import (
    Cover,
    CoverBall,
    WindowTable,
    build_cover,
    bump,
    color_classes,
    overlap_counts,
    partition_functions,
)
from halfsquares.decompose import decompose, partial_decompose, verify
from halfsquares.errors import InputError
from halfsquares.fixtures import FIXTURES, build_fixture
from halfsquares.holder import ControlField, SampledFunction, control_field
from oracles import (
    cover_of,
    loop_build_cover,
    loop_color_classes,
    loop_overlap_counts,
    loop_partition_functions,
    pairwise_color_classes,
    run_scan_cover_1d,
    windows,
)

# the module, which the package's decompose function shadows as an attribute
decompose_module = importlib.import_module("halfsquares.decompose")


def field_for(fn, lo, hi, n, k=2, alpha=1.0):
    f = SampledFunction.from_callable(fn, (lo,), (hi - lo) / (n - 1), (n,))
    return control_field(f, k, alpha)


def test_bump_profile():
    t = np.linspace(-2, 2, 4001)
    values = bump(t)
    assert np.all(values[np.abs(t) <= 0.5] == 1.0)
    assert np.all(values[np.abs(t) >= 1.0] == 0.0)
    assert np.all((values >= 0) & (values <= 1))
    assert np.all(np.diff(values[t >= 0]) <= 1e-12)


def test_empty_cover_for_zero_field():
    cf = field_for(lambda x: 0.0 * x, 0.0, 1.0, 501)
    assert len(build_cover(cf, 0.25)) == 0


def test_cover_of_constant_function():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    balls = build_cover(cf, 0.25)
    centers = [b.center[0] for b in balls]
    # greedy spacing: consecutive centers at most half a radius apart
    gaps = np.diff(centers)
    assert np.all(gaps <= 0.25 / 2 + 2e-3)
    counts = overlap_counts(partition_functions(cf, balls))
    assert counts.max() <= 15
    # every interior positive point is covered by a half-radius ball
    half_covered = np.zeros_like(cf.values, dtype=bool)
    coords = np.arange(1001) * cf.spacing
    for b in balls:
        half_covered |= np.abs(coords - b.center[0]) <= b.radius / 2 + 1e-12
    assert np.all(half_covered[cf.positive_mask()])


def test_overlap_bound_on_fixtures():
    for name, k in (("parabola", 2), ("bony", 3), ("smooth_bump", 3)):
        f = build_fixture(name, points=2001)
        cf = control_field(f, k, 1.0)
        balls = build_cover(cf, 0.01)
        assert overlap_counts(partition_functions(cf, balls)).max() <= 15


def test_color_classes_disjoint_and_chain():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    cover = build_cover(cf, 0.25)
    colors = color_classes(cover)
    balls = list(cover)
    assert max(colors) + 1 <= 15
    for i, a in enumerate(balls):
        for j, b in enumerate(balls[:i]):
            if colors[i] == colors[j]:
                assert abs(a.center[0] - b.center[0]) >= a.radius + b.radius


def _ball(center, radius):
    return CoverBall(tuple(0 for _ in center), tuple(center), radius, radius)


# small integer centers and dyadic radii make duplicate centers and exactly
# tangent pairs (|x_i - x_j| == r_i + r_j, e.g. 3-4-5 triangles) common
LATTICE_RADIUS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.5])


@st.composite
def ball_lists(draw):
    n = draw(st.integers(1, 2))
    if draw(st.booleans()):
        coord = st.integers(-6, 6).map(float)
        radius = LATTICE_RADIUS
    else:
        coord = st.floats(-10.0, 10.0, allow_nan=False)
        radius = st.floats(1e-3, 4.0, allow_nan=False)
    balls = draw(st.lists(st.tuples(st.tuples(*[coord] * n), radius), max_size=40))
    return [_ball(center, r) for center, r in balls]


@settings(max_examples=400)
@given(ball_lists())
def test_color_classes_match_pairwise_scan(balls):
    assert color_classes(cover_of(balls)) == pairwise_color_classes(balls)


def test_color_classes_edge_cases():
    assert color_classes(cover_of([])) == []
    twins = [_ball((0.5, 0.5), 0.1), _ball((0.5, 0.5), 0.1)]
    assert color_classes(cover_of(twins)) == [0, 1]
    # tangent balls do not intersect, in 1D and along a 3-4-5 diagonal
    assert color_classes(cover_of([_ball((0.0,), 0.5), _ball((1.0,), 0.5)])) == [0, 0]
    assert color_classes(cover_of([_ball((0.0, 0.0), 2.5), _ball((3.0, 4.0), 2.5)])) == [0, 0]
    assert color_classes(cover_of([_ball((0.0, 0.0), 2.5), _ball((3.0, 4.0), 2.5 + 1e-12)])) == [0, 1]


# np.hypot puts the first pair's centers an ulp below math.dist and the
# second's an ulp above (glibc, x86-64)
@pytest.mark.parametrize("a,b", [
    ((0.435, -1.31), (1.408, 2.954)),
    ((-2.912, -1.048), (-0.236, -2.718)),
])
def test_color_classes_decide_tangency_by_math_dist(a, b):
    """Radii summing to the distance hypot or math.dist gives, or a step
    either side of it: intersection is decided as math.dist has it."""
    gap = math.dist(b, a)
    hypot = float(np.hypot(b[0] - a[0], b[1] - a[1]))
    for total in (gap, hypot, math.nextafter(gap, 0.0), math.nextafter(gap, math.inf)):
        balls = [_ball(a, total / 2), _ball(b, total / 2)]
        want = [0, 1] if gap < total else [0, 0]
        assert color_classes(cover_of(balls)) == pairwise_color_classes(balls) == want


@pytest.mark.parametrize("name, points", [(name, None) for name, spec in FIXTURES.items() if spec.n == 1]
                         + [(name, points) for name, spec in FIXTURES.items() if spec.n == 2 for points in (41, 121)])
def test_color_classes_match_oracles_on_fixture_covers(name, points):
    """The covers of every shipped 1D fixture and of the 2D ones up to 121^2,
    built as the decomposition builds them on f / M, at k = 2 and 3 and
    nu = 2^-6, 2^-4 and 2^-2: colored as the per-ball k-d tree oracle colors
    them, and, where the cover is small, as the scan over all earlier balls."""
    f = build_fixture(name, points=points, **({"alpha": 0.5} if name == "power_alpha" else {}))
    for k in (2, 3):
        unit, _ = decompose_module._normalized(f, k, 1.0)
        cf = control_field(unit, k, 1.0)
        for nu in (2.0**-6, 2.0**-4, 2.0**-2):
            cover = build_cover(cf, nu)
            colors = color_classes(cover)
            assert colors == loop_color_classes(cover)
            if len(cover) <= 400:
                assert colors == pairwise_color_classes(list(cover))


def test_color_classes_memory_with_one_ball_reaching_the_whole_line():
    """5,000 balls at unit spacing, radius 1.5, but ball 0 reaches the whole
    line, so every ball's search range holds every other ball: 25 million
    candidate pairs, tested about BATCH^2 at a time.  The traced peak, 1.6
    MB, stays at or below the 36.41 MB (36,411,616 bytes) that the batched
    k-d tree queries this coloring replaced peak at on the same cover; one
    unbatched query of all pairs within the largest reach would hold
    gigabytes."""
    n = 5000
    radius = np.full(n, 1.5)
    radius[0] = float(n)
    cover = Cover(np.arange(n)[:, None], np.arange(n, dtype=float)[:, None], radius, radius)
    color_classes(cover.select(slice(0, 50)))  # imports and caches that a first run allocates
    tracemalloc.start()
    try:
        colors = color_classes(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36_411_616, peak
    # ball j > 0 meets ball 0 and balls j - 1 and j - 2; ball j - 3 is tangent
    assert colors == [0] + [(j - 1) % 3 + 1 for j in range(1, n)]


def test_partition_of_unity_identity():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    balls = build_cover(cf, 0.25)
    part = partition_functions(cf, balls)
    positive = cf.positive_mask()
    assert np.max(np.abs(part.sum_squares[positive] - 1.0)) < 1e-12
    assert np.all(part.sum_squares[~positive & cf.valid] == 0.0)


def test_partition_identity_with_zero_set():
    from halfsquares.holder import check_slow_variation

    cf = field_for(lambda x: np.clip(x - 0.5, 0, None) ** 3, 0.0, 1.0, 2001, k=2)
    nu = 0.25
    while not check_slow_variation(cf, nu).ok:  # build_cover precondition
        nu /= 2
    balls = build_cover(cf, nu)
    part = partition_functions(cf, balls)
    positive = cf.positive_mask()
    assert positive.any() and not positive.all()
    assert np.max(np.abs(part.sum_squares[positive] - 1.0)) < 1e-10
    assert np.all(part.sum_squares[~positive & cf.valid] == 0.0)


def test_radius_floor_respects_zero_set():
    cf = field_for(lambda x: np.clip(x - 0.5, 0, None) ** 3, 0.0, 1.0, 2001, k=2)
    balls = build_cover(cf, 1e-6)
    coords = np.arange(2001) * cf.spacing
    zero_coords = coords[~cf.positive_mask() & cf.valid]
    for b in balls:
        assert b.radius > 0
        assert np.min(np.abs(zero_coords - b.center[0])) >= b.radius - 1e-12


def test_two_dimensional_cover_and_partition():
    f = SampledFunction.from_callable(
        lambda x, y: np.ones_like(x), (0.0, 0.0), 0.02, (101, 101)
    )
    cf = control_field(f, 2, 1.0)
    balls = build_cover(cf, 0.25)
    part = partition_functions(cf, balls)
    positive = cf.positive_mask()
    assert np.max(np.abs(part.sum_squares[positive] - 1.0)) < 1e-12
    assert overlap_counts(part).max() <= 225
    colors = part.colors
    assert max(colors) + 1 <= 225


def test_invalid_nu():
    line = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 101)
    plane = control_field(SampledFunction((0.0, 0.0), 0.1, np.ones((9, 7))), 2, 1.0)
    for cf in (line, plane):
        for nu in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(InputError, match="nu must be positive and finite"):
                build_cover(cf, nu)


@st.composite
def control_fields(draw):
    """Random control fields: i.i.d. values, r = 0 gaps, NaN stencil margins."""
    n = draw(st.integers(1, 2))
    # up to 1000 cells in 1D: several batches of balls per table
    sides = st.integers(1, 1000) if n == 1 else st.integers(1, 30)
    shape = tuple(draw(sides) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = draw(st.sampled_from([0.01, 0.05, 1 / 3, 1.0]))
    origin = tuple(draw(st.floats(-5.0, 5.0, allow_nan=False)) for _ in shape)
    # radii from under a cell (the floor applies) to tens of cells at nu = 1
    values = draw(st.sampled_from([0.0, 0.5, 4.0, 30.0])) * h * rng.uniform(0.2, 1.5, shape)
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = 0.0
    valid = np.ones(shape, dtype=bool)
    margin = draw(st.integers(0, 2))
    if margin:
        valid[tuple(slice(margin, -margin) for _ in shape)] = False
        valid = ~valid
    values[~valid] = np.nan
    return ControlField(k=2, alpha=1.0, spacing=h, origin=origin, values=values, valid=valid)


def _assert_same_cover(cover, want):
    for name in ("index", "center", "r", "radius"):
        got, expected = getattr(cover, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert_array_equal(got, expected)


def test_1d_cover_corrective_steps_match_scalar_scan():
    """Radii 2 k h (1 + rel), |rel| <= 1e-8, a million from the origin: x_j - x_i
    rounds off (j - i) h by up to 1e-10, so int(reach / h) guesses the end
    of a ball's run one cell short or one cell long, and the array scan
    takes forward and backward steps where the scalar scan does."""
    rng = np.random.default_rng(0)
    h, size = 0.01, 3000
    k = rng.integers(2, 12, size)
    rel = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-13, -8, size)
    cf = ControlField(k=2, alpha=1.0, spacing=h, origin=(1e6,), values=2 * k * h * (1 + rel),
                      valid=np.ones(size, dtype=bool))
    cover = build_cover(cf, 1.0)
    _assert_same_cover(cover, cover_of(loop_build_cover(cf, 1.0)))
    _assert_same_cover(cover, cover_of(run_scan_cover_1d(cf, 1.0)))
    # every cell is positive, so ball j's run ends just before center j + 1
    first = cover.index[:, 0]
    end = np.append(first[1:], size) - 1
    reach = cover.radius / 2.0 + 1e-12 * cover.radius
    last = np.minimum(size - 1, first + (cover.radius / 2.0 / h).astype(np.intp) + 1)
    guess = np.minimum(last, first + (reach / h).astype(np.intp))
    assert (end > guess).sum() == 53 and (end < guess).sum() == 112


def test_2d_cover_corrective_steps_match_per_ball_loop():
    """The 2D row scan on the radii of the 1D test above, a million from the
    origin on both axes: in rows below the first, where earlier rows' balls
    leave the open cells, int(reach / h) still guesses runs one cell short
    and one cell long, and every later-row window decides its cells as the
    per-ball loop's hypot test does."""
    rng = np.random.default_rng(0)
    h, shape = 0.01, (30, 400)
    k = rng.integers(2, 12, shape)
    rel = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-13, -8, shape)
    cf = ControlField(k=2, alpha=1.0, spacing=h, origin=(1e6, 1e6), values=2 * k * h * (1 + rel),
                      valid=np.ones(shape, dtype=bool))
    cover = build_cover(cf, 1.0)
    _assert_same_cover(cover, cover_of(loop_build_cover(cf, 1.0), 2))
    x = 1e6 + h * np.arange(shape[1])
    short = long = 0
    for (u, v), rad in zip(cover.index.tolist(), cover.radius.tolist()):
        reach = rad / 2.0 + 1e-12 * rad
        last = min(shape[1] - 1, v + int(rad / 2.0 / h) + 1)
        guess = min(last, v + int(reach / h))
        end = max(m for m in range(v, last + 1) if x[m] - x[v] <= reach)
        short += u > 0 and end > guess
        long += u > 0 and end < guess
    assert (len(cover), short, long) == (242, 26, 53)


@pytest.mark.parametrize("shape", [(40, 7), (7, 40)], ids=["tall", "wide"])
@pytest.mark.parametrize("nu", [0.25, 1.0, 1e300])
def test_tall_and_wide_covers_match_per_ball_loop(shape, nu):
    """At nu = 1 half a radius spans 5 to 20 cells, more than the tall grid's
    rows are wide and than the wide grid has rows; at nu = 1e300 one ball
    covers the grid."""
    rng = np.random.default_rng(1)
    h = 0.1
    values = h * rng.uniform(10.0, 40.0, shape)
    values[rng.random(shape) < 0.1] = 0.0
    cf = ControlField(k=2, alpha=1.0, spacing=h, origin=(-0.3, 2.0), values=values,
                      valid=np.ones(shape, dtype=bool))
    cover = build_cover(cf, nu)
    _assert_same_cover(cover, cover_of(loop_build_cover(cf, nu), 2))
    if nu == 1e300:
        assert len(cover) == 1


def test_huge_nu_cover_is_one_ball():
    """A radius far past the grid is clipped before it becomes a cell count:
    at nu = 1e300 one ball covers the parabola, as the scalar scan has it."""
    cf = control_field(build_fixture("parabola", points=201), 2, 1.0)
    cover = build_cover(cf, 1e300)
    _assert_same_cover(cover, cover_of(run_scan_cover_1d(cf, 1e300)))
    assert cover.index.tolist() == [[1]] and cover.radius.tolist() == [1e300 * cf.values[1]]
    table = WindowTable.around(cover, cf)
    assert table.lo.tolist() == [[0]] and table.hi.tolist() == [[201]]
    # in 2D a radius past the intp range clips to the whole grid
    flat = ControlField(k=2, alpha=1.0, spacing=0.1, origin=(0.0, 0.0), values=np.full((9, 7), 4.0),
                        valid=np.ones((9, 7), dtype=bool))
    cover = build_cover(flat, 1e300)
    assert cover.index.tolist() == [[0, 0]] and cover.radius.tolist() == [4e300]
    table = WindowTable.around(cover, flat)
    assert table.lo.tolist() == [[0, 0]] and table.hi.tolist() == [[9, 7]]


@pytest.mark.parametrize("nu", [1e17, 1e300])
def test_huge_nu_decomposes_as_at_moderate_nu(nu):
    f = build_fixture("constant", points=101)
    want, got = decompose(f, 2, 1.0, nu=1e3), decompose(f, 2, 1.0, nu=nu)
    assert got.square_count == want.square_count == 1
    for a, b in zip(got.squares, want.squares):
        assert_array_equal(a, b)
    assert_array_equal(got.residual, want.residual)
    assert verify(got, f).ok


def _window_cells(shape, windows):
    grid = np.arange(int(np.prod(shape))).reshape(shape)
    return np.concatenate([grid[win].ravel() for win in windows] + [np.zeros(0, dtype=int)])


def _assert_same_partition(part, want):
    assert list(part.balls) == list(want.balls)
    assert windows(part) == windows(want)
    assert part.colors == want.colors
    assert_array_equal(part.psi, want.psi)
    assert_array_equal(part.sum_squares, want.sum_squares)


@settings(max_examples=300)
@given(control_fields(), st.integers(0, 6))
# radius 8 / 2 = 4 cells of spacing 1 from origin 0: every ball has grid points
# at distance exactly its radius, which neither psi nor the overlap counts hold
@example(ControlField(k=2, alpha=1.0, spacing=1.0, origin=(0.0,), values=np.full(41, 8.0),
                      valid=np.ones(41, dtype=bool)), 1)
# 1e5 from the origin, the reach of the ball at cell 0 is x_3 - x_0 exactly
# while int(reach / h) is 2: only the forward step's <= reaches cell 3
@example(ControlField(k=2, alpha=1.0, spacing=0.01, origin=(1e5,), values=np.full(40, 0.05999999999755169),
                      valid=np.ones(40, dtype=bool)), 0)
# half a radius of 9.99999999998 plus its 1e-12 slack is 5.0 exactly: the ball at
# the origin covers (0, 5), (3, 4), (4, 3) and (5, 0) only at tangency, and only it does
@example(ControlField(k=2, alpha=1.0, spacing=1.0, origin=(0.0, 0.0), values=np.full((12, 6), 9.99999999998),
                      valid=np.ones((12, 6), dtype=bool)), 0)
def test_cover_kernels_match_per_ball_loops(cf, halvings):
    nu = 0.5**halvings
    balls = build_cover(cf, nu)
    assert list(balls) == loop_build_cover(cf, nu)
    # the arrays themselves, dtype and shape included, empty covers too
    _assert_same_cover(balls, cover_of(loop_build_cover(cf, nu), cf.n))
    if cf.n == 1:
        _assert_same_cover(balls, cover_of(run_scan_cover_1d(cf, nu)))
    assert color_classes(balls) == loop_color_classes(balls) == pairwise_color_classes(list(balls))
    part = partition_functions(cf, balls)
    _assert_same_partition(part, loop_partition_functions(cf, balls))
    assert_array_equal(overlap_counts(part), loop_overlap_counts(cf, balls))
    # the class sums of the squares rely on it: at most one nonzero psi per class and cell
    nonzero = part.psi != 0
    owner_class = part.table.per_entry(np.asarray(part.colors, dtype=np.intp))[nonzero]
    pairs = np.column_stack((part.table.cells()[nonzero], owner_class))
    assert len(np.unique(pairs, axis=0)) == len(pairs)
    # a partition of unity on {r > 0} and wherever a bump reaches; nothing on
    # the valid r = 0 cells beyond every ball (a floored radius can reach others)
    shape = cf.values.shape
    axes = [o + cf.spacing * np.arange(s) for o, s in zip(cf.origin, shape)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    reach = np.full(shape, np.inf)
    for ball in balls:
        reach = np.minimum(reach, np.linalg.norm(points - ball.center, axis=-1) / ball.radius)
    positive = cf.positive_mask()
    assert np.all(np.abs(part.sum_squares[positive | (reach < 1.0 - 1e-9)] - 1.0) <= 1e-12)
    assert np.all(part.sum_squares[cf.valid & ~positive & (reach > 1.0 + 1e-9)] == 0.0)
    # the table's cells and mask are those of the windows
    assert_array_equal(part.table.cells(), _window_cells(shape, windows(part)))
    keep = np.arange(len(balls)) % 3 == 0
    kept = [win for win, k in zip(windows(part), keep) if k]
    mask = np.zeros(shape, dtype=bool)
    for win in kept:
        mask[win] = True
    assert_array_equal(part.table.select(keep).covered(), mask)
    assert_array_equal(part.table.select(keep).cells(), _window_cells(shape, kept))


def test_empty_window_table():
    none = np.zeros((0, 2), dtype=np.intp)
    table = WindowTable(none, none, (5, 4))
    assert table.cells().size == 0
    assert not table.covered().any()


def _same_decomposition(fast, slow):
    assert fast.nu == slow.nu and fast.omega == slow.omega
    assert fast.square_labels == slow.square_labels
    assert len(fast.squares) == len(slow.squares)
    for a, b in zip(fast.squares, slow.squares):
        assert_array_equal(a, b)
    assert_array_equal(fast.residual, slow.residual)
    assert fast.branch_info == slow.branch_info
    _assert_same_partition(fast.partition, slow.partition)


@pytest.mark.parametrize("run", [
    lambda: (decompose, build_fixture("parabola", points=401), 2, ()),
    lambda: (decompose, build_fixture("bony", points=1001), 3, ()),
    lambda: (partial_decompose, build_fixture("bony", points=1001), 3, (1e-3,)),
    lambda: (partial_decompose, build_fixture("parabola", points=2001), 2, (1e-3,)),
    lambda: (decompose, build_fixture("paraboloid", points=41), 2, ()),
    lambda: (decompose, build_fixture("radial_bump", points=41), 2, ()),
], ids=["parabola", "bony", "partial-bony", "partial-parabola", "paraboloid", "radial_bump"])
def test_decompositions_match_per_ball_oracles(monkeypatch, run):
    method, f, k, extra = run()
    fast = method(f, k, 1.0, *extra)
    fast_report = verify(fast, f)
    for name, oracle in (
        ("build_cover", loop_build_cover),
        ("partition_functions", loop_partition_functions),
        ("overlap_counts", lambda part: loop_overlap_counts(fast.control, part.balls)),
    ):
        monkeypatch.setattr(decompose_module, name, oracle)
    slow = method(f, k, 1.0, *extra)
    _same_decomposition(fast, slow)
    assert verify(slow, f) == fast_report
