import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from halfsquares.cover import (
    CoverBall,
    WindowTable,
    build_cover,
    bump,
    color_classes,
    overlap_counts,
    partition_functions,
)
from halfsquares.decompose import decompose, partial_decompose, verify
from halfsquares.fixtures import build_fixture
from halfsquares.holder import ControlField, SampledFunction, control_field
from oracles import (
    loop_build_cover,
    loop_color_classes,
    loop_overlap_counts,
    loop_partition_functions,
    pairwise_color_classes,
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
    assert build_cover(cf, 0.25) == []


def test_cover_of_constant_function():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    balls = build_cover(cf, 0.25)
    centers = [b.center[0] for b in balls]
    # greedy spacing: consecutive centers at most half a radius apart
    gaps = np.diff(centers)
    assert np.all(gaps <= 0.25 / 2 + 2e-3)
    counts = overlap_counts(cf, balls)
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
        assert overlap_counts(cf, balls).max() <= 15


def test_color_classes_disjoint_and_chain():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    balls = build_cover(cf, 0.25)
    colors = color_classes(balls)
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
    assert color_classes(balls) == pairwise_color_classes(balls)


def test_color_classes_edge_cases():
    assert color_classes([]) == []
    twins = [_ball((0.5, 0.5), 0.1), _ball((0.5, 0.5), 0.1)]
    assert color_classes(twins) == [0, 1]
    # tangent balls do not intersect, in 1D and along a 3-4-5 diagonal
    assert color_classes([_ball((0.0,), 0.5), _ball((1.0,), 0.5)]) == [0, 0]
    assert color_classes([_ball((0.0, 0.0), 2.5), _ball((3.0, 4.0), 2.5)]) == [0, 0]
    assert color_classes([_ball((0.0, 0.0), 2.5), _ball((3.0, 4.0), 2.5 + 1e-12)]) == [0, 1]


def test_partition_of_unity_identity():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    balls = build_cover(cf, 0.25)
    part = partition_functions(cf, balls, 0.25)
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
    part = partition_functions(cf, balls, nu)
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
    part = partition_functions(cf, balls, 0.25)
    positive = cf.positive_mask()
    assert np.max(np.abs(part.sum_squares[positive] - 1.0)) < 1e-12
    assert overlap_counts(cf, balls).max() <= 225
    colors = part.colors
    assert max(colors) + 1 <= 225


def test_invalid_nu():
    cf = field_for(lambda x: np.ones_like(x), 0.0, 1.0, 101)
    with pytest.raises(ValueError):
        build_cover(cf, 0.0)


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


def _window_cells(shape, windows):
    grid = np.arange(int(np.prod(shape))).reshape(shape)
    return np.concatenate([grid[win].ravel() for win in windows] + [np.zeros(0, dtype=int)])


def _assert_same_partition(part, want):
    assert part.balls == want.balls
    assert part.windows == want.windows
    assert part.colors == want.colors
    assert len(part.psis) == len(want.psis)
    for got, expected in zip(part.psis, want.psis):
        assert got.shape == expected.shape
        assert_array_equal(got, expected)
    assert_array_equal(part.psi, want.psi)
    assert_array_equal(part.sum_squares, want.sum_squares)


@settings(max_examples=300)
@given(control_fields(), st.integers(0, 6))
def test_cover_kernels_match_per_ball_loops(cf, halvings):
    nu = 0.5**halvings
    balls = build_cover(cf, nu)
    assert balls == loop_build_cover(cf, nu)
    assert color_classes(balls) == loop_color_classes(balls)
    assert_array_equal(overlap_counts(cf, balls), loop_overlap_counts(cf, balls))
    part = partition_functions(cf, balls, nu)
    _assert_same_partition(part, loop_partition_functions(cf, balls, nu))
    assert all(got.base is part.psi for got in part.psis)
    # the table's cells and mask are those of the windows
    shape = cf.values.shape
    assert_array_equal(part.table.cells(), _window_cells(shape, part.windows))
    keep = np.arange(len(balls)) % 3 == 0
    kept = [win for win, k in zip(part.windows, keep) if k]
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
        ("overlap_counts", loop_overlap_counts),
    ):
        monkeypatch.setattr(decompose_module, name, oracle)
    slow = method(f, k, 1.0, *extra)
    _same_decomposition(fast, slow)
    assert verify(slow, f) == fast_report
