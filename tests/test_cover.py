import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfsquares.cover import (
    CoverBall,
    build_cover,
    bump,
    color_classes,
    overlap_counts,
    partition_functions,
)
from halfsquares.fixtures import build_fixture
from halfsquares.holder import SampledFunction, control_field
from oracles import pairwise_color_classes


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
