import importlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.interpolate import CubicSpline, PPoly

from halfsquares.decompose import (
    RECONSTRUCTION_TOLERANCE,
    DecompositionError,
    _cubic_at,
    decompose,
    evaluate_1d_squares,
    partial_decompose,
    square_count_bound,
    verify,
)
from halfsquares.fixtures import build_fixture
from halfsquares.holder import SampledFunction
import oracles
from oracles import full_diagonal_fiber_minima

# the module, which the package's decompose function shadows as an attribute
decompose_module = importlib.import_module("halfsquares.decompose")


def test_square_count_bounds():
    assert square_count_bound(1) == 30
    assert square_count_bound(2) == 225 * 31


def test_parabola_reconstruction_exact():
    f = build_fixture("parabola", points=2001)
    d = decompose(f, 2, 1.0)
    rep = verify(d, f)
    assert rep.reconstruction_error <= 1e-10
    assert rep.square_count <= 30
    assert rep.overlap_max <= 15
    assert rep.partition_deviation <= 1e-10
    # the split squares reproduce x^2 through the partition algebra
    recon = d.reconstruction()
    mask = d.verified_mask()
    assert np.max(np.abs(recon - f.values)[mask]) <= 1e-12


def test_verified_mask_is_built_once_and_read_only():
    from scipy.ndimage import binary_erosion

    d = decompose(build_fixture("bony", points=401), 3, 1.0)
    mask = d.verified_mask()
    assert mask is d.verified_mask() and not mask.flags.writeable
    np.testing.assert_array_equal(mask, binary_erosion(d.control.positive_mask(), structure=np.ones(3, dtype=bool)))
    assert 0 < mask.sum() < d.control.positive_mask().sum()
    with pytest.raises(ValueError):
        mask[0] = True


@pytest.mark.parametrize("name,points", [
    ("parabola", 401), ("smooth_bump", 1501), ("paraboloid", 41), ("radial_bump", 41), ("radial_bump", 121),
])
@pytest.mark.parametrize("k", [2, 3])
def test_verify_constants_match_per_square_loop(name, points, k):
    """value_constant and derivative_constant are, bit for bit, the per-square,
    per-cell loop's sup |g| / r^p and sup |grad g| / r^(p - 1), p = (k + alpha) / 2.
    This pins their definitions, not a bound on them."""
    f = build_fixture(name, points=points)
    d = decompose(f, k, 1.0)
    report = verify(d, f)
    assert (report.value_constant, report.derivative_constant) == oracles.loop_verify_constants(d)


def test_perturbed_square_fails_verification():
    f = build_fixture("parabola", points=401)
    d = decompose(f, 2, 1.0)
    assert verify(d, f).ok
    g = d.squares[0]
    at = np.argmax(np.abs(g) * d.verified_mask())
    g[at] *= 1.0 + 1e-4
    rep = verify(d, f)
    assert rep.reconstruction_error > rep.reconstruction_bound > 0
    assert not rep.ok


def test_constant_all_branch_a():
    f = build_fixture("constant", points=1001)
    d = decompose(f, 2, 1.0)
    assert d.branch_b == 0
    rep = verify(d, f)
    assert rep.reconstruction_error <= 1e-12
    assert rep.square_count <= 30


def test_branch_b_minimum_consistency():
    f = build_fixture("parabola", points=2001)
    d = decompose(f, 2, 1.0)
    assert d.branch_b > 0
    for ball, win, info in zip(
        d.partition.balls, oracles.windows(d.partition), d.branch_info
    ):
        if info[0] != "B1":
            continue
        _, x_min, f_min = info
        assert f_min <= float(f.values[win].min()) + 1e-12
        i = int(round((x_min - f.origin[0]) / f.spacing))
        i = max(1, min(f.shape[0] - 2, i))
        first_diff = (f.values[i + 1] - f.values[i - 1]) / (2 * f.spacing)
        assert abs(first_diff) <= 2 * f.spacing * 10  # interior critical point


def test_signed_root_gives_smooth_squares_for_parabola():
    f = build_fixture("parabola", points=2001)
    d = decompose(f, 2, 1.0)
    rep = verify(d, f)
    assert all(np.isfinite(s) for s in rep.derivative_seminorms)
    assert max(rep.derivative_seminorms) < 1e3


def test_determinism():
    f = build_fixture("smooth_bump", points=1501)
    a = decompose(f, 2, 1.0)
    b = decompose(f, 2, 1.0)
    assert a.nu == b.nu and a.omega == b.omega
    assert len(a.squares) == len(b.squares)
    for ga, gb in zip(a.squares, b.squares):
        assert np.array_equal(ga, gb)


def test_negative_input_rejected():
    f = SampledFunction((-1.0,), 0.01, np.linspace(-1, 1, 201))
    with pytest.raises(DecompositionError):
        decompose(f, 2, 1.0)


def test_bad_k_rejected():
    f = build_fixture("constant", points=101)
    with pytest.raises(ValueError):
        decompose(f, 4, 1.0)


def test_fixed_nu_failure_raises():
    # on f / M the control field of bony varies slowly at nu = 0.25 (worst
    # ratio 0.115) but not at nu = 2 (0.534 > 1/4); a fixed nu that the
    # check rejects must raise instead of being halved
    f = build_fixture("bony", points=2001)
    with pytest.raises(DecompositionError):
        decompose(f, 3, 1.0, nu=2.0)


def _assert_scaled(base, scaled, c):
    """``scaled`` decomposes c f where ``base`` decomposes f."""
    assert scaled.nu == base.nu
    assert scaled.omega == pytest.approx(base.omega, rel=1e-9)
    assert (scaled.branch_a, scaled.branch_b) == (base.branch_a, base.branch_b)
    assert [b.index for b in scaled.partition.balls] == [b.index for b in base.partition.balls]
    assert np.allclose(
        [b.radius for b in scaled.partition.balls],
        [b.radius for b in base.partition.balls],
        rtol=1e-9,
        atol=0.0,
    )
    assert scaled.square_labels == base.square_labels
    root = np.sqrt(c)
    for g_scaled, g in zip(scaled.squares, base.squares):
        assert np.allclose(g_scaled, root * g, rtol=1e-9, atol=1e-12 * root * np.max(np.abs(g)))
    assert np.allclose(scaled.residual, c * base.residual, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize(
    "name,points,k", [("bony", 2001, 2), ("bony", 2001, 3), ("radial_bump", 41, 2)]
)
def test_decompose_is_scale_covariant(name, points, k, c):
    f = build_fixture(name, points=points)
    cf = SampledFunction(f.origin, f.spacing, c * f.values)
    _assert_scaled(decompose(f, k, 1.0), decompose(cf, k, 1.0), c)


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_partial_decompose_is_scale_covariant(c):
    f = build_fixture("bony", points=2001)
    cf = SampledFunction(f.origin, f.spacing, c * f.values)
    base = partial_decompose(f, 3, 1.0, 1e-4)
    scaled = partial_decompose(cf, 3, 1.0, c * 1e-4)
    _assert_scaled(base, scaled, c)
    assert float(scaled.residual.max()) <= c * 1e-4


def test_partial_decompose_parabola():
    f = build_fixture("parabola", points=2001)
    p = partial_decompose(f, 2, 1.0, 1e-3)
    assert float(p.residual.max()) <= 1e-3
    assert float(p.residual.min()) >= 0.0
    mask = p.verified_mask()
    gap = np.max(np.abs((p.reconstruction() - f.values))[mask])
    assert gap <= 1e-8


def test_partial_decompose_constant_no_residual():
    f = build_fixture("constant", points=1001)
    p = partial_decompose(f, 2, 1.0, 1e-6)
    assert float(np.abs(p.residual).max()) == 0.0
    assert p.branch_b == 0


def test_evaluate_1d_squares_matches_grid():
    f = build_fixture("parabola", points=2001)
    d = decompose(f, 2, 1.0)
    coords = f.axis_coords(0)
    values = {tuple(np.round(coords, 12)): None}
    fn = lambda u: np.interp(u, coords, f.values)
    evaluated = evaluate_1d_squares(d, coords, fn)
    assert len(evaluated) == len(d.squares)
    for got, stored in zip(evaluated, d.squares):
        assert np.allclose(got, stored, atol=1e-10)


def test_paraboloid_2d():
    f = build_fixture("paraboloid", points=121)
    d = decompose(f, 2, 1.0)
    rep = verify(d, f, seminorm_window=10 * f.spacing)
    assert rep.reconstruction_error <= 1e-6
    assert rep.overlap_max <= 225
    assert rep.square_count <= square_count_bound(2)
    assert rep.partition_deviation <= 1e-10


class _CountingSpline:
    """Forwards ``ev`` to a spline and counts the points, which it keeps as
    an (x, y) row each."""

    def __init__(self, spline):
        self.spline = spline
        self.points = 0
        self.seen = []

    def ev(self, x, y):
        self.points += np.size(x)
        self.seen.append(np.column_stack((np.ravel(x), np.ravel(y))))
        return self.spline.ev(x, y)


def _outcome(fiber_minima, *args):
    try:
        return fiber_minima(*args)
    except decompose_module._NuTooLarge as err:
        return err


def _corner_paraboloid():
    """Minimum 0.2 from a corner of [-1.5, 1.5]^2: fibers start outside the domain."""
    return SampledFunction.from_callable(
        lambda x, y: (x - 1.3) ** 2 + (y - 1.3) ** 2, (-1.5, -1.5), 0.075, (41, 41)
    )


def _sorted_points(points):
    points = np.concatenate(points) if points else np.zeros((0, 2))
    return points[np.lexsort((points[:, 1], points[:, 0]))]


def _compare_block_with_balls(block_minima, oracle, seen, windowed=False):
    """``_block_fiber_minima`` that checks each call against ``oracle`` run
    ball by ball: equal rows for every ball before the one that rejects nu,
    that ball rejecting in the oracle, every ball accepted when none is.

    In a block that rejects no ball, ``spline.ev`` must see exactly the
    in-domain samples of [min(start, stop) - 1, max(start, stop) + 1] of
    each row, start and stop those of the whole-lattice scan, none of them
    twice; with ``windowed`` the oracle samples windows that double, and
    the block must pass no more points than it."""

    def compare(f, spline, balls, eu, ev, u_grids):
        counting = _CountingSpline(spline)
        x_min, f_min, done = block_minima(f, counting, balls, eu, ev, u_grids)
        seen["blocks"] += 1
        ends = np.cumsum([len(u_grid) for u_grid in u_grids])[:done]
        assert x_min.size == f_min.size == (ends[-1] if done else 0)
        minima = list(zip(np.split(x_min, ends[:-1]), np.split(f_min, ends[:-1])))
        lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
        hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
        oracle_points = 0
        read = []  # the samples the whole-lattice descents read
        for i, ball in enumerate(list(balls)[: done + 1]):
            one = _CountingSpline(spline)
            want = _outcome(oracle, f, one, ball, eu[i], ev[i], u_grids[i])
            oracle_points += one.points
            seen["balls"] += 1
            rows = np.array(ball.center) + np.outer(u_grids[i], eu[i])
            seen["outside_rows"] += int(np.sum(np.any((rows < lo) | (rows > hi), axis=1)))
            walks, clipped, inside = oracles.lattice_walks(f, spline, ball, eu[i], ev[i], u_grids[i])
            n_v, first_window = clipped.shape[1] // 2, int(ball.radius / f.spacing) + 4
            for row, (start, stop) in enumerate(walks):
                if start is None:
                    continue
                seen["grown"] += abs(stop) > first_window
                columns = np.arange(n_v + min(start, stop) - 1, n_v + max(start, stop) + 2)
                columns = columns[(columns >= 0) & (columns <= 2 * n_v)]
                read.append(clipped[row, columns[inside[row, columns]]])
            if i == done:
                seen["too_large"] += 1
                assert isinstance(want, decompose_module._NuTooLarge), i
                assert str(want) == f"fiber minimum hits the domain edge at ball {ball.index}"
                continue
            assert not isinstance(want, Exception), (i, want)
            np.testing.assert_array_equal(minima[i][0], want[0])
            np.testing.assert_array_equal(minima[i][1], want[1])
        if done == len(balls):
            np.testing.assert_array_equal(_sorted_points(counting.seen), _sorted_points(read))
            if windowed:
                assert counting.points <= oracle_points
        return x_min, f_min, done

    return compare


@pytest.mark.parametrize("build,needs", [
    (lambda: build_fixture("radial_bump", points=61), ("grown",)),
    (lambda: build_fixture("paraboloid", points=41), ()),
    (_corner_paraboloid, ("grown", "outside_rows", "too_large")),
], ids=["radial_bump-61", "paraboloid-41", "corner_paraboloid-41"])
def test_fiber_window_matches_full_diagonal_scan(monkeypatch, build, needs):
    """Every block fiber search, at every nu tried, against the whole-diagonal
    scan of each of its balls.

    ``needs`` names the cases each input must exercise: descents that walk
    past the first window of the windowed search (|stop| > radius / h + 4),
    fiber rows whose center lies outside the domain, and searches that
    reject nu because a minimum sits on the domain edge.
    """
    seen = dict.fromkeys(("blocks", "balls", "grown", "outside_rows", "too_large"), 0)
    compare = _compare_block_with_balls(
        decompose_module._block_fiber_minima, full_diagonal_fiber_minima, seen
    )
    monkeypatch.setattr(decompose_module, "_block_fiber_minima", compare)
    d = decompose(build(), 2, 1.0)
    assert seen["balls"] >= d.branch_b > 0
    for key in needs:
        assert seen[key] > 0, (key, seen)


def test_parabolic_min_matches_scalar_form_bit_for_bit():
    """The elementwise vertex equals the one-point Python-float form on every
    row, flat and curved, with minima at the bracket edges and inside."""
    rng = np.random.default_rng(3)
    f0 = rng.uniform(-1.0, 1.0, 20_000)
    fm = f0 + rng.choice([0.0, 1e-12, 1.0], f0.size) * rng.uniform(0.0, 2.0, f0.size)
    fp = f0 + rng.choice([0.0, 1e-12, 1.0], f0.size) * rng.uniform(0.0, 2.0, f0.size)
    x0 = rng.uniform(-3.0, 3.0, f0.size)
    h = 0.0123
    x_star, f_star = decompose_module._parabolic_min(x0, h, fm, f0, fp)
    rows = zip(x0.tolist(), fm.tolist(), f0.tolist(), fp.tolist())
    want = [oracles.parabolic_min(x, h, m, c, p) for x, m, c, p in rows]
    np.testing.assert_array_equal(x_star, [x for x, _ in want])
    np.testing.assert_array_equal(f_star, [y for _, y in want])


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_fiber_search_memory_stays_near_per_ball_search():
    """The traced peak of a decompose of radial_bump-121^2 stays within 1 MB
    of the per-ball oracle's, so neither the cover's one fiber search nor a
    block of BATCH balls' main squares holds too much at once.  (The
    main squares of all 957 branch-B balls in one block peak about 2.6 MB
    higher.)"""
    f = build_fixture("radial_bump", points=121)
    decompose(f, 2, 1.0)  # imports and caches that a first run allocates
    block = _traced_peak(lambda: decompose(f, 2, 1.0))
    per_ball = _traced_peak(lambda: oracles.loop_decompose(f, 2, 1.0))
    assert block <= per_ball + 1_000_000, (block, per_ball)


def _bumps_and_quadratics(draw_terms, points):
    """A non-negative grid on [-1, 1]^2: shifted quadratics plus radial bumps."""
    h = 2.0 / (points - 1)
    axis = -1.0 + h * np.arange(points)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    values = np.zeros_like(xx)
    for kind, a, cx, cy, size in draw_terms:
        rho2 = ((xx - cx) ** 2 + (yy - cy) ** 2) / size**2
        if kind == "quadratic":
            values += a * rho2
        else:
            inside = rho2 < 1.0
            values[inside] += a * np.exp(1.0 / (rho2[inside] - 1.0))
    return SampledFunction((-1.0, -1.0), h, values)


_terms = st.lists(
    st.tuples(
        st.sampled_from(["quadratic", "bump"]),
        st.floats(0.1, 3.0),
        st.floats(-1.2, 1.2),
        st.floats(-1.2, 1.2),
        st.floats(0.3, 1.5),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30)
@given(terms=_terms, points=st.integers(12, 30))
def test_block_fiber_minima_match_per_ball_search(terms, points):
    """On random non-negative grids, every block fiber search of a decompose
    equals the per-ball windowed search: the same rows bit for bit, the same
    ball rejecting nu, and, in blocks where none does, only the samples the
    descents read passed to ``spline.ev``, no more than the windows hold.
    """
    f = _bumps_and_quadratics(terms, points)
    seen = dict.fromkeys(("blocks", "balls", "grown", "outside_rows", "too_large"), 0)
    compare = _compare_block_with_balls(
        decompose_module._block_fiber_minima, oracles.per_ball_fiber_minima, seen, windowed=True
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decompose_module, "_block_fiber_minima", compare)
        try:
            decompose(f, 2, 1.0)
        except DecompositionError:
            pass


def _lazy_against_windowed_search(f):
    """decompose(f) with every block fiber search checked against the
    windowed block search of the oracles: the same rows bit for bit and the
    same ball rejecting nu.  A decompose on the windowed search alone must
    then fail with the same message or give the same decomposition."""
    lazy = decompose_module._block_fiber_minima
    searches = []

    def compare(*args):
        got, want = lazy(*args), oracles.windowed_block_fiber_minima(*args)
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        searches.append(got[2] < len(args[2]))
        return got

    outcomes = []
    for search in (compare, oracles.windowed_block_fiber_minima):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decompose_module, "_block_fiber_minima", search)
            try:
                outcomes.append(decompose(f, 2, 1.0))
            except DecompositionError as err:
                outcomes.append(str(err))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_decomposition(got, want)
    return searches


@settings(max_examples=30)
@given(terms=_terms, points=st.integers(12, 30))
def test_lazy_fiber_search_matches_windowed_block_search(terms, points):
    _lazy_against_windowed_search(_bumps_and_quadratics(terms, points))


def test_lazy_fiber_search_matches_windowed_block_search_on_corner_paraboloid():
    """Fibers that start outside the domain and searches that reject nu."""
    searches = _lazy_against_windowed_search(_corner_paraboloid())
    assert any(searches) and not all(searches)


@settings(max_examples=60)
@given(
    ns=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    h=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_cubic_pieces_match_ppoly_bit_for_bit(ns, h, seed):
    """``_cubic_at`` on the pieces of several u grids, gathered one after
    the other, gives ``PPoly.__call__`` of each grid's spline to the last
    bit, zeros' signs included: on every knot of the longest grid, at both
    ends, between knots, outside the range on both sides and at -0.0; read
    per entry for all grids at once and for one grid at a time."""
    rng = np.random.default_rng(seed)
    m = max(ns)
    knots = h * np.arange(-m, m + 1)
    values = [rng.normal(size=(2 * n + 1, 2)) for n in ns]
    for y in values:  # signed zeros, which only PPoly's leading 0.0 + c3 turns positive
        y[rng.random(y.shape) < 0.3] = -0.0
    fits = [CubicSpline(h * np.arange(-n, n + 1), y) for n, y in zip(ns, values)]
    coeffs = np.concatenate([fit.c for fit in fits], axis=1)
    firsts = np.cumsum([2 * n for n in ns]) - 2 * np.array(ns)
    far = (m + 1.5) * h
    ends = [-0.0, 0.0, -far, far, -10 * far, 10 * far]
    u = np.concatenate((knots, knots + 0.5 * h, ends, rng.uniform(-far, far, 40)))

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    each = np.repeat(np.arange(len(ns)), u.size)
    together = _cubic_at(coeffs, knots, firsts[each], np.array(ns)[each], np.tile(u, len(ns)))
    for i, (n, fit) in enumerate(zip(ns, fits)):
        alone = _cubic_at(coeffs, knots, firsts[i], n, u)
        for col in range(2):
            want = PPoly.construct_fast(fit.c[..., col], fit.x)(u)
            np.testing.assert_array_equal(bits(alone[:, col]), bits(want))
            np.testing.assert_array_equal(bits(together[each == i, col]), bits(want))


@pytest.mark.xfail(strict=True, reason=(
    "the cubic fiber curve F of a 2D branch-B ball does not stay between 0 and f: where it rises "
    "above f on the ball's window the excess is clipped (clamp_max up to 0.30 of f on 15^2), and "
    "where it dips below 0 the main square takes f - F > f while the recursion takes F as 0"
))
@settings(max_examples=20)
@given(terms=_terms, points=st.integers(12, 30), k=st.sampled_from([2, 3]))
@example(terms=[("quadratic", 1.0, 0.0, 0.0, 1.0)], points=15, k=2)
@example(terms=[("quadratic", 1.0, -0.09375, -0.0625, 1.0), ("bump", 1.0, 0.0, 0.25, 0.3)], points=19, k=2)
def test_2d_decompose_reconstructs_and_verifies(terms, points, k):
    """On random non-negative 2D grids, every decompose that succeeds gives
    sum g^2 + residual = f within RECONSTRUCTION_TOLERANCE max |f| on the
    verified region, and passes verify.  The two examples fail one way each."""
    f = _bumps_and_quadratics(terms, points)
    try:
        d = decompose(f, k, 1.0)
    except DecompositionError:
        reject()
    mask = d.verified_mask()
    gap = float(np.max(np.abs(d.reconstruction() - f.values)[mask], initial=0.0))
    assert gap <= RECONSTRUCTION_TOLERANCE * float(np.max(np.abs(f.values)[mask], initial=0.0))
    assert verify(d, f).ok


def _assert_same_decomposition(got, want):
    assert got.square_labels == want.square_labels
    assert len(got.squares) == len(want.squares)
    for g, w in zip(got.squares, want.squares):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(got.residual, want.residual)
    assert (got.nu, got.omega, got.clamp_max, got.scale) == (want.nu, want.omega, want.clamp_max, want.scale)
    assert (got.branch_a, got.branch_b) == (want.branch_a, want.branch_b)
    assert got.branch_info == want.branch_info
    np.testing.assert_array_equal(got.partition.psi, want.partition.psi)
    assert got.partition.colors == want.partition.colors


@pytest.mark.parametrize("name,points,k", [
    ("parabola", 401, 2),
    ("parabola", 2001, 2),
    ("bony", 2001, 3),
    ("bony", 4001, 3),
    ("smooth_bump", 3001, 2),
    ("smooth_bump", 1501, 3),
    ("constant", 1001, 2),
    ("paraboloid", 41, 2),
    ("paraboloid", 121, 2),
    ("radial_bump", 61, 2),
    ("radial_bump", 121, 2),
    ("corner_paraboloid", 41, 2),
])
def test_decompose_matches_two_loop_oracle(monkeypatch, name, points, k):
    """The one nu loop, the block fiber search and the per-ball evaluator give
    the squares of the code with a loop per entry point, the fiber search
    and fiber splines one ball at a time, and the branch squares written
    out per path.

    The oracle recurses on every 2D fiber curve; ``decompose`` recurses on
    none that is zero at every sample, and that changes no square.  A 2D
    input is decomposed again in square blocks of 3 balls, against the
    same oracle run, so that a slip between a block's own ball positions
    and the cover's fails bit for bit.  The radial bumps then cross many
    square blocks; corner_paraboloid rejects nu in the fiber search at its
    fifth ball, with balls after it, and its first four cross a block.
    """
    zero_inputs = {"core": 0, "oracle": 0}

    def counting(fn, key):
        def wrapper(g, *args, **kwargs):
            zero_inputs[key] += not np.any(g.values)
            return fn(g, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(decompose_module, "decompose", counting(decompose_module.decompose, "core"))
    monkeypatch.setattr(oracles, "loop_decompose", counting(oracles.loop_decompose, "oracle"))
    f = _corner_paraboloid() if name == "corner_paraboloid" else build_fixture(name, points=points)
    got = decompose_module.decompose(f, k, 1.0)
    want = oracles.loop_decompose(f, k, 1.0)
    _assert_same_decomposition(got, want)
    assert verify(got, f) == verify(want, f)
    assert zero_inputs["core"] == 0
    if name == "radial_bump":
        assert zero_inputs["oracle"] > 0
        assert got.branch_b > decompose_module.BATCH
    if name == "corner_paraboloid":
        assert got.nu < decompose_module.NU_START
    if f.n == 2:
        searches, search = [], decompose_module._block_fiber_minima

        def recording(*args):
            minima = search(*args)
            searches.append((minima[2], len(args[2])))
            return minima

        monkeypatch.setattr(decompose_module, "BATCH", 3)
        monkeypatch.setattr(decompose_module, "_block_fiber_minima", recording)
        _assert_same_decomposition(decompose_module.decompose(f, k, 1.0), want)
        assert zero_inputs["core"] == 0
        if name == "corner_paraboloid":
            assert any(3 < done < balls - 1 for done, balls in searches), searches


def _edge_minimum_1d(vanish_at):
    """(x - 0.3)^2 (x - vanish_at)^2 on [0, 1], which falls to the right end
    when it vanishes just past it."""
    return SampledFunction.from_callable(
        lambda x: (x - 0.3) ** 2 * (x - vanish_at) ** 2, (0.0,), 0.005, (201,)
    )


@pytest.mark.parametrize("build,message", [
    (_corner_paraboloid, "fiber minimum hits the domain edge at ball"),
    (lambda: _edge_minimum_1d(1.02), "minimum hits the domain edge at ball (196,)"),
], ids=["corner_paraboloid-41", "edge_minimum-201"])
def test_fixed_nu_rejected_in_fiber_search_fails_like_oracle(build, message):
    """At a given nu that the minimum search rejects, decompose fails with
    the per-ball oracle's message; in 1D the balls before the one that
    reaches the domain edge have interior minima."""
    f = build()
    with pytest.raises(DecompositionError) as want:
        oracles.loop_decompose(f, 2, 1.0, nu=0.25)
    with pytest.raises(DecompositionError) as got:
        decompose(f, 2, 1.0, nu=0.25)
    assert str(got.value) == str(want.value)
    assert message in str(got.value)


@pytest.mark.parametrize("fn,ends,message", [
    (lambda x: 2.0 - (x - 0.5) ** 2, {0, 300}, "ball (1,)"),
    (lambda x: 2.0 - x + 0.1 * np.exp(-(((x - 0.1) / 0.03) ** 2)), {300}, "ball (30,)"),
], ids=["concave", "dip_then_slope"])
def test_1d_descents_to_the_domain_ends_reject_nu_at_the_lowest_ball(monkeypatch, fn, ends, message):
    """With every ball in branch B (omega = 1e6), descents that stop on a
    domain end reject the given nu at the lowest such ball, with the
    per-ball oracle's message.  The concave input reaches both ends; on the
    other, the balls past a dip at x = 0.06 slope down to the right end,
    where the highest balls stop at once and the lowest walks farthest."""
    f = SampledFunction.from_callable(fn, (0.0,), 1 / 300, (301,))
    walks, descend = [], decompose_module._descend

    def recorded(sample, pos, owner, interior_needed):
        start = pos.copy()
        result = descend(sample, pos, owner, interior_needed)
        walks.extend(zip(start.tolist(), pos.tolist()))
        return result

    monkeypatch.setattr(decompose_module, "_descend", recorded)
    with pytest.raises(DecompositionError) as want:
        oracles.loop_decompose(f, 2, 1.0, nu=0.25, omega=1e6)
    with pytest.raises(DecompositionError) as got:
        decompose(f, 2, 1.0, nu=0.25, omega=1e6)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(message)
    assert {stop for _, stop in walks} & {0, 300} == ends
    assert any(start == stop == 300 for start, stop in walks)


def test_failed_fiber_recursion_wins_over_a_later_fiber_rejection(monkeypatch):
    """The cover's fiber search, made to reject nu at the last branch-B ball
    of radial_bump-61, leaves every ball before it its squares, in ball
    order: the first fiber recursion, made to fail, ends decompose with its
    own message, not with a halving of nu."""
    search, core, recursions = decompose_module._block_fiber_minima, decompose_module.decompose, []

    def last_ball_rejects(f, spline, balls, eu, ev, u_grids):
        x_min, f_min, done = search(f, spline, balls, eu, ev, u_grids)
        assert done == len(balls) > decompose_module.BATCH
        rows = x_min.size - len(u_grids[-1])
        return x_min[:rows], f_min[:rows], done - 1

    def failing_recursion(g, *args, **kwargs):
        if g.n == 1:
            recursions.append(g)
            raise DecompositionError("the fiber recursion fails")
        return core(g, *args, **kwargs)

    monkeypatch.setattr(decompose_module, "_block_fiber_minima", last_ball_rejects)
    monkeypatch.setattr(decompose_module, "decompose", failing_recursion)
    with pytest.raises(DecompositionError) as err:
        failing_recursion(build_fixture("radial_bump", points=61), 2, 1.0)
    assert str(err.value) == "the fiber recursion fails"
    assert len(recursions) == 1


def test_2d_cover_makes_one_fiber_search_and_one_spline_per_u_grid_length(monkeypatch):
    """Each 2D cover of radial_bump-121^2 makes one fiber search over all
    its branch-B balls and one CubicSpline per distinct u-grid length,
    however many square blocks the balls fill."""
    covers, searches, fits = [], [], []

    def counted(fn, calls, record):
        def wrapper(*args, **kwargs):
            calls.append(record(*args))
            return fn(*args, **kwargs)

        return wrapper

    for name, calls, record in (
        ("_branch_b_2d", covers, lambda f, part, bounded, *_: bounded.count(False)),
        ("_block_fiber_minima", searches, lambda *args: sorted({len(u_grid) for u_grid in args[-1]})),
        ("CubicSpline", fits, lambda x, *_: len(x)),
    ):
        monkeypatch.setattr(decompose_module, name, counted(getattr(decompose_module, name), calls, record))
    d = decompose(build_fixture("radial_bump", points=121), 2, 1.0)
    assert len(covers) == len(searches) == 1
    assert covers[0] == d.branch_b > decompose_module.BATCH
    assert sorted(fits) == searches[0]


@pytest.mark.parametrize("name,points,k,eps", [
    ("bony", 4001, 3, 1e-3),
    ("bony", 4001, 3, 1e-4),
    ("bony", 2001, 3, 1e-4),
    ("parabola", 2001, 2, 1e-3),
    ("constant", 1001, 2, 1e-6),
])
def test_partial_decompose_matches_own_loop_oracle(name, points, k, eps):
    f = build_fixture(name, points=points)
    got = partial_decompose(f, k, 1.0, eps)
    want = oracles.loop_partial_decompose(f, k, 1.0, eps)
    _assert_same_decomposition(got, want)
    assert verify(got, f) == verify(want, f)


@pytest.mark.parametrize("name,points,k", [("parabola", 401, 2), ("bony", 2001, 3)])
def test_evaluate_1d_squares_matches_pointwise_oracle(name, points, k):
    f = build_fixture(name, points=points)
    d = decompose(f, k, 1.0)
    coords = f.axis_coords(0)
    points = np.random.default_rng(7).uniform(coords[0], coords[-1], 3 * points)
    fn = lambda u: np.interp(u, coords, f.values)
    got = evaluate_1d_squares(d, points, fn)
    want = oracles.pointwise_evaluate_1d_squares(d, points, fn)
    assert len(got) == len(want) == len(d.squares)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("build,run", [
    (lambda: build_fixture("bony", points=2001), lambda f: partial_decompose(f, 3, 1.0, 1e-4)),
    (_corner_paraboloid, lambda f: decompose(f, 2, 1.0)),
], ids=["partial-bony-2001", "corner_paraboloid-41"])
def test_rejected_nu_frees_its_cover(monkeypatch, build, run):
    """While the next nu is tried, nothing holds the cover of a rejected one."""
    f = build()
    partition_functions = decompose_module.partition_functions
    covers = []

    def recording(cf, balls):
        top = cf.values.shape == f.shape  # not a 2D fiber recursion
        if top:
            assert all(ref() is None for ref in covers), "a rejected cover is still alive"
        part = partition_functions(cf, balls)
        if top:
            covers.append(weakref.ref(part))
        return part

    monkeypatch.setattr(decompose_module, "partition_functions", recording)
    d = run(f)
    assert len(covers) >= 2 and d.nu < decompose_module.NU_START


@settings(max_examples=60)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    c=st.floats(0.0, 1.0),
    points=st.integers(101, 401),
    k=st.sampled_from([2, 3]),
    eps=st.floats(1e-5, 1e-2),
)
# a constant at the bottom of the float range: squares under the subnormal grid
@example(coeffs=[0.0], c=2.2250738585e-313, points=101, k=2, eps=0.0078125)
def test_partial_decompose_bounds_residual_and_reconstructs(coeffs, c, points, k, eps):
    """0 <= h <= eps and sum g^2 + h = f on the verified region, for f = p^2 + c.

    Where a ball is centred on a sample at which f is zero or all but zero,
    that ball fails the branch test at every nu, and its radius does not
    shrink below 4 cells; an eps below f a few cells away is then out of
    reach, and nu runs down to its floor.  Those inputs are set aside.
    """
    x = np.linspace(-1.0, 1.0, points)
    f = SampledFunction((-1.0,), 2.0 / (points - 1), np.polyval(coeffs, x) ** 2 + c)
    try:
        p = partial_decompose(f, k, 1.0, eps)
    except DecompositionError as err:
        assert "exceeds eps" in str(err)
        reject()
    assert float(p.residual.min()) >= 0.0
    assert float(p.residual.max()) <= eps
    mask = p.verified_mask()
    gap = float(np.max(np.abs(p.reconstruction() - f.values)[mask], initial=0.0))
    assert gap <= 1e-12 * float(f.values.max())


@settings(max_examples=30)
@given(terms=_terms, points=st.integers(12, 30), k=st.sampled_from([2, 3]), eps=st.floats(1e-5, 1e-1))
def test_2d_partial_decompose_bounds_residual_and_reconstructs(terms, points, k, eps):
    """0 <= h <= eps and sum g^2 + h = f on the verified region, on random
    non-negative 2D grids.  As in 1D, inputs on which nu runs to its floor
    with the residual still above eps are set aside."""
    f = _bumps_and_quadratics(terms, points)
    try:
        p = partial_decompose(f, k, 1.0, eps)
    except DecompositionError as err:
        assert "exceeds eps" in str(err)
        reject()
    assert float(p.residual.min()) >= 0.0
    assert float(p.residual.max()) <= eps
    mask = p.verified_mask()
    gap = float(np.max(np.abs(p.reconstruction() - f.values)[mask], initial=0.0))
    assert gap <= 1e-12 * float(f.values.max())


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    c=st.floats(0.0, 1.0),
    points=st.integers(101, 401),
    k=st.sampled_from([2, 3]),
    eps=st.floats(1e-5, 1e-2),
    seed=st.integers(0, 2**32 - 1),
)
@example(coeffs=[0.0], c=2.2250738585e-313, points=101, k=2, eps=0.0078125, seed=0)
def test_square_path_matches_loop_oracles(coeffs, c, points, k, eps, seed):
    """On the p^2 + c grids above, decompose and partial_decompose give the
    per-ball loops' squares, labels, residual, clamp and branch data bit for
    bit, or fail where they fail, and evaluate_1d_squares gives the
    pointwise oracle's squares at random points."""
    x = np.linspace(-1.0, 1.0, points)
    f = SampledFunction((-1.0,), 2.0 / (points - 1), np.polyval(coeffs, x) ** 2 + c)
    runs = (
        (lambda: decompose(f, k, 1.0), lambda: oracles.loop_decompose(f, k, 1.0)),
        (lambda: partial_decompose(f, k, 1.0, eps), lambda: oracles.loop_partial_decompose(f, k, 1.0, eps)),
    )
    for run, loop in runs:
        try:
            want = loop()
        except DecompositionError:
            with pytest.raises(DecompositionError):
                run()
            continue
        got = run()
        _assert_same_decomposition(got, want)
        if got.branch_info:
            at = np.random.default_rng(seed).uniform(-1.2, 1.2, (points, 2))
            fn = lambda u: np.interp(u, x, f.values)
            evaluated = evaluate_1d_squares(got, at, fn)
            assert len(evaluated) == len(got.squares)
            for g, w in zip(evaluated, oracles.pointwise_evaluate_1d_squares(got, at, fn)):
                np.testing.assert_array_equal(g, w)


def test_rejected_nu_builds_no_colors_windows_or_psis(monkeypatch):
    """partial_decompose(bony-4001, k=3, eps=1e-4) rejects four covers: only
    the accepted one is colored.  A partition holds no window or psi views
    at all; both are read from its window table."""
    cover_module = importlib.import_module("halfsquares.cover")
    colored = []
    color_classes = cover_module.color_classes

    def counting(cover):
        colored.append(len(cover))
        return color_classes(cover)

    parts = []
    partition_functions = decompose_module.partition_functions

    def recording(cf, balls):
        parts.append(partition_functions(cf, balls))
        return parts[-1]

    monkeypatch.setattr(cover_module, "color_classes", counting)
    monkeypatch.setattr(decompose_module, "partition_functions", recording)
    d = partial_decompose(build_fixture("bony", points=4001), 3, 1.0, 1e-4)
    assert len(parts) == 5 and parts[-1] is d.partition
    assert colored == [len(d.partition.balls)]
    for part in parts[:-1]:
        assert "colors" not in vars(part)


def test_nu_search_walks_slow_variation_once(monkeypatch):
    """partial_decompose(bony-4001, k=3, eps=1e-4) tries five nu, and slow
    variation passes at the first: it is walked once and the omega gradient
    probe built once.  A search that walks and calibrates afresh at every nu
    returns the same nu, omega, labels, squares and residual, bit for bit."""
    calls = {"walks": 0, "probes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (decompose_module, oracles):
        monkeypatch.setattr(module, "check_slow_variation", counted("walks", module.check_slow_variation))
    monkeypatch.setattr(decompose_module, "nabla_norm", counted("probes", decompose_module.nabla_norm))
    f = build_fixture("bony", points=4001)
    d = partial_decompose(f, 3, 1.0, 1e-4)
    assert calls == {"walks": 1, "probes": 1}
    monkeypatch.setattr(decompose_module, "_search_nu", oracles.every_nu_search)
    want = partial_decompose(f, 3, 1.0, 1e-4)
    assert calls == {"walks": 6, "probes": 6}
    assert (d.nu, d.omega, d.square_labels) == (want.nu, want.omega, want.square_labels)
    assert len(d.squares) == len(want.squares)
    for got, expected in zip(d.squares + [d.residual], want.squares + [want.residual]):
        np.testing.assert_array_equal(got, expected)


def test_rejected_2d_covers_are_never_colored(monkeypatch):
    """decompose(corner_paraboloid-41) rejects the top-level covers at
    nu = 0.25, 0.125 and 0.0625 in the fiber search: of its 2D covers only
    the accepted one, at 0.03125, is colored, besides the 1D fiber covers."""
    cover_module = importlib.import_module("halfsquares.cover")
    colored = []
    color_classes = cover_module.color_classes

    def counting(cover):
        colored.append(cover)
        return color_classes(cover)

    nus = []
    build_cover = decompose_module.build_cover

    def recording(cf, nu):
        if cf.n == 2:
            nus.append(nu)
        return build_cover(cf, nu)

    monkeypatch.setattr(cover_module, "color_classes", counting)
    monkeypatch.setattr(decompose_module, "build_cover", recording)
    d = decompose(_corner_paraboloid(), 2, 1.0)
    assert nus == [0.25, 0.125, 0.0625, 0.03125] and d.nu == 0.03125
    assert [len(cover) for cover in colored if cover.index.shape[1] == 2] == [len(d.partition.balls)] == [504]
    assert len(colored) > 1
