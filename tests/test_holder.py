import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfsquares import holder
from halfsquares.checks import check_malgrange
from halfsquares.decompose import _omega_calibration, decompose, verify
from halfsquares.fixtures import build_fixture
from halfsquares.finitediff import partial as fd_partial
from halfsquares.holder import (
    _REACH_SLACK,
    SampledFunction,
    SampledFunctionFormatError,
    _pairs,
    check_slow_variation,
    control_field,
    estimate_seminorm,
    holder_norm,
    pointwise_seminorms,
)
from numpy.testing import assert_array_equal
from oracles import (
    all_pairs_calibrate_omega,
    all_pairs_slow_variation,
    all_pairs_sup_ratio,
    loop_calibrate_omega,
    loop_check_slow_variation,
    loop_gradient_seminorm_2d,
    loop_pointwise_seminorm_2d,
    loop_resolved_mask,
    single_scan_seminorm,
)

LOG32 = math.log(2) / math.log(3)


def grid(fn, lo, hi, n):
    return SampledFunction.from_callable(fn, (lo,), (hi - lo) / (n - 1), (n,))


def test_sqrt_abs_seminorm_is_one():
    f = build_fixture("power_alpha", alpha=0.5)
    est = estimate_seminorm(f, 0.5)
    assert 0.95 <= est <= 1.05


def test_constant_seminorm_zero():
    f = build_fixture("constant")
    assert estimate_seminorm(f, 0.5) == 0.0


def test_cantor_seminorm_at_its_exponent():
    f = build_fixture("cantor")
    est = estimate_seminorm(f, LOG32)
    assert est <= 1.02


def test_seminorm_monotone_in_window():
    f = grid(lambda x: np.sin(3 * x) + x**2, 0.0, 2.0, 801)
    values = [estimate_seminorm(f, 0.5, window=w) for w in (0.1, 0.5, 2.0)]
    assert values[0] <= values[1] <= values[2]


def test_seminorm_shift_invariance_and_homogeneity():
    f = grid(lambda x: np.cos(2 * x), -1.0, 1.0, 501)
    g = SampledFunction(f.origin, f.spacing, f.values + 7.5)
    h = SampledFunction(f.origin, f.spacing, -3.0 * f.values)
    base = estimate_seminorm(f, 0.7)
    assert estimate_seminorm(g, 0.7) == pytest.approx(base, rel=1e-12)
    assert estimate_seminorm(h, 0.7) == pytest.approx(3.0 * base, rel=1e-12)


def test_seminorm_of_derivative():
    f = grid(lambda x: x**2, -1.0, 1.0, 2001)
    est = estimate_seminorm(f, 1.0, derivative=(1,))
    assert est == pytest.approx(2.0, rel=1e-6)


def _all_pairs_seminorm(values, h, alpha, max_steps):
    """Reference: every pair of finite samples at most max_steps apart."""
    best = 0.0
    cells = [(idx, v) for idx, v in np.ndenumerate(values) if np.isfinite(v)]
    for (i, j), a in cells:
        for (p, q), b in cells:
            d2 = (i - p) ** 2 + (j - q) ** 2
            if 0 < d2 <= max_steps**2:
                best = max(best, abs(a - b) / (h * math.sqrt(d2)) ** alpha)
    return best


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("steps", [3, 20])
def test_seminorm_2d_matches_all_pairs(alpha, steps):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((9, 11)).cumsum(axis=0)
    mask = rng.random(values.shape) > 0.3
    h = 0.1
    f = SampledFunction((0.0, 0.0), h, values)
    est = estimate_seminorm(f, alpha, window=steps * h)
    assert est == pytest.approx(_all_pairs_seminorm(values, h, alpha, steps), rel=1e-12)
    masked = estimate_seminorm(f, alpha, window=steps * h, mask=mask)
    expected = _all_pairs_seminorm(np.where(mask, values, np.nan), h, alpha, steps)
    assert masked == pytest.approx(expected, rel=1e-12)


def test_holder_norm_of_quadratics():
    line = grid(lambda x: x**2, -1.0, 1.0, 401)
    assert holder_norm(line, 2, 1.0) == pytest.approx(2.0, rel=1e-9)  # sup |f'| = f'' = 2
    assert holder_norm(line, 3, 1.0) == pytest.approx(2.0, rel=1e-9)
    scaled = SampledFunction(line.origin, line.spacing, 1e3 * line.values)
    assert holder_norm(scaled, 3, 1.0) == pytest.approx(2e3, rel=1e-9)
    bowl = SampledFunction.from_callable(lambda x, y: x**2 + y**2, (-1.0, -1.0), 0.05, (41, 41))
    assert holder_norm(bowl, 2, 1.0) == pytest.approx(2.0, rel=1e-9)


def test_pointwise_seminorm_windows():
    f = grid(lambda x: np.abs(x) ** 0.5, -1.0, 1.0, 2001)
    windows = pointwise_seminorms(f, 0.5)
    i0 = 1000
    assert set(windows) == {3, 5, 9}
    local = windows[3]
    assert local[i0] == pytest.approx(1.0, rel=0.05)
    # away from the cusp the local ratio is far smaller
    assert local[200] < 0.5


def test_sub_product_rule_empirical():
    rng = random.Random(17)
    for _ in range(10):
        a, b, c = (rng.uniform(0.5, 2.0) for _ in range(3))
        f = grid(lambda x: np.sin(a * x) + b * x, 0.0, 1.0, 801)
        g = grid(lambda x: np.cos(c * x) + x**2, 0.0, 1.0, 801)
        fg = SampledFunction(f.origin, f.spacing, f.values * g.values)
        alpha = 0.5
        lhs = estimate_seminorm(fg, alpha)
        rhs = estimate_seminorm(f, alpha) * np.max(np.abs(g.values)) + estimate_seminorm(
            g, alpha
        ) * np.max(np.abs(f.values))
        assert lhs <= rhs * 1.02


def test_window_below_grid_step_rejected():
    f = grid(lambda x: x, 0.0, 1.0, 101)
    with pytest.raises(ValueError):
        estimate_seminorm(f, 0.5, window=1e-6)


def test_control_field_quartic():
    f = grid(lambda x: x**4, -2.0, 2.0, 4001)
    cf = control_field(f, 3, 1.0)
    i = int(round((1.0 - (-2.0)) / f.spacing))
    assert cf.values[i] == pytest.approx(math.sqrt(12.0), rel=0.01)


def test_control_field_zero_function():
    f = grid(lambda x: 0.0 * x, -1.0, 1.0, 501)
    cf = control_field(f, 2, 1.0)
    assert np.all(cf.values[cf.valid] == 0.0)
    assert not cf.positive_mask().any()


def test_control_field_parabola_at_origin():
    f = grid(lambda x: x**2, -2.0, 2.0, 4001)
    cf = control_field(f, 2, 1.0)
    i = int(round(2.0 / f.spacing))
    assert cf.values[i] == pytest.approx(2.0, rel=1e-6)


def test_control_field_translation_invariance_and_reflection():
    fn = lambda x: np.exp(-(x**2)) * (1 + x**2)
    a = SampledFunction.from_callable(fn, (-1.0,), 0.001, (2001,))
    b = SampledFunction.from_callable(lambda x: fn(x - 5.0), (4.0,), 0.001, (2001,))
    ca, cb = control_field(a, 2, 1.0), control_field(b, 2, 1.0)
    assert np.allclose(ca.values, cb.values, equal_nan=True, rtol=1e-9, atol=1e-12)
    refl = SampledFunction.from_callable(lambda x: fn(-x), (-1.0,), 0.001, (2001,))
    cr = control_field(refl, 2, 1.0)
    assert np.allclose(ca.values, cr.values[::-1], equal_nan=True, rtol=1e-9, atol=1e-12)


def test_slow_variation_constant_field():
    f = grid(lambda x: np.ones_like(x), 0.0, 1.0, 501)
    cf = control_field(f, 2, 1.0)
    for nu in (0.1, 1.0, 50.0):
        assert check_slow_variation(cf, nu).ok


def test_slow_variation_parabola():
    # wide domain so the control field is genuinely nonconstant
    f = grid(lambda x: x**2, -20.0, 20.0, 8001)
    cf = control_field(f, 2, 1.0)
    assert check_slow_variation(cf, 0.2).ok
    report = check_slow_variation(cf, 10.0)
    assert not report.ok
    assert report.worst_ratio > 0.25


def test_sampled_function_json_round_trip():
    f = build_fixture("parabola", points=101)
    g = SampledFunction.loads(f.dumps())
    assert g.n == 1 and g.shape == (101,)
    assert np.array_equal(g.values, f.values)
    f2 = SampledFunction.from_callable(lambda x, y: x + y, (0.0, 0.0), 0.5, (5, 7))
    g2 = SampledFunction.loads(f2.dumps())
    assert g2.shape == (5, 7)
    assert np.array_equal(g2.values, f2.values)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(n=3),
        lambda d: d.update(shape=[4]),
        lambda d: d.pop("spacing"),
        lambda d: d.update(values=d["values"][:-1]),
        lambda d: d.update(spacing=0.0),
        lambda d: d.update(spacing=float("nan")),
        lambda d: d["values"].__setitem__(3, float("nan")),
    ],
)
def test_sampled_function_reader_rejects_bad_data(mutate):
    data = build_fixture("constant", points=11).to_json_dict()
    mutate(data)
    with pytest.raises(SampledFunctionFormatError):
        SampledFunction.from_json_dict(data)


def test_fixture_values():
    bony = build_fixture("bony", points=101)
    assert bony.values[50] == 0.0  # center sample is the zero
    assert np.all(bony.values >= 0)
    bump = build_fixture("smooth_bump", points=301)
    assert bump.values[0] == 0.0 and bump.values[-1] == 0.0
    cantor = build_fixture("cantor", points=82)
    assert cantor.values[0] == 0.0 and cantor.values[-1] == 1.0
    assert np.all(np.diff(cantor.values) >= 0)


@settings(max_examples=200)
@given(
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.sampled_from(["none", "first", "last", "second"]),
    st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    st.sampled_from([None, 2, 5]),
)
def test_one_scan_gives_masked_and_unmasked_seminorms(n, seed, alpha, derivative, keep, window_steps):
    """The masked and the unmasked supremum equal separate scans, with NaN
    derivative margins and any mask."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(3, 60 if n == 1 else 14, n))
    f = SampledFunction((0.0,) * n, 0.1, rng.standard_normal(shape).cumsum(axis=0))
    beta = {
        "none": None,
        "first": (1,) + (0,) * (n - 1),
        "last": (0,) * (n - 1) + (1,),
        "second": (2,) + (0,) * (n - 1),
    }[derivative]
    window = None if window_steps is None else window_steps * f.spacing
    mask = rng.random(shape) < keep
    try:
        est = estimate_seminorm(f, alpha, derivative=beta, window=window, mask=mask)
    except ValueError:  # the grid is too small for the derivative
        return
    assert est == single_scan_seminorm(f, alpha, beta, window, mask=mask)
    unmasked = estimate_seminorm(f, alpha, derivative=beta, window=window)
    assert unmasked == single_scan_seminorm(f, alpha, beta, window)


@pytest.mark.parametrize("name, points, k, window_cells", [
    ("parabola", 401, 2, None),
    ("smooth_bump", 1501, 3, None),
    ("paraboloid", 41, 2, 10),
    ("radial_bump", 41, 2, 10),
])
def test_verify_seminorms_match_separate_scans(name, points, k, window_cells):
    f = build_fixture(name, points=points)
    d = decompose(f, k, 1.0)
    window = None if window_cells is None else window_cells * f.spacing
    rep = verify(d, f, seminorm_window=window)
    resolved = loop_resolved_mask(d)
    assert rep.resolved_fraction == float(resolved.sum()) / float(d.verified_mask().sum())
    axes = [tuple(int(i == a) for i in range(d.n)) for a in range(d.n)]
    masked = []
    for g in d.squares:
        gf = SampledFunction(d.origin, d.spacing, g)
        masked.append(
            max(single_scan_seminorm(gf, rep.half_exponent, b, window, mask=resolved) for b in axes)
        )
    assert rep.derivative_seminorms == masked


def _random_field(n, seed, k, alpha, noise):
    """A clipped random quadratic plus noise on a random 1D or 2D grid, its
    control field, and the generator for further draws."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(8, 80 if n == 1 else 17, n))
    h = 2.0 / (max(shape) - 1)
    axes = np.meshgrid(*(h * np.arange(s) - 1.0 for s in shape), indexing="ij")
    smooth = sum(c * x for c, x in zip(rng.normal(size=n), axes)) + rng.normal()
    values = np.clip(smooth**2 + rng.uniform(-0.3, 0.3) + noise * rng.random(shape), 0.0, None)
    f = SampledFunction((-1.0,) * n, h, values)
    return f, control_field(f, k, alpha), rng


RANDOM_FIELDS = (
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([0.5, 1.0]),
)
NOISE = st.sampled_from([0.0, 1e-3, 0.3])


@settings(max_examples=60, deadline=None)
@given(*RANDOM_FIELDS, st.sampled_from([0.02, 0.1, 0.25, 1.0, 4.0, 50.0]), NOISE)
def test_pair_walk_matches_loop_oracles(n, seed, k, alpha, nu, noise):
    """The one pair walk against the row-order loops it replaced, bit for bit:
    slow variation (full scan and fail-fast verdict), omega, the Malgrange
    gradient semi-norm and the 2D pointwise windows."""
    f, cf, rng = _random_field(n, seed, k, alpha, noise)

    report = check_slow_variation(cf, nu)
    assert (report.ok, report.worst_ratio) == loop_check_slow_variation(cf, nu)
    verdict = check_slow_variation(cf, nu, fail_fast=True)
    assert verdict.ok == loop_check_slow_variation(cf, nu, fail_fast=True)[0] == report.ok
    if verdict.ok:
        assert verdict.worst_ratio == report.worst_ratio
    assert _omega_calibration(f, cf)(nu) == loop_calibrate_omega(f, cf, nu)

    seminorm = check_malgrange(f, alpha).seminorm
    if n == 1:
        assert seminorm == single_scan_seminorm(f, alpha, (1,))
        return
    assert seminorm == loop_gradient_seminorm_2d(f, alpha)
    mask = None if noise == 0.0 else rng.random(f.shape) < 0.8
    windows = pointwise_seminorms(f, alpha, mask=mask)
    masked = f.values if mask is None else np.where(mask, f.values, np.nan)
    for w, got in windows.items():
        assert_array_equal(got, loop_pointwise_seminorm_2d(masked, f.spacing, alpha, w))


@settings(max_examples=60, deadline=None)
@given(*RANDOM_FIELDS, NOISE)
def test_slow_variation_that_passes_at_nu_passes_below_it(n, seed, k, alpha, noise):
    """The premise of the nu search's single walk: fl(nu r / 2) = fl(nu r) / 2
    and the reach rule is monotone, so the pairs walked at nu / 2 are among
    those at nu.  Down a halving chain the full walk's worst ratio never
    rises, and a fail-fast pass stays a pass."""
    _, cf, _ = _random_field(n, seed, k, alpha, noise)
    nus = [64.0 * 0.5**i for i in range(20)]
    worst = [check_slow_variation(cf, nu).worst_ratio for nu in nus]
    assert worst == sorted(worst, reverse=True)
    passes = [check_slow_variation(cf, nu, fail_fast=True).ok for nu in nus]
    assert passes == sorted(passes)


@settings(max_examples=300)
@given(st.integers(1, 2), st.data())
def test_pairs_yields_every_pair_within_reach_once(n, data):
    """``_pairs`` gives every unordered pair of cells at most ``reach`` steps
    apart exactly once and no other pair, ring by ring, each offset with its
    own ring and length."""
    shape = tuple(data.draw(st.integers(1, 12)) for _ in range(n))
    reach = data.draw(st.floats(0.5, math.hypot(*(s - 1 for s in shape)) + 1.0))
    index = np.arange(math.prod(shape)).reshape(shape)
    seen, last_ring = [], 1
    for ring, length, a, b in _pairs(shape, reach):
        off = tuple(sb.start - sa.start for sa, sb in zip(a, b))
        assert ring == max(map(abs, off)) >= last_ring and length == math.hypot(*off)
        last_ring = ring
        seen += [tuple(sorted(pair)) for pair in zip(index[a].ravel().tolist(), index[b].ravel().tolist())]
    cells = list(np.ndindex(*shape))
    want = {
        (index[p], index[q])
        for i, p in enumerate(cells)
        for q in cells[i + 1:]
        if math.hypot(*(y - x for x, y in zip(p, q))) <= reach + _REACH_SLACK
    }
    assert len(seen) == len(set(seen)) and set(seen) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([0.1, 0.25, 1.0, 4.0]),
    st.sampled_from(["grid", "box", "edge box", "cell", "none"]),
    st.booleans(),
)
def test_sampled_suprema_match_all_pairs(n, seed, k, alpha, nu, support, disjoint):
    """Every sampled supremum against a scan of all pairs of cells, bit for
    bit: the default-window semi-norm with and without a mask (it reaches
    every pair), the Malgrange gradient semi-norm, slow variation and omega.
    The samples are zero outside a random box (one touching the grid's
    edge, a single cell, or none at all) when ``support`` says so, and the
    mask avoids that box when ``disjoint`` is set."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(5, 25 if n == 1 else 9, n))
    h = 2.0 / (max(shape) - 1)
    axes = np.meshgrid(*(h * np.arange(s) - 1.0 for s in shape), indexing="ij")
    smooth = sum(c * x for c, x in zip(rng.normal(size=n), axes)) + rng.normal()
    values = np.clip(smooth**2 + rng.uniform(-0.3, 0.3) + 0.1 * rng.random(shape), 0.0, None)
    box = np.ones(shape, dtype=bool)
    if support != "grid":
        lo = [int(rng.integers(0, s)) for s in shape]
        hi = [int(rng.integers(a + 1, s + 1)) for a, s in zip(lo, shape)]
        if support == "edge box":
            hi[-1] = shape[-1]
        elif support == "cell":
            hi = [a + 1 for a in lo]
        box[:] = False
        box[tuple(slice(a, b) for a, b in zip(lo, hi))] = support != "none"
        values = np.where(box, values + 0.5, 0.0)
    f = SampledFunction((-1.0,) * n, h, values)
    mask = (rng.random(shape) < 0.7) & ~(box & disjoint)
    assert estimate_seminorm(f, alpha) == all_pairs_sup_ratio((values,), h, alpha, math.inf)
    masked = estimate_seminorm(f, alpha, mask=mask)
    assert masked == all_pairs_sup_ratio((values,), h, alpha, math.inf, mask)
    grads = [fd_partial(values, h, tuple(int(i == a) for i in range(n))) for a in range(n)]
    assert check_malgrange(f, alpha).seminorm == all_pairs_sup_ratio(grads, h, alpha, math.inf)
    cf = control_field(f, k, alpha)
    assert check_slow_variation(cf, nu).worst_ratio == all_pairs_slow_variation(cf, nu)
    assert _omega_calibration(f, cf)(nu) == all_pairs_calibrate_omega(f, cf, nu)


def test_masked_walk_stops_when_the_masked_supremum_is_final(monkeypatch):
    """A ramp masked to three adjacent cells: the masked bound 2h over
    (3h)^(1/2) falls below the ring-2 ratio (2h)^(1/2) at ring 3, so the
    walk ends there, though the unmasked supremum needs the whole grid."""
    f = grid(lambda x: x, 0.0, 1.0, 101)
    mask = np.zeros(f.shape, dtype=bool)
    mask[40:43] = True
    rings, walk = [], holder._pairs

    def counted(shape, reach):
        for item in walk(shape, reach):
            rings.append(item[0])
            yield item

    monkeypatch.setattr(holder, "_pairs", counted)
    assert estimate_seminorm(f, 0.5, mask=mask) == single_scan_seminorm(f, 0.5, mask=mask)
    assert rings == [1, 2, 3]
    rings.clear()
    assert estimate_seminorm(f, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert rings == list(range(1, 101))


def test_default_window_reaches_the_corner_pair():
    """The ramp x + y on 5^2: the default window reaches the corner pair,
    whose ratio 0.8 / (0.4 sqrt 2)^(1/2) is the supremum."""
    f = SampledFunction.from_callable(lambda x, y: x + y, (0.0, 0.0), 0.1, (5, 5))
    assert estimate_seminorm(f, 0.5) == pytest.approx(0.8 / (0.4 * math.sqrt(2)) ** 0.5, rel=1e-12)


def test_slow_variation_and_omega_reach_the_diagonal_neighbours():
    """radial_bump-11^2, k = 2, alpha = 1, nu = 0.25: nu max r / h is 1.845
    steps, so the diagonal neighbours, 1.414 steps apart, are inside the
    reach and set the worst ratio."""
    f = build_fixture("radial_bump", points=11)
    cf = control_field(f, 2, 1.0)
    assert 0.25 * np.nanmax(cf.values) / f.spacing == pytest.approx(1.845, abs=1e-3)
    assert check_slow_variation(cf, 0.25).worst_ratio == pytest.approx(0.999934898, rel=1e-8)
    assert _omega_calibration(f, cf)(0.25) == pytest.approx(0.267659195, rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, points, k", [("parabola", 201, 2), ("bony", 201, 3), ("radial_bump", 41, 2)])
def test_slow_variation_at_a_huge_nu(name, points, k):
    """nu r overflows to inf at nu = 1e308 and the largest float; inf reaches
    every pair, as nu = 1e300 already does here, and numpy warns of nothing."""
    cf = control_field(build_fixture(name, points=points), k, 1.0)
    want = check_slow_variation(cf, 1e300)
    assert check_slow_variation(cf, 1e308) == want == check_slow_variation(cf, sys.float_info.max)


@settings(max_examples=200)
@given(
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, "first", "last", "second", "mixed", "too long"]),
    st.sampled_from([None, 0.5, 1.0, 3.0]),
)
def test_an_empty_mask_scans_nothing_and_fails_as_the_whole_grid_does(n, seed, derivative, window_steps):
    """With an empty mask estimate_seminorm takes no partial and returns 0,
    or raises the ValueError the whole-grid scan raises: a window under one
    step, a grid too small for the stencil or a multi-index of the wrong
    length (which only the partial rejects)."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(1, 7, n))
    f = SampledFunction((0.0,) * n, 0.1, rng.standard_normal(shape))
    beta = {
        None: None,
        "first": (1,) + (0,) * (n - 1),
        "last": (0,) * (n - 1) + (1,),
        "second": (2,) + (0,) * (n - 1),
        "mixed": (1,) * n,
        "too long": (1,) * (n + 1),
    }[derivative]
    window = None if window_steps is None else window_steps * f.spacing
    try:
        if window_steps is not None and window_steps < 1:
            raise ValueError("window is smaller than one grid step")
        values = f.values if beta is None else fd_partial(f.values, f.spacing, beta)
        expected = holder._sup_ratio((values,), f.spacing, 0.5, math.inf, np.zeros(shape, bool))
    except ValueError as err:
        expected = str(err)
    taken = []
    partial = holder.finitediff.partial
    holder.finitediff.partial = lambda *args: taken.append(args) or partial(*args)
    try:
        got = estimate_seminorm(f, 0.5, derivative=beta, window=window, mask=np.zeros(shape, bool))
    except ValueError as err:
        got = str(err)
    finally:
        holder.finitediff.partial = partial
    assert got == expected and (taken == [] or derivative == "too long")
