import json
import math

import numpy as np
import pytest

from halfsquares.checks import (
    check_derivative_control,
    check_induc,
    check_interpolation,
    check_malgrange,
    refinement_stability,
)
from halfsquares.cli import main
from halfsquares.fixtures import build_fixture
from halfsquares.holder import SampledFunction


def grid(fn, lo, hi, n):
    return SampledFunction.from_callable(fn, (lo,), (hi - lo) / (n - 1), (n,))


def test_malgrange_parabola_ratio():
    f = build_fixture("parabola", points=2001)
    report = check_malgrange(f, 1.0)
    # |2x| against 2 sqrt([f']_1 f) = 2 sqrt(2) |x|
    assert report.max_ratio == pytest.approx(1 / math.sqrt(2), rel=1e-3)
    assert report.ok


def test_malgrange_constant_ratio_zero():
    f = build_fixture("constant", points=501)
    assert check_malgrange(f, 0.5).max_ratio == 0.0


def test_malgrange_constant_is_paper_expression():
    report = check_malgrange(build_fixture("parabola", points=101), 0.5)
    assert report.constant == pytest.approx((0.5 + 1) / 0.5 ** (0.5 / 1.5))


@pytest.mark.parametrize("name", ["bony", "smooth_bump"])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_malgrange_on_smooth_nonnegative_fixtures(name, alpha):
    f = build_fixture(name)
    report = check_malgrange(f, alpha)
    assert report.max_ratio <= 1.05


def test_malgrange_rejects_negative_samples():
    f = grid(lambda x: x, -1.0, 1.0, 101)
    with pytest.raises(ValueError, match="not non-negative"):
        check_malgrange(f, 1.0)


def test_malgrange_2d_paraboloid():
    f = SampledFunction.from_callable(
        lambda x, y: x**2 + y**2, (-1.0, -1.0), 0.02, (101, 101)
    )
    report = check_malgrange(f, 1.0)
    assert report.max_ratio <= 1.05


@pytest.mark.parametrize("points", [41, 101])
def test_malgrange_2d_gradient_seminorm_reaches_the_interior_diagonal(points):
    """grad(x^2 + y^2) = 2 (x, y), so [grad f]_alpha = 2 d^(1 - alpha), d the
    diagonal of the cells where the gradient is defined; the worst ratio
    no longer drifts with the grid."""
    f = build_fixture("paraboloid", points=points)
    report = check_malgrange(f, 0.5)
    diagonal = math.hypot(*((s - 3) * f.spacing for s in f.shape))
    assert report.seminorm == pytest.approx(2.0 * diagonal**0.5, rel=1e-12)
    assert report.max_ratio == pytest.approx(0.52913368399, rel=1e-9)


def test_derivative_control_parabola():
    f = grid(lambda x: x**2, -2.0, 2.0, 2001)
    report = check_derivative_control(f, 2, 1.0, 1)
    assert report.ok
    assert 0 < report.constant <= 2.0
    fine = check_derivative_control(grid(lambda x: x**2, -2.0, 2.0, 4001), 2, 1.0, 1)
    assert refinement_stability(report.constant, fine.constant)


def test_derivative_control_zero_function():
    f = grid(lambda x: 0.0 * x, -1.0, 1.0, 501)
    assert check_derivative_control(f, 2, 1.0, 1).constant == 0.0


def test_derivative_control_bony_finite_and_stable():
    coarse = check_derivative_control(build_fixture("bony", points=2001), 3, 1.0, 1)
    fine = check_derivative_control(build_fixture("bony", points=4001), 3, 1.0, 1)
    assert math.isfinite(coarse.constant) and math.isfinite(fine.constant)
    assert refinement_stability(coarse.constant, fine.constant)


@pytest.mark.parametrize("fixture", ["parabola", "paraboloid"])
def test_derivative_control_on_two_points_fails(fixture):
    with pytest.raises(ValueError, match="grid too small"):
        check_derivative_control(build_fixture(fixture, points=2), 2, 1.0, 1)


@pytest.mark.parametrize("coarse, fine, ok", [
    (1.0, 1.2, True), (1.0, 2.0, False), (0.0, 0.0, True), (0.0, 1.0, False), (math.inf, 1.0, False),
])
def test_refinement_stability_rule(coarse, fine, ok):
    assert refinement_stability(coarse, fine) is ok


def test_interpolation_power_function():
    f = grid(lambda x: np.abs(x) ** 0.9, -1.0, 1.0, 2001)
    assert check_interpolation(f, 0.3, 0.6, 0.9).ok


def test_interpolation_constant():
    f = build_fixture("constant", points=101)
    report = check_interpolation(f, 0.25, 0.5, 1.0)
    assert report.lhs == 0.0
    assert report.ok


def test_interpolation_random_smooth():
    rng = np.random.default_rng(19)
    for _ in range(5):
        coeffs = rng.normal(size=4)
        f = grid(
            lambda x: coeffs[0]
            + coeffs[1] * np.sin(3 * x)
            + coeffs[2] * x**2
            + coeffs[3] * np.cos(5 * x),
            0.0,
            1.0,
            1501,
        )
        assert check_interpolation(f, 0.25, 0.5, 1.0).ok


def test_interpolation_bad_exponents():
    f = build_fixture("constant", points=51)
    with pytest.raises(ValueError):
        check_interpolation(f, 0.5, 0.4, 1.0)


def test_induc_power_function_finite():
    k = 4
    f = grid(lambda x: x ** (2 * k), -1.0, 1.0, 3001)
    report = check_induc(f, k, 1.0, 0.5)
    assert report.ok
    assert set(report.constants) == {2, 4}


def test_induc_constant_function():
    f = build_fixture("constant", points=501)
    report = check_induc(f, 4, 1.0, 0.5)
    assert all(c == 0.0 for c in report.constants.values())


def test_induc_flags_parabola():
    # |f''| = 2 while f^eta vanishes at the origin: the ratio must blow up
    f = grid(lambda x: x**2, -1.0, 1.0, 2001)
    report = check_induc(f, 4, 1.0, 0.5)
    assert report.constants[2] == math.inf
    assert not report.ok


def test_induc_on_a_grid_too_small_for_a_level_fails():
    # four points carry second differences but no fourth-order stencil
    with pytest.raises(ValueError, match="grid too small"):
        check_induc(build_fixture("parabola", points=4), 4, 1.0, 0.5)


def test_induc_parameter_validation():
    f = build_fixture("constant", points=51)
    with pytest.raises(ValueError):
        check_induc(f, 3, 1.0, 0.5)
    with pytest.raises(ValueError):
        check_induc(f, 4, 1.0, 0.99)


@pytest.mark.filterwarnings("error")
def test_malgrange_2d_measures_gradients_whose_squares_overflow(tmp_path, capsys):
    """paraboloid-21^2 times 1e200: the squared partials pass the float
    range, so |grad f| is np.hypot's there, and the ratio is the unscaled
    one up to rounding, as in 1D; the command line prints only its JSON."""
    f = build_fixture("paraboloid", points=21)
    big = SampledFunction(f.origin, f.spacing, f.values * 1e200)
    report = check_malgrange(big, 0.5)
    assert math.isfinite(report.max_ratio) and report.max_ratio == pytest.approx(check_malgrange(f, 0.5).max_ratio)
    path = tmp_path / "big.json"
    path.write_text(big.dumps())
    assert main(["check", "--kind", "malgrange", "--in", str(path), "--alpha", "0.5"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["max_ratio"] == report.max_ratio
