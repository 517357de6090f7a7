import math

import numpy as np
import pytest

from halfsquares import finitediff
from halfsquares.fixtures import build_fixture
from halfsquares.holder import SampledFunction, control_field


def fmax_over_directions(values, h, j):
    out = None
    for idx in range(64):
        theta = math.pi * idx / 64
        cand = finitediff.directional_derivative(values, h, j, (math.cos(theta), math.sin(theta)))
        out = cand if out is None else np.fmax(out, cand)
    return out


def test_directions_are_the_64_angles_pi_i_over_64():
    want = [(math.cos(math.pi * i / 64), math.sin(math.pi * i / 64)) for i in range(64)]
    assert finitediff.DIRECTIONS.shape == (64, 2)
    assert [tuple(row) for row in finitediff.DIRECTIONS.tolist()] == want


@pytest.mark.parametrize("j", [2, 4])
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_max_directional_derivative_is_the_fmax_of_directional_derivatives(j, rows):
    # anisotropic, so the maximizing direction turns across the grid; 1 row
    # is narrower than any stencil (all NaN), 7 rows leave a thin interior
    f = SampledFunction.from_callable(
        lambda x, y: x**4 - 3 * x * y**3 + 2 * x**2 * y + y**2, (-1.0, -0.7), 0.05, (rows, 31)
    )
    np.testing.assert_array_equal(
        finitediff.max_directional_derivative(f.values, f.spacing, j),
        fmax_over_directions(f.values, f.spacing, j),
    )


@pytest.mark.parametrize("j", [2, 4])
@pytest.mark.parametrize("fixture", ["paraboloid", "radial_bump"])
def test_max_directional_derivative_is_the_fmax_on_the_2d_fixtures(j, fixture):
    f = build_fixture(fixture, points=41)
    np.testing.assert_array_equal(
        finitediff.max_directional_derivative(f.values, f.spacing, j),
        fmax_over_directions(f.values, f.spacing, j),
    )


@pytest.mark.parametrize("k", [2, 3])
def test_control_field_is_bit_identical_to_the_per_direction_loop(k):
    f = build_fixture("radial_bump", points=41)
    d2 = np.clip(fmax_over_directions(f.values, f.spacing, 2), 0.0, None)
    expected = np.fmax(np.clip(f.values, 0.0, None) ** (1.0 / (k + 1.0)), d2 ** (1.0 / (k - 2 + 1.0)))
    cf = control_field(f, k, 1.0)
    np.testing.assert_array_equal(cf.values[cf.valid], expected[cf.valid])


def test_max_directional_derivative_in_1d_is_the_axis_derivative():
    f = build_fixture("bony", points=201)
    np.testing.assert_array_equal(
        finitediff.max_directional_derivative(f.values, f.spacing, 2),
        finitediff.diff_axis(f.values, f.spacing, 2),
    )
