import math

import numpy as np
import pytest

from halfsquares import finitediff
from halfsquares.fixtures import build_fixture
from halfsquares.holder import control_field


def fmax_over_directions(values, h, j, directions):
    out = None
    for idx in range(directions):
        theta = math.pi * idx / directions
        cand = finitediff.directional_derivative(values, h, j, (math.cos(theta), math.sin(theta)))
        out = cand if out is None else np.fmax(out, cand)
    return out


@pytest.mark.parametrize("j", [2, 4])
@pytest.mark.parametrize("directions", [1, 7, 64])
def test_max_directional_derivative_is_the_fmax_of_directional_derivatives(j, directions):
    f = build_fixture("radial_bump", points=41)
    np.testing.assert_array_equal(
        finitediff.max_directional_derivative(f.values, f.spacing, j, directions),
        fmax_over_directions(f.values, f.spacing, j, directions),
    )


@pytest.mark.parametrize("k", [2, 3])
def test_control_field_is_bit_identical_to_the_per_direction_loop(k):
    f = build_fixture("radial_bump", points=41)
    d2 = np.clip(fmax_over_directions(f.values, f.spacing, 2, 64), 0.0, None)
    expected = np.fmax(np.clip(f.values, 0.0, None) ** (1.0 / (k + 1.0)), d2 ** (1.0 / (k - 2 + 1.0)))
    cf = control_field(f, k, 1.0)
    np.testing.assert_array_equal(cf.values[cf.valid], expected[cf.valid])
    assert cf.directions == 64


def test_max_directional_derivative_in_1d_is_the_axis_derivative():
    f = build_fixture("bony", points=201)
    np.testing.assert_array_equal(
        finitediff.max_directional_derivative(f.values, f.spacing, 2),
        finitediff.diff_axis(f.values, f.spacing, 2),
    )
