"""Built-in analytic test functions with sensible default grids.

The one-dimensional fixtures: |x|^alpha, the Cantor staircase (iterated
middle-thirds transformation), the oscillating flat example whose square
root loses all Hoelder regularity, a compactly supported smooth bump with
a degenerate interior zero, a parabola and a constant.  Two-dimensional:
a paraboloid and a smooth radial bump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .holder import SampledFunction


def power_alpha(alpha: float) -> Callable:
    if not alpha >= 0:
        raise InputError("power_alpha needs alpha >= 0")

    def fn(x):
        return np.abs(x) ** alpha

    return fn


def cantor_function(iterations: int = 12) -> Callable:
    """Uniform approximant of the Cantor staircase.

    Iterates f_{m+1} = T f_m from f_0(x) = x; the iterates converge
    uniformly at rate 2^-m and are exact at triadic grid points once the
    recursion bottoms out.  Past 64 iterations they agree to double
    precision, so deeper recursions are refused.
    """
    if not 0 <= iterations <= 64:
        raise InputError("cantor iterations must lie in [0, 64]")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return _cantor_recurse(np.clip(x, 0.0, 1.0), iterations)

    return fn


def _cantor_recurse(x, m):
    # an empty branch ends here, so the calls grow with the points, not as 2^m
    if m == 0 or x.size == 0:
        return x
    out = np.empty_like(x)
    left = x <= 1.0 / 3.0
    right = x >= 2.0 / 3.0
    mid = ~(left | right)
    out[left] = 0.5 * _cantor_recurse(3.0 * x[left], m - 1)
    out[mid] = 0.5
    out[right] = 0.5 * (1.0 + _cantor_recurse(3.0 * x[right] - 2.0, m - 1))
    return out


def bony_example() -> Callable:
    """exp(-1/|x|) (sin^2(pi/|x|) + exp(-1/x^2)), zero at the origin.

    Smooth and non-negative, but its square root is not C^{1,alpha} for
    any alpha > 0.
    """

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        nz = x != 0.0
        ax = np.abs(x[nz])
        with np.errstate(over="ignore", under="ignore"):
            out[nz] = np.exp(-1.0 / ax) * (
                np.sin(np.pi / ax) ** 2 + np.exp(-1.0 / (x[nz] ** 2))
            )
        return out

    return fn


def smooth_bump() -> Callable:
    """x^2 exp(1/(x^2 - 1)) inside |x| < 1, zero outside."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        with np.errstate(under="ignore"):
            out[inside] = xi**2 * np.exp(1.0 / (xi**2 - 1.0))
        return out

    return fn


def parabola() -> Callable:
    return lambda x: np.asarray(x, dtype=float) ** 2


def constant(value: float = 1.0) -> Callable:
    return lambda x: np.full_like(np.asarray(x, dtype=float), float(value))


def paraboloid() -> Callable:
    return lambda x, y: x**2 + y**2


def radial_bump() -> Callable:
    """Smooth radial bump exp(1/(rho^2 - 1)) supported in the unit disk."""

    def fn(x, y):
        rho2 = x**2 + y**2
        out = np.zeros_like(rho2, dtype=float)
        inside = rho2 < 1.0
        with np.errstate(under="ignore"):
            out[inside] = np.exp(1.0 / (rho2[inside] - 1.0))
        return out

    return fn


@dataclass(frozen=True)
class FixtureSpec:
    factory: Callable[..., Callable]
    n: int
    domain: tuple  # (lo, hi) per axis
    default_points: int
    nonnegative: bool
    c1alpha: bool  # belongs to C^{1,alpha} on its domain (for Malgrange-type checks)


FIXTURES: dict[str, FixtureSpec] = {
    "power_alpha": FixtureSpec(power_alpha, 1, (-1.0, 1.0), 4001, True, False),
    "cantor": FixtureSpec(cantor_function, 1, (0.0, 1.0), 2188, True, False),
    "bony": FixtureSpec(bony_example, 1, (-0.6, 0.6), 4001, True, True),
    "smooth_bump": FixtureSpec(smooth_bump, 1, (-1.5, 1.5), 3001, True, True),
    "parabola": FixtureSpec(parabola, 1, (-2.0, 2.0), 2001, True, True),
    "constant": FixtureSpec(constant, 1, (0.0, 1.0), 1001, True, True),
    "paraboloid": FixtureSpec(paraboloid, 2, (-2.0, 2.0), 201, True, True),
    "radial_bump": FixtureSpec(radial_bump, 2, (-1.5, 1.5), 201, True, True),
}


def build_fixture(name: str, points: int | None = None, **params) -> SampledFunction:
    """Sample a named fixture on its default (or refined) grid.

    ``points`` is the sample count per axis; factory keyword arguments
    (e.g. alpha for power_alpha, iterations for cantor) pass through.
    Raises InputError for an unknown name, fewer than 2 points or a
    factory argument out of range.
    """
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    spec = FIXTURES[name]
    count = spec.default_points if points is None else int(points)
    if count < 2:
        raise InputError("a fixture needs at least 2 points per axis")
    fn = spec.factory(**params)
    lo, hi = spec.domain
    spacing = (hi - lo) / (count - 1)
    origin = tuple(lo for _ in range(spec.n))
    shape = tuple(count for _ in range(spec.n))
    return SampledFunction.from_callable(fn, origin, spacing, shape)
