"""Empirical inequality checkers for sampled non-negative functions.

Each checker evaluates both sides of a pointwise inequality from grid
samples and reports the worst ratio or empirical constant, one
``_max_ratio`` over the cells where both sides are measured; a grid too
small for the stencils measures nothing and fails.  Inequalities hold up
to a fixed discretization slack.  The Malgrange checker's
[grad f]_alpha is a ``holder._sup_ratio`` scan over every pair of the
grid, in one and two dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import finitediff
from .errors import InputError
from .holder import SampledFunction, _sup_ratio, estimate_seminorm, validate_alpha

MALGRANGE_SLACK = 0.05
INTERPOLATION_SLACK = 0.02
REFINEMENT_FACTOR = 1.5


def _max_ratio(num: np.ndarray, den: np.ndarray, noise: float) -> float:
    """max num/den over the cells where both are finite, at least 0.

    Numerators at most ``noise`` count as 0, and x/0 is inf for x > 0.  A
    ValueError says when no cell is finite: the grid is too small for the
    stencils.
    """
    both = np.isfinite(num) & np.isfinite(den)
    if not both.any():
        raise ValueError("grid too small for the requested derivative")
    num = np.where(num[both] > noise, num[both], 0.0)
    den = den[both]
    pos = den > 0
    if np.any(num[~pos] > 0):
        return math.inf
    return float(np.max(num[pos] / den[pos], initial=0.0))


@dataclass
class MalgrangeReport:
    constant: float  # (alpha+1)/alpha^(alpha/(1+alpha)), used verbatim
    seminorm: float  # empirical [f']_alpha (or [grad f]_alpha)
    max_ratio: float

    @property
    def ok(self) -> bool:
        return self.max_ratio <= 1.0 + MALGRANGE_SLACK


def check_malgrange(f: SampledFunction, alpha: float) -> MalgrangeReport:
    """|grad f| <= ((alpha+1)/alpha^(alpha/(1+alpha))) [grad f]_alpha^(1/(1+alpha)) f^(alpha/(1+alpha))."""
    validate_alpha(alpha)
    if float(np.min(f.values)) < -1e-12:
        raise ValueError("not non-negative")
    h = f.spacing
    grads = [finitediff.partial(f.values, h, tuple(int(i == axis) for i in range(f.n))) for axis in range(f.n)]
    sn = _sup_ratio(grads, h, alpha, math.inf)
    grad = np.abs(grads[0]) if f.n == 1 else finitediff.nabla_norm(f.values, h, 1)
    constant = (alpha + 1.0) / alpha ** (alpha / (1.0 + alpha))
    fx = np.clip(f.values, 0.0, None)
    rhs = constant * sn ** (1.0 / (1.0 + alpha)) * fx ** (alpha / (1.0 + alpha))
    max_ratio = _max_ratio(grad, rhs, finitediff.fd_noise(f.values, h, 1))
    return MalgrangeReport(constant=constant, seminorm=sn, max_ratio=max_ratio)


@dataclass
class DerivativeControlReport:
    constant: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.constant)


def check_derivative_control(f: SampledFunction, k: int, alpha: float, ell: int) -> DerivativeControlReport:
    """Empirical constant in |grad^ell f| <= C max_j [d^j_xi f]_+^((k-ell+a)/(k-j+a)).

    The maximum runs over even j <= k and unit directions; a finite
    constant that is stable under grid refinement is the pass criterion.
    """
    if ell > k:
        raise InputError("need ell <= k")
    validate_alpha(alpha)
    h = f.spacing
    num = finitediff.nabla_norm(f.values, h, ell)
    den = None
    for j in range(0, k + 1, 2):
        if j == 0:
            dj = np.clip(f.values.astype(float), 0.0, None)
        else:
            dj = np.clip(finitediff.max_directional_derivative(f.values, h, j), 0.0, None)
        powered = dj ** ((k - ell + alpha) / (k - j + alpha))
        den = powered if den is None else np.fmax(den, powered)
    return DerivativeControlReport(_max_ratio(num, den, finitediff.fd_noise(f.values, h, ell)))


@dataclass
class InterpolationReport:
    lhs: float  # [f]_gamma^(beta - alpha)
    rhs: float  # [f]_alpha^(beta - gamma) [f]_beta^(gamma - alpha)

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + INTERPOLATION_SLACK) + 1e-300


def check_interpolation(f: SampledFunction, alpha: float, gamma: float, beta: float) -> InterpolationReport:
    """Semi-norm interpolation [f]_gamma^(b-a) <= [f]_alpha^(b-g) [f]_beta^(g-a)."""
    if not 0 < alpha < gamma < beta <= 1:
        raise InputError("need 0 < alpha < gamma < beta <= 1")
    sa = estimate_seminorm(f, alpha).value
    sg = estimate_seminorm(f, gamma).value
    sb = estimate_seminorm(f, beta).value
    return InterpolationReport(lhs=sg ** (beta - alpha), rhs=sa ** (beta - gamma) * sb ** (gamma - alpha))


@dataclass
class InducReport:
    """Empirical constants of the higher-order decomposition hypotheses."""

    constants: dict  # level -> empirical constant (2 uses exponent eta)

    @property
    def ok(self) -> bool:
        return all(math.isfinite(c) for c in self.constants.values())


def check_induc(f: SampledFunction, k: int, alpha: float, eta: float) -> InducReport:
    """Constants for |grad^2 f| <= C f^eta and |grad^ell f| <= C f^((k-l+a)/(k+a)).

    ell runs over the even orders in (2, k].  An infinite constant (a
    point where f vanishes but the derivative does not) is a failure.
    Every level needs a stencil, which bounds k before any is computed.
    """
    top = max(finitediff.STENCILS)
    if not 4 <= k - k % 2 <= top:
        raise InputError(f"need k in {{4, {top + 1}}}: the stencils reach order {top}")
    validate_alpha(alpha)
    if not 0 < eta < (k - 2 + alpha) / (k + alpha):
        raise InputError("eta out of range")
    if float(np.min(f.values)) < -1e-12:
        raise ValueError("not non-negative")
    h = f.spacing
    fx = np.clip(f.values, 0.0, None)
    levels = [(2, eta)] + [(ell, (k - ell + alpha) / (k + alpha)) for ell in range(4, k + 1, 2)]
    return InducReport({
        ell: _max_ratio(finitediff.nabla_norm(f.values, h, ell), fx**exponent, finitediff.fd_noise(f.values, h, ell))
        for ell, exponent in levels
    })


def refinement_stability(coarse: float, fine: float) -> bool:
    """Whether an empirical constant is stable across one grid refinement:
    both finite, and both 0 or within REFINEMENT_FACTOR of each other."""
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return False
    lo, hi = sorted((coarse, fine))
    if hi == 0.0:
        return True
    return lo > 0.0 and hi / lo <= REFINEMENT_FACTOR
