"""Constructive sum-of-squares decomposition of sampled functions.

Both entry points run one construction on f / M, M the sampled
C^(k,alpha) norm of f: nu is halved from 1/4 until the control field r
varies slowly at scale nu and the cover at nu is accepted.  Its branch
test puts ball j in branch A when f(x_j) >= omega * nu * r_j^(k+alpha).
``decompose`` accepts when every other (branch-B) ball has an interior
minimum; ``partial_decompose`` is the same construction with another
stopping rule: the residual the branch-B balls leave is at most eps.

Branch-A balls contribute psi_j sqrt(f); the others locate the interior
minimizer along the distinguished direction, split off
psi_j * sgn * sqrt(f - F), and handle the remainder F either as a
constant (one dimension) or by recursing on the fiber minimum curve (two
dimensions, one recursion level).  Squares from balls of one color class
have disjoint supports and are summed, which keeps the final square
count bounded by the dimensional constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .cover import OVERLAP_BOUND_BASE, PartitionOfUnity, bump, build_cover, overlap_counts, partition_functions
from .finitediff import partial as fd_partial
from .holder import (
    ControlField,
    SampledFunction,
    check_slow_variation,
    control_field,
    estimate_seminorm,
    holder_norm,
)

NU_START = 0.25
# On f / M the control field is a length and every built-in fixture, 1D, 2D
# and the 2D fiber recursions, keeps nu = 0.25; the floor only ends the
# halving loop on inputs whose control field varies slowly at no scale.
NU_FLOOR = 1e-6
# partial_decompose searches no minimizers, so its nu may shrink far below
# the full decomposition's working range; this floor only ends the loop.
PARTIAL_NU_FLOOR = 1e-12
# sampled directions of the control field and of a 2D ball's fiber direction
DIRECTIONS = 64
# Largest sup |sum g^2 - f| / max |f| that verify accepts.  The fixtures
# reach 2.5e-9 (radial_bump-121^2); times their max |f| (7.8 at most) it is
# below criterion 8's absolute 1e-6 and criterion 9's 1e-4.
RECONSTRUCTION_TOLERANCE = 1e-7


class DecompositionError(RuntimeError):
    pass


class _NuTooLarge(Exception):
    """Internal: the attempt at this nu rejects its cover."""


@dataclass
class Decomposition:
    """Squares, residual and diagnostics of one decomposition run.

    Squares, residual, clamp and branch minima are in the units of f.  The
    construction itself runs on f / scale, with scale the sampled
    C^(k,alpha) norm of f, so ``control``, ``nu`` and ``omega`` belong to
    that normalized function.
    """

    origin: tuple[float, ...]
    spacing: float
    k: int
    alpha: float
    nu: float
    omega: float
    squares: list[np.ndarray]
    residual: np.ndarray
    control: ControlField
    partition: PartitionOfUnity
    branch_a: int
    branch_b: int
    clamp_max: float  # largest negative value clipped before a square root
    square_labels: list[tuple[int, int]]  # (color class, slot)
    branch_info: list[tuple] = dataclass_field(default_factory=list)  # per ball
    scale: float = 1.0  # the sampled C^(k,alpha) norm f was divided by

    @property
    def n(self) -> int:
        return self.residual.ndim

    @property
    def square_count(self) -> int:
        return len(self.squares)

    def reconstruction(self) -> np.ndarray:
        total = self.residual.copy()
        for g in self.squares:
            total += g**2
        return total

    def verified_mask(self) -> np.ndarray:
        """{r > 0} with a one-cell margin shaved off around {r = 0}."""
        from scipy.ndimage import binary_erosion

        positive = self.control.positive_mask()
        return binary_erosion(positive, structure=np.ones((3,) * self.n, dtype=bool))

    def to_json_dict(self) -> dict:
        return {
            "origin": list(self.origin),
            "spacing": self.spacing,
            "shape": list(self.residual.shape),
            "k": self.k,
            "alpha": self.alpha,
            "nu": self.nu,
            "omega": self.omega,
            "squares": [[float(v) for v in g.ravel()] for g in self.squares],
            "residual": [float(v) for v in self.residual.ravel()],
            "branch_a": self.branch_a,
            "branch_b": self.branch_b,
        }


def _parabolic_min(x0: float, h: float, fm: float, f0: float, fp: float):
    """Vertex of the parabola through (x0 - h, fm), (x0, f0), (x0 + h, fp).

    Assumes f0 <= min(fm, fp); returns (x*, f*) clamped to the bracket
    and never above the sampled minimum.
    """
    curv = fm - 2.0 * f0 + fp
    if curv <= 0.0:
        return x0, f0
    shift = 0.5 * (fm - fp) / curv
    shift = max(-1.0, min(1.0, shift))
    f_star = f0 - 0.125 * (fm - fp) ** 2 / curv
    return x0 + shift * h, min(f_star, f0)


def _calibrate_omega(f: SampledFunction, cf: ControlField, nu: float) -> float:
    """omega = 2 * empirical constant of |f(x)-f(y)| <= C nu r(x)^(k+alpha)
    over pairs with |x - y| <= nu r(x).

    The short-pair limit of that constant is |grad f(x)| / r(x)^(k-1+alpha),
    which stays measurable even when nu r drops below the grid spacing, so
    the calibration takes the maximum of both probes.  The gradient probe
    reads only cells where the grid resolves f: f varies by at most a
    factor of two over the 3-cell neighbourhood, so that f / |grad f|,
    the length on which f changes by its own size, spans more than about
    a cell.  Elsewhere (near a zero that falls between grid points, or on
    an essential cliff) the central difference reports the jump across
    the cell, not the gradient, and one such cell would set omega for the
    whole cover.
    """
    from scipy.ndimage import maximum_filter, minimum_filter

    from .checks import fd_noise
    from .finitediff import gradient_norm
    from .holder import _pair_offsets_2d, _shifted_views

    h = f.spacing
    r = cf.values
    power = cf.k + cf.alpha
    finite = np.isfinite(r)
    rmax = float(r[finite].max()) if finite.any() else 0.0

    grad = gradient_norm(f.values, h)
    grad = np.where(grad > fd_noise(f.values, h, 1), grad, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        probe = grad / r ** (power - 1.0)
    low = minimum_filter(f.values, size=3, mode="nearest")
    resolved = (low > 0) & (maximum_filter(f.values, size=3, mode="nearest") <= 2.0 * low)
    ok = np.isfinite(probe) & (r > 0) & (grad > 0) & resolved
    best = float(probe[ok].max()) if ok.any() else 0.0

    max_steps = min(int(nu * rmax / h + 1e-9), max(f.values.shape) - 1)
    if f.n == 1:
        offsets = ((d,) for d in range(1, max_steps + 1))
    else:
        offsets = _pair_offsets_2d(max_steps)
    for off in offsets:
        fa, fb = _shifted_views(f.values, off)
        ra, rb = _shifted_views(r, off)
        dist = h * (math.hypot(*off) if f.n == 2 else off[0])
        for base, other, rbase in ((fa, fb, ra), (fb, fa, rb)):
            with np.errstate(invalid="ignore"):
                mask = np.isfinite(rbase) & (rbase > 0) & (dist <= nu * rbase)
            if not mask.any():
                continue
            ratios = np.abs(base[mask] - other[mask]) / (nu * rbase[mask] ** power)
            best = max(best, float(ratios.max()))
    return 2.0 * best


def decompose(
    f: SampledFunction,
    k: int,
    alpha: float,
    nu: float | None = None,
    omega: float | None = None,
) -> Decomposition:
    """Decompose a sampled non-negative function into half-regular squares.

    k must be 2 or 3 and the grid one- or two-dimensional.  nu and omega
    are auto-selected when omitted: nu starts at 0.25 and is halved until
    the slow-variation check passes and every branch-B ball exhibits an
    interior minimum; omega is calibrated from the sampled variation of f
    at scale nu r.

    The construction runs on f / M, M the sampled C^(k,alpha) norm of f,
    so that the control field is a length and nu a fixed fraction of it;
    nu and omega (given or selected) refer to f / M.  The squares are
    scaled back by sqrt(M), so decompose(c f) is sqrt(c) decompose(f).
    """
    if k not in (2, 3):
        raise ValueError("decomposition path supports k = 2 or 3 only")
    if f.n not in (1, 2):
        raise ValueError("only 1- and 2-dimensional grids are supported")
    if f.n == 2 and min(f.shape) < 4:
        raise ValueError("a 2D grid needs 4 points per axis for its cubic fiber spline")
    return _search_nu(f, k, alpha, _decompose_at, NU_FLOOR, nu, omega)


def partial_decompose(f: SampledFunction, k: int, alpha: float, eps: float) -> Decomposition:
    """Squares from bounded-below balls only, plus a small residual.

    The construction of ``decompose`` with another stopping rule: the
    branch-B balls get no minimizer and no squares, and nu is halved until
    the residual h = sum over them of psi_j^2 f is at most eps; then
    0 <= h <= eps pointwise and f - h is the square sum.  With no
    minimizers to find, nu may shrink down to PARTIAL_NU_FLOOR.  As in
    ``decompose`` the construction runs on f / M and is scaled back, so
    partial_decompose(c f, eps = c eps) is sqrt(c) partial_decompose(f, eps)
    with residual c h.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def attempt(unit, scale, cf, nu, omega):
        part, bounded = _cover(unit, cf, nu, omega)
        # h = sum of psi_j^2 f over the branch-B balls, in their order
        branch_b = np.logical_not(bounded)
        cells = part.table.select(branch_b).cells()
        psi = part.psi[part.table.per_entry(branch_b)]
        residual = np.zeros(unit.values.size)
        np.add.at(residual, cells, psi**2 * unit.values.ravel()[cells])
        # scaling by M > 0 is monotone, so this is the maximum of M h; NaN rejects
        worst = float(residual.max(initial=0.0)) * scale
        if not worst <= eps:
            raise _NuTooLarge(f"residual {worst:.3g} exceeds eps={eps}")
        values = np.clip(unit.values, 0.0, None)
        per_ball = [
            _ball_squares(("A",), psi_j, None, values[win])[0] if a else []
            for a, win, psi_j in zip(bounded, part.windows, part.psis)
        ]
        residual = residual.reshape(unit.values.shape)
        return _assembled(unit, cf, nu, omega, part, bounded, per_ball, residual, 0.0, [])

    return _search_nu(f, k, alpha, attempt, PARTIAL_NU_FLOOR)


def _search_nu(f, k, alpha, attempt, floor, nu=None, omega=None) -> Decomposition:
    """The one nu loop: the decomposition ``attempt`` accepts, scaled back to f.

    nu is halved from NU_START, down to ``floor``, until the control field
    of f / M varies slowly at nu and ``attempt(f / M, M, cf, nu, omega)``
    returns instead of raising _NuTooLarge.  A given nu is the only one
    tried; a given omega replaces the calibration.  Of a rejected attempt
    only the reason is kept: its exception's traceback would hold the
    rejected cover's arrays through the next attempt.
    """
    unit, scale = _normalized(f, k, alpha)
    cf = control_field(unit, k, alpha, directions=DIRECTIONS)
    current = NU_START if nu is None else nu
    reason = None
    while current >= floor:
        report = check_slow_variation(cf, current, fail_fast=True)
        if report.ok:
            w = _calibrate_omega(unit, cf, current) if omega is None else omega
            try:
                return _rescaled(attempt(unit, scale, cf, current, w), scale)
            except _NuTooLarge as err:
                reason = str(err)
        else:
            reason = f"slow variation fails at nu={current}: ratio {report.worst_ratio:.3f}"
        if nu is not None:
            raise DecompositionError(f"decomposition failed at fixed nu={nu}: {reason}")
        current /= 2.0
    raise DecompositionError(f"nu underflowed {floor} ({reason})")


def _normalized(f: SampledFunction, k: int, alpha: float) -> tuple[SampledFunction, float]:
    """(f / M, M) with M the sampled C^(k,alpha) norm of f, or M = 1 for f = 0.

    Non-negativity is checked on f / M, so its tolerance is relative to M.
    """
    scale = holder_norm(f, k, alpha) or 1.0
    unit = SampledFunction(f.origin, f.spacing, f.values / scale, name=f.name)
    if float(np.min(unit.values)) < -1e-12:
        raise DecompositionError("f is negative beyond tolerance")
    return unit, scale


def _rescaled(d: Decomposition, scale: float) -> Decomposition:
    """A decomposition of f / scale turned into one of f, in place."""
    root = math.sqrt(scale)
    for g in d.squares:
        g *= root
    d.residual *= scale
    d.clamp_max *= scale
    d.branch_info = [
        (info[0], info[1], scale * info[2]) if info[0] == "B1" else info for info in d.branch_info
    ]
    d.scale = scale
    return d


def _cover(f, cf, nu, omega):
    """The partition of unity at nu and each ball's branch test (True: branch A)."""
    part = partition_functions(cf, build_cover(cf, nu), nu)
    threshold, power = omega * nu, cf.k + cf.alpha
    return part, [float(f.values[ball.index]) >= threshold * ball.r**power for ball in part.balls]


def _decompose_at(f, scale, cf, nu, omega) -> Decomposition:
    """The full decomposition of f at nu; rejects nu when a branch-B ball
    has no interior minimum.  f is already normalized, so ``scale`` is unused."""
    part, bounded = _cover(f, cf, nu, omega)
    values = np.clip(f.values, 0.0, None)
    if f.n == 1:
        coords = f.axis_coords(0)
    else:
        spline = RectBivariateSpline(f.axis_coords(0), f.axis_coords(1), f.values, kx=3, ky=3)
        hessian = [fd_partial(f.values, f.spacing, beta) for beta in ((2, 0), (1, 1), (0, 2))]

    per_ball: list[list[np.ndarray]] = []
    branch_info: list[tuple] = []
    clamp_max = 0.0
    for ball, win, psi, bounded_below in zip(part.balls, part.windows, part.psis, bounded):
        if bounded_below:
            info = ("A",)
            squares, clamp = _ball_squares(info, psi, None, values[win])
        elif f.n == 1:
            info = ("B1", *_fiber_minimum_1d(f, coords, ball, win))
            squares, clamp = _ball_squares(info, psi, coords[win[0]], f.values[win])
        else:
            info = ("B2",)
            squares, clamp = _branch_b_2d(f, hessian, spline, ball, win, psi, cf.k, cf.alpha)
        branch_info.append(info)
        clamp_max = max(clamp_max, clamp)
        per_ball.append(squares)
    residual = np.zeros_like(f.values, dtype=float)
    return _assembled(f, cf, nu, omega, part, bounded, per_ball, residual, clamp_max, branch_info)


def _assembled(f, cf, nu, omega, part, bounded, per_ball, residual, clamp_max, branch_info):
    """The decomposition of f from per-ball squares and branch tests."""
    squares, labels = _recombine(f.values.shape, part.colors, part.windows, per_ball)
    branch_a = sum(bounded)
    return Decomposition(
        origin=f.origin,
        spacing=f.spacing,
        k=cf.k,
        alpha=cf.alpha,
        nu=nu,
        omega=omega,
        squares=squares,
        control=cf,
        partition=part,
        branch_a=branch_a,
        branch_b=len(bounded) - branch_a,
        residual=residual,
        clamp_max=clamp_max,
        square_labels=labels,
        branch_info=branch_info,
    )


def _ball_squares(info, psi, v, fv):
    """The squares of a branch-A or branch-B1 ball and the clamp they needed.

    ``psi``, the coordinates ``v`` and the values ``fv`` of f are given at
    the same points.  A: psi sqrt(f), fv clipped at 0 by the caller.
    B1: psi sgn(v - x_min) sqrt(f - f_min)_+ and psi sqrt(f_min).
    """
    if info[0] == "A":
        return [psi * np.sqrt(fv)], 0.0
    _, x_min, f_min = info
    g1, clamp = _signed_root(psi, v, x_min, fv, f_min)
    return [g1, psi * math.sqrt(f_min)], clamp


def _signed_root(psi, v, v_min, fv, f_min):
    """psi sgn(v - v_min) sqrt(fv - f_min)_+ and the largest f_min - fv clipped away."""
    diff = fv - f_min
    clamp = max(0.0, float(-diff.min(initial=0.0)))
    return psi * np.sign(v - v_min) * np.sqrt(np.clip(diff, 0.0, None)), clamp


def _descend(values, start: int) -> int:
    """Walk downhill from ``start`` to the nearest discrete local minimum.

    Descent cannot leave the well the starting point sits in, which keeps
    the located minimizer local in the sense of the construction; where
    the second derivative is bounded below along the whole fiber this is
    its unique minimum.
    """
    i = start
    last = len(values) - 1
    while True:
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i < last else math.inf
        here = values[i]
        if left < here and left <= right:
            i -= 1
        elif right < here:
            i += 1
        else:
            return i


def _fiber_minimum_1d(f, coords, ball, win):
    """(x_min, f_min) downhill of the lowest sample of a 1D ball's window,
    refined by a parabola; _NuTooLarge when descent reaches the domain edge."""
    start = win[0].start + int(np.argmin(f.values[win]))
    arg = _descend(f.values, start)
    if arg in (0, len(f.values) - 1):
        raise _NuTooLarge(f"minimum hits the domain edge at ball {ball.index}")
    x_min, f_min = _parabolic_min(
        float(coords[arg]),
        f.spacing,
        float(f.values[arg - 1]),
        float(f.values[arg]),
        float(f.values[arg + 1]),
    )
    return x_min, max(f_min, 0.0)


def _fiber_minima(f, spline, ball, eu, ev, u_grid):
    """Minimizer and minimum of v -> f(x_j + u eu + v ev) for each u of u_grid.

    Each fiber is sampled on the lattice v = h j, |j| <= n_v, which spans
    the domain diagonal, but evaluated only on a window |j| <= w: w starts
    a few cells past the ball radius and doubles, capped at n_v, for the
    rows whose descent stops on the window edge or that have no in-domain
    sample in the window.  ``spline.ev`` evaluates each point on its own,
    descent steps only to neighbours, and the in-domain samples of a line
    through the box are one run of the lattice, so every start, minimum,
    edge verdict and parabolic vertex is that of the whole-lattice scan.
    Raises _NuTooLarge when a fiber crossing the ball has no interior
    minimum.
    """
    h = f.spacing
    center = np.array(ball.center)
    lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
    hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
    extent = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    n_v = int(extent / h) + 1
    v_grid = h * np.arange(-n_v, n_v + 1)

    x_min = np.empty(len(u_grid))
    f_min = np.empty(len(u_grid))
    interior_needed = np.abs(u_grid) <= ball.radius + h
    rows = np.arange(len(u_grid))
    w = min(n_v, int(ball.radius / h) + 4)
    while rows.size:
        v_win = v_grid[n_v - w : n_v + w + 1]
        pts = (
            center
            + np.outer(u_grid[rows], eu).reshape(len(rows), 1, 2)
            + np.outer(v_win, ev).reshape(1, len(v_win), 2)
        )
        inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=-1)
        clipped = np.clip(pts, lo, hi)
        fiber_vals = spline.ev(clipped[..., 0], clipped[..., 1])
        # clipped samples repeat the boundary value; poison them so descent
        # cannot mistake the clip shelf for an interior minimum
        fiber_vals = np.where(inside, fiber_vals, np.inf)

        short_window = w < n_v
        grow = []
        for i, row in zip(rows, fiber_vals):
            start = w
            if not np.isfinite(row[start]):
                finite_idx = np.flatnonzero(np.isfinite(row))
                if finite_idx.size == 0:
                    if short_window:
                        grow.append(i)
                        continue
                    x_min[i] = 0.0
                    f_min[i] = 0.0
                    continue
                start = int(finite_idx[np.argmin(np.abs(finite_idx - w))])
            arg = _descend(row, start)
            on_window_edge = arg in (0, len(v_win) - 1)
            if on_window_edge and short_window:
                grow.append(i)
                continue
            if on_window_edge or not np.isfinite(row[arg - 1]) or not np.isfinite(row[arg + 1]):
                if interior_needed[i]:
                    raise _NuTooLarge(f"fiber minimum hits the domain edge at ball {ball.index}")
                x_min[i] = v_win[arg]
                f_min[i] = max(float(row[arg]), 0.0)
                continue
            v_star, f_star = _parabolic_min(
                float(v_win[arg]), h, float(row[arg - 1]), float(row[arg]), float(row[arg + 1])
            )
            x_min[i] = v_star
            f_min[i] = max(f_star, 0.0)
        rows = np.array(grow, dtype=int)
        w = min(2 * w, n_v)
    return x_min, f_min


def _branch_b_2d(f, hessian, spline, ball, win, psi, k, alpha):
    """Split off the signed root of f - F along the fiber-minimum curve, recurse on F.

    F(u) is the minimum of f along the fiber through x_j + u eu in the
    distinguished direction ev, found on a window that grows only where
    descent needs it (``_fiber_minima``).  F and its minimizer are
    interpolated by cubic splines in u.
    """
    h = f.spacing
    # distinguished direction: sampled argmax of the second directional derivative
    fxx = float(hessian[0][ball.index])
    fxy = float(hessian[1][ball.index])
    fyy = float(hessian[2][ball.index])
    best_theta, best_val = 0.0, -math.inf
    for idx in range(DIRECTIONS):
        theta = math.pi * idx / DIRECTIONS
        c, s = math.cos(theta), math.sin(theta)
        val = c * c * fxx + 2 * c * s * fxy + s * s * fyy
        if val > best_val:
            best_theta, best_val = theta, val
    ev = np.array([math.cos(best_theta), math.sin(best_theta)])  # fiber direction
    eu = np.array([-ev[1], ev[0]])
    center = np.array(ball.center)

    u_max = 2.0 * ball.radius + 6.0 * h  # cutoff support plus stencil margin
    n_u = int(u_max / h) + 1
    u_grid = h * np.arange(-n_u, n_u + 1)
    x_min, f_min = _fiber_minima(f, spline, ball, eu, ev, u_grid)

    phi = bump(u_grid / (2.0 * ball.radius))
    f_curve = CubicSpline(u_grid, f_min)
    x_curve = CubicSpline(u_grid, x_min)

    # main square on the ball window
    xx, yy = np.meshgrid(f.axis_coords(0)[win[0]], f.axis_coords(1)[win[1]], indexing="ij")
    du = (xx - center[0]) * eu[0] + (yy - center[1]) * eu[1]
    dv = (xx - center[0]) * ev[0] + (yy - center[1]) * ev[1]
    g1, clamp = _signed_root(psi, dv, x_curve(du), f.values[win], f_curve(du))
    squares = [g1]

    # recurse on the cutoff extension of the fiber-minimum curve; the
    # sub-squares are composed with the rotation by re-evaluating their
    # closed forms at the rotated coordinate, not by resampling arrays.
    # A curve that is zero at every sample decomposes into no squares.
    curve = np.clip(phi * f_min, 0.0, None)
    if not curve.any():
        return squares, clamp
    sub = decompose(SampledFunction((float(u_grid[0]),), h, curve), k, alpha)

    def f_of_u(u):
        return np.clip(bump(u / (2.0 * ball.radius)) * f_curve(u), 0.0, None)

    for g_sub in evaluate_1d_squares(sub, du.ravel(), f_of_u):
        squares.append(psi * g_sub.reshape(du.shape))
    return squares, max(clamp, sub.clamp_max)


def evaluate_1d_squares(d: Decomposition, points: np.ndarray, f_of_u) -> list[np.ndarray]:
    """Re-evaluate a 1D decomposition's squares at arbitrary coordinates.

    The recombined squares are closed-form in the ball data (bump
    partition weights, branch minima) given the underlying function, so
    they can be composed with a coordinate change without resampling the
    stored arrays.  ``f_of_u`` must reproduce the function the
    decomposition was computed from.  Returns arrays aligned with
    ``d.square_labels``.
    """
    if d.n != 1:
        raise ValueError("only one-dimensional decompositions can be re-evaluated")
    points = np.asarray(points, dtype=float)
    weights = [bump(np.abs(points - ball.center[0]) / ball.radius) for ball in d.partition.balls]
    denom = np.sqrt(sum(w**2 for w in weights)) if weights else np.zeros_like(points)
    fu = np.clip(np.asarray(f_of_u(points), dtype=float), 0.0, None)
    per_ball_squares = []
    for w, info in zip(weights, d.branch_info, strict=True):
        # psi off the grid, where no window table holds it
        psi = np.zeros_like(points)
        np.divide(w, denom, out=psi, where=denom > 0)
        per_ball_squares.append(_ball_squares(info, psi, points, fu)[0])
    whole = [Ellipsis] * len(per_ball_squares)
    squares, labels = _recombine(points.shape, d.partition.colors, whole, per_ball_squares)
    by_label = dict(zip(labels, squares))
    return [by_label.get(label, np.zeros_like(points)) for label in d.square_labels]


def _recombine(shape, colors, windows, per_ball_squares):
    """Sum per-ball squares of equal slot within each color class, each on
    its ball's window; the nonzero sums and their (class, slot) labels."""
    acc: dict[tuple[int, int], np.ndarray] = {}
    for color, win, squares in zip(colors, windows, per_ball_squares):
        for slot, g in enumerate(squares):
            key = (color, slot)
            if key not in acc:
                acc[key] = np.zeros(shape, dtype=float)
            acc[key][win] += g
    labels = [key for key in sorted(acc) if np.any(acc[key])]
    return [acc[key] for key in labels], labels


@dataclass
class VerifyReport:
    reconstruction_error: float
    reconstruction_bound: float  # RECONSTRUCTION_TOLERANCE * max |f|, verified region
    square_count: int
    square_bound: int
    overlap_max: int
    overlap_bound: int
    class_count: int
    partition_deviation: float
    half_exponent: float
    derivative_seminorms: list[float]  # per square, on the resolved region
    derivative_seminorms_full: list[float]  # per square, everywhere
    resolved_fraction: float  # share of the verified region that is resolved
    value_constant: float  # sup |g| / r^((k+alpha)/2), g and r both of f / M
    derivative_constant: float  # sup |g'| / r^((k+alpha)/2 - 1), likewise
    residual_max: float

    @property
    def ok(self) -> bool:
        return (
            self.reconstruction_error <= self.reconstruction_bound
            and self.square_count <= self.square_bound
            and self.overlap_max <= self.overlap_bound
            and self.partition_deviation <= 1e-10
            and all(math.isfinite(s) for s in self.derivative_seminorms)
        )


def square_count_bound(n: int) -> int:
    """m_1 = 2 * 15 and the recursion m_n = 15^n (1 + m_{n-1})."""
    bound = 2 * OVERLAP_BOUND_BASE
    for dim in range(2, n + 1):
        bound = OVERLAP_BOUND_BASE**dim * (1 + bound)
    return bound


def verify(d: Decomposition, f: SampledFunction, seminorm_window: float | None = None) -> VerifyReport:
    """Reconstruction error, regularity estimates and count/overlap checks.

    Derivative semi-norms are reported twice: over the sub-region where
    every contributing ball has physical radius nu r_j of at least three
    cells (the grid genuinely resolves the partition functions there),
    and over the whole grid.  Regularity below grid resolution is not
    measurable, so the resolved figures are the meaningful ones.
    """
    mask = d.verified_mask()
    recon = d.reconstruction()
    err = float(np.max(np.abs(recon - f.values)[mask])) if mask.any() else 0.0
    f_max = float(np.max(np.abs(f.values)[mask], initial=0.0))

    part = d.partition
    coarse = np.array([d.nu * ball.r < 3.0 * d.spacing for ball in part.balls], dtype=bool)
    resolved = mask & ~part.table.select(coarse).covered()
    if resolved.any() and not resolved.all():
        # differencing must not reach across the exclusion boundary
        from scipy.ndimage import binary_erosion

        resolved = binary_erosion(resolved, structure=np.ones((3,) * d.n, dtype=bool), iterations=3)
    denom = int(mask.sum())
    resolved_fraction = float(resolved.sum()) / denom if denom else 1.0

    k, alpha = d.k, d.alpha
    half_exp = alpha / 2.0 if k % 2 == 0 else (1.0 + alpha) / 2.0
    derivative_seminorms = []
    derivative_seminorms_full = []
    for g in d.squares:
        gf = SampledFunction(d.origin, d.spacing, g)
        best_resolved = 0.0
        best_full = 0.0
        for axis in range(d.n):
            beta = tuple(1 if i == axis else 0 for i in range(d.n))
            est = estimate_seminorm(
                gf, half_exp, derivative=beta, window=seminorm_window, mask=resolved
            )
            best_full = max(best_full, est.unmasked)
            best_resolved = max(best_resolved, est.value)
        derivative_seminorms.append(best_resolved)
        derivative_seminorms_full.append(best_full)

    r = d.control.values
    power = (k + alpha) / 2.0
    value_constant = 0.0
    deriv_constant = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for g in d.squares:
            g = g / math.sqrt(d.scale)  # the square of f / M, like r
            num = np.abs(g)[mask]
            den = r[mask] ** power
            ratios = np.where(den > 0, num / den, np.where(num > 1e-12, np.inf, 0.0))
            value_constant = max(value_constant, float(np.max(ratios, initial=0.0)))
            gnorm = None
            for axis in range(d.n):
                beta = tuple(1 if i == axis else 0 for i in range(d.n))
                p = fd_partial(g, d.spacing, beta)
                gnorm = p**2 if gnorm is None else gnorm + p**2
            gnorm = np.sqrt(gnorm)[mask]
            den = r[mask] ** (power - 1.0)
            ok = np.isfinite(gnorm)
            ratios = np.where(
                den[ok] > 0, gnorm[ok] / den[ok], np.where(gnorm[ok] > 1e-9, np.inf, 0.0)
            )
            deriv_constant = max(deriv_constant, float(np.max(ratios, initial=0.0)))

    pou = d.partition.sum_squares
    positive = d.control.positive_mask()
    deviation = float(np.max(np.abs(pou[positive] - 1.0), initial=0.0))
    zero_region = ~positive & d.control.valid
    if zero_region.any():
        deviation = max(deviation, float(np.max(np.abs(pou[zero_region]), initial=0.0)))

    counts = overlap_counts(d.control, d.partition.balls)
    return VerifyReport(
        reconstruction_error=err,
        reconstruction_bound=RECONSTRUCTION_TOLERANCE * f_max,
        square_count=d.square_count,
        square_bound=square_count_bound(d.n),
        overlap_max=int(counts.max(initial=0)),
        overlap_bound=OVERLAP_BOUND_BASE**d.n,
        class_count=d.partition.class_count,
        partition_deviation=deviation,
        half_exponent=half_exp,
        derivative_seminorms=derivative_seminorms,
        derivative_seminorms_full=derivative_seminorms_full,
        resolved_fraction=resolved_fraction,
        value_constant=value_constant,
        derivative_constant=deriv_constant,
        residual_max=float(d.residual.max(initial=0.0)),
    )
