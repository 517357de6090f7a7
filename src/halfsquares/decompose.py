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
dimensions, one recursion level).  One descent kernel, ``_descend``,
finds the minima of both: the 1D windows' on the grid, and in two
dimensions the fiber rows of all branch-B balls of a cover, which descend
together and evaluate only the samples they read, one ``spline.ev`` call
per round.  The fiber curves come from one cubic spline per u-grid
length, and the main squares are taken BATCH balls at a time, in
ball order, on the window entries of all the block's balls at once.
Squares from balls of one color class have disjoint supports and are
summed, which keeps the final square count bounded by the dimensional
constant.  The sums are taken per entry
of the window table, a class at a time, 2D branch-B squares included.
``evaluate_1d_squares`` takes the same path on a table that pairs each
ball with each point.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .cover import (BATCH, OVERLAP_BOUND_BASE, PartitionOfUnity, WindowTable, bump, build_cover, normalize_bumps,
                    overlap_counts, partition_functions)
from .errors import InputError
from .finitediff import DIRECTIONS, fd_noise, nabla_norm, partial as fd_partial
from .holder import (
    ControlField,
    SampledFunction,
    _pairs_within,
    check_slow_variation,
    control_field,
    estimate_seminorm,
    holder_norm,
    validate_alpha,
)

NU_START = 0.25
# On f / M the control field is a length and every built-in fixture, 1D, 2D
# and the 2D fiber recursions, keeps nu = 0.25; the floor only ends the
# halving loop on inputs whose control field varies slowly at no scale.
NU_FLOOR = 1e-6
# partial_decompose searches no minimizers, so its nu may shrink far below
# the full decomposition's working range; this floor only ends the loop.
PARTIAL_NU_FLOOR = 1e-12
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
    _verified: np.ndarray | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.residual.ndim

    @property
    def square_count(self) -> int:
        return len(self.squares)

    def reconstruction(self) -> np.ndarray:
        """residual + sum of g^2.

        Below scale 1 the sum runs on f times 4^s, the power of two that
        brings the scale to [0.5, 4): for a scale near the smallest normal
        float each g^2 would otherwise be rounded to the subnormal grid on
        its own, and their sum drift from f by whole grid steps.  Scaling by
        a power of two is exact in the normal range, where the sum is the
        same bit for bit.
        """
        s = max(0, (1 - math.frexp(self.scale)[1]) // 2)
        total = np.ldexp(self.residual, 2 * s)
        for g in self.squares:
            total += np.ldexp(g, s) ** 2
        return np.ldexp(total, -2 * s)

    def verified_mask(self) -> np.ndarray:
        """{r > 0} with a one-cell margin shaved off around {r = 0}; built once, read-only."""
        if self._verified is None:
            from scipy.ndimage import binary_erosion

            self._verified = binary_erosion(self.control.positive_mask(), structure=np.ones((3,) * self.n, bool))
            self._verified.flags.writeable = False
        return self._verified

    def reconstruction_gap(self, f: SampledFunction) -> tuple[float, float]:
        """(gap, bound): sup |reconstruction - f| on the verified region, and
        the largest gap accepted there, RECONSTRUCTION_TOLERANCE * max |f|."""
        mask = self.verified_mask()
        gap = float(np.max(np.abs(self.reconstruction() - f.values)[mask])) if mask.any() else 0.0
        return gap, RECONSTRUCTION_TOLERANCE * float(np.max(np.abs(f.values)[mask], initial=0.0))

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


def _parabolic_min(x0, h, fm, f0, fp):
    """Vertex of the parabola through (x0 - h, fm), (x0, f0), (x0 + h, fp),
    elementwise.

    Assumes f0 <= min(fm, fp); returns (x*, f*) clamped to the bracket
    and never above the sampled minimum.  (fm - fp)^2 is taken by ``pow``,
    as a Python float's ``**`` takes it, so that each vertex is the
    one-point float evaluation to the last bit; a product rounds
    differently.
    """
    curv = fm - 2.0 * f0 + fp
    flat = curv <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.clip(0.5 * (fm - fp) / curv, -1.0, 1.0)
        f_star = f0 - 0.125 * np.float_power(fm - fp, 2.0) / curv
    return np.where(flat, x0, x0 + shift * h), np.where(flat, f0, np.minimum(f_star, f0))


def _omega_calibration(f: SampledFunction, cf: ControlField):
    """nu -> omega = 2 * empirical constant of |f(x)-f(y)| <= C nu r(x)^(k+alpha)
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
    whole cover.  The probe and r^(k+alpha) are free of nu and taken once,
    so the nu search calibrates each nu it tries by the pair probe alone.
    """
    from scipy.ndimage import maximum_filter, minimum_filter

    h = f.spacing
    r = cf.values
    power = cf.k + cf.alpha
    grad = nabla_norm(f.values, h, 1)
    grad = np.where(grad > fd_noise(f.values, h, 1), grad, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        probe = grad / r ** (power - 1.0)
    low = minimum_filter(f.values, size=3, mode="nearest")
    resolved = (low > 0) & (maximum_filter(f.values, size=3, mode="nearest") <= 2.0 * low)
    ok = np.isfinite(probe) & (r > 0) & (grad > 0) & resolved
    best, powered = (float(probe[ok].max()) if ok.any() else 0.0), r**power

    def calibrate(nu: float) -> float:
        omega = best
        for a, b, within in _pairs_within(cf, nu):
            if within.any():
                ratios = np.abs(f.values[a][within] - f.values[b][within]) / (nu * powered[a][within])
                omega = max(omega, float(ratios.max()))
        return 2.0 * omega

    return calibrate


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
    _check_parameters(k, alpha)
    for name, value in (("nu", nu), ("omega", omega)):
        if value is not None and not 0 < value < math.inf:
            raise InputError(f"{name} must be positive and finite")
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
    _check_parameters(k, alpha)
    if not 0 < eps < math.inf:
        raise InputError("eps must be positive and finite")

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
        residual = residual.reshape(unit.values.shape)
        branch = [("A",) if a else ("B",) for a in bounded]  # branch B leaves h, no squares
        return _assembled(unit, cf, nu, omega, part, branch, residual)

    return _search_nu(f, k, alpha, attempt, PARTIAL_NU_FLOOR)


def _check_parameters(k: int, alpha: float) -> None:
    if k not in (2, 3):
        raise InputError("decomposition path supports k = 2 or 3 only")
    validate_alpha(alpha)


def _search_nu(f, k, alpha, attempt, floor, nu=None, omega=None) -> Decomposition:
    """The one nu loop: the decomposition ``attempt`` accepts, scaled back to f.

    nu is halved from NU_START, down to ``floor``, until the control field
    of f / M varies slowly at nu and ``attempt(f / M, M, cf, nu, omega)``
    returns instead of raising _NuTooLarge; slow variation is walked only
    until it first passes, as its pairs at nu / 2 are among those at nu.  A
    given nu is the only one tried, even below ``floor``; a given omega
    replaces the calibration.
    Of a rejected attempt only the reason is kept: its exception's
    traceback would hold the rejected cover's arrays through the next
    attempt.
    """
    unit, scale = _normalized(f, k, alpha)
    cf = control_field(unit, k, alpha)
    current = NU_START if nu is None else nu
    calibrate = None  # set once slow variation passes, as it then does at every smaller nu
    while True:
        if calibrate is None and (report := check_slow_variation(cf, current, fail_fast=True)).ok:
            calibrate = _omega_calibration(unit, cf) if omega is None else lambda _: omega
        if calibrate is not None:
            try:
                return _rescaled(attempt(unit, scale, cf, current, calibrate(current)), scale)
            except _NuTooLarge as err:
                reason = str(err)
        else:
            reason = f"slow variation fails at nu={current}: ratio {report.worst_ratio:.3f}"
        if nu is not None:
            raise DecompositionError(f"decomposition failed at fixed nu={nu}: {reason}")
        current /= 2.0
        if current < floor:
            raise DecompositionError(f"nu underflowed {floor} ({reason})")


def _normalized(f: SampledFunction, k: int, alpha: float) -> tuple[SampledFunction, float]:
    """(f / M, M) with M the sampled C^(k,alpha) norm of f, or M = 1 for f = 0.

    Non-negativity is checked on f / M, so its tolerance is relative to M.
    """
    scale = holder_norm(f, k, alpha) or 1.0
    unit = SampledFunction(f.origin, f.spacing, f.values / scale)
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
    part = partition_functions(cf, build_cover(cf, nu))
    # float_power is the C pow that a Python float's ** calls; numpy's ** may round otherwise
    threshold = omega * nu * np.float_power(part.balls.r, cf.k + cf.alpha)
    return part, (f.values[tuple(part.balls.index.T)] >= threshold).tolist()


def _decompose_at(f, scale, cf, nu, omega) -> Decomposition:
    """The full decomposition of f at nu; rejects nu when a branch-B ball
    has no interior minimum.  f is already normalized, so ``scale`` is unused."""
    part, bounded = _cover(f, cf, nu, omega)
    windowed, clamp = [], 0.0
    if f.n == 1:
        minima = _fiber_minima_1d(f, f.axis_coords(0), part, bounded)
        branch = [("A",) if a else ("B1", *next(minima)) for a in bounded]
    else:
        windowed, clamp = _branch_b_2d(f, part, bounded, cf.k, cf.alpha)
        branch = [("A",) if a else ("B2",) for a in bounded]
    residual = np.zeros_like(f.values, dtype=float)
    return _assembled(f, cf, nu, omega, part, branch, residual, windowed=windowed, clamp=clamp)


def _assembled(f, cf, nu, omega, part, branch, residual, windowed=(), clamp=0.0):
    """The decomposition of f from each ball's ``branch`` (see ``_square_sums``),
    kept as ``branch_info``, the (balls, slot, square on their window
    entries) of ``windowed``, added per class in ball order, and their
    largest clipped value ``clamp``.
    Colors are read only here, once nu is accepted, so a rejected cover is
    never colored."""
    shape, colors = f.values.shape, np.asarray(part.colors)
    coords = f.axis_coords(0) if f.n == 1 else None
    values = f.values.ravel()
    clipped = np.clip(values, 0.0, None)
    sums, clamp_max = _square_sums(part.table, part.psi, colors, branch, coords, clipped, values)
    for balls, slot, g in windowed:
        table = part.table.select(balls)
        cells, color = table.cells(), table.per_entry(colors[balls])
        for c in np.unique(color).tolist():
            np.add.at(sums[c, slot], cells[color == c], g[color == c])
    labels = [key for key in sorted(sums) if np.any(sums[key])]
    branch_a = sum(info[0] == "A" for info in branch)
    return Decomposition(
        origin=f.origin,
        spacing=f.spacing,
        k=cf.k,
        alpha=cf.alpha,
        nu=nu,
        omega=omega,
        squares=[sums[key].reshape(shape) for key in labels],
        control=cf,
        partition=part,
        branch_a=branch_a,
        branch_b=len(branch) - branch_a,
        residual=residual,
        clamp_max=max(clamp_max, clamp),
        square_labels=labels,
        branch_info=branch,
    )


def _square_sums(table, psi, colors, branch, v, fa, fb):
    """The squares of branch-A and branch-B1 balls, summed per (color class, slot).

    Entry e of ``table`` pairs a ball with a point, psi[e] is the ball's psi
    there, and v, fa and fb give each point's coordinate, f clipped at 0 and
    f.  ("A",) gives psi sqrt(fa); ("B1", x_min, f_min) gives
    psi sgn(v - x_min) sqrt(fb - f_min)_+ and psi sqrt(f_min); other
    branches give nothing here.  A class's balls are disjoint, so one
    ``np.add.at`` per (class, slot) adds at most one nonzero term per point:
    the per-ball sum, bit for bit.  Returns the flat sums (a defaultdict of
    zeros) and the largest f_min - fb clipped away.
    """
    is_a, is_b1 = (np.array([info[0] == tag for info in branch], dtype=bool) for tag in ("A", "B1"))
    x_min, f_min = np.zeros((2, len(branch)))
    x_min[is_b1], f_min[is_b1] = np.array([info[1:] for info in branch if info[0] == "B1"]).reshape(-1, 2).T
    size, colors, sizes, entries = math.prod(table.shape), np.asarray(colors), table.sizes, table.entries()
    sums, clamp = defaultdict(lambda: np.zeros(size)), 0.0
    for color in range(int(colors.max(initial=-1)) + 1):
        balls = np.flatnonzero((colors == color) & (is_a | is_b1))
        cells, p = table.select(balls).cells(), psi[entries.select(balls).cells()]
        ball = np.repeat(balls, sizes[balls])
        a = is_a[ball]
        g = np.empty(p.size)
        g[a] = p[a] * np.sqrt(fa[cells[a]])
        b = ~a
        if b.any():
            cb, pb, fm = cells[b], p[b], f_min[ball[b]]
            g[b], c = _signed_root(pb, v[cb], x_min[ball[b]], fb[cb], fm)
            clamp = max(clamp, c)
            np.add.at(sums[color, 1], cb, pb * np.sqrt(fm))
        np.add.at(sums[color, 0], cells, g)
    return sums, clamp


def _signed_root(psi, v, v_min, fv, f_min):
    """psi sgn(v - v_min) sqrt(fv - f_min)_+ and the largest f_min - fv clipped away."""
    diff = fv - f_min
    clamp = max(0.0, float(-diff.min(initial=0.0)))
    return psi * np.sign(v - v_min) * np.sqrt(np.clip(diff, 0.0, None)), clamp


def _fiber_minima_1d(f, coords, part, bounded):
    """(x_min, f_min) of each branch-B ball of a 1D cover, in ball order.

    Each ball descends from the lowest sample of its window, all balls at
    once, and each minimum is refined by a parabola.  Raises _NuTooLarge
    at the first ball whose descent reaches the domain edge.
    """
    branch_b = np.flatnonzero(np.logical_not(bounded))
    table = part.table.select(branch_b)
    cells, first = table.cells(), np.cumsum(table.sizes) - table.sizes
    values = f.values[cells]
    # descent starts at the first lowest sample of each window, the one np.argmin picks
    low = np.flatnonzero(values == np.repeat(np.minimum.reduceat(values, first), table.sizes))
    pos = cells[low[np.searchsorted(low, first)]]
    padded = np.pad(f.values, 1, constant_values=np.inf)
    every = np.ones(pos.size, dtype=bool)  # each ball needs an interior minimum
    fm, f0, fp, rejected = _descend(lambda rows, i: padded[i + 1], pos, np.arange(pos.size), every)
    if rejected < pos.size:
        ball = part.balls[int(branch_b[rejected])]
        raise _NuTooLarge(f"minimum hits the domain edge at ball {ball.index}")
    x_min, f_min = _parabolic_min(coords[pos], f.spacing, fm, f0, fp)
    return zip(x_min.tolist(), np.maximum(f_min, 0.0).tolist())


def _branch_b_2d(f, part, bounded, k, alpha):
    """The squares of the branch-B balls of a 2D cover as (balls, slot,
    square on their window entries), in ball order, and the largest value
    clipped before a square root.

    A ball splits off the signed root of f - F along its fiber-minimum
    curve and recurses on F.  F(u) is the minimum of f along the fiber
    through x_j + u eu in the distinguished direction ev, the first
    sampled argmax of the second directional derivative at x_j; F and its
    minimizer are interpolated by cubic splines in u.  A cover has one
    fiber search (``_block_fiber_minima``) and one CubicSpline per u-grid
    length; main squares are taken BATCH balls at a time, and only
    a ball whose cutoff curve is not zero recurses on its own.  When a
    fiber crossing some ball has no interior minimum, the balls before it
    still get their squares, recursion included, in ball order, before
    _NuTooLarge is raised, so a recursion that fails first still wins.
    """
    members = np.flatnonzero(np.logical_not(bounded))
    if not members.size:
        return [], 0.0
    h = f.spacing
    xs, ys = f.axis_coords(0), f.axis_coords(1)
    spline = RectBivariateSpline(xs, ys, f.values, kx=3, ky=3)
    hessian = [fd_partial(f.values, h, beta) for beta in ((2, 0), (1, 1), (0, 2))]
    c, s = DIRECTIONS.T
    balls = part.balls.select(members)
    fxx, fxy, fyy = (d2[tuple(balls.index.T)][:, None] for d2 in hessian)
    ev = DIRECTIONS[np.argmax(c * c * fxx + 2 * c * s * fxy + s * s * fyy, axis=1)]
    eu = np.column_stack((-ev[:, 1], ev[:, 0]))
    # u spans the cutoff support plus a stencil margin
    n_us = ((2.0 * balls.radius + 6.0 * h) / h).astype(np.intp) + 1
    u_grids = [h * np.arange(-n_u, n_u + 1) for n_u in n_us.tolist()]
    x_min, f_min, done = _block_fiber_minima(f, spline, balls, eu, ev, u_grids)
    # the balls before the one that rejects nu, if any: F and x_min of
    # each from one CubicSpline per u-grid length, pieces ball after ball
    n_us, width = n_us[:done], 2.0 * balls.radius[:done]
    starts = np.cumsum(2 * n_us + 1) - (2 * n_us + 1)  # each ball's first row
    firsts = starts - np.arange(done)  # and first cubic piece
    coeffs = np.empty((4, f_min.size - done, 2))
    for n in np.unique(n_us).tolist():
        group = np.flatnonzero(n_us == n)
        rows = starts[group, None] + np.arange(2 * n + 1)
        fit = CubicSpline(u_grids[group[0]], np.stack((f_min[rows], x_min[rows]), axis=-1), axis=1)
        coeffs[:, (firsts[group, None] + np.arange(2 * n)).ravel()] = fit.c.transpose(0, 2, 1, 3).reshape(4, -1, 2)
    knots = h * np.arange(-n_us.max(initial=0), n_us.max(initial=0) + 1)
    # the cutoff extension of each fiber-minimum curve; a curve that is zero
    # at every sample decomposes into no squares, so its ball does not recurse
    u = np.concatenate(u_grids)[: f_min.size]
    curve = np.clip(bump(u / np.repeat(width, 2 * n_us + 1)) * f_min, 0.0, None)
    recurse = np.logical_or.reduceat(curve != 0, starts)
    squares, clamp = [], 0.0
    for first in range(0, done, BATCH):
        block = np.arange(first, min(first + BATCH, done))  # positions among the branch-B balls
        # the main squares, on the window entries of all the block's balls
        table = part.table.select(members[block])
        ball, cells, ends = table.per_entry(block), table.cells(), np.cumsum(table.sizes)
        psi = part.psi[part.table.entries().select(members[block]).cells()]
        row, col = np.divmod(cells, f.values.shape[1])
        dx, dy = xs[row] - balls.center[ball, 0], ys[col] - balls.center[ball, 1]
        du, dv = dx * eu[ball, 0] + dy * eu[ball, 1], dx * ev[ball, 0] + dy * ev[ball, 1]
        f_curve, x_curve = _cubic_at(coeffs, knots, firsts[ball], n_us[ball], du).T
        g, main_clamp = _signed_root(psi, dv, x_curve, f.values.ravel()[cells], f_curve)
        squares.append((members[block], 0, g))
        clamp = max(clamp, main_clamp)
        # the sub-squares are composed with the rotation by re-evaluating their
        # closed forms at the rotated coordinate, not by resampling arrays
        for i in block[recurse[block]].tolist():
            fiber = curve[starts[i] : starts[i] + 2 * n_us[i] + 1]
            sub = decompose(SampledFunction((float(u[starts[i]]),), h, fiber), k, alpha)

            def f_of_u(at):
                return np.clip(bump(at / width[i]) * _cubic_at(coeffs, knots, firsts[i], n_us[i], at)[:, 0], 0.0, None)

            mine = slice(ends[i - first] - table.sizes[i - first], ends[i - first])
            for slot, g_sub in enumerate(evaluate_1d_squares(sub, du[mine], f_of_u), 1):
                squares.append((members[i : i + 1], slot, psi[mine] * g_sub))
            clamp = max(clamp, sub.clamp_max)
    if done < len(balls):
        raise _NuTooLarge(f"fiber minimum hits the domain edge at ball {balls[done].index}")
    return squares, clamp


def _cubic_at(coeffs, knots, first, n, u):
    """The cubic pieces coeffs[:, first : first + 2n] on the knots h (-n .. n)
    at u, as ``PPoly.__call__`` evaluates them, bit for bit.

    ``knots`` = h (-m .. m), m >= n, holds the knots of every shorter grid.
    The piece of u is the last one starting at or below it, clipped to the
    first and last, and with s = u - its knot the value is summed in
    PPoly's order: 0 + c3 + c2 s + c1 (s s) + c0 ((s s) s).
    """
    mid = knots.size // 2
    piece = np.clip(np.searchsorted(knots, u, "right") - 1 - (mid - n), 0, 2 * n - 1)
    s = (u - knots[piece + mid - n])[..., None]
    c = coeffs[:, first + piece]
    return 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)


def _block_fiber_minima(f, spline, balls, eu, ev, u_grids):
    """Minimizer and minimum of v -> f(x_j + u eu_j + v ev_j) for each u of
    each ball's u grid, over all the given balls at once.

    Each fiber row is sampled on the lattice v = h i, |i| <= n_v, which
    spans the domain diagonal; a sample outside the domain reads +inf.  A
    row starts at its in-domain sample nearest v = 0, the lower one on a
    tie, found from the geometry alone, and descends by ``_descend``, which
    evaluates only the samples it reads: the first round the start and
    each of its two neighbours, one ``spline.ev`` call each, then the next
    sample of each row that still moves, one call a round.  The
    in-domain samples of a line through the box are one run of the
    lattice and ``spline.ev`` evaluates each point on its own, so every
    start, minimum, edge verdict and parabolic vertex is that of the
    whole-lattice scan of the fiber alone.

    Returns x_min and f_min, row after row, of the balls before the first
    ball crossed by a fiber with no interior minimum, and that ball's
    position in ``balls`` (len(balls) when there is none).  Rows of that
    ball and of later ones stop as soon as it is known.
    """
    h = f.spacing
    lo = np.array([f.axis_coords(0)[0], f.axis_coords(1)[0]])
    hi = np.array([f.axis_coords(0)[-1], f.axis_coords(1)[-1]])
    n_v = int(float(np.hypot(hi[0] - lo[0], hi[1] - lo[1])) / h) + 1  # the lattice spans the diagonal
    lattice = np.arange(-n_v, n_v + 1)
    v_grid = h * lattice

    # one row per (ball, u): its owner and u; row r samples x_j + u eu + v ev
    sizes = [len(u_grid) for u_grid in u_grids]
    owner = np.repeat(np.arange(len(balls)), sizes)
    u = np.concatenate(u_grids)
    interior_needed = np.abs(u) <= balls.radius[owner] + h
    origin, step = balls.center[owner] + u[:, None] * eu[owner], ev[owner]  # row r is origin_r + v step_r

    def inside(rows, i):
        """The points of samples i of ``rows`` and whether each lies in the domain."""
        pts = origin[rows] + v_grid[n_v + np.clip(i, -n_v, n_v)][..., None] * step[rows]
        return pts, (np.abs(i) <= n_v) & np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=-1)

    def sample(rows, i):
        pts, ok = inside(rows, i)
        values = np.full(ok.shape, np.inf)
        if ok.any():
            clipped = np.clip(pts[ok], lo, hi)
            values[ok] = spline.ev(clipped[:, 0], clipped[:, 1])
        return values

    rows = np.arange(u.size)
    pos = np.zeros(u.size, dtype=np.intp)
    # a row whose v = 0 lies outside the domain scans its whole lattice for the start
    out = rows[~inside(rows, pos)[1]]
    pos[out] = lattice[np.argmin(np.where(inside(out[:, None], lattice)[1], np.abs(lattice), n_v + 1), axis=1)]
    left, here, right, rejected = _descend(sample, pos, owner, interior_needed)

    # an empty row has no in-domain sample; an edge row keeps its sample,
    # a row with both neighbours in the domain takes the vertex
    empty, vertex = ~np.isfinite(here), np.isfinite(left) & np.isfinite(right)
    x_min, f_min = np.where(empty, 0.0, v_grid[n_v + pos]), here
    x_min[vertex], f_min[vertex] = _parabolic_min(x_min[vertex], h, left[vertex], here[vertex], right[vertex])
    f_min = np.where(empty, 0.0, np.maximum(f_min, 0.0))

    rows = sum(sizes[:rejected])
    return x_min[:rows], f_min[:rows], rejected


def _descend(sample, pos, owner, interior_needed):
    """Walk each row downhill from its sample ``pos``, in place, to the
    nearest discrete local minimum, all rows at once.

    ``sample(rows, i)`` reads samples i of ``rows``, +inf past the end of a
    row.  A step goes to the lower neighbour, the left one on a tie, and
    only to a strictly lower value, so descent cannot leave the well the
    start sits in: the located minimizer is local in the sense of the
    construction, and where the second derivative is bounded below along
    the whole row it is the row's unique minimum.  A row that starts on
    +inf stays there.  The first round reads each start and its two
    neighbours, every later round one sample of each row that still moves.

    A row stopping next to +inf rejects its ``owner`` when
    ``interior_needed``; rows stop moving as soon as an owner at or below
    their own rejects.  Returns the left, here and right samples at each
    stop and the least rejecting owner, one past the last owner if none.
    """
    rows = np.arange(pos.size)
    left, here, right = (sample(rows, pos + step) for step in (-1, 0, 1))
    moving = rows[np.isfinite(here)]
    rejected = int(owner.max(initial=-1)) + 1
    while moving.size:
        low, mid, high = left[moving], here[moving], right[moving]
        step = (high < mid).astype(np.intp)
        step[(low < mid) & (low <= high)] = -1
        stop = step == 0
        if stop.any():  # only a round in which rows stop can reject an owner or drop rows
            own = owner[moving]
            fails = stop & interior_needed[moving] & ~(np.isfinite(low) & np.isfinite(high))
            rejected = min(rejected, int(own[fails].min(initial=rejected)))
            keep = ~stop & (own < rejected)
            moving, step, low, mid, high = moving[keep], step[keep], low[keep], mid[keep], high[keep]
        at = pos[moving] + step
        pos[moving] = at
        ahead, back = sample(moving, at + step), step < 0
        here[moving] = np.where(back, low, high)
        left[moving] = np.where(back, ahead, mid)
        right[moving] = np.where(back, mid, ahead)
    return left, here, right, rejected


def evaluate_1d_squares(d: Decomposition, points: np.ndarray, f_of_u) -> list[np.ndarray]:
    """Re-evaluate a 1D decomposition's squares at arbitrary coordinates.

    The recombined squares are closed-form in the ball data (bump
    partition weights, branch minima) given the underlying function, so
    they can be composed with a coordinate change without resampling the
    stored arrays.  ``f_of_u`` must reproduce the function the
    decomposition was computed from.  Every ball's window holds every
    point, and psi and the class sums are those of the grid.  Returns
    arrays aligned with ``d.square_labels``.
    """
    if d.n != 1:
        raise ValueError("only one-dimensional decompositions can be re-evaluated")
    points = np.asarray(points, dtype=float)
    flat, balls = points.ravel(), d.partition.balls
    table = WindowTable(np.zeros((len(balls), 1), np.intp), np.full((len(balls), 1), flat.size), flat.shape)
    cells = table.cells()
    psi = bump(np.abs(flat[cells] - table.per_entry(balls.center[:, 0])) / table.per_entry(balls.radius))
    normalize_bumps(psi, cells, flat.size)
    fu = np.clip(np.asarray(f_of_u(points), dtype=float), 0.0, None).ravel()
    sums, _ = _square_sums(table, psi, d.partition.colors, d.branch_info, flat, fu, fu)
    return [sums[label].reshape(points.shape) for label in d.square_labels]


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
    resolved_fraction: float  # share of the verified region that is resolved
    value_constant: float  # sup |g| / r^((k+alpha)/2), g and r both of f / M
    derivative_constant: float  # sup |g'| / r^((k+alpha)/2 - 1), likewise

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

    Derivative semi-norms are measured over the sub-region where every
    contributing ball has physical radius nu r_j of at least three cells
    (the grid genuinely resolves the partition functions there):
    regularity below grid resolution is not measurable.  Each square's
    partials and pair scans cover that region's box, one cell wider, and
    nothing if it is empty; its value and derivative constants read only
    the verified cells where it or an axis neighbour is nonzero.
    """
    err, err_bound = d.reconstruction_gap(f)
    mask = d.verified_mask()

    part = d.partition
    coarse = d.nu * part.balls.r < 3.0 * d.spacing
    resolved = mask & ~part.table.select(coarse).covered()
    if resolved.any() and not resolved.all():
        # differencing must not reach across the exclusion boundary
        from scipy.ndimage import binary_erosion

        resolved = binary_erosion(resolved, structure=np.ones((3,) * d.n, dtype=bool), iterations=3)
    denom = int(mask.sum())
    resolved_fraction = float(resolved.sum()) / denom if denom else 1.0

    k, alpha = d.k, d.alpha
    half_exp = alpha / 2.0 if k % 2 == 0 else (1.0 + alpha) / 2.0
    axes = [tuple(1 if i == axis else 0 for i in range(d.n)) for axis in range(d.n)]
    # resolved cells are never on the grid's edge; with none, a corner as wide as the stencil scans no pair
    box = tuple(slice(int(i.min()) - 1, int(i.max()) + 2) if i.size else slice(0, 3) for i in np.nonzero(resolved))
    derivative_seminorms = []
    for g in d.squares:
        gf = SampledFunction(d.origin, d.spacing, g[box])
        derivative_seminorms.append(max(
            estimate_seminorm(gf, half_exp, derivative=beta, window=seminorm_window, mask=resolved[box])
            for beta in axes
        ))

    r, flat = d.control.values[mask], mask.ravel()
    power, root, h = (k + alpha) / 2.0, math.sqrt(d.scale), d.spacing
    strides = [math.prod(mask.shape[axis + 1:]) for axis in range(d.n)]  # of the flat grid's axes
    value_constant = deriv_constant = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        value_den, deriv_den = np.zeros(mask.size), np.zeros(mask.size)  # read on verified cells only
        value_den[flat], deriv_den[flat] = r**power, r ** (power - 1.0)
        for g in d.squares:
            g, nonzero = g.ravel(), g.ravel() != 0
            near = nonzero.copy()
            for s in strides:
                near[s:] |= nonzero[:-s]
                near[:-s] |= nonzero[s:]
            cells = np.flatnonzero(near & flat)
            num = np.abs(g[cells] / root)  # the square of f / M, like r
            # diff_axis's central differences, which a verified cell never takes past the grid's edge
            sq = [(((0.0 + -0.5 * (g[cells - s] / root)) + 0.5 * (g[cells + s] / root)) / h) ** 2 for s in strides]
            gnorm = np.sqrt(sum(sq[1:], sq[0]))  # nabla_norm's sum
            gnorm[~np.isfinite(gnorm)] = 0.0  # not measured
            den = value_den[cells]
            ratios = np.where(den > 0, num / den, np.where(num > 1e-12, np.inf, 0.0))
            value_constant = max(value_constant, float(np.max(ratios, initial=0.0)))
            den = deriv_den[cells]
            ratios = np.where(den > 0, gnorm / den, np.where(gnorm > 1e-9, np.inf, 0.0))
            deriv_constant = max(deriv_constant, float(np.max(ratios, initial=0.0)))

    pou = d.partition.sum_squares
    positive = d.control.positive_mask()
    deviation = float(np.max(np.abs(pou[positive] - 1.0), initial=0.0))
    zero_region = ~positive & d.control.valid
    if zero_region.any():
        deviation = max(deviation, float(np.max(np.abs(pou[zero_region]), initial=0.0)))

    counts = overlap_counts(d.partition)
    return VerifyReport(
        reconstruction_error=err,
        reconstruction_bound=err_bound,
        square_count=d.square_count,
        square_bound=square_count_bound(d.n),
        overlap_max=int(counts.max(initial=0)),
        overlap_bound=OVERLAP_BOUND_BASE**d.n,
        class_count=d.partition.class_count,
        partition_deviation=deviation,
        half_exponent=half_exp,
        derivative_seminorms=derivative_seminorms,
        resolved_fraction=resolved_fraction,
        value_constant=value_constant,
        derivative_constant=deriv_constant,
    )
