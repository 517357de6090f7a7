"""Sampled functions, empirical Hoelder semi-norms and the control field.

Everything here is binary64 and deliberately inexact: it estimates
analytic suprema from uniform-grid samples in one or two dimensions.

Every sup over sampled pairs in the package walks them the same way.
``_pairs`` is the one walker: it turns a real reach, in grid steps, into
the half-space offsets no longer than it, ring by ring, each with the
two equal-shape blocks it joins.  ``_sup_ratio`` is the one stopping
kernel on it: one supremum per walk, over the pairs inside an optional
mask, for the semi-norms of one component and the Malgrange gradient
semi-norm of two; ``_pairs_within`` gives both orientations of
every pair at most nu * max r apart, with the mask |x - y| <= nu r(x)
that the slow variation of r and the decomposition's omega read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import finitediff
from .errors import InputError
from .multiindex import directional_expand, order


class SampledFunctionFormatError(InputError):
    pass


@dataclass
class SampledFunction:
    """Uniform-grid samples on a box; n = 1 or 2."""

    origin: tuple[float, ...]
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.origin = tuple(float(o) for o in self.origin)
        self.spacing = float(self.spacing)
        if self.values.ndim not in (1, 2):
            raise ValueError("only 1- and 2-dimensional grids are supported")
        if len(self.origin) != self.values.ndim:
            raise ValueError("origin length must match dimension")
        if not all(math.isfinite(o) for o in self.origin):
            raise ValueError("origin must be finite")
        if not 0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("all samples must be finite")
        if self.values.size == 0:
            raise ValueError("the grid has no samples")

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def axis_coords(self, axis: int = 0) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    @classmethod
    def from_callable(cls, fn, origin, spacing, shape):
        origin = tuple(float(o) for o in origin)
        shape = tuple(int(s) for s in shape)
        axes = [origin[i] + float(spacing) * np.arange(shape[i]) for i in range(len(shape))]
        if len(shape) == 1:
            values = fn(axes[0])
        else:
            xx, yy = np.meshgrid(*axes, indexing="ij")
            values = fn(xx, yy)
        return cls(origin, spacing, np.asarray(values, dtype=float))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "origin": list(self.origin),
            "spacing": self.spacing,
            "shape": list(self.shape),
            "values": [float(v) for v in self.values.ravel()],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "SampledFunction":
        try:
            n = data["n"]
            origin = tuple(float(x) for x in data["origin"])
            spacing = float(data["spacing"])
            shape = tuple(data["shape"])
            if type(n) is not int or any(type(s) is not int for s in shape):
                raise ValueError("n and shape must be integers")
            values = np.asarray(data["values"], dtype=float).reshape(shape)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise SampledFunctionFormatError(f"bad sampled-function data: {err}") from err
        if n not in (1, 2) or len(shape) != n or len(origin) != n:
            raise SampledFunctionFormatError("n must be 1 or 2 and match origin/shape")
        if math.prod(shape) != values.size:
            raise SampledFunctionFormatError("value count does not match shape")
        try:
            return cls(origin, spacing, values)
        except ValueError as err:
            raise SampledFunctionFormatError(f"bad sampled-function data: {err}") from err

    @classmethod
    def loads(cls, text: str) -> "SampledFunction":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise SampledFunctionFormatError(str(err)) from err
        return cls.from_json_dict(data)


def validate_alpha(alpha: float) -> None:
    """The one range rule for a Hoelder exponent: raise InputError unless 0 < alpha <= 1."""
    if not 0 < alpha <= 1:
        raise InputError("alpha must lie in (0, 1]")


@dataclass
class HolderEstimate:
    """Empirical [f]_alpha over sampled pairs, optionally pointwise.

    ``value`` is the supremum over the pairs inside the mask, or over all
    pairs without one; ``pointwise_windows`` maps each window, in grid
    steps, to the pointwise values, the shortest window (3) approximating
    the local semi-norm.
    """

    value: float
    pointwise_windows: dict = field(default_factory=dict)


# rounding slack, in grid steps, of every reach: window / h may land an ulp below a whole step count
_REACH_SLACK = 1e-9


def _pairs(shape, reach: float):
    """Every unordered pair of cells at most ``reach`` steps apart, one offset at a time.

    Yields (ring, length, a, b) for each half-space offset whose Euclidean
    length is at most ``reach``: its ring max |offset_i|, its length, and
    the index tuples of the equal-shape blocks a, b with b = a + offset.
    Rings come in increasing order and every offset of ring s is at least
    s long, so a scan can stop once no longer pair can win.  Offsets that
    do not fit in the grid are skipped.
    """
    reach += _REACH_SLACK
    for s in range(1, int(min(reach, max(shape) - 1)) + 1):
        if len(shape) == 1:
            ring = [(s,)]
        else:
            ring = [(s, dj) for dj in range(-s, s + 1)]
            ring += [(di, s) for di in range(s)] + [(di, -s) for di in range(1, s)]
        for off in ring:
            length = math.hypot(*off)
            if length > reach or any(abs(d) >= n for d, n in zip(off, shape)):
                continue
            a = tuple(slice(0, n - d) if d >= 0 else slice(-d, n) for d, n in zip(off, shape))
            b = tuple(slice(d, n) if d >= 0 else slice(0, n + d) for d, n in zip(off, shape))
            yield s, length, a, b


def _pairs_within(r: ControlField, nu: float):
    """Every sampled pair at most nu * max r apart, as (base, partner, within).

    Each offset is yielded twice, once per orientation; base and partner
    index equal-shape blocks of the grid, and ``within`` marks the pairs
    with |x - y| <= nu * r(x), x the base (never where r(x) is NaN).
    """
    finite = np.isfinite(r.values)
    rmax = float(r.values[finite].max()) if finite.any() else 0.0
    for _, length, a, b in _pairs(r.values.shape, nu * rmax / r.spacing):
        for base, partner in ((a, b), (b, a)):
            with np.errstate(invalid="ignore"):
                within = r.spacing * length <= nu * r.values[base]
            yield base, partner, within


def _sup_ratio(components, h: float, alpha: float, reach: float, mask=None) -> float:
    """sup of gap / |x - y|^alpha over pairs of cells at most ``reach`` steps apart.

    The gap is |v(x) - v(y)| for one component and the Euclidean norm of
    the component differences for two.  Only pairs whose two ends are
    finite in every component (not in a derivative's margin) and, with a
    ``mask``, inside it count; a ValueError says when no cell is finite.
    The walk ends when no longer pair can win: no gap exceeds max - min of
    one component over those cells, nor the norm of the component ranges
    (given a relative margin for the rounding of np.hypot).  Only the pairs
    with an end in the box around the counted nonzero samples are scanned:
    the others have gap 0, and the supremum starts at 0.
    """
    finite = np.logical_and.reduce([np.isfinite(c) for c in components])
    if not finite.any():
        raise ValueError("grid too small for the requested derivative")
    region = finite if mask is None else finite & np.asarray(mask, dtype=bool)
    support = np.nonzero(region & np.logical_or.reduce([c != 0 for c in components]))
    if not support[0].size:
        return 0.0
    lo, hi = [int(i.min()) for i in support], [int(i.max()) + 1 for i in support]
    spans = [float(c[region].max() - c[region].min()) for c in components]
    bound = spans[0] if len(spans) == 1 else math.hypot(*spans) * (1.0 + 1e-12)
    clean = bool(region.all())
    best = 0.0
    for steps, length, a, b in _pairs(finite.shape, reach):
        # a supremum that no pair of this ring or beyond can beat is final
        if bound / (h * steps) ** alpha <= best:
            break
        # only the pairs (x, x + d) with x or x + d in the box lo <= i < hi
        off = [sb.start - sa.start for sa, sb in zip(a, b)]
        a = tuple(slice(max(s.start, l - max(d, 0)), min(s.stop, u - min(d, 0))) for s, d, l, u in zip(a, off, lo, hi))
        b = tuple(slice(s.start + d, s.stop + d) for s, d in zip(a, off))
        if len(components) == 1:
            gaps = np.abs(components[0][a] - components[0][b])
        else:
            gaps = np.hypot(*(c[a] - c[b] for c in components))
        if clean:
            gap = float(np.max(gaps))
        else:
            gap = float(np.max(gaps, where=region[a] & region[b], initial=-math.inf))
        best = max(best, gap / (h * length) ** alpha)
    return best


def estimate_seminorm(
    f: SampledFunction,
    alpha: float,
    derivative=None,
    window: float | None = None,
    pointwise: bool = False,
    mask: np.ndarray | None = None,
) -> HolderEstimate:
    """sup over sampled pairs with |x - y| <= window of |df|/|x - y|^alpha.

    ``derivative`` is an optional multi-index applied by central
    differences first, and ``mask`` optionally restricts the pair scan to
    a sub-region (cells outside it are ignored).  The default window
    reaches every pair of the grid; a caller that wants the supremum over
    all pairs passes no mask.  The pointwise variant takes, at each point,
    the largest ratio over the pairs through it at most 9, 5 and 3 grid
    steps long; the shortest approximates the limsup-based local
    semi-norm.
    """
    validate_alpha(alpha)
    h = f.spacing
    values = f.values
    if derivative is not None and order(tuple(derivative)) > 0:
        values = finitediff.partial(values, h, tuple(derivative))
    if window is None:
        window = max((s - 1) * h for s in f.shape) * math.sqrt(f.n)
    if window / h + _REACH_SLACK < 1:
        raise ValueError("window is smaller than one grid step")

    estimate = HolderEstimate(_sup_ratio((values,), h, alpha, window / h, mask))
    if pointwise:
        if mask is not None:
            values = np.where(mask, values, np.nan)
        estimate.pointwise_windows = {w: _pointwise_seminorm(values, h, alpha, w) for w in (9, 5, 3)}
    return estimate


def _pointwise_seminorm(values, h, alpha, w):
    """The largest pair ratio through each point over pairs at most w steps long."""
    out = np.zeros_like(values, dtype=float)
    for _, length, a, b in _pairs(values.shape, w):
        with np.errstate(invalid="ignore"):
            ratio = np.abs(values[a] - values[b]) / (h * length) ** alpha
        ratio = np.where(np.isnan(ratio), 0.0, ratio)
        for end in (a, b):
            region = out[end]
            np.maximum(region, ratio, out=region)
    return out


@dataclass
class ControlField:
    """Pointwise control of derivatives by positive even-order ones.

    r(x) = max over even j <= k of sup_xi [d^j_xi f(x)]_+^(1/(k-j+alpha)),
    the j = 0 term being f itself.  ``valid`` marks cells where every
    stencil fit; r is NaN outside.
    """

    k: int
    alpha: float
    spacing: float
    origin: tuple[float, ...]
    values: np.ndarray
    valid: np.ndarray

    @property
    def n(self) -> int:
        return self.values.ndim

    def positive_mask(self) -> np.ndarray:
        return self.valid & (self.values > 0)


def control_field(f: SampledFunction, k: int, alpha: float) -> ControlField:
    """Sample the control field r of f on the grid."""
    if k < 0:
        raise InputError("k must be non-negative")
    validate_alpha(alpha)
    h = f.spacing
    values = f.values
    r = np.zeros_like(values, dtype=float)
    valid = np.ones_like(values, dtype=bool)
    for j in range(0, k + 1, 2):
        if j == 0:
            dj = values.astype(float)
        else:
            dj = finitediff.max_directional_derivative(values, h, j)
        finite = np.isfinite(dj)
        valid &= finite
        positive = np.clip(np.where(finite, dj, 0.0), 0.0, None)
        np.maximum(r, positive ** (1.0 / (k - j + alpha)), out=r)
    if not valid.any():
        raise ValueError("insufficient grid margin for the order-k differences")
    r = np.where(valid, r, np.nan)
    return ControlField(
        k=k,
        alpha=alpha,
        spacing=h,
        origin=f.origin,
        values=r,
        valid=valid,
    )


def holder_norm(f: SampledFunction, k: int, alpha: float) -> float:
    """Sampled C^(k,alpha) norm of f.

    The largest of sup |D^beta f| over |beta| <= k and of the semi-norms
    [D^beta f]_alpha over |beta| = k, from central differences wherever
    their stencils fit and over all sampled pairs.  f / norm is the
    normalized function on which the control field is a length.
    """
    validate_alpha(alpha)
    best = float(np.max(np.abs(f.values), initial=0.0))
    for j in range(1, k + 1):
        for _, beta in directional_expand(j, f.n):
            dj = finitediff.partial(f.values, f.spacing, beta)
            finite = np.isfinite(dj)
            if not finite.any():
                continue
            best = max(best, float(np.max(np.abs(dj[finite]))))
            if j == k:
                best = max(best, _sup_ratio((dj,), f.spacing, alpha, math.inf))
    return best


@dataclass
class SlowVariationReport:
    ok: bool
    worst_ratio: float


def check_slow_variation(r: ControlField, nu: float, fail_fast: bool = False) -> SlowVariationReport:
    """Check |r(x) - r(y)| <= r(x)/4 whenever |x - y| <= nu r(x).

    With ``fail_fast`` the scan stops at the first violating pair, which
    is what the decomposition's nu-selection loop needs.
    """
    if not 0 < nu < math.inf:
        raise InputError("nu must be positive and finite")
    vals = r.values
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for a, b, within in _pairs_within(r, nu):
            base, other = vals[a], vals[b]
            # NaN partners fail this comparison
            mask = within & (np.abs(base - other) >= 0)
            if not mask.any():
                continue
            ratios = np.abs(base[mask] - other[mask]) / base[mask]
            worst = max(worst, float(ratios.max()))
            if fail_fast and worst > 0.25:
                return SlowVariationReport(False, worst)
    return SlowVariationReport(ok=worst <= 0.25, worst_ratio=worst)
