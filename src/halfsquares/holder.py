"""Sampled functions, empirical Hoelder semi-norms and the control field.

Everything here is binary64 and deliberately inexact: it estimates
analytic suprema from uniform-grid samples in one or two dimensions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import finitediff
from .multiindex import directional_expand, order


class SampledFunctionFormatError(ValueError):
    pass


@dataclass
class SampledFunction:
    """Uniform-grid samples on a box; n = 1 or 2."""

    origin: tuple[float, ...]
    spacing: float
    values: np.ndarray
    name: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.origin = tuple(float(o) for o in self.origin)
        self.spacing = float(self.spacing)
        if self.values.ndim not in (1, 2):
            raise ValueError("only 1- and 2-dimensional grids are supported")
        if len(self.origin) != self.values.ndim:
            raise ValueError("origin length must match dimension")
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

    def coords(self):
        axes = [self.axis_coords(i) for i in range(self.n)]
        if self.n == 1:
            return axes[0]
        return np.meshgrid(*axes, indexing="ij")

    @classmethod
    def from_callable(cls, fn, origin, spacing, shape, name=None):
        origin = tuple(float(o) for o in origin)
        shape = tuple(int(s) for s in shape)
        axes = [origin[i] + float(spacing) * np.arange(shape[i]) for i in range(len(shape))]
        if len(shape) == 1:
            values = fn(axes[0])
        else:
            xx, yy = np.meshgrid(*axes, indexing="ij")
            values = fn(xx, yy)
        return cls(origin, spacing, np.asarray(values, dtype=float), name=name)

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
        except (KeyError, TypeError, ValueError) as err:
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


@dataclass
class HolderEstimate:
    """Empirical [f]_alpha over sampled pairs, optionally pointwise.

    With a mask, ``value`` is the supremum over pairs inside it and
    ``unmasked`` the supremum over all pairs; without one they agree.
    """

    alpha: float
    value: float
    window: float
    unmasked: float = 0.0
    pointwise: np.ndarray | None = None
    pointwise_windows: dict = field(default_factory=dict)


def _pair_offsets_2d(max_steps: int):
    for di in range(0, max_steps + 1):
        j_start = 1 if di == 0 else -max_steps
        for dj in range(j_start, max_steps + 1):
            if di == 0 and dj <= 0:
                continue
            if di * di + dj * dj <= max_steps * max_steps:
                yield di, dj


def _offset_rings(n: int, max_steps: int):
    """Half-plane pair offsets ring by ring: (s, offset) with max |offset_i| = s.

    Every offset of ring s is at least s steps long, so a scan that can
    stop once pairs are long enough needs no sort of all the offsets.
    Only offsets within Euclidean length ``max_steps`` are yielded.
    """
    for s in range(1, max_steps + 1):
        if n == 1:
            yield s, (s,)
            continue
        ring = [(s, dj) for dj in range(-s, s + 1)]
        ring += [(di, s) for di in range(s)] + [(di, -s) for di in range(1, s)]
        for di, dj in ring:
            if di * di + dj * dj <= max_steps * max_steps:
                yield s, (di, dj)


def _shifted_views(values, off):
    """Pair of equal-shape views of ``values`` separated by ``off``.

    Offsets beyond the array extent yield empty views.
    """
    a = [slice(None)] * values.ndim
    b = [slice(None)] * values.ndim
    for axis, d in enumerate(off):
        n = values.shape[axis]
        if d >= 0:
            a[axis] = slice(0, max(0, n - d))
            b[axis] = slice(min(d, n), n)
        else:
            a[axis] = slice(min(-d, n), n)
            b[axis] = slice(0, max(0, n + d))
    return values[tuple(a)], values[tuple(b)]


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
    a sub-region (cells outside it are ignored).  One walk over the pair
    offsets gives both the masked and the unmasked supremum, each ending
    when no longer pair can beat it.  The pointwise variant scans
    shrinking windows of 3, 5 and 9 grid steps around each point and
    reports the smallest-window value, approximating the limsup-based
    local semi-norm.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    h = f.spacing
    values = f.values
    if derivative is not None and order(tuple(derivative)) > 0:
        values = finitediff.partial(values, h, tuple(derivative))
        if not np.isfinite(values).any():
            raise ValueError("grid too small for the requested derivative")
    extent = max((s - 1) * h for s in f.shape)
    if window is None:
        window = extent * math.sqrt(f.n)
    max_steps = int(window / h + 1e-9)
    if max_steps < 1:
        raise ValueError("window is smaller than one grid step")

    # the supremum over all pairs, then over the pairs with both ends in the mask
    regions = [None] if mask is None else [None, np.asarray(mask, dtype=bool)]
    finite = np.isfinite(values)
    kept = [values[finite if region is None else finite & region] for region in regions]
    bounds = [float(v.max() - v.min()) if v.size else -math.inf for v in kept]
    clean = [v.size == values.size for v in kept]
    best = [0.0] * len(regions)
    for steps, off in _offset_rings(f.n, max_steps):
        # a supremum that no pair of this ring or beyond can beat is final
        live = [k for k, bound in enumerate(bounds) if bound / (h * steps) ** alpha > best[k]]
        if steps >= max(f.shape) or not live:
            break
        dist = h * math.hypot(*off)
        a, b = _shifted_views(values, off)
        if a.size == 0:
            continue
        gaps = np.abs(a - b)
        finite = None if all(clean[k] for k in live) else np.isfinite(gaps)
        for k in live:
            if clean[k]:
                gap = float(np.max(gaps))
            else:
                pairs = finite if regions[k] is None else finite & np.logical_and(
                    *_shifted_views(regions[k], off)
                )
                if not pairs.any():
                    continue
                gap = float(np.max(gaps, where=pairs, initial=-math.inf))
            best[k] = max(best[k], gap / dist**alpha)

    estimate = HolderEstimate(alpha=alpha, value=best[-1], window=window, unmasked=best[0])
    if pointwise:
        if mask is not None:
            values = np.where(mask, values, np.nan)
        windows = {}
        for w in (9, 5, 3):
            windows[w] = _pointwise_seminorm(values, h, alpha, w, f.n)
        estimate.pointwise = windows[3]
        estimate.pointwise_windows = windows
    return estimate


def _pointwise_seminorm(values, h, alpha, w, n):
    out = np.zeros_like(values, dtype=float)
    if n == 1:
        size = values.shape[0]
        padded = np.full(size + 2 * w, np.nan)
        padded[w : w + size] = values
        for a in range(-w, w + 1):
            for b in range(a + 1, w + 1):
                va = padded[w + a : w + a + size]
                vb = padded[w + b : w + b + size]
                with np.errstate(invalid="ignore"):
                    ratio = np.abs(va - vb) / (h * (b - a)) ** alpha
                ratio = np.where(np.isnan(ratio), 0.0, ratio)
                np.maximum(out, ratio, out=out)
        return out
    # n == 2: pairs through each grid point only (cheaper local surrogate)
    for off in _pair_offsets_2d(w):
        a, b = _shifted_views(values, off)
        with np.errstate(invalid="ignore"):
            ratio = np.abs(a - b) / (h * math.hypot(*off)) ** alpha
        ratio = np.where(np.isnan(ratio), 0.0, ratio)
        for lead in (True, False):
            region = out[_offset_slices(off, values.shape, lead=lead)]
            np.maximum(region, ratio, out=region)
    return out


def _offset_slices(off, shape, lead: bool):
    sl = []
    for axis, d in enumerate(off):
        n = shape[axis]
        if (d >= 0) == lead:
            sl.append(slice(0, n - abs(d)))
        else:
            sl.append(slice(abs(d), n))
    return tuple(sl)


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
    directions: int = 0

    @property
    def n(self) -> int:
        return self.values.ndim

    def positive_mask(self) -> np.ndarray:
        return self.valid & (self.values > 0)


def control_field(
    f: SampledFunction, k: int, alpha: float, directions: int = 64
) -> ControlField:
    """Sample the control field r of f on the grid."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    h = f.spacing
    values = f.values
    r = np.zeros_like(values, dtype=float)
    valid = np.ones_like(values, dtype=bool)
    for j in range(0, k + 1, 2):
        if j == 0:
            dj = values.astype(float)
        else:
            dj = finitediff.max_directional_derivative(values, h, j, directions)
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
        directions=directions if f.n == 2 and k >= 2 else 0,
    )


def holder_norm(f: SampledFunction, k: int, alpha: float) -> float:
    """Sampled C^(k,alpha) norm of f.

    The largest of sup |D^beta f| over |beta| <= k and of the semi-norms
    [D^beta f]_alpha over |beta| = k, from central differences wherever
    their stencils fit and over all sampled pairs.  f / norm is the
    normalized function on which the control field is a length.
    """
    best = float(np.max(np.abs(f.values), initial=0.0))
    for j in range(1, k + 1):
        for _, beta in directional_expand(j, f.n):
            dj = finitediff.partial(f.values, f.spacing, beta)
            finite = np.isfinite(dj)
            if not finite.any():
                continue
            best = max(best, float(np.max(np.abs(dj[finite]))))
            if j == k:
                best = max(best, estimate_seminorm(f, alpha, derivative=beta).value)
    return best


@dataclass
class SlowVariationReport:
    ok: bool
    worst_ratio: float
    nu: float
    pairs_checked: int


def check_slow_variation(r: ControlField, nu: float, fail_fast: bool = False) -> SlowVariationReport:
    """Check |r(x) - r(y)| <= r(x)/4 whenever |x - y| <= nu r(x).

    With ``fail_fast`` the scan stops at the first violating pair, which
    is what the decomposition's nu-selection loop needs.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    h = r.spacing
    vals = r.values
    finite = np.isfinite(vals)
    rmax = float(vals[finite].max()) if finite.any() else 0.0
    max_steps = min(int(nu * rmax / h + 1e-9), max(vals.shape) - 1)
    worst = 0.0
    checked = 0
    if r.n == 1:
        offsets = ((d,) for d in range(1, max_steps + 1))
    else:
        offsets = _pair_offsets_2d(max_steps)
    with np.errstate(invalid="ignore"):
        for off in offsets:
            a, b = _shifted_views(vals, off)
            dist = h * (math.hypot(*off) if r.n == 2 else off[0])
            for base, other in ((a, b), (b, a)):
                # NaN bases and NaN partners both fail these comparisons
                mask = (dist <= nu * base) & (np.abs(base - other) >= 0)
                if not mask.any():
                    continue
                checked += int(mask.sum())
                ratios = np.abs(base[mask] - other[mask]) / base[mask]
                worst = max(worst, float(ratios.max()))
                if fail_fast and worst > 0.25:
                    return SlowVariationReport(False, worst, nu, checked)
    return SlowVariationReport(ok=worst <= 0.25, worst_ratio=worst, nu=nu, pairs_checked=checked)
