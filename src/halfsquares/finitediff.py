"""Central finite-difference stencils on uniform grids.

Second-order accurate central stencils only; cells where a stencil does
not fit are NaN rather than silently one-sided, and consumers restrict to
the valid interior.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .multiindex import directional_expand

# offsets are symmetric around 0; coefficients divide by h^order
STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 0, 1), (-0.5, 0.0, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 0, 1, 2), (-0.5, 1.0, 0.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}
# the sampled unit directions of every 2D sup over xi: (cos, sin) of theta = pi i / 64
DIRECTIONS = np.array([(math.cos(math.pi * i / 64), math.sin(math.pi * i / 64)) for i in range(64)])


def stencil_reach(order: int) -> int:
    if order not in STENCILS:
        raise InputError(f"no stencil for derivative order {order}")
    return max(abs(o) for o in STENCILS[order][0])


def diff_axis(values: np.ndarray, h: float, order: int, axis: int = 0) -> np.ndarray:
    """Derivative along one axis; margins are NaN."""
    if order == 0:
        return values.astype(float, copy=True)
    reach = stencil_reach(order)
    offsets, coeffs = STENCILS[order]
    out = np.full_like(values, np.nan, dtype=float)
    n = values.shape[axis]
    if n < 2 * reach + 1:
        return out
    interior = [slice(None)] * values.ndim
    interior[axis] = slice(reach, n - reach)
    acc = np.zeros_like(out[tuple(interior)])
    for off, coeff in zip(offsets, coeffs):
        if coeff == 0.0:
            continue
        shifted = [slice(None)] * values.ndim
        shifted[axis] = slice(reach + off, n - reach + off)
        acc = acc + coeff * values[tuple(shifted)]
    try:
        out[tuple(interior)] = acc / h**order
    except OverflowError:
        raise ValueError(f"grid step {h!r} to the power {order} overflows") from None
    return out


def partial(values: np.ndarray, h: float, beta) -> np.ndarray:
    """Mixed partial d^beta via sequential per-axis stencils."""
    beta = tuple(beta)
    if len(beta) != values.ndim:
        raise ValueError("beta length must match grid dimension")
    out = values.astype(float, copy=True)
    for axis, order in enumerate(beta):
        if order:
            out = diff_axis(out, h, order, axis=axis)
    return out


def nabla_norm(values: np.ndarray, h: float, ell: int) -> np.ndarray:
    """Euclidean norm of the vector of all order-ell partials (each once)."""
    if ell == 0:
        return np.abs(values.astype(float))
    total = None
    for _, beta in directional_expand(ell, values.ndim):
        p = partial(values, h, beta)
        total = p**2 if total is None else total + p**2
    return np.sqrt(total)


def fd_noise(values: np.ndarray, h: float, order: int) -> float:
    """Resolution limit of an order-``order`` central difference.

    Roundoff of the samples is amplified by roughly the stencil weight
    sum over h^order; numerators below this cannot be distinguished from
    zero and are treated as such.
    """
    scale = float(np.max(np.abs(values), initial=0.0))
    return 16.0 * np.finfo(float).eps * scale / h**order


def _directional_sum(values, j, xi, partial_of) -> np.ndarray:
    """Sum of (j!/beta!) xi^beta d^beta f over |beta| = j, zero-factor terms skipped."""
    acc = None
    for mult, beta in directional_expand(j, values.ndim):
        factor = float(mult) * float(np.prod(xi**np.asarray(beta)))
        if factor == 0.0:
            continue
        term = factor * partial_of(beta)
        acc = term if acc is None else acc + term
    if acc is None:
        acc = np.zeros_like(values, dtype=float)
    return acc


def directional_derivative(values: np.ndarray, h: float, j: int, xi) -> np.ndarray:
    """(xi . grad)^j via the multinomial expansion over mixed partials."""
    xi = np.asarray(xi, dtype=float)
    if values.ndim != xi.size:
        raise ValueError("direction dimension mismatch")
    if j == 0:
        return values.astype(float, copy=True)
    return _directional_sum(values, j, xi, lambda beta: partial(values, h, beta))


def max_directional_derivative(values: np.ndarray, h: float, j: int) -> np.ndarray:
    """Pointwise max over unit xi of (xi . grad)^j f for even j >= 2.

    Even j gives d^j_{-xi} = d^j_xi, so on a 2D grid the DIRECTIONS
    cover [0, pi); on a 1D grid the one direction is the axis.  The
    order-j partials are computed once and each direction's sum runs in
    the order of ``directional_derivative``, so the result is
    bit-identical to np.fmax over its outputs.
    """
    if values.ndim == 1:
        return diff_axis(values, h, j)
    partials = {beta: partial(values, h, beta) for _, beta in directional_expand(j, values.ndim)}
    out = None
    for xi in DIRECTIONS:
        cand = _directional_sum(values, j, xi, partials.__getitem__)
        out = cand if out is None else np.fmax(out, cand)
    return out
