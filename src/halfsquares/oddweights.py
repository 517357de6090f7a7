"""Exact node/weight systems killing odd moments below a top order.

For odd ell and s = (ell+1)/2, nodes eta_1..eta_s and weights w_1..w_s
satisfy sum w_k eta_k^j = 0 for odd j < ell and = 1 for j = ell.  For any
nonzero nodes with distinct |eta| the unique weights have the closed form
w_k = 1 / (eta_k * prod_{i != k} (eta_k^2 - eta_i^2)), by Lagrange
interpolation in eta^2.  The canonical nodes eta_k = (-1)^(s+k) k make
every weight positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


@dataclass(frozen=True)
class OddWeightSystem:
    ell: int
    nodes: tuple[int, ...]
    weights: tuple[Fraction, ...]

    @property
    def s(self) -> int:
        return (self.ell + 1) // 2

    def moment(self, j: int) -> Fraction:
        return sum(
            (w * Fraction(eta) ** j for eta, w in zip(self.nodes, self.weights)),
            Fraction(0),
        )

    def validate(self):
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        mags = [abs(e) for e in self.nodes]
        if sorted(mags) != mags or len(set(mags)) != len(mags):
            raise ValueError("node magnitudes must be strictly increasing")
        for k, eta in enumerate(self.nodes, start=1):
            if (eta > 0) != ((-1) ** (self.s + k) > 0):
                raise ValueError("node signs must alternate as (-1)^(s+k)")
        for j in range(1, self.ell, 2):
            if self.moment(j) != 0:
                raise ValueError(f"odd moment {j} does not vanish")
        if self.moment(self.ell) != 1:
            raise ValueError(f"moment {self.ell} is not normalized")


def moment_matrix(nodes) -> list[list[Fraction]]:
    """Rows are the odd powers eta^1, eta^3, ..., eta^(2s-1)."""
    s = len(nodes)
    return [[Fraction(eta) ** (2 * row + 1) for eta in nodes] for row in range(s)]


def det_product_formula(nodes) -> Fraction:
    """(prod eta_i) * prod_{i > j} (eta_i^2 - eta_j^2), the closed form of
    the odd-power Vandermonde determinant."""
    out = Fraction(1)
    for eta in nodes:
        out *= eta
    for i in range(len(nodes)):
        for j in range(i):
            out *= Fraction(nodes[i]) ** 2 - Fraction(nodes[j]) ** 2
    return out


def weights_for_nodes(nodes) -> list[Fraction]:
    """The exact solution of M w = e_s for nonzero distinct-|eta| nodes.

    Weights may have any sign here; positivity requires the alternating
    node pattern used by ``solve``.
    """
    nodes = [int(e) for e in nodes]
    if not nodes:
        raise InputError("need at least one node")
    if any(e == 0 for e in nodes):
        raise InputError("nodes must be nonzero")
    mags = [abs(e) for e in nodes]
    if len(set(mags)) != len(mags):
        raise InputError("repeated |eta|: two linearly dependent columns")
    return closed_form_weights(nodes)


def closed_form_weights(nodes) -> list[Fraction]:
    """w_k = (eta_k * prod_{i != k} (eta_k^2 - eta_i^2))^(-1)."""
    out = []
    for k, eta in enumerate(nodes):
        den = Fraction(eta)
        for i, other in enumerate(nodes):
            if i != k:
                den *= Fraction(eta) ** 2 - Fraction(other) ** 2
        out.append(1 / den)
    return out


def solve(ell: int) -> OddWeightSystem:
    """Canonical system for odd ell >= 1, validated before return."""
    if not isinstance(ell, int) or ell < 1 or ell % 2 == 0:
        raise InputError("ell must be a positive odd integer")
    s = (ell + 1) // 2
    nodes = tuple((-1) ** (s + k) * k for k in range(1, s + 1))
    system = OddWeightSystem(ell, nodes, tuple(closed_form_weights(nodes)))
    system.validate()
    return system
