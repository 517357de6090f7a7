"""Multi-index combinatorics for higher-order derivative expansions.

A multi-index is a tuple of non-negative integers; a partition of a
multi-index beta is a multiset of nonzero multi-indices summing to beta
entrywise.  Partitions index the terms of the generalized chain rule, the
square-root expansion and the recursion for derivatives of implicitly
defined functions, with explicitly computable rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from .errors import InputError

MultiIndex = tuple[int, ...]


def order(beta: MultiIndex) -> int:
    """Total order |beta| = sum of entries."""
    return sum(beta)


def check_multiindex(beta) -> MultiIndex:
    beta = tuple(beta)
    if not beta or any((not isinstance(b, int)) or b < 0 for b in beta):
        raise InputError(f"not a multi-index: {beta!r}")
    return beta


def leq(gamma: MultiIndex, beta: MultiIndex) -> bool:
    """Partial order: gamma <= beta iff every entry of gamma is <= beta's."""
    return len(gamma) == len(beta) and all(g <= b for g, b in zip(gamma, beta))


def sub(beta: MultiIndex, gamma: MultiIndex) -> MultiIndex:
    if not leq(gamma, beta):
        raise ValueError(f"{gamma} is not <= {beta}")
    return tuple(b - g for b, g in zip(beta, gamma))


def factorial(beta: MultiIndex) -> int:
    """beta! = beta_1! ... beta_n!."""
    out = 1
    for b in beta:
        out *= math.factorial(b)
    return out


def binom(beta: MultiIndex, gamma: MultiIndex) -> int:
    """Generalized binomial coefficient beta!/(gamma!(beta-gamma)!)."""
    if not leq(gamma, beta):
        raise ValueError(f"{gamma} is not <= {beta}")
    out = 1
    for b, g in zip(beta, gamma):
        out *= math.comb(b, g)
    return out


def below(beta: MultiIndex) -> Iterator[MultiIndex]:
    """All gamma <= beta in lexicographic order."""
    return product(*(range(b + 1) for b in beta))


@dataclass(frozen=True)
class MultiSetPartition:
    """Unordered partition of ``target`` into nonzero multi-indices.

    Parts are stored as a support list with multiplicities so that the
    m(Gamma, gamma)! factor of the chain-rule coefficient is direct.
    """

    target: MultiIndex
    parts: tuple[tuple[MultiIndex, int], ...]  # (part, multiplicity), parts lex-sorted

    def __post_init__(self):
        total = [0] * len(self.target)
        count = 0
        for part, mult in self.parts:
            if order(part) < 1 or mult < 1:
                raise ValueError("parts must be nonzero with positive multiplicity")
            count += mult
            for i, p in enumerate(part):
                total[i] += mult * p
        if tuple(total) != self.target:
            raise ValueError(f"parts do not sum to {self.target}")
        object.__setattr__(self, "_size", count)

    @property
    def size(self) -> int:
        """Cardinality |Gamma| counting multiplicity."""
        return self._size

    def expand(self) -> tuple[MultiIndex, ...]:
        """Parts repeated by multiplicity, lex-sorted."""
        out = []
        for part, mult in self.parts:
            out.extend([part] * mult)
        return tuple(out)

    def factorial_product(self) -> int:
        """prod over gamma in Gamma of gamma! (with multiplicity)."""
        out = 1
        for part, mult in self.parts:
            out *= factorial(part) ** mult
        return out

    def multiplicity_factorial(self) -> int:
        """prod over the support of m(Gamma, gamma)!."""
        out = 1
        for _, mult in self.parts:
            out *= math.factorial(mult)
        return out


def _partition_tuples(remaining: MultiIndex, cap: MultiIndex) -> list[tuple[MultiIndex, ...]]:
    """Partitions of ``remaining`` into parts lex-<= cap, non-increasing."""
    if order(remaining) == 0:
        return [()]
    out = []
    for part in product(*(range(r + 1) for r in remaining)):
        if order(part) == 0 or part > cap:
            continue
        rest = tuple(r - p for r, p in zip(remaining, part))
        for tail in _partition_tuples(rest, part):
            out.append((part,) + tail)
    return out


@lru_cache(maxsize=None)
def enumerate_partitions(beta: MultiIndex) -> tuple[MultiSetPartition, ...]:
    """All unordered partitions of beta, each exactly once, lex-sorted.

    Parts within a partition are sorted lexicographically and the returned
    partitions are sorted lexicographically on their expanded part lists,
    so the output order is stable.
    """
    beta = check_multiindex(beta)
    if order(beta) == 0:
        raise InputError("no partitions of zero")
    raw = _partition_tuples(beta, beta)
    partitions = []
    for parts in raw:
        parts = tuple(sorted(parts))
        grouped = []
        for part in parts:
            if grouped and grouped[-1][0] == part:
                grouped[-1][1] += 1
            else:
                grouped.append([part, 1])
        partitions.append(MultiSetPartition(beta, tuple((p, m) for p, m in grouped)))
    partitions.sort(key=lambda g: g.expand())
    return tuple(partitions)


def _partitions_allow_empty(eta: MultiIndex) -> tuple[MultiSetPartition, ...]:
    """Like enumerate_partitions but P(0) = {empty partition}."""
    if order(eta) == 0:
        return (MultiSetPartition(eta, ()),)
    return enumerate_partitions(eta)


def chain_coefficient(beta: MultiIndex, eta: MultiIndex, partition: MultiSetPartition) -> Fraction:
    """Coefficient eta! binom(beta, eta) / (prod gamma! * prod m(Gamma, gamma)!).

    This is the weight of the term (d^(beta-eta) d_{n+1}^|Gamma| f) *
    prod d^gamma g in the expansion of d^beta f(x, g(x)).
    """
    beta = check_multiindex(beta)
    eta = check_multiindex(eta)
    if not leq(eta, beta):
        raise ValueError(f"{eta} is not <= {beta}")
    if partition.target != eta:
        raise ValueError(f"partition of {partition.target} does not partition {eta}")
    num = factorial(eta) * binom(beta, eta)
    den = partition.factorial_product() * partition.multiplicity_factorial()
    return Fraction(num, den)


@dataclass(frozen=True)
class ChainTerm:
    """One term of the expansion of d^beta [f(x, g(x))].

    Evaluates to coefficient * (d^x_deriv d_{n+1}^inner_order f)(x, g(x)) *
    prod over factors gamma of d^gamma g(x).
    """

    x_deriv: MultiIndex
    inner_order: int
    coefficient: Fraction
    factors: MultiSetPartition


@lru_cache(maxsize=None)
def chain_terms(beta: MultiIndex) -> tuple[ChainTerm, ...]:
    """Full term list of the generalized chain rule for d^beta f(x, g(x))."""
    beta = check_multiindex(beta)
    out = []
    for eta in below(beta):
        for part in _partitions_allow_empty(eta):
            out.append(
                ChainTerm(
                    x_deriv=sub(beta, eta),
                    inner_order=part.size,
                    coefficient=chain_coefficient(beta, eta, part),
                    factors=part,
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class SqrtTerm:
    """Term coefficient * g^power * prod d^gamma g of d^beta sqrt(g)."""

    coefficient: Fraction
    power: Fraction  # 1/2 - |Gamma|, a half-integer
    factors: MultiSetPartition


def sqrt_coefficient(beta: MultiIndex, partition: MultiSetPartition) -> Fraction:
    """Signed coefficient of the square-root expansion for one partition."""
    s = partition.size
    num = (-1) ** (1 + s) * factorial(beta) * math.factorial(2 * s - 2)
    den = 2 ** (2 * s - 1) * math.factorial(s - 1)
    den *= partition.factorial_product() * partition.multiplicity_factorial()
    return Fraction(num, den)


@lru_cache(maxsize=None)
def sqrt_expansion(beta: MultiIndex) -> tuple[SqrtTerm, ...]:
    """d^beta sqrt(g) = sum over partitions Gamma of beta of
    C_{beta,Gamma} g^(1/2 - |Gamma|) prod_{gamma in Gamma} d^gamma g."""
    beta = check_multiindex(beta)
    if order(beta) < 1:
        raise InputError("order of beta must be >= 1")
    return tuple(
        SqrtTerm(
            coefficient=sqrt_coefficient(beta, part),
            power=Fraction(1, 2) - part.size,
            factors=part,
        )
        for part in enumerate_partitions(beta)
    )


def leibniz_expand(beta: MultiIndex) -> tuple[tuple[int, MultiIndex, MultiIndex], ...]:
    """General Leibniz rule: (binom(beta, gamma), gamma, beta - gamma) over gamma <= beta."""
    beta = check_multiindex(beta)
    return tuple((binom(beta, gamma), gamma, sub(beta, gamma)) for gamma in below(beta))


@lru_cache(maxsize=None)
def implicit_derivative_terms(beta: MultiIndex) -> tuple[ChainTerm, ...]:
    """Terms of the recursion for d^beta g when G(x, g(x)) = 0.

    d^beta g = -(1 / d_n G) * sum of
        coefficient * (d^x_deriv d_n^inner_order G) * prod d^gamma g,
    all right-hand functions evaluated at (x, g(x)): the chain-rule terms
    of d^beta G(x, g(x)) = 0 but the one with Gamma = {beta}, so every
    factor has order < |beta|.
    """
    beta = check_multiindex(beta)
    if order(beta) < 1:
        raise InputError("order of beta must be >= 1")
    return tuple(term for term in chain_terms(beta) if term.factors.parts != ((beta, 1),))


def implicit_derivatives(beta: MultiIndex, g_partial: Callable[[MultiIndex, int], object]) -> dict:
    """Evaluate d^gamma g for all gamma <= beta via the implicit recursion.

    ``g_partial(alpha, j)`` must return d^alpha d_n^j G evaluated at the
    implicit point (x, g(x)); alpha ranges over base multi-indices.  Works
    with any field-like values (floats, Fractions, sympy expressions).
    """
    beta = check_multiindex(beta)
    dn = g_partial(tuple(0 for _ in beta), 1)
    derivs: dict[MultiIndex, object] = {}
    for gamma in sorted(below(beta), key=lambda g: (order(g), g)):
        if order(gamma) == 0:
            continue
        acc = None
        for term in implicit_derivative_terms(gamma):
            val = term.coefficient * g_partial(term.x_deriv, term.inner_order)
            for factor in term.factors.expand():
                val = val * derivs[factor]
            acc = val if acc is None else acc + val
        derivs[gamma] = -acc / dn
    return derivs


def directional_expand(k: int, n: int) -> tuple[tuple[int, MultiIndex], ...]:
    """Multinomial expansion of (xi . grad)^k: pairs (k!/beta!, beta), |beta| = k."""
    if k < 0 or n < 1:
        raise InputError("need k >= 0 and n >= 1")
    kfact = math.factorial(k)
    out = []
    for beta in product(*(range(k + 1) for _ in range(n))):
        if order(beta) == k:
            out.append((kfact // factorial(beta), beta))
    return tuple(out)
