"""Exact linear algebra over the rationals for small dense systems.

One fraction-free Gauss-Jordan elimination (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination") serves
every solver here: rows are scaled to integers and each update divides
exactly by the previous pivot, so no Fraction arithmetic runs inside the
loop.  Entries are ints or Fractions; results are Fractions, no floating
point.  ``nonnegative_solution``, an exact phase-one simplex, pivots with
the same row update.  Matrices are lists of row lists; ``det_stack`` takes
a numpy stack of integer matrices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, islice
from math import lcm

import numpy as np


def over_common_denominator(values):
    """(ints, den): den the lcm of the values' denominators, ints = values * den.

    Ints and Fractions are read as they are; any other value (a bool, a
    float, a decimal string, a numpy integer) is converted with
    ``Fraction(x)`` once.  ``ints`` and ``den`` are Python ints.
    """
    pairs = [
        x.as_integer_ratio() if type(x) is int or type(x) is Fraction
        else tuple(map(int, Fraction(x).as_integer_ratio()))
        for x in values
    ]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _reduce(matrix):
    """Fraction-free reduced row echelon form of ``matrix``.

    Each row is first scaled by the lcm of its entries' denominators.
    The pivot of each column is its first nonzero entry at or below the
    current row.  Returns (rows, pivot_cols, pivot, sign, scale): the
    reduced integer rows, the pivot columns, the last pivot (the
    determinant of the scaled pivot minor, and the value of every pivot
    entry at the end), the sign of the row swaps and the product of the
    row scales.  Dividing the rows by ``pivot`` gives the reduced row
    echelon form.
    """
    rows = []
    scale = 1
    for row in matrix:
        ints, den = over_common_denominator(row)
        rows.append(ints)
        scale *= den
    m = len(rows)
    width = len(rows[0]) if rows else 0
    pivot_cols = []
    pivot, sign = 1, 1
    for col in range(width):
        r = len(pivot_cols)
        found = next((i for i in range(r, m) if rows[i][col]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], rows[r]
            sign = -sign
        pivot = _pivot(rows, r, col, pivot)
        pivot_cols.append(col)
    return rows, pivot_cols, pivot, sign, scale


def _pivot(rows, r, col, prev):
    """Pivot on p = rows[r][col], dividing exactly by the previous pivot ``prev``; returns p."""
    top = rows[r]
    p = top[col]
    for i, row in enumerate(rows):
        if i != r:
            a = row[col]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
    return p


def _augmented(matrix, rhs):
    if len(rhs) != len(matrix):
        raise ValueError("right-hand side length differs from the row count")
    return [list(row) + [b] for row, b in zip(matrix, rhs)]


def det(matrix) -> Fraction:
    """Determinant of a square matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    _, pivot_cols, pivot, sign, scale = _reduce(matrix)
    if len(pivot_cols) < n:
        return Fraction(0)
    return Fraction(sign * pivot, scale)


def det_stack(stack) -> np.ndarray:
    """Exact determinants of a stack of integer matrices, shape (K, n, n).

    ``_reduce``'s elimination and pivot rule below the pivot, one numpy
    step for all K.  Intermediates are products of two minors, each within
    the Hadamard bound H = (n max|a|^2)^(n/2): int64 when 2 H^2 < 2^63,
    else Python ints (dtype object).
    """
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("need a stack of square matrices, shape (K, n, n)")
    K, n = a.shape[:2]
    top = max(1, int(np.abs(a).max(initial=0)))
    a = a.astype(np.int64 if 2 * (n * top * top) ** n < 2**63 else object)
    rows = np.arange(K)
    pivot, sign = np.ones(K, dtype=a.dtype), np.ones(K, dtype=np.int64)
    for k in range(n):
        found = k + (a[:, k:, k] != 0).argmax(axis=1)  # k if there is no pivot
        sign[found != k] *= -1
        head = a[rows, found]
        a[rows, found] = a[:, k]
        a[:, k] = head
        # a zero pivot (singular matrix) zeroes the rows below it, so the
        # next step may divide by 1 instead and every pivot after is 0
        a[:, k + 1:, k + 1:] = (
            head[:, k, None, None] * a[:, k + 1:, k + 1:]
            - a[:, k + 1:, k, None] * head[:, None, k + 1:]
        ) // np.where(pivot == 0, 1, pivot)[:, None, None]
        pivot = head[:, k]
    return (sign * pivot).astype(a.dtype)


CHUNK = 4096  # combinations per det_stack batch: bounds a batched scan's memory


def combination_chunks(m: int, k: int):
    """The k-subsets of range(m) in lex order, as index arrays of shape
    (K, k) with K <= CHUNK."""
    combos = combinations(range(m), k)
    while True:
        chunk = np.fromiter(chain.from_iterable(islice(combos, CHUNK)), dtype=np.intp)
        if not len(chunk):
            return
        yield chunk.reshape(-1, k)


def solve_rectangular(matrix, rhs) -> list[Fraction] | None:
    """Unique solution of an overdetermined consistent system.

    ``matrix`` has m rows and k <= m columns.  Returns the solution when
    the matrix has full column rank and the system is consistent, else
    None (rank-deficient or inconsistent).
    """
    solved = solve_underdetermined(matrix, rhs)
    return solved[0] if solved is not None and not solved[1] else None


def solve_underdetermined(matrix, rhs):
    """General exact solve of an m x k system, any rank.

    Returns (particular, basis) where ``particular`` has the free
    variables set to zero and ``basis`` spans the nullspace, or None when
    the system is inconsistent.
    """
    k = len(matrix[0]) if matrix else 0
    rows, pivot_cols, pivot, _, _ = _reduce(_augmented(matrix, rhs))
    if k in pivot_cols:
        return None
    particular = [Fraction(0)] * k
    for row, pc in zip(rows, pivot_cols):
        particular[pc] = Fraction(row[k], pivot)
    basis = []
    for fc in (c for c in range(k) if c not in pivot_cols):
        vec = [Fraction(0)] * k
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivot_cols):
            vec[pc] = Fraction(-row[fc], pivot)
        basis.append(vec)
    return particular, basis


def nonnegative_solution(matrix, rhs) -> list[Fraction] | None:
    """A solution x >= 0 of matrix x = rhs, or None when there is none.

    Phase one of the simplex method on the rows of [matrix | rhs], each
    scaled to integers and signed so its rhs is >= 0.  The artificial
    variables are the starting basis and are not stored, so one that leaves
    stays 0, which loses no solution.  The last row holds the reduced costs
    of the artificials' sum, and ``_pivot`` updates it with the others.
    Bland's rule (Bland 1977) takes the lowest entering column and breaks
    ratio ties by the lowest basic variable, so no basis repeats.  Every
    pivot is positive, so the rows' signs are those of the tableau.
    """
    k = len(matrix[0]) if matrix else 0
    rows = [over_common_denominator(row)[0] for row in _augmented(matrix, rhs)]
    rows = [row if row[-1] >= 0 else [-x for x in row] for row in rows]
    rows.append([-sum(col) for col in zip(*rows)] or [0])
    basis = [k + i for i in range(len(rows) - 1)]
    pivot = 1
    while (col := next((j for j in range(k) if rows[-1][j] < 0), None)) is not None:
        r = min(
            (i for i in range(len(basis)) if rows[i][col] > 0),
            key=lambda i: (Fraction(rows[i][k], rows[i][col]), basis[i]),
        )
        pivot = _pivot(rows, r, col, pivot)
        basis[r] = col
    if rows[-1][k]:
        return None
    x = [Fraction(0)] * k
    for row, j in zip(rows, basis):
        if j < k:
            x[j] = Fraction(row[k], pivot)
    return x
