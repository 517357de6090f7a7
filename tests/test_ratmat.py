"""Exact properties of the rational linear algebra in ``ratmat``.

Every check is an identity over the rationals: determinants against the
Leibniz expansion, ranks against the largest nonzero minor, solutions by
substitution.  Together the checks pin each result down uniquely (the
particular solution and the kernel basis by their values at the free
columns), so any exact elimination that passes returns the same
Fractions.  Entries are ints or Fractions; shapes cover square, wide
(m < k) and tall (m > k) systems, with rank deficiency forced by copying
a combination of rows.  The batched determinant is checked against the
single one on integer stacks.  The inverse checks pin the Fraction
oracle that ``SimplexPolytope``'s integer adjugate is tested against.
A non-negative solution is checked by substitution, and its absence
against every basic solution of the system.
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfsquares import ratmat

from oracles import basic_nonnegative_solution_exists, inverse

ENTRY = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def matrices(draw, rows=st.integers(1, 4), cols=st.integers(1, 4)):
    m, k = draw(rows), draw(cols)
    a = [[draw(ENTRY) for _ in range(k)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        # row 0 a combination of two later rows: rank < m
        i, j = draw(st.integers(1, m - 1)), draw(st.integers(1, m - 1))
        c1, c2 = draw(ENTRY), draw(ENTRY)
        a[0] = [c1 * x + c2 * y for x, y in zip(a[i], a[j])]
    return a


@st.composite
def systems(draw):
    a = draw(matrices())
    b = [draw(ENTRY) for _ in a]
    return a, b


def square(n=st.integers(0, 4)):
    return n.flatmap(lambda size: matrices(rows=st.just(size), cols=st.just(size)) if size else st.just([]))


def leibniz(a) -> Fraction:
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Fraction(-1) ** inversions
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def rank(a) -> int:
    m, k = len(a), len(a[0])
    for r in range(min(m, k), 0, -1):
        for rows in combinations(range(m), r):
            for cols in combinations(range(k), r):
                if leibniz([[a[i][j] for j in cols] for i in rows]):
                    return r
    return 0


def matvec(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)


@settings(max_examples=300)
@given(square())
def test_det_is_the_leibniz_expansion(a):
    d = ratmat.det(a)
    assert type(d) is Fraction
    assert d == leibniz(a)


@settings(max_examples=300)
@given(square(st.integers(1, 4)))
def test_inverse_exists_exactly_when_det_is_nonzero(a):
    inv = inverse(a)
    if ratmat.det(a) == 0:
        assert inv is None
        return
    n = len(a)
    assert all(all_fractions(row) for row in inv)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [matvec(a, col) for col in transpose(inv)] == transpose(identity)
    assert [matvec(inv, col) for col in transpose(a)] == transpose(identity)


@settings(max_examples=400)
@given(systems())
def test_solve_underdetermined_solves_and_spans_the_kernel(system):
    a, b = system
    k = len(a[0])
    solved = ratmat.solve_underdetermined(a, b)
    if solved is None:
        # inconsistent: some y with y^T A = 0 has y^T b != 0
        _, left_kernel = ratmat.solve_underdetermined(transpose(a), [0] * k)
        assert any(sum(yi * bi for yi, bi in zip(y, b)) != 0 for y in left_kernel)
        return
    particular, basis = solved
    assert all_fractions(particular) and all(all_fractions(v) for v in basis)
    assert matvec(a, particular) == b
    assert all(matvec(a, v) == [0] * len(a) for v in basis)
    assert len(basis) == k - rank(a)
    # free columns are those in the span of the columns before them; the
    # i-th basis vector is 1 at the i-th free column and 0 at the others,
    # and the particular solution is 0 at all of them
    free = [c for c in range(k) if rank([row[: c + 1] for row in a]) == rank([row[:c] for row in a])]
    assert [[v[c] for c in free] for v in basis] == [[int(i == j) for j in free] for i in free]
    assert [particular[c] for c in free] == [0] * len(free)


@settings(max_examples=400)
@given(systems())
def test_solve_rectangular_is_none_exactly_when_the_solution_is_not_unique(system):
    a, b = system
    unique = ratmat.solve_rectangular(a, b)
    solved = ratmat.solve_underdetermined(a, b)
    if solved is None or solved[1]:
        assert unique is None
    else:
        assert all_fractions(unique)
        assert unique == solved[0]


def test_shapes_and_entry_types():
    # m > k, consistent, full column rank, mixed int / Fraction entries
    a = [[1, Fraction(1, 2)], [0, 1], [2, 3]]
    assert ratmat.solve_rectangular(a, [2, 2, 8]) == [1, 2]
    assert ratmat.solve_rectangular(a, [2, 2, 9]) is None
    # m < k: never a unique solution, one free column
    particular, (direction,) = ratmat.solve_underdetermined([[1, 1, 0], [0, 1, 1]], [1, 2])
    assert particular == [-1, 2, 0] and direction == [1, -1, 1]
    assert ratmat.solve_rectangular([[1, 1, 0], [0, 1, 1]], [1, 2]) is None
    assert ratmat.det([[Fraction(1, 2), 3], [Fraction(1, 3), 5]]) == Fraction(3, 2)
    assert ratmat.det([]) == 1
    assert inverse([[2, 4], [1, 2]]) is None
    with pytest.raises(ValueError):
        ratmat.solve_rectangular(a, [2, 2])
    with pytest.raises(ValueError):
        ratmat.solve_underdetermined(a, [2, 2, 8, 0])


@st.composite
def integer_stacks(draw):
    """Stacks of integer n x n matrices, n = 1..5, with forced singular
    members, zero leading entries (so pivots need row swaps) and, in some
    stacks, entries near 10^10 (past the int64 Hadamard bound)."""
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from([3, 10**10]))
    entry = st.one_of(st.integers(-3, 3), st.integers(top - 5, top), st.integers(-top, -top + 5), st.just(0))
    stack = []
    for _ in range(draw(st.integers(0, 6))):
        a = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            a[0][0] = 0
        if n >= 2 and draw(st.booleans()):
            i = draw(st.integers(1, n - 1))
            a[0] = [draw(st.integers(-2, 2)) * x for x in a[i]]
        stack.append(a)
    return n, stack


@settings(max_examples=300)
@given(integer_stacks())
def test_det_stack_matches_det(case):
    n, stack = case
    dets = ratmat.det_stack(np.array(stack, dtype=object).reshape(len(stack), n, n))
    assert [int(x) for x in dets] == [ratmat.det(a) for a in stack]
    big = any(abs(x) > 10**9 for a in stack for row in a for x in row)
    assert dets.dtype == (object if big else np.int64)


def test_det_stack_mixes_singular_and_nonsingular():
    stack = [
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],  # rows 0 and 1 dependent
        [[0, 1, 0], [1, 0, 0], [0, 0, 5]],  # one swap: det -5
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]],  # a zero row
        [[0, 0, 2], [0, 3, 1], [7, 1, 1]],  # two swaps needed
        [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    ]
    dets = ratmat.det_stack(np.array(stack))
    assert dets.tolist() == [ratmat.det(a) for a in stack] == [0, -5, 0, -42, 4]
    assert ratmat.det_stack(np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError):
        ratmat.det_stack(np.zeros((2, 2, 3), dtype=np.int64))


@st.composite
def nonnegative_systems(draw):
    """Systems of up to 4 rows and 5 columns, with zero rows and columns
    forced at times, and a right-hand side that is either drawn or A x0
    for a drawn x0 >= 0 (zeros in x0 make it degenerate)."""
    a = draw(matrices(cols=st.integers(0, 5)))
    k = len(a[0])
    if draw(st.booleans()):
        a[draw(st.integers(0, len(a) - 1))] = [0] * k
    if k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        for row in a:
            row[j] = 0
    if draw(st.booleans()):
        x0 = [draw(st.sampled_from([0, 0, 1, 2, Fraction(1, 3)])) for _ in range(k)]
        return a, matvec(a, x0)
    return a, [draw(ENTRY) for _ in a]


@settings(max_examples=400)
@given(nonnegative_systems())
def test_nonnegative_solution_is_none_exactly_when_no_basic_solution_is(system):
    a, b = system
    x = ratmat.nonnegative_solution(a, b)
    assert (x is not None) == basic_nonnegative_solution_exists(a, b)
    if x is not None:
        assert all_fractions(x) and len(x) == len(a[0])
        assert all(xj >= 0 for xj in x)
        assert matvec(a, x) == b


def test_nonnegative_solution_edge_cases():
    # no columns: feasible exactly when the right-hand side is zero
    assert ratmat.nonnegative_solution([[], []], [0, 0]) == []
    assert ratmat.nonnegative_solution([[], []], [0, 1]) is None
    assert ratmat.nonnegative_solution([], []) == []
    # a zero row with a nonzero right-hand side, and with a zero one
    assert ratmat.nonnegative_solution([[1, 1], [0, 0]], [1, 1]) is None
    assert ratmat.nonnegative_solution([[1, 1], [0, 0]], [1, 0]) == [1, 0]
    # a zero column stays at 0; a negative right-hand side needs a negative entry
    assert ratmat.nonnegative_solution([[0, -1]], [-2]) == [0, 2]
    assert ratmat.nonnegative_solution([[0, 1]], [-2]) is None
    # degenerate: the only solution is x = 0, and a repeated row keeps an
    # artificial basic at level 0
    assert ratmat.nonnegative_solution([[1, 1], [1, -1]], [0, 0]) == [0, 0]
    assert ratmat.nonnegative_solution([[1, 2], [1, 2]], [2, 2]) == [2, 0]
    # Fractions in the rows and the right-hand side
    x = ratmat.nonnegative_solution([[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)])
    assert x == [Fraction(5, 3), 0]
    with pytest.raises(ValueError):
        ratmat.nonnegative_solution([[1, 1]], [1, 2])
