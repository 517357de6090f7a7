"""Whitney-type ball cover, squared partition of unity and coloring.

Balls B(x_j, nu r_j) are selected greedily in row-major grid order so
that the half-radius balls cover {r > 0}; slow variation of r bounds the
overlap by 15^n, and a greedy coloring of the intersection graph yields
at most that many classes of pairwise disjoint balls.

A ``Cover`` holds the balls as arrays, ball j in row j; ``cover[j]`` is a
``CoverBall`` view.  The partition's colors are built on first read, from
ranges of the centers sorted by y in 1D and by (column, y) in 2D, so a
cover the decomposition rejects is never colored.
The per-ball arithmetic runs on one flat *window table*: the cells of all
balls' windows, ball after ball, each window in row-major order.  Bumps
and psi_j are array operations over the table, taken a batch of balls at
a time, overlap counts are read off psi, and sums over balls are unbuffered
``np.add.at`` calls, which add in table order and so give each cell the
sum, in ball order, that a loop of window updates gives.  The grid and the
re-evaluation of 1D squares off the grid share one ``normalize_bumps``.
The cover is scanned a grid row at a time, a 1D grid as one row: the runs
balls cover in a row are found for all its open cells at once, as arrays,
and each center marks what it covers of the rows below on a window table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .holder import ControlField

OVERLAP_BOUND_BASE = 15  # N_n = 15^n
# balls per window table or block of 2D main squares (and BATCH^2 candidate
# pairs per coloring batch): one table of a whole 2D cover holds megabytes of
# temporaries, and their heap fragments raise peak memory (a decompose of
# radial_bump-121^2 peaks at 9.2 MB of traced allocations with its 957
# branch-B balls' main squares in one block, 5.3 MB in blocks of 128 or 64)
BATCH = 128
# the least ball radius in grid cells, unless {r = 0} is nearer (see build_cover)
MIN_RADIUS_CELLS = 4.0


def bump(t: np.ndarray) -> np.ndarray:
    """Plateau bump: 1 on |t| <= 1/2, supported in |t| <= 1.

    (1 - u)^4 (1 + 4u + 10u^2 + 20u^3) with u = clamp(2|t| - 1, 0, 1), one
    minus the degree-7 smoothstep.  It is C^(3,1), enough for the squares
    and for the cutoff of the 2D fiber recursion at k <= 3, alpha <= 1.
    Its second derivative (sup 30 in t) is spread over the transition, so
    a second difference at 10 / 20 grid cells per ball radius reads 74% /
    95% of it and the sampled [g']_1 of the squares settles under
    refinement (k = 3, where g'' ~ psi'' sqrt(f) sets it).
    """
    u = np.clip(2.0 * np.abs(np.asarray(t, dtype=float)) - 1.0, 0.0, 1.0)
    return (1.0 - u) ** 4 * (1.0 + u * (4.0 + u * (10.0 + 20.0 * u)))


@dataclass(frozen=True)
class CoverBall:
    index: tuple[int, ...]  # grid index of the center
    center: tuple[float, ...]
    r: float  # control-field value at the center
    radius: float  # max(nu * r, radius floor)


@dataclass(frozen=True, eq=False)
class Cover:
    """The balls of a cover, ball j in row j of each array; ``cover[j]``,
    and so iteration, gives ball j as a CoverBall of Python values."""

    index: np.ndarray  # (balls, n) intp
    center: np.ndarray  # (balls, n)
    r: np.ndarray
    radius: np.ndarray

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, j) -> CoverBall:
        index, center = tuple(self.index[j].tolist()), tuple(self.center[j].tolist())
        return CoverBall(index, center, float(self.r[j]), float(self.radius[j]))

    def select(self, keep) -> Cover:
        """The balls ``keep`` (a mask, slice or index array) picks, in their order."""
        return Cover(self.index[keep], self.center[keep], self.r[keep], self.radius[keep])


@dataclass(frozen=True)
class WindowTable:
    """The windows lo_j <= i < hi_j of a cover's balls as one flat table.

    Ball j owns ``sizes[j]`` consecutive entries, the cells of its window in
    row-major order.  The cells are recomputed on demand, not held.
    """

    lo: np.ndarray  # (balls, n)
    hi: np.ndarray
    shape: tuple[int, ...]  # of the grid

    @classmethod
    def around(cls, cover: Cover, field: ControlField) -> WindowTable:
        """The windows |i - index_j| <= radius_j / h + 1 of the balls, clipped to the grid."""
        shape = field.values.shape
        steps = np.minimum(cover.radius / field.spacing, max(shape)).astype(np.intp)[:, None] + 1
        return cls(np.maximum(cover.index - steps, 0), np.minimum(cover.index + steps + 1, shape), shape)

    @property
    def sizes(self) -> np.ndarray:
        return (self.hi - self.lo).prod(axis=1)

    def select(self, keep) -> WindowTable:
        """The table of the balls ``keep`` (a mask, slice or index array) picks, in their order."""
        return WindowTable(self.lo[keep], self.hi[keep], self.shape)

    def per_entry(self, per_ball) -> np.ndarray:
        """A value per ball, repeated over the ball's entries."""
        return np.repeat(np.asarray(per_ball), self.sizes)

    def entries(self) -> WindowTable:
        """Ball j's entries first_j .. first_j + size_j - 1 as a window of the flat entry array."""
        ends = np.cumsum(self.sizes)[:, None]
        return WindowTable(ends - self.sizes[:, None], ends, (int(self.sizes.sum()),))

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ball, first flat cell and length of every window row; a 1D window is one row."""
        width = self.hi[:, -1] - self.lo[:, -1]
        if len(self.shape) == 1:
            return np.arange(len(width)), self.lo[:, 0], width
        heights = self.hi[:, 0] - self.lo[:, 0]
        ball = np.repeat(np.arange(len(heights)), heights)
        row = np.arange(len(ball)) - np.repeat(np.cumsum(heights) - heights, heights)
        return ball, (row + self.lo[ball, 0]) * self.shape[1] + self.lo[ball, 1], width[ball]

    def cells(self) -> np.ndarray:
        """The flat grid index of every entry."""
        _, first, length = self.runs()
        cells = np.arange(length.sum())
        cells += np.repeat(first - (np.cumsum(length) - length), length)
        return cells

    def covered(self) -> np.ndarray:
        """The grid mask of the cells inside some window."""
        _, first, length = self.runs()
        depth = np.zeros(math.prod(self.shape) + 1, dtype=np.intp)
        np.add.at(depth, first, 1)
        np.add.at(depth, first + length, -1)
        return (np.cumsum(depth[:-1]) > 0).reshape(self.shape)


def entry_distances(table: WindowTable, center: np.ndarray, field: ControlField) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's flat grid cell and distance from its ball's center, at origin + h * index as the centers."""
    h, origin, cells = field.spacing, field.origin, table.cells()
    if len(table.shape) == 1:
        return cells, np.abs((origin[0] + h * cells) - table.per_entry(center[:, 0]))
    ball, first, length = table.runs()
    row = first // table.shape[1]
    du = np.repeat((origin[0] + h * row) - center[ball, 0], length)
    col = cells - np.repeat(row * table.shape[1], length)
    return cells, np.hypot(du, (origin[1] + h * col) - table.per_entry(center[:, 1]))


def build_cover(field: ControlField, nu: float) -> Cover:
    """Greedy half-radius cover of {r > 0}, scanning in row-major order.

    A sampled partition function narrower than a few cells aliases to a
    spike, so radii are floored at MIN_RADIUS_CELLS grid cells; the
    floor is capped by half the distance to {r = 0} so that no ball ever
    touches the degenerate set and the zero branch of the partition
    identity stays exact.  A ball covers the cells within
    radius / 2 (1 + 1e-12) of its center.  A grid row's open cells are
    those of {r > 0} that no ball of an earlier row covers; in its row a
    ball covers a run, as hypot(0, t) = |t|, whose end is guessed as
    int(reach / h) cells on, then stepped forward and back until it stays.
    """
    if not 0 < nu < math.inf:
        raise InputError("nu must be positive and finite")
    from scipy.ndimage import distance_transform_edt

    h, positive, shape = field.spacing, field.positive_mask(), field.values.shape
    axes = [field.origin[axis] + h * np.arange(size) for axis, size in enumerate(shape)]
    floor = np.minimum(MIN_RADIUS_CELLS * h, 0.5 * distance_transform_edt(positive, sampling=h))
    radius = np.maximum(nu * field.values, floor)  # of a ball centered on each cell
    covered = ~positive.reshape(-1, shape[-1])  # a 1D grid is one row
    rows, width, x = len(covered), shape[-1], axes[-1]
    centers = []  # flat grid indices of the balls' centers, a row at a time
    for u, (row, radii) in enumerate(zip(covered, radius.reshape(covered.shape))):
        idx = np.flatnonzero(~row)
        if not idx.size:
            continue
        # the first open cell at or after each index, width if none
        after = np.append(np.where(row, width, np.arange(width)), width)
        next_open = np.minimum.accumulate(after[::-1])[::-1]
        # m: the last cell a ball on each open cell covers; lengths are clipped before the cast
        c, rad = x[idx], radii[idx]
        reach = rad / 2.0 + 1e-12 * rad
        last = np.minimum(width - 1, idx + np.minimum(rad / 2.0 / h, width).astype(np.intp) + 1)
        m = np.minimum(last, idx + np.minimum(reach / h, width).astype(np.intp))
        while (ahead := (m < last) & (np.abs(x[np.minimum(m + 1, last)] - c) <= reach)).any():
            m += ahead
        while (back := np.abs(x[m] - c) > reach).any():
            m -= back
        following = np.zeros(width, dtype=np.intp)  # the center after a ball on each cell
        following[idx] = next_open[m + 1]
        following, v, cols = following.tolist(), int(next_open[0]), []
        while v < width:
            cols.append(v)
            v = following[v]
        cols = np.array(cols, dtype=np.intp)
        centers.append(u * width + cols)
        if u + 1 < rows:  # the row's balls mark the cells of the rows below within their reach
            index, rad = np.column_stack((np.full_like(cols, u), cols)), radii[cols]
            steps = np.minimum(rad / 2.0 / h, max(shape)).astype(np.intp)[:, None] + 1
            table = WindowTable(np.maximum(index - steps, (u + 1, 0)), np.minimum(index + steps + 1, shape), shape)
            cells, dist = entry_distances(table, np.column_stack((np.full(len(cols), axes[0][u]), x[cols])), field)
            covered.flat[cells[dist <= table.per_entry(rad / 2.0 + 1e-12 * rad)]] = True
    flat_index = np.concatenate([np.zeros(0, dtype=np.intp), *centers])
    index = np.column_stack(np.unravel_index(flat_index, shape))
    center = np.column_stack([axis[i] for axis, i in zip(axes, index.T)])
    return Cover(index, center, field.values.ravel()[flat_index], radius.ravel()[flat_index])


def color_classes(cover: Cover) -> list[int]:
    """Greedy coloring of the intersection graph in ball-index order.

    Balls i and j intersect when |x_i - x_j| < r_i + r_j, so ball j can only
    meet balls whose centers lie within r_j + max r of its own.  Sorted by y
    in 1D, and in 2D by (column, y) with columns as wide as the longest such
    reach, those centers lie in one range of the order, or three: the ball's
    column and the two beside it.  ``np.searchsorted`` finds the ranges, with
    slack for rounding, and their pairs i < j are tested about BATCH * BATCH
    at a time.  |x_i - x_j|^2 / (r_i + r_j)^2 is within a few ulps, so it
    decides all but the pairs within 1e-12 of tangency, which ``math.dist``
    decides.  Each ball takes the least color no earlier intersecting ball
    holds, as the plain scan over all earlier balls with ``math.dist`` would.
    """
    if not len(cover):
        return []
    centers, radii, (balls, n) = cover.center, cover.radius, cover.center.shape
    reach = (radii + float(radii.max())) * (1.0 + 1e-9) + 1e-9 * float(np.abs(centers).max())  # slack: rounding
    column = np.floor((centers[:, 0] - centers[:, 0].min()) / float(reach.max())) if n == 2 else np.zeros(balls)
    # (column, y) as one float, column * lap + y: lap exceeds a column's span of y, and rounding keeps the order
    lap, y = 3.0 * float(np.ptp(centers[:, -1])) or 1.0, centers[:, -1]
    order = np.argsort(key := column * lap + y)
    columns = (column[:, None] + ([-1.0, 0.0, 1.0] if n == 2 else [0.0])) * lap  # those a ball's partners are in
    lo, hi = (np.searchsorted(key[order], columns + (y + sign * reach)[:, None], side)
              for side, sign in (("left", -1.0), ("right", 1.0)))
    found = (hi - lo).sum(axis=1)
    # a new batch of balls wherever another BATCH * BATCH of their candidate pairs begins
    edges = [*np.flatnonzero(np.diff((np.cumsum(found) - found) // (BATCH * BATCH), prepend=-1)).tolist(), balls]
    colors: list[int] = []
    for first, last in zip(edges, edges[1:]):
        batch = slice(first, last)
        width = (hi - lo)[batch].ravel()
        i = order[np.arange(width.sum()) + np.repeat(lo[batch].ravel() - (np.cumsum(width) - width), width)]
        j = np.repeat(np.arange(first, last), found[batch])
        i, j = i[i < j], j[i < j]
        total = radii[j] + radii[i]
        ratio = sum(((axis[j] - axis[i]) / total) ** 2 for axis in centers.T)
        meet, tangent = ratio < 1.0, np.abs(ratio - 1.0) <= 1e-12
        pairs = zip(centers[j[tangent]].tolist(), centers[i[tangent]].tolist(), total[tangent].tolist())
        meet[tangent] = [math.dist(a, b) < t for a, b, t in pairs]
        near = i[meet].tolist()  # grouped by j, as the ranges were expanded
        ends = np.cumsum(np.bincount(j[meet] - first, minlength=last - first)).tolist()
        for start, end in zip([0] + ends, ends):
            taken = {colors[x] for x in near[start:end]}
            color = 0
            while color in taken:
                color += 1
            colors.append(color)
    return colors


@dataclass
class PartitionOfUnity:
    """psi_j supported in B(x_j, nu r_j) with sum psi_j^2 = 1 on {r > 0}.

    ``psi`` holds psi_j at every entry of the window table; ``colors`` are
    built on first read.
    """

    balls: Cover
    sum_squares: np.ndarray
    table: WindowTable
    psi: np.ndarray

    @cached_property
    def colors(self) -> list[int]:
        return color_classes(self.balls)

    @property
    def class_count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0


def normalize_bumps(w: np.ndarray, cells: np.ndarray, size: int) -> np.ndarray:
    """Turn the bumps ``w`` into psi in place: w_e / sqrt(sum of w^2 at
    point ``cells[e]``), and 0 where that sum is 0; returns the sums.

    The entries are ball-major, so ``np.add.at`` adds each point's squares
    in ball order.
    """
    denom = np.zeros(size)
    np.add.at(denom, cells, w**2)
    root = np.sqrt(denom, out=np.zeros_like(denom), where=denom > 0)[cells]
    np.divide(w, root, out=w, where=root > 0)
    w[root == 0] = 0.0
    return denom


def partition_functions(field: ControlField, cover: Cover) -> PartitionOfUnity:
    """Normalize per-ball bumps by the root of their summed squares.

    The bumps are taken on the window table ``BATCH`` balls at a time, at
    each entry's ``entry_distances`` from its ball's center.
    """
    shape, table = field.values.shape, WindowTable.around(cover, field)
    if not len(cover):  # as most covers of the 2D fiber recursion are: skip the table's fixed cost
        return PartitionOfUnity(cover, np.zeros(shape), table, np.zeros(0))
    cells, psi = [], []
    for first in range(0, len(cover), BATCH):
        batch = slice(first, first + BATCH)
        part = table.select(batch)
        part_cells, dist = entry_distances(part, cover.center[batch], field)
        cells.append(part_cells)
        psi.append(bump(dist / part.per_entry(cover.radius[batch])))
    cells, psi = np.concatenate(cells), np.concatenate(psi)
    denom = normalize_bumps(psi, cells, field.values.size)
    if float(denom[field.positive_mask().ravel()].min(initial=np.inf)) < 1.0 - 1e-9:
        raise RuntimeError(
            "partition normalization below one at a covered point; cover is broken"
        )
    total = np.zeros(field.values.size)
    np.add.at(total, cells, psi**2)
    return PartitionOfUnity(cover, total.reshape(shape), table, psi)


def overlap_counts(part: PartitionOfUnity) -> np.ndarray:
    """Number of balls containing each grid point: its entries with psi > 0.

    These are the entries within distance < radius of their ball: then, and
    only then, dist / radius < 1, as the division is correctly rounded, the
    bump is positive exactly on t < 1, and psi = w / sqrt(sum w^2) does not
    underflow.  Counted ``BATCH`` balls at a time.
    """
    size, entries = math.prod(part.table.shape), np.cumsum(np.append(0, part.table.sizes))
    counts = np.zeros(size, dtype=np.intp)
    for first in range(0, len(part.balls), BATCH):
        last = min(first + BATCH, len(part.balls))
        cells = part.table.select(slice(first, last)).cells()
        counts += np.bincount(cells[part.psi[entries[first] : entries[last]] > 0], minlength=size)
    return counts.reshape(part.table.shape)
