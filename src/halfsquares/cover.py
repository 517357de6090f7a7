"""Whitney-type ball cover, squared partition of unity and coloring.

Balls B(x_j, nu r_j) are selected greedily in row-major grid order so
that the half-radius balls cover {r > 0}; slow variation of r bounds the
overlap by 15^n, and a greedy coloring of the intersection graph yields
at most that many classes of pairwise disjoint balls.

The per-ball arithmetic runs on one flat *window table*: the cells of all
balls' windows, ball after ball, each window in row-major order.  Bumps,
psi_j and overlap counts are array operations over the table, taken a
batch of balls at a time, and sums over balls are unbuffered
``np.add.at`` calls, which add in table order and so give each cell the
sum, in ball order, that a loop of window updates gives.
In 1D the greedy scan needs no grid mask: the cells before the current
center are covered and coordinates are monotone, so a ball covers the run
from its center to the last cell within half its radius, and the next
center is the first cell of {r > 0} past that run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holder import ControlField

OVERLAP_BOUND_BASE = 15  # N_n = 15^n
# balls per window table or k-d tree query: one table of a whole 2D cover
# holds megabytes of temporaries, and their heap fragments raise peak memory
BATCH = 128


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
    radius: float  # nu * r


@dataclass(frozen=True)
class WindowTable:
    """The windows lo_j <= i < hi_j of a list of balls as one flat table.

    Ball j owns ``sizes[j]`` consecutive entries, the cells of its window in
    row-major order.  The cells are recomputed on demand, not held.
    """

    lo: np.ndarray  # (balls, n)
    hi: np.ndarray
    shape: tuple[int, ...]  # of the grid

    @classmethod
    def around(cls, balls, steps, shape) -> WindowTable:
        """The windows |i - index_j| <= steps_j of ``balls``, clipped to the grid."""
        index = np.array([ball.index for ball in balls], dtype=np.intp).reshape(-1, len(shape))
        steps = np.asarray(steps, dtype=np.intp)[:, None]
        return cls(np.maximum(index - steps, 0), np.minimum(index + steps + 1, shape), tuple(shape))

    @property
    def sizes(self) -> np.ndarray:
        return (self.hi - self.lo).prod(axis=1)

    def select(self, keep) -> WindowTable:
        """The table of the balls ``keep`` (a mask or a slice) picks, in their order."""
        return WindowTable(self.lo[keep], self.hi[keep], self.shape)

    def per_entry(self, per_ball) -> np.ndarray:
        """A value per ball, repeated over the ball's entries."""
        return np.repeat(np.asarray(per_ball), self.sizes)

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


def window_batches(field: ControlField, balls, table: WindowTable):
    """``table``, the window table of ``balls``, ``BATCH`` balls at a time:
    each batch's slice of ``balls``, its table, the flat grid index of each
    entry and the entry's distance from its ball's center.

    Coordinates are origin + spacing * index, the centers' own formula, so
    each distance is the float that a per-window coordinate grid gives.
    """
    shape = field.values.shape
    h, origin = field.spacing, field.origin
    for first in range(0, len(balls), BATCH):
        batch = slice(first, first + BATCH)
        part = table.select(batch)
        center = np.array([ball.center for ball in balls[batch]], dtype=float)
        cells = part.cells()
        if len(shape) == 1:
            dist = np.abs((origin[0] + h * cells) - part.per_entry(center[:, 0]))
        else:
            ball, first_cells, length = part.runs()
            row = first_cells // shape[1]
            du = np.repeat((origin[0] + h * row) - center[ball, 0], length)
            col = cells - np.repeat(row * shape[1], length)
            dist = np.hypot(du, (origin[1] + h * col) - part.per_entry(center[:, 1]))
        yield batch, part, cells, dist


def _radii(balls) -> np.ndarray:
    return np.array([ball.radius for ball in balls], dtype=float)


def build_cover(
    field: ControlField, nu: float, min_radius_cells: float = 4.0
) -> list[CoverBall]:
    """Greedy half-radius cover of {r > 0}, scanning in row-major order.

    A sampled partition function narrower than a few cells aliases to a
    spike, so radii are floored at ``min_radius_cells`` grid cells; the
    floor is capped by half the distance to {r = 0} so that no ball ever
    touches the degenerate set and the zero branch of the partition
    identity stays exact.  A ball covers the cells within
    radius / 2 (1 + 1e-12) of its center.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    from scipy.ndimage import distance_transform_edt

    h = field.spacing
    positive = field.positive_mask()
    zero_dist = distance_transform_edt(positive, sampling=h)

    def ball_at(index) -> CoverBall:
        rj = float(field.values[index])
        center = tuple(field.origin[axis] + h * index[axis] for axis in range(len(index)))
        floor = min(min_radius_cells * h, 0.5 * float(zero_dist[index]))
        return CoverBall(index, center, rj, max(nu * rj, floor))

    balls: list[CoverBall] = []
    if field.n == 1:
        size, o = positive.size, field.origin[0]
        # the first cell of {r > 0} at or after each index, size if none
        after = np.append(np.where(positive, np.arange(size), size), size)
        next_positive = np.minimum.accumulate(after[::-1])[::-1].tolist()
        i = next_positive[0]
        while i < size:
            ball = ball_at((i,))
            balls.append(ball)
            c, reach = ball.center[0], ball.radius / 2.0 + 1e-12 * ball.radius
            last = min(size - 1, i + int(ball.radius / 2.0 / h) + 1)  # the window's edge
            m = min(last, i + int(reach / h))
            while m < last and abs((o + h * (m + 1)) - c) <= reach:
                m += 1
            while abs((o + h * m) - c) > reach:
                m -= 1
            i = next_positive[m + 1]
        return balls
    covered = ~positive
    flat = covered.ravel()
    pos = 0
    while pos < flat.size:
        pos += int(np.argmin(flat[pos:]))
        if flat[pos]:
            break
        ball = ball_at(tuple(int(i) for i in np.unravel_index(pos, covered.shape)))
        balls.append(ball)
        steps = int(ball.radius / 2.0 / h) + 1
        win = tuple(
            slice(max(0, i - steps), min(s, i + steps + 1))
            for i, s in zip(ball.index, covered.shape)
        )
        du, dv = (
            (field.origin[axis] + h * np.arange(sl.start, sl.stop)) - ball.center[axis]
            for axis, sl in enumerate(win)
        )
        reach = ball.radius / 2.0 + 1e-12 * ball.radius
        covered[win] |= np.hypot(du[:, None], dv[None, :]) <= reach
    return balls


def overlap_counts(field: ControlField, balls) -> np.ndarray:
    """Number of balls containing each grid point."""
    radii = _radii(balls)
    steps = (radii / field.spacing).astype(np.intp) + 1
    table = WindowTable.around(balls, steps, field.values.shape)
    counts = np.zeros(field.values.size, dtype=np.intp)
    for batch, part, cells, dist in window_batches(field, balls, table):
        counts += np.bincount(cells[dist < part.per_entry(radii[batch])], minlength=counts.size)
    return counts.reshape(field.values.shape)


def color_classes(balls) -> list[int]:
    """Greedy coloring of the intersection graph in ball-index order.

    Balls i and j intersect when |x_i - x_j| < r_i + r_j, so ball j can
    only meet balls whose centers lie within r_j + max r of its own.  A
    k-d tree query (Bentley 1975) per ``BATCH`` balls lists those, with
    slack in the query radii for rounding, and the exact test decides each.
    Each ball takes the least color no earlier intersecting ball holds,
    as the plain scan over all earlier balls would.
    """
    if not balls:
        return []
    from scipy.spatial import cKDTree

    centers = np.array([ball.center for ball in balls], dtype=float)
    radii = _radii(balls)
    slack = 1e-9 * float(np.abs(centers).max())  # rounding of far-off centers
    reach = (radii + radii.max()) * (1.0 + 1e-9) + slack
    tree = cKDTree(centers)
    near = (
        found
        for batch in (slice(first, first + BATCH) for first in range(0, len(balls), BATCH))
        for found in tree.query_ball_point(centers[batch], reach[batch])
    )
    colors: list[int] = []
    for (j, ball), candidates in zip(enumerate(balls), near):
        taken = {
            colors[i]
            for i in candidates
            if i < j and math.dist(ball.center, balls[i].center) < ball.radius + balls[i].radius
        }
        color = 0
        while color in taken:
            color += 1
        colors.append(color)
    return colors


@dataclass
class PartitionOfUnity:
    """psi_j supported in B(x_j, nu r_j) with sum psi_j^2 = 1 on {r > 0}.

    ``psi`` holds psi_j at every entry of the window table, and each
    ``psis[j]`` is a view into it, shaped like ``windows[j]``.
    """

    balls: list[CoverBall]
    windows: list[tuple[slice, ...]]
    psis: list[np.ndarray]
    colors: list[int]
    sum_squares: np.ndarray
    nu: float
    table: WindowTable
    psi: np.ndarray

    @property
    def class_count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0


def partition_functions(field: ControlField, balls, nu: float) -> PartitionOfUnity:
    """Normalize per-ball bumps by the root of their summed squares."""
    shape = field.values.shape
    if not balls:  # as most covers of the 2D fiber recursion are: skip the table's fixed cost
        none = np.zeros((0, field.n), dtype=np.intp)
        table = WindowTable(none, none, shape)
        return PartitionOfUnity([], [], [], [], np.zeros(shape), nu, table, np.zeros(0))
    radii = _radii(balls)
    table = WindowTable.around(balls, (radii / field.spacing).astype(np.intp) + 1, shape)
    psi = np.empty(int(table.sizes.sum()))  # the bumps until the denominator is complete
    denom = np.zeros(field.values.size)
    batches, start = [], 0
    for batch, part, cells, dist in window_batches(field, balls, table):
        w = psi[start : start + len(cells)]
        w[:] = bump(dist / part.per_entry(radii[batch]))
        np.add.at(denom, cells, w**2)
        batches.append((cells, w))
        start += len(cells)
    if float(denom[field.positive_mask().ravel()].min(initial=np.inf)) < 1.0 - 1e-9:
        raise RuntimeError(
            "partition normalization below one at a covered point; cover is broken"
        )
    root = np.sqrt(denom, out=np.zeros_like(denom), where=denom > 0)
    total = np.zeros(field.values.size)
    for cells, w in batches:  # psi_j = w_j / root, and 0 where root = 0
        r = root[cells]
        np.divide(w, r, out=w, where=r > 0)
        w[r == 0] = 0.0
        np.add.at(total, cells, w**2)
    ends = np.cumsum(table.sizes).tolist()
    return PartitionOfUnity(
        balls=list(balls),
        windows=[tuple(map(slice, a, b)) for a, b in zip(table.lo.tolist(), table.hi.tolist())],
        psis=[
            psi[a:b].reshape(x) for a, b, x in zip([0] + ends, ends, (table.hi - table.lo).tolist())
        ],
        colors=color_classes(balls),
        sum_squares=total.reshape(shape),
        nu=nu,
        table=table,
        psi=psi,
    )
