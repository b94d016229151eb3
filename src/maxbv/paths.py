"""Uniform time grids, Cameron-Martin directions, and segment maxima of
paths.

Every other module speaks this vocabulary.  A path is a row of a
(count, n+1) array of node values on a :class:`TimeGrid`, starting at 0; a
single path is a one-row array.  All types are immutable after
construction and all operations are pure functions, so everything here is
safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = horizon with n steps."""

    n: int
    horizon: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"grid needs at least one step, got n={self.n}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")

    @property
    def step(self) -> float:
        return self.horizon / self.n

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.n + 1) * self.step
        t[-1] = self.horizon  # force the exact endpoint
        t.flags.writeable = False
        return t

    def time_at(self, index: int) -> float:
        if index == self.n:
            return self.horizon
        return index * self.step


def _check_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a != b:
        raise GridMismatchError(f"grid mismatch: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class Direction:
    """A Cameron-Martin direction given by its density, a step function that
    is constant on each grid interval.

    ``primitive[i]`` is the running discrete integral sum_{j<i} density[j]*step,
    i.e. the direction evaluated at node i; primitive[0] == 0 exactly.
    """

    grid: TimeGrid
    density: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        density = np.asarray(self.density, dtype=float)
        if density.shape != (self.grid.n,):
            raise ValueError(
                f"density needs one value per interval ({self.grid.n}), got {density.shape}"
            )
        if not np.isfinite(density).all():
            raise ValueError("direction density must be finite")
        density = density.copy()
        density.flags.writeable = False
        object.__setattr__(self, "density", density)

    @cached_property
    def primitive(self) -> np.ndarray:
        p = np.empty(self.grid.n + 1)
        p[0] = 0.0
        np.cumsum(self.density * self.grid.step, out=p[1:])
        p.flags.writeable = False
        return p

    @property
    def sup_primitive(self) -> float:
        return float(np.abs(self.primitive).max())

    @classmethod
    def constant(cls, grid: TimeGrid, value: float = 1.0, label: str = "unit") -> Direction:
        return cls(grid, np.full(grid.n, float(value)), label=label)

    @classmethod
    def indicator(
        cls, grid: TimeGrid, start: float, end: float, label: str = ""
    ) -> Direction:
        """Density 1 on grid intervals whose left endpoint lies in [start, end)."""
        left = grid.times[:-1]
        dens = ((left >= start) & (left < end)).astype(float)
        return cls(grid, dens, label=label or f"ind[{start},{end})")


def direction_catalog(grid: TimeGrid) -> list[Direction]:
    """Three standard test directions: constant density, front-half indicator,
    and a tent whose primitive rises then falls back to 0."""
    half = grid.horizon / 2
    tent = np.where(grid.times[:-1] < half, 1.0, -1.0)
    return [
        Direction.constant(grid, 1.0, label="unit"),
        Direction.indicator(grid, 0.0, half, label="front-half"),
        Direction(grid, tent, label="tent"),
    ]


#: Rows per block of the row-blocked kernels (:func:`wiener_integral_batch`
#: and the cumsum of :func:`maxbv.sampling.walk_sums_batch`).  64 rows
#: because a block of n = 1000 increments (0.5 MB) stays in L2; because
#: blocks of a multiple of 8 rows gave the bits of one single-thread OpenBLAS
#: gemv over the whole array (blocks of 1, 3 or 7 rows did not); and because
#: a gemv this size stays on the calling thread, so a Monte Carlo worker does
#: not start OpenBLAS threads on top of the pool.
_ROW_BLOCK = 64


def wiener_integral_batch(h: tuple[Direction, ...], values: np.ndarray):
    """Discrete Wiener integrals sum_i density[i] * (w_{i+1} - w_i), one per
    direction of the tuple ``h``, over each row of a (batch, n+1) array of
    node values (left-endpoint weights); a 1-D path gives 0-d integrals.

    The increments are formed ``_ROW_BLOCK`` rows at a time in one scratch
    block, and each direction's gemv runs over that block, so no
    path-sized temporary is held.  A direction whose density equals an
    earlier one's shares that result object, which is bitwise what its own
    product would give.

    The bits do not depend on the OpenBLAS thread count or on the row
    split: a 64-row gemv is the single-thread gemv over the whole array.
    One gemv over a whole chunk is not: with threaded OpenBLAS, a few rows
    of a 500- or 782-row chunk at n >= 1000 differ in the last ulp.
    """
    rows = np.atleast_2d(values)
    count, width = rows.shape
    first = [next(j for j in range(i + 1) if same_density(h[j], d))
             for i, d in enumerate(h)]
    integrals = {j: np.empty(count) for j in first}
    scratch = np.empty((min(count, _ROW_BLOCK), width - 1))
    for r in range(0, count, _ROW_BLOCK):
        s = slice(r, r + _ROW_BLOCK)
        block = scratch[: min(count - r, _ROW_BLOCK)]
        np.subtract(rows[s, 1:], rows[s, :-1], out=block)
        for j, out in integrals.items():
            np.matmul(block, h[j].density, out=out[s])
    shaped = {j: out.reshape(values.shape[:-1]) for j, out in integrals.items()}
    return tuple(shaped[j] for j in first)


def same_density(h: Direction, k: Direction) -> bool:
    """True if the two directions have equal densities on the same grid."""
    return h is k or (h.grid == k.grid and np.array_equal(h.density, k.density))


def direction_inner(h: Direction, k: Direction) -> float:
    """L2(0, horizon) inner product of the two step densities."""
    _check_same_grid(h.grid, k.grid)
    return float(np.dot(h.density, k.density) * h.grid.step)


# ---------------------------------------------------------------------------
# Vectorized running-max machinery for batch estimators
# ---------------------------------------------------------------------------

def running_max_tables(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-prefix and per-suffix maxima with first-attainment argmax indices.

    For a (batch, n+1) array returns (fwd_max, fwd_arg, bwd_max, bwd_arg):

    - fwd_max[:, i] = max(values[:, :i+1]), fwd_arg the smallest attaining index;
    - bwd_max[:, i] = max(values[:, i:]),  bwd_arg the smallest attaining index.

    This gives segment statistics for every split point of every path in
    O(n) per path, which the kernel-conditioned estimators rely on.
    """
    values = np.atleast_2d(values)
    m = values.shape[1]
    idx = np.arange(m)

    fwd_max = np.maximum.accumulate(values, axis=1)
    prev = np.empty_like(fwd_max)
    prev[:, 0] = -np.inf
    prev[:, 1:] = fwd_max[:, :-1]
    # strict improvement: ties keep the earlier index
    fwd_arg = np.maximum.accumulate(np.where(values > prev, idx, 0), axis=1)

    rev = values[:, ::-1]
    rev_max = np.maximum.accumulate(rev, axis=1)
    prev[:, 0] = -np.inf
    prev[:, 1:] = rev_max[:, :-1]
    # non-strict improvement in reversed order keeps the latest reversed index,
    # i.e. the earliest original index of the suffix maximum
    rev_arg = np.maximum.accumulate(np.where(rev >= prev, idx, 0), axis=1)
    bwd_max = rev_max[:, ::-1]
    bwd_arg = (m - 1) - rev_arg[:, ::-1]
    return fwd_max, fwd_arg, bwd_max, bwd_arg


def split_tables(
    values: np.ndarray, t_indices
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``t_indices`` columns of :func:`running_max_tables`, computed
    without the full tables.

    ``t_indices`` must be strictly increasing node indices.  The nodes cut
    each path into blocks [0, t_0), [t_0, t_1), ..., [t_last, n]; one argmax
    per block and a scan over the nodes give the prefix maxima over [0, t_j]
    and the suffix maxima over [t_j, n] with the same first-attainment
    argmax.  The forward scan replaces only on strict improvement (ties keep
    the earlier index); the backward scan also replaces on ties (a tie in an
    earlier block moves the argmax to that earlier index).

    The outputs are column-major (count, nodes) arrays, the layout of the
    fancy-indexed table columns ``table[:, t_indices]`` they replace.  This
    matters bitwise: a matrix-vector product over them goes through BLAS
    gemv, whose sums over C-ordered input of the same values differ in the
    last ulp.

    ``values[:, a:b].argmax(axis=1)`` copies the non-contiguous block before
    the argmax (half a chunk for one node at n/2).  The copy is kept: a
    copy-free row ``max`` and first index of ``block == max`` took 4.5 ->
    8.6-10.5 ms per 1024 x 1001 chunk at 24 nodes, and 1.3 -> 2.1 ms at one.
    """
    values = np.atleast_2d(values)
    count, m = values.shape
    t = np.asarray(t_indices, dtype=np.intp)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("need a non-empty 1-D sequence of split nodes")
    if t[0] < 0 or t[-1] >= m or np.any(np.diff(t) <= 0):
        raise IndexError(f"split nodes must be strictly increasing in [0, {m - 1}]")
    rows = np.arange(count)

    def block(a: int, b: int):
        arg = a + values[:, a:b].argmax(axis=1)
        return values[rows, arg], arg

    def fold(run, new, ties_to_new: bool):
        if run is None:
            return new
        better = new[0] >= run[0] if ties_to_new else new[0] > run[0]
        return np.where(better, new[0], run[0]), np.where(better, new[1], run[1])

    # blocks[0] = [0, t_0) (None when t_0 = 0), blocks[j] = [t_{j-1}, t_j),
    # blocks[k] = [t_last, n]
    bounds = np.concatenate(([0], t, [m]))
    blocks = [block(a, b) if b > a else None for a, b in zip(bounds[:-1], bounds[1:])]

    k = len(t)
    fwd_max = np.empty((k, count))
    fwd_arg = np.empty((k, count), dtype=np.intp)
    bwd_max = np.empty((k, count))
    bwd_arg = np.empty((k, count), dtype=np.intp)

    run = blocks[0]
    for j, tj in enumerate(t):
        if j > 0:
            run = fold(run, blocks[j], ties_to_new=False)  # now over [0, t_j)
        run = fold(run, (values[:, tj], np.full(count, tj)), ties_to_new=False)
        fwd_max[j], fwd_arg[j] = run

    run = None
    for j in range(k - 1, -1, -1):
        run = fold(run, blocks[j + 1], ties_to_new=True)  # now over [t_j, n]
        bwd_max[j], bwd_arg[j] = run
    return fwd_max.T, fwd_arg.T, bwd_max.T, bwd_arg.T


def top_two_gap(values: np.ndarray) -> np.ndarray:
    """Gap between the largest and second-largest entry of each row.

    A gap of exactly 0 means the discrete maximum is tied.  The maximum is
    read at the argmax, and the runner-up is the row maximum with that one
    entry set to -inf, so a tie leaves the same value behind.  The entry is
    set in place and then written back, so no copy of ``values`` is made:
    ``values`` must be writable and no other thread may read it during the
    call, and it is restored bit for bit (a -0.0 stays -0.0).
    """
    values = np.atleast_2d(values)
    rows = np.arange(values.shape[0])
    arg = values.argmax(axis=1)
    top = values[rows, arg]
    values[rows, arg] = -np.inf
    runner_up = values.max(axis=1)
    values[rows, arg] = top
    return top - runner_up


def bottom_two_gap(values: np.ndarray) -> np.ndarray:
    """Gap between the second-smallest and smallest entry of each row: the
    :func:`top_two_gap` of ``-values``, read without negating ``values``.

    The mirror of :func:`top_two_gap`: the minimum is read at the first
    argmin (the argmax of ``-values``), that entry is set to +inf in place
    and written back, so ``values`` must be writable, no other thread may
    read it during the call, and it is restored bit for bit.  The result is
    bitwise ``top_two_gap(-values)``, since (-a) - (-b) rounds exactly like
    b - a.
    """
    values = np.atleast_2d(values)
    rows = np.arange(values.shape[0])
    arg = values.argmin(axis=1)
    bottom = values[rows, arg]
    values[rows, arg] = np.inf
    runner_up = values.min(axis=1)
    values[rows, arg] = bottom
    return runner_up - bottom


def segment_split_stats(
    values: np.ndarray, t_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch maxima and first argmax of [0, t] and [t, n] around one split node.

    Returns (max_left, arg_left, max_right, arg_right) for a (batch, n+1)
    array: the one-node view of :func:`split_tables`, so a node outside
    [0, n] raises ``IndexError``.
    """
    return tuple(table[:, 0] for table in split_tables(values, [t_index]))
