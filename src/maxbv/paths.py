"""Uniform time grids, discrete Brownian paths, segment maxima, and
Cameron-Martin directions.

Every other module speaks this vocabulary.  All types are immutable after
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
class DiscretePath:
    """A path sampled at the grid nodes, starting at exactly 0."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("path values must be finite")
        if values[0] != 0.0:
            raise ValueError(f"paths start at 0, got w_0={values[0]}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SegmentMaxStat:
    """Maximum of a path over an inclusive index range [a, b], with the
    smallest index attaining it (first attainment breaks ties)."""

    a: int
    b: int
    max_value: float
    argmax_index: int

    def argmax_time(self, grid: TimeGrid) -> float:
        return grid.time_at(self.argmax_index)


@dataclass(frozen=True)
class DeltaStat:
    """Split-point statistics at node t: the max over [t, n] minus the max
    over [0, t], and how far each segment max sits above the path value at t."""

    t_index: int
    delta: float
    left_excess: float
    right_excess: float


def running_max(path: DiscretePath, a: int = 0, b: int | None = None) -> SegmentMaxStat:
    """Exact maximum and first argmax of ``path`` over indices a..b inclusive.

    Ties are broken toward the smallest index, matching the first-attainment
    convention for the argmax time of a running maximum.
    """
    n = path.grid.n
    if b is None:
        b = n
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("segment bounds must be integers")
    if not (0 <= a <= b <= n):
        raise IndexError(f"need 0 <= a <= b <= {n}, got a={a}, b={b}")
    seg = path.values[a : b + 1]
    k = int(np.argmax(seg))  # np.argmax returns the first occurrence
    return SegmentMaxStat(a=a, b=b, max_value=float(seg[k]), argmax_index=a + k)


def delta_stat(path: DiscretePath, t_index: int) -> DeltaStat:
    """Left/right segment maxima around node ``t_index`` and their difference.

    The identity delta = right_excess - left_excess holds exactly because all
    three quantities are derived from the same two segment maxima.
    """
    n = path.grid.n
    if not isinstance(t_index, int):
        raise TypeError("t_index must be an integer")
    if not (0 <= t_index <= n):
        raise IndexError(f"t_index out of range: {t_index}")
    left = running_max(path, 0, t_index)
    right = running_max(path, t_index, n)
    w_t = float(path.values[t_index])
    left_excess = left.max_value - w_t
    right_excess = right.max_value - w_t
    # delta derived from the excesses keeps the decomposition identity exact
    return DeltaStat(
        t_index=t_index,
        delta=right_excess - left_excess,
        left_excess=left_excess,
        right_excess=right_excess,
    )


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


def bump(path: DiscretePath, h: Direction, eps: float) -> DiscretePath:
    """The perturbed path w + eps*h, evaluated through h's primitive."""
    _check_same_grid(path.grid, h.grid)
    if not math.isfinite(eps):
        raise ValueError(f"bump size must be finite, got {eps}")
    return DiscretePath(path.grid, path.values + eps * h.primitive)


def wiener_integral(h: Direction, path: DiscretePath) -> float:
    """Discrete Wiener integral of h' against the path increments,
    sum_i density[i] * (w_{i+1} - w_i), with left-endpoint (Ito) weights."""
    _check_same_grid(path.grid, h.grid)
    return float(np.dot(h.density, np.diff(path.values)))


def wiener_integral_batch(h, values: np.ndarray):
    """Vectorized ``wiener_integral`` over a (batch, n+1) array of node values.

    ``h`` may also be a tuple of directions: the increments are then formed
    once and a tuple of integrals is returned, one per direction.  A
    direction whose density equals an earlier one's reuses that integral,
    which is bitwise what a separate call would give.
    """
    if isinstance(h, Direction):
        return np.diff(values, axis=-1) @ h.density
    increments = np.diff(values, axis=-1)
    out: list[np.ndarray] = []
    for i, d in enumerate(h):
        same = next((j for j in range(i) if same_density(h[j], d)), None)
        out.append(increments @ d.density if same is None else out[same])
    return tuple(out)


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
    read at the argmax, and the runner-up is the maximum of a copy with that
    one entry set to -inf, so a tie leaves the same value behind.  ``values``
    is not modified.
    """
    values = np.atleast_2d(values)
    rows = np.arange(values.shape[0])
    arg = values.argmax(axis=1)
    rest = values.copy()
    rest[rows, arg] = -np.inf
    return values[rows, arg] - rest.max(axis=1)


def segment_split_stats(
    values: np.ndarray, t_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch maxima and first argmax of [0, t] and [t, n] around one split node.

    Returns (max_left, arg_left, max_right, arg_right) for a (batch, n+1)
    array; cheaper than full tables when only one split point is needed.
    """
    values = np.atleast_2d(values)
    rows = np.arange(values.shape[0])
    left = values[:, : t_index + 1]
    right = values[:, t_index:]
    arg_left = left.argmax(axis=1)
    arg_right = right.argmax(axis=1)
    # the maxima are read at the argmax, which saves a second pass
    return (
        left[rows, arg_left],
        arg_left,
        right[rows, arg_right],
        t_index + arg_right,
    )
