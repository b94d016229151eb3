"""Monte Carlo witnesses of double-maximum concentration.

Under the plain Wiener measure the discrete maximum is attained once (the
top-two gap has no atom at 0); conditioning the split-point gap at a node t
to a shrinking window concentrates the paths on trajectories with one
near-global maximum strictly before t and one strictly after.  All checks
here are trend checks: the underlying statements are qualitative.

Symmetry views.  Each Brownian draw is evaluated as several paths with the
law of W (antithetic variates; Hammersley & Morton, 1956).  ``samples``
counts evaluated paths, so ``ceil(samples/views)`` draws are made.  The
views of one draw are dependent, so a fraction's standard error is the
delta-method error of a ratio over the iid per-draw counts
(:func:`maxbv.sampling.ratio_estimate`).

- The two ladders read a path only through its segment excesses around t,
  A = max_[0,t] W - W_t and B = max_[t,T] W - W_t, and their argmaxima.
  The increments before and after t are independent and symmetric, so
  reflecting either segment around W_t on its own keeps the law of W: each
  draw is evaluated as W, -W, W~ (W_k -> 2 W_t - W_k for k >= t) and -W~
  (:func:`_segment_views`).
- ``unique_max_check`` reads the top-two gap of the whole path, which W and
  W~ often share, so it keeps W and -W, reading the top-two gap of -W as
  the bottom-two gap of W (:func:`maxbv.paths.bottom_two_gap`).

Measured and left out (per-row SE at equal evaluated paths, n = 1000):

- four views for ``unique_max_check`` at samples/4 draws: gap-fraction SEs
  x1.21-1.38;
- segment-wise time reversal on top of the four views (16 views at
  samples/16 draws): the eps = 0.08 double-max SE x1.20.  Whole-path time
  reversal W_{T-.} - W_T maps (A, B) to (B, A) at t = T/2, and every
  ladder statistic is symmetric in the two excesses;
- reflection of the walk and bridge operations (``fluctuation``): their
  rows ``stay-below-n1`` and ``bridge-stay-n2`` test exactly the sign
  symmetry, so the estimator would be 1/2 with standard error 0;
- a row-blocked ``walk_sums_batch``, which keeps the streams but was
  slower on the ``census`` benchmark workload (28.8 -> 22.7 ns/node in
  isolation, +0.3-0.5 s end to end in 3 of 3 pairs);
- chunks of 64-128 rows instead of 1024 while the -W views still negated
  the path buffer in place (2.17 -> 2.49-2.55 s in-process at workers 2);
  reading the -W views from W (below) cut that cost to the one given there;
- normals drawn straight into the path buffer one row per RNG call (peak
  RSS 62.6 -> 51.9 MB, but wall 2.43 -> 2.77 s in the median of 5 runs at
  workers 2).  What is kept instead is one RNG call per chunk into the
  tail of the path buffer and a cumsum in 64-row blocks
  (:func:`maxbv.sampling.walk_sums_batch`), with an in-place top-two gap:
  ``census`` peak RSS 62.9 -> 52.3 MB at the same wall time (10 pairs);
- 256-row chunks for every :func:`maxbv.sampling.mc_ratios` user: the
  per-chunk driver cost dominates narrow statistics, and
  ``perimeter.offband`` (3-wide rows, workers 1) took 0.064 -> 0.123 s per
  run in-process, about +4% of a ``walks`` benchmark pass.  The other
  users keep ``DEFAULT_CHUNK``;
- 128-row chunks here: census peak RSS 42.8-43.2 MB, against 41.6-42.1 MB
  at 64 rows;
- the calling thread as one of the workers: -1.0 MB more, but the census
  was slower in 6 of 6 pairs (about +17%);
- 8-row cumsum blocks in ``walk_sums_batch``: census -0.8 MB, but
  ``chain`` +0.5 MB in 3 of 3 runs;
- copy-free segment extremes (the row maximum, then the first index equal
  to it): 2.7x slower at 64 rows.

What is kept: the three estimators here draw one 64-row block per chunk
(``_CHUNK`` = ``paths._ROW_BLOCK``) and read the -W views from W without
negating it (:func:`maxbv.paths.bottom_two_gap`, :func:`_segment_views`).
Each of the two ``census`` workers then holds a 0.5 MB path buffer, the
0.5 MB cumsum temporary of its one row block and a 0.25 MB segment copy
(2 MB, 0.5 MB and 1 MB with 256-row chunks): ``census`` peak RSS 43.55
-> 39.90 MB, lower in 10 of 10 pairs, every result CSV byte-identical, at
CPU 3.23 -> 3.49 s and wall 1.95 -> 2.11 s (medians, 2 vCPUs).  The cost
comes with the threads: in-process, the three estimators took 10% less
CPU at one worker and 6% more at two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paths import _ROW_BLOCK, TimeGrid, bottom_two_gap, top_two_gap
from .sampling import (
    MCEstimate,
    SeedSpec,
    brownian_values_batch,
    mc_collect,
    mc_ratios,
    ratio_estimate,
    ratio_sums,
    require_counted,
)


#: Draws per chunk of the census estimators: one row block, 0.5 MB of path
#: at n = 1000.  Their fractions fold exact integer counts, so the chunk size
#: moves memory and time but no estimate.
_CHUNK = _ROW_BLOCK


def _draws(samples: int, views: int) -> int:
    """Brownian draws that give ``samples`` evaluated paths, ``views`` per
    draw."""
    return -(-samples // views)


def _segment_views(
    values: np.ndarray, t_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(left excess, right excess, left argmax, right argmax) around node
    ``t_index`` of the four views W, -W, W~, -W~ of each path in ``values``,
    as (4, count) arrays in that order.

    W~ reflects the segment after t around W_t, so its right excess is the
    right excess B' = W_t - min_[t,T] W of -W, and its right argmax is the
    first right argmin of W; -W~ pairs the left segment of -W with the
    right segment of W.  So each segment [0, t] and [t, n] needs its first
    argmax and first argmin: the segment is copied once (half a chunk) and
    both are taken from the copy, one segment at a time, into one array per
    quantity, whose rows the four views then index.  ``values`` is only
    read.  The -W views are bitwise those of a negated buffer: argmax(-x) is
    the first argmin of x, and W_t - min rounds exactly like
    (-min) + W_t.
    """
    w_t = values[:, t_index]
    rows = np.arange(len(values))
    # [segment left/right, sign W/-W]: excess and argmax of each view
    excess = np.empty((2, 2, len(values)))
    arg = np.empty((2, 2, len(values)), dtype=np.intp)
    for i, (start, stop) in enumerate(((0, t_index + 1), (t_index, values.shape[1]))):
        segment = values[:, start:stop].copy()
        segment.argmax(axis=1, out=arg[i, 0])
        segment.argmin(axis=1, out=arg[i, 1])
        np.subtract(segment[rows, arg[i, 0]], w_t, out=excess[i, 0])
        np.subtract(w_t, segment[rows, arg[i, 1]], out=excess[i, 1])
    arg[1] += t_index
    same, swapped = [0, 1, 0, 1], [0, 1, 1, 0]
    return excess[0, same], excess[1, swapped], arg[0, same], arg[1, swapped]


def unique_max_check(
    grid: TimeGrid,
    thresholds: Sequence[float],
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> list[MCEstimate]:
    """Fraction of paths whose top-two maxima gap is exactly 0, then the
    fraction with gap < thresholds[i] for each threshold in order.

    ``samples`` is rounded up to an even number of paths, W and -W per draw.
    """
    thr = np.asarray(thresholds, dtype=float)

    def view(gap):
        return np.column_stack((gap == 0.0, gap[:, None] < thr))

    def counts(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        # the top-two gap of -W is the bottom-two gap of W
        hits = np.add(view(top_two_gap(values)), view(bottom_two_gap(values)),
                      dtype=np.int64)
        return 2, hits

    return mc_ratios(counts, _draws(samples, 2), seed, workers=workers,
                     chunk_size=_CHUNK)


def excess_conditional_ladder(
    t_index: int,
    eps: float,
    deltas: Sequence[float],
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> list[MCEstimate]:
    """P(either segment excess < delta | split gap within eps), per delta.

    All deltas share one sampling pass, so the ladder is evaluated on common
    paths and the nesting of the events is preserved sample by sample.
    ``samples`` is rounded up to a multiple of four paths, four views per
    draw.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    if eps <= 0 or any(d <= 0 for d in deltas):
        raise ValueError("eps and all deltas must be positive")
    dl = np.asarray(deltas, dtype=float)

    def counts(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        left, right, _, _ = _segment_views(values, t_index)
        cond = np.abs(right - left) < eps
        small = (left[..., None] < dl) | (right[..., None] < dl)
        return cond.sum(axis=0)[:, None], (small & cond[..., None]).sum(axis=0)

    ests = mc_ratios(counts, _draws(samples, 4), seed, workers=workers,
                     chunk_size=_CHUNK)
    require_counted(ests[0].samples, f"samples satisfied |gap| < {eps}")
    return ests


@dataclass(frozen=True)
class DoubleMaxSummary:
    """Conditioned joint behaviour of the two segment excesses at one eps."""

    eps: float
    conditioned: int
    both_fraction: float
    std_error: float
    argmax_separated: bool  # left argmax < t < right argmax on counted paths
    scatter: np.ndarray  # (k, 2) reservoir of (left_excess, right_excess)


def double_max_ladder(
    t_index: int,
    epss: Sequence[float],
    delta: float,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    scatter_cap: int = 512,
    workers: int = 1,
) -> list[DoubleMaxSummary]:
    """Fraction of conditioned paths whose excesses both exceed delta, for a
    ladder of window widths eps (shared sampling pass).

    Counted paths are also checked for strict argmax separation
    (left argmax < t < right argmax), which positive excesses force.
    ``samples`` is rounded up to a multiple of four paths, four views per
    draw.  The scatter reservoir is the first ``scatter_cap`` conditioned
    (left, right) excess pairs at the widest eps, in stream order, draw
    order within a stream and view order (W, -W, W~, -W~) within a draw, so
    it depends neither on the worker count nor on the chunk size.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    epss = sorted(float(e) for e in epss)
    if epss[0] <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    widths = np.asarray(epss)

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        left, right, arg_l, arg_r = _segment_views(values, t_index)
        gap = np.abs(right - left)
        both = (left > delta) & (right > delta)
        separated = (arg_l < t_index) & (arg_r > t_index)
        cond = gap[..., None] < widths
        hit = cond & both[..., None]
        unseparated = (hit & ~separated[..., None]).sum(axis=(0, 1))
        sums = ratio_sums(cond.sum(axis=0), hit.sum(axis=0))
        counts = np.vstack((sums, unseparated))
        # boolean indexing walks the draws in order, the views within each;
        # the reservoir is a copy, since a slice would pin the whole array
        kept = np.stack((left.T, right.T), axis=-1)[gap.T < widths[-1]]
        return counts, kept[:scatter_cap].copy()

    def combine(a, b):
        counts = a[0] + b[0]
        scatter = np.vstack((a[1], b[1]))[:scatter_cap].copy()
        return counts, scatter

    counts, scatter = mc_collect(
        task, _draws(samples, 4), seed, combine=combine, workers=workers,
        chunk_size=_CHUNK,
    )
    out = []
    for i, e in enumerate(epss):
        est = ratio_estimate(counts[:5, i])
        require_counted(est.samples, f"samples satisfied |gap| < {e}")
        out.append(
            DoubleMaxSummary(
                eps=e,
                conditioned=est.samples,
                both_fraction=est.mean,
                std_error=est.std_error,
                argmax_separated=bool(counts[5, i] == 0),
                scatter=scatter,
            )
        )
    return out
