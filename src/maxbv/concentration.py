"""Monte Carlo witnesses of double-maximum concentration.

Under the plain Wiener measure the discrete maximum is attained once (the
top-two gap has no atom at 0); conditioning the split-point gap at a node t
to a shrinking window concentrates the paths on trajectories with one
near-global maximum strictly before t and one strictly after.  All checks
here are trend checks: the underlying statements are qualitative.

Symmetry views.  Each Brownian draw is evaluated as several paths with the
law of W (antithetic variates; Hammersley & Morton, 1956).  ``samples``
counts evaluated paths, so ``ceil(samples/views)`` draws are made.  The
views of one draw are dependent, so a ladder's standard error is the
delta-method error of a ratio over the iid per-draw counts
(:func:`_ratio_estimate`).

- The two ladders read a path only through its segment excesses around t,
  A = max_[0,t] W - W_t and B = max_[t,T] W - W_t, and their argmaxima.
  The increments before and after t are independent and symmetric, so
  reflecting either segment around W_t on its own keeps the law of W: each
  draw is evaluated as W, -W, W~ (W_k -> 2 W_t - W_k for k >= t) and -W~
  (:func:`_segment_views`).
- ``unique_max_check`` reads the top-two gap of the whole path, which W and
  W~ often share, so it keeps W and -W (:func:`_both_signs`).

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
- two speed-ups that keep the streams, slower on the ``census`` benchmark
  workload: a row-blocked ``walk_sums_batch`` (28.8 -> 22.7 ns/node in
  isolation, +0.3-0.5 s end to end in 3 of 3 pairs), and chunks of 64-128
  rows instead of 1024 (2.17 -> 2.49-2.55 s in-process at workers 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamplesError
from .paths import TimeGrid, segment_split_stats, top_two_gap
from .sampling import MCEstimate, SeedSpec, brownian_values_batch, mc_collect


def _draws(samples: int, views: int) -> int:
    """Brownian draws that give ``samples`` evaluated paths, ``views`` per
    draw."""
    return -(-samples // views)


def _both_signs(values: np.ndarray, view) -> np.ndarray:
    """Per-draw sums of ``view`` over the paths W in ``values`` and their
    reflections -W.

    ``view(values)`` returns per-path counts or indicators, one row per path.
    ``values`` is negated in place, so the view must reduce or copy what it
    reads before it returns: a slice such as ``values[:, t]`` changes sign
    with the flip.  No second path buffer is allocated.
    """
    first = view(values)
    np.negative(values, out=values)
    return np.add(first, view(values), dtype=np.int64)


def _segment_views(
    values: np.ndarray, t_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(left excess, right excess, left argmax, right argmax) around node
    ``t_index`` of the four views W, -W, W~, -W~ of each path in ``values``,
    as (4, count) arrays in that order.

    W~ reflects the segment after t around W_t, so its right excess is the
    right excess B' = W_t - min_[t,T] W of -W, and its right argmax is the
    first right argmin of W; -W~ pairs the left segment of -W with the
    right segment of W.  Two passes give all four: over W and, after
    ``values`` is negated in place, over -W.
    """
    max_l, arg_l, max_r, arg_r = segment_split_stats(values, t_index)
    w_t = values[:, t_index].copy()
    np.negative(values, out=values)
    neg_l, neg_arg_l, neg_r, neg_arg_r = segment_split_stats(values, t_index)
    a, b = max_l - w_t, max_r - w_t
    a_neg, b_neg = neg_l + w_t, neg_r + w_t
    return (
        np.stack((a, a_neg, a, a_neg)),
        np.stack((b, b_neg, b_neg, b)),
        np.stack((arg_l, neg_arg_l, arg_l, neg_arg_l)),
        np.stack((arg_r, neg_arg_r, neg_arg_r, arg_r)),
    )


def _ratio_sums(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(5, m) sums [sum c, sum c^2, sum h, sum h^2, sum hc] over draws of the
    (draws, m) hit counts ``h`` against the conditioning counts ``c``, which
    broadcast to the shape of ``h``."""
    c = np.broadcast_to(c, h.shape)
    return np.stack(
        [c.sum(axis=0), (c * c).sum(axis=0), h.sum(axis=0), (h * h).sum(axis=0),
         (h * c).sum(axis=0)]
    )


def _ratio_estimate(sums: Sequence[int], seed: SeedSpec) -> MCEstimate:
    """Conditional fraction R = sum h / sum c from iid per-draw counts, with
    the delta-method standard error
    SE^2 = (sum h^2 - 2 R sum hc + R^2 sum c^2) / (sum c)^2.

    With one path per draw (c, h in {0, 1}) this is the binomial p(1-p)/n.
    The numerator is formed times (sum c)^2 in exact integers, so it never
    cancels below 0.  ``samples`` is sum c, the conditioned path count.
    """
    sc, sc2, sh, sh2, shc = (int(x) for x in sums)
    num = sc * sc * sh2 - 2 * sc * sh * shc + sh * sh * sc2
    return MCEstimate(
        mean=sh / sc, std_error=math.sqrt(num) / (sc * sc), samples=sc, seed=seed
    )


@dataclass(frozen=True)
class TieStats:
    """Top-two-gap census of the discrete maximum under the plain measure."""

    samples: int
    ties: int
    thresholds: tuple[float, ...]
    fractions: tuple[float, ...]
    seed: SeedSpec


def unique_max_check(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    thresholds: Sequence[float] | None = None,
    workers: int = 1,
) -> TieStats:
    """Exact-tie count and small-gap fractions of the top-two maxima gap.

    fractions[i] = fraction of paths with gap < thresholds[i]; the default
    thresholds are {1e-1 .. 1e-4} times sqrt(horizon).  ``samples`` is
    rounded up to an even number of paths, W and -W per draw.
    """
    scale = math.sqrt(grid.horizon)
    if thresholds is None:
        thresholds = tuple(10.0**-k * scale for k in range(1, 5))
    thr = np.asarray(sorted(thresholds, reverse=True), dtype=float)

    def view(values):
        gap = top_two_gap(values)
        return np.column_stack((gap == 0.0, gap[:, None] < thr))

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        counts = _both_signs(values, view).sum(axis=0)
        return np.concatenate(([2 * count], counts))

    acc = mc_collect(task, _draws(samples, 2), seed, combine=np.add, workers=workers)
    total = int(acc[0])
    return TieStats(
        samples=total,
        ties=int(acc[1]),
        thresholds=tuple(float(t) for t in thr),
        fractions=tuple(int(c) / total for c in acc[2:]),
        seed=seed,
    )


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

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        left, right, _, _ = _segment_views(values, t_index)
        cond = np.abs(right - left) < eps
        small = (left[..., None] < dl) | (right[..., None] < dl)
        hit = (small & cond[..., None]).sum(axis=0)
        return _ratio_sums(cond.sum(axis=0)[:, None], hit)

    acc = mc_collect(task, _draws(samples, 4), seed, combine=np.add, workers=workers)
    conditioned = int(acc[0, 0])
    if conditioned < 100:
        raise InsufficientSamplesError(
            f"only {conditioned} samples satisfied |gap| < {eps}"
        )
    return [_ratio_estimate(sums, seed) for sums in acc.T]


@dataclass(frozen=True)
class DoubleMaxSummary:
    """Conditioned joint behaviour of the two segment excesses at one eps."""

    eps: float
    delta: float
    conditioned: int
    both_fraction: float
    std_error: float
    argmax_separated: bool  # left argmax < t < right argmax on counted paths
    scatter: np.ndarray  # (k, 2) reservoir of (left_excess, right_excess)
    seed: SeedSpec

    @property
    def estimate(self) -> MCEstimate:
        return MCEstimate(
            mean=self.both_fraction,
            std_error=self.std_error,
            samples=self.conditioned,
            seed=self.seed,
        )


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
    draw.  Scatter reservoirs keep the first few conditioned pairs per chunk
    (views in the order W, -W, W~, -W~) and merge them in stream order, so
    they are deterministic too.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    epss = sorted(float(e) for e in epss)
    if epss[0] <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    widths = np.asarray(epss)
    per_stream_cap = max(8, scatter_cap // 32)

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        left, right, arg_l, arg_r = _segment_views(values, t_index)
        gap = np.abs(right - left)
        both = (left > delta) & (right > delta)
        separated = (arg_l < t_index) & (arg_r > t_index)
        cond = gap[..., None] < widths
        hit = cond & both[..., None]
        unseparated = (hit & ~separated[..., None]).sum(axis=(0, 1))
        sums = _ratio_sums(cond.sum(axis=0), hit.sum(axis=0))
        counts = np.vstack((sums, unseparated))
        # boolean indexing walks the views in order, each in stream order
        kept = np.stack((left, right), axis=-1)[gap < widths[-1]]
        return counts, kept[:per_stream_cap]

    def combine(a, b):
        counts = a[0] + b[0]
        scatter = np.vstack((a[1], b[1]))[:scatter_cap]
        return counts, scatter

    counts, scatter = mc_collect(
        task, _draws(samples, 4), seed, combine=combine, workers=workers
    )
    out = []
    for i, e in enumerate(epss):
        conditioned = int(counts[0, i])
        if conditioned < 100:
            raise InsufficientSamplesError(
                f"only {conditioned} samples satisfied |gap| < {e}"
            )
        est = _ratio_estimate(counts[:5, i], seed)
        out.append(
            DoubleMaxSummary(
                eps=e,
                delta=delta,
                conditioned=conditioned,
                both_fraction=est.mean,
                std_error=est.std_error,
                argmax_separated=bool(counts[5, i] == 0),
                scatter=scatter,
                seed=seed,
            )
        )
    return out
