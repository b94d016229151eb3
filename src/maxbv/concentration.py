"""Monte Carlo witnesses of double-maximum concentration.

Under the plain Wiener measure the discrete maximum is attained once (the
top-two gap has no atom at 0); conditioning the split-point gap at a node t
to a shrinking window concentrates the paths on trajectories with one
near-global maximum strictly before t and one strictly after.  All checks
here are trend checks: the underlying statements are qualitative.

Reflection.  Every statistic here reads a path only through segment maxima,
argmaxima and W_t, and -W has the law of W, so each Brownian draw is
evaluated twice: as W and, after an in-place negation, as -W (antithetic
variates; Hammersley & Morton, 1956).  ``samples`` counts evaluated paths,
two per draw, so ``ceil(samples/2)`` draws are made.  The two views of one
draw are dependent, so a ladder's standard error is the delta-method error
of a ratio over the iid per-draw counts (:func:`_ratio_estimate`).  Two
symmetries are left out on purpose:

- time reversal W_{T-.} - W_T: at t = T/2 it swaps the two segments, and
  the census statistics would come out identical for both views;
- reflection of the walk and bridge operations (``fluctuation``): their
  rows ``stay-below-n1`` and ``bridge-stay-n2`` test exactly the sign
  symmetry, so the estimator would be 1/2 with standard error 0 and the
  row could not fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamplesError
from .paths import TimeGrid, segment_split_stats, top_two_gap
from .sampling import MCEstimate, SeedSpec, brownian_values_batch, mc_collect


def _draws(samples: int) -> int:
    """Brownian draws that give ``samples`` evaluated paths, two per draw."""
    return -(-samples // 2)


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

    acc = mc_collect(task, _draws(samples), seed, combine=np.add, workers=workers)
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
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    if eps <= 0 or any(d <= 0 for d in deltas):
        raise ValueError("eps and all deltas must be positive")
    dl = np.asarray(deltas, dtype=float)

    def view(values):
        max_l, _, max_r, _ = segment_split_stats(values, t_index)
        w_t = values[:, t_index]
        cond = np.abs(max_r - max_l) < eps
        small = ((max_l - w_t)[:, None] < dl) | ((max_r - w_t)[:, None] < dl)
        return np.column_stack((cond, small & cond[:, None]))

    def task(rng: np.random.Generator, count: int):
        per_draw = _both_signs(brownian_values_batch(rng, count, grid), view)
        return _ratio_sums(per_draw[:, :1], per_draw[:, 1:])

    acc = mc_collect(task, _draws(samples), seed, combine=np.add, workers=workers)
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
    Scatter reservoirs keep the first few conditioned pairs per chunk (W
    before -W) and merge them in stream order, so they are deterministic too.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    epss = sorted(float(e) for e in epss)
    if epss[0] <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    widths = np.asarray(epss)
    per_stream_cap = max(8, scatter_cap // 32)

    def task(rng: np.random.Generator, count: int):
        kept = []

        def view(values):
            max_l, arg_l, max_r, arg_r = segment_split_stats(values, t_index)
            w_t = values[:, t_index]
            left_excess = max_l - w_t
            right_excess = max_r - w_t
            gap = np.abs(max_r - max_l)
            both = (left_excess > delta) & (right_excess > delta)
            separated = (arg_l < t_index) & (arg_r > t_index)
            cond = gap[:, None] < widths
            hit = cond & both[:, None]
            keep = np.flatnonzero(gap < widths[-1])[:per_stream_cap]
            kept.append(np.column_stack((left_excess[keep], right_excess[keep])))
            return np.hstack((cond, hit, hit & ~separated[:, None]))

        per_draw = _both_signs(brownian_values_batch(rng, count, grid), view)
        cond, hit, unseparated = np.split(per_draw, 3, axis=1)
        counts = np.vstack((_ratio_sums(cond, hit), unseparated.sum(axis=0)))
        return counts, np.vstack(kept)[:per_stream_cap]

    def combine(a, b):
        counts = a[0] + b[0]
        scatter = np.vstack((a[1], b[1]))[:scatter_cap]
        return counts, scatter

    counts, scatter = mc_collect(
        task, _draws(samples), seed, combine=combine, workers=workers
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
