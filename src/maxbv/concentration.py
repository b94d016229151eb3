"""Monte Carlo witnesses of double-maximum concentration.

Under the plain Wiener measure the discrete maximum is attained once (the
top-two gap has no atom at 0); conditioning the split-point gap at a node t
to a shrinking window concentrates the paths on trajectories with one
near-global maximum strictly before t and one strictly after.  All checks
here are trend checks: the underlying statements are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamplesError
from .paths import TimeGrid, segment_split_stats, top_two_gap
from .sampling import MCEstimate, SeedSpec, brownian_values_batch, mc_collect


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
    thresholds are {1e-1 .. 1e-4} times sqrt(horizon).
    """
    scale = math.sqrt(grid.horizon)
    if thresholds is None:
        thresholds = tuple(10.0**-k * scale for k in range(1, 5))
    thr = np.asarray(sorted(thresholds, reverse=True), dtype=float)

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        gap = top_two_gap(values)
        ties = int((gap == 0.0).sum())
        counts = (gap[:, None] < thr[None, :]).sum(axis=0)
        return np.concatenate(([count, ties], counts)).astype(np.int64)

    acc = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    total = int(acc[0])
    return TieStats(
        samples=total,
        ties=int(acc[1]),
        thresholds=tuple(float(t) for t in thr),
        fractions=tuple(int(c) / total for c in acc[2:]),
        seed=seed,
    )


def _binomial_estimate(hits: int, trials: int, seed: SeedSpec) -> MCEstimate:
    p = hits / trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return MCEstimate(mean=p, std_error=se, samples=trials, seed=seed)


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

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        max_l, _, max_r, _ = segment_split_stats(values, t_index)
        w_t = values[:, t_index]
        left_excess = max_l - w_t
        right_excess = max_r - w_t
        cond = np.abs(max_r - max_l) < eps
        small = (left_excess[:, None] < dl) | (right_excess[:, None] < dl)
        hits = (small & cond[:, None]).sum(axis=0)
        return np.concatenate(([cond.sum()], hits)).astype(np.int64)

    acc = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    conditioned = int(acc[0])
    if conditioned < 100:
        raise InsufficientSamplesError(
            f"only {conditioned} samples satisfied |gap| < {eps}"
        )
    return [_binomial_estimate(int(h), conditioned, seed) for h in acc[1:]]


def excess_conditional(
    t_index: int,
    eps: float,
    delta: float,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> MCEstimate:
    return excess_conditional_ladder(
        t_index, eps, [delta], grid, samples, seed, workers=workers
    )[0]


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
    Scatter reservoirs keep the first few conditioned pairs per stream and
    merge them in stream order, so they are deterministic too.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    epss = sorted(float(e) for e in epss)
    if epss[0] <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    widest = epss[-1]
    per_stream_cap = max(8, scatter_cap // 32)

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        max_l, arg_l, max_r, arg_r = segment_split_stats(values, t_index)
        w_t = values[:, t_index]
        left_excess = max_l - w_t
        right_excess = max_r - w_t
        gap = np.abs(max_r - max_l)
        both = (left_excess > delta) & (right_excess > delta)
        separated = (arg_l < t_index) & (arg_r > t_index)
        counts = np.zeros((len(epss), 3), dtype=np.int64)
        for i, e in enumerate(epss):
            cond = gap < e
            hit = cond & both
            counts[i] = (cond.sum(), hit.sum(), (hit & ~separated).sum())
        keep = np.flatnonzero(gap < widest)[:per_stream_cap]
        scatter = np.column_stack((left_excess[keep], right_excess[keep]))
        return counts, scatter

    def combine(a, b):
        counts = a[0] + b[0]
        scatter = np.vstack((a[1], b[1]))[:scatter_cap]
        return counts, scatter

    counts, scatter = mc_collect(task, samples, seed, combine=combine, workers=workers)
    out = []
    for i, e in enumerate(epss):
        conditioned, hits, unseparated = (int(x) for x in counts[i])
        if conditioned < 100:
            raise InsufficientSamplesError(
                f"only {conditioned} samples satisfied |gap| < {e}"
            )
        est = _binomial_estimate(hits, conditioned, seed)
        out.append(
            DoubleMaxSummary(
                eps=e,
                delta=delta,
                conditioned=conditioned,
                both_fraction=est.mean,
                std_error=est.std_error,
                argmax_separated=(unseparated == 0),
                scatter=scatter,
                seed=seed,
            )
        )
    return out


def double_max_witness(
    t_index: int,
    eps: float,
    delta: float,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    scatter_cap: int = 512,
    workers: int = 1,
) -> DoubleMaxSummary:
    return double_max_ladder(
        t_index, [eps], delta, grid, samples, seed,
        scatter_cap=scatter_cap, workers=workers,
    )[0]
