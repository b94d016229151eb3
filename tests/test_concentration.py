"""Double-maximum concentration witnesses (trend checks at small scale)."""

import math

import numpy as np
import pytest

from maxbv import concentration
from maxbv.concentration import (
    double_max_ladder,
    excess_conditional_ladder,
    unique_max_check,
)
from maxbv.errors import InsufficientSamplesError
from maxbv.paths import TimeGrid
from maxbv.sampling import DEFAULT_CHUNK, SeedSpec, stream_counts, walk_sums_batch

GRID = TimeGrid(500, 1.0)
SEED = SeedSpec(8080, 0)
HALF = GRID.n // 2


class TestUniqueMax:
    def test_no_exact_ties_and_monotone_fractions(self):
        stats = unique_max_check(GRID, 100_000, SEED)
        assert stats.ties == 0
        assert stats.samples == 100_000
        fr = stats.fractions
        assert all(a > b for a, b in zip(fr, fr[1:]))

    def test_small_gap_scaling_below_one(self):
        stats = unique_max_check(GRID, 100_000, SEED)
        for a, b in zip(stats.fractions, stats.fractions[1:]):
            if a > 0:
                assert b / a < 1.0

    def test_custom_thresholds(self):
        stats = unique_max_check(GRID, 10_000, SEED, thresholds=(0.5, 0.01))
        assert stats.thresholds == (0.5, 0.01)

    @pytest.mark.parametrize("samples, paths", [(2, 2), (3, 4), (10_001, 10_002)])
    def test_samples_count_both_signs(self, samples, paths):
        grid = TimeGrid(50, 1.0)
        assert unique_max_check(grid, samples, SEED).samples == paths


class TestExcessConditional:
    def test_ladder_strictly_decreasing(self):
        ests = excess_conditional_ladder(
            HALF, 0.02, [0.2, 0.1, 0.05, 0.025], GRID, 200_000, SEED
        )
        means = [e.mean for e in ests]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert all(e.samples == ests[0].samples for e in ests)

    def test_saturates_for_large_delta(self):
        (est,) = excess_conditional_ladder(HALF, 0.05, [50.0], GRID, 50_000, SEED)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_window_stability_when_eps_halves(self):
        (a,) = excess_conditional_ladder(
            HALF, 0.04, [0.05], GRID, 400_000, SeedSpec(8080, 1)
        )
        (b,) = excess_conditional_ladder(
            HALF, 0.02, [0.05], GRID, 400_000, SeedSpec(8080, 2)
        )
        comb = (a.std_error**2 + b.std_error**2) ** 0.5
        assert abs(a.mean - b.mean) <= 3 * comb + 0.01

    def test_insufficient_conditioning_flagged(self):
        with pytest.raises(InsufficientSamplesError):
            excess_conditional_ladder(HALF, 1e-7, [0.05], GRID, 2_000, SEED)

    def test_interior_node_required(self):
        with pytest.raises(ValueError):
            excess_conditional_ladder(0, 0.05, [0.05], GRID, 1_000, SEED)

    def test_deterministic_across_workers(self):
        args = (HALF, 0.05, [0.2, 0.05], GRID, 50_000, SEED)
        a = excess_conditional_ladder(*args, workers=1)
        b = excess_conditional_ladder(*args, workers=4)
        assert a == b


class TestDoubleMax:
    def test_ladder_trend_and_separation(self):
        summaries = double_max_ladder(
            HALF, [0.1, 0.4, 1e9], 0.05, GRID, 300_000, SEED
        )
        fractions = [s.both_fraction for s in summaries]
        # ascending eps: tighter conditioning concentrates harder
        assert fractions[0] > fractions[1] > fractions[2]
        assert all(s.argmax_separated for s in summaries)

    def test_conditioned_beats_unconditioned(self):
        summaries = double_max_ladder(
            HALF, [0.1, 1e9], 0.05, GRID, 300_000, SeedSpec(8080, 3)
        )
        tight, base = summaries
        comb = (tight.std_error**2 + base.std_error**2) ** 0.5
        assert tight.both_fraction - base.both_fraction > 3 * comb

    def test_witness_scatter_reservoir(self):
        (s,) = double_max_ladder(
            HALF, [0.1], 0.05, GRID, 50_000, SEED, scatter_cap=64
        )
        assert s.scatter.shape[1] == 2
        assert 0 < len(s.scatter) <= 64
        assert (s.scatter >= 0).all()

    def test_deterministic_across_workers(self):
        (a,) = double_max_ladder(HALF, [0.1], 0.05, GRID, 50_000, SEED, workers=1)
        (b,) = double_max_ladder(HALF, [0.1], 0.05, GRID, 50_000, SEED, workers=4)
        assert a.both_fraction == b.both_fraction
        assert a.std_error == b.std_error
        assert a.conditioned == b.conditioned
        assert np.array_equal(a.scatter, b.scatter)


# ---------------------------------------------------------------------------
# Reflection: each draw is evaluated as W and -W
# ---------------------------------------------------------------------------

SMALL = TimeGrid(100, 1.0)
T = SMALL.n // 2
# 70_001 draws: 1,094 or 1,093 per stream, so every stream runs two chunks
REF_SAMPLES = 140_001


def per_draw_reference(view, grid=SMALL, samples=REF_SAMPLES, seed=SEED):
    """Per-draw sums view(W) + view(-W) over mc_collect's stream plan for
    ceil(samples/2) draws, with -W an explicitly negated copy."""
    rows = []
    for j, count in enumerate(stream_counts(-(-samples // 2))):
        rng = seed.generator(j)
        while count > 0:
            c = min(count, DEFAULT_CHUNK)
            w = np.sqrt(grid.step) * walk_sums_batch(rng, c, grid.n)
            rows.append(view(w).astype(np.int64) + view(-w))
            count -= c
    return np.concatenate(rows)


def split_reference(w, t):
    """Segment maxima, first argmaxima and W_t by plain numpy slices."""
    left, right = w[:, : t + 1], w[:, t:]
    arg_l, arg_r = left.argmax(axis=1), t + right.argmax(axis=1)
    return left.max(axis=1), arg_l, right.max(axis=1), arg_r, w[:, t]


def delta_method_se(c, h):
    """SE of sum h / sum c over iid per-draw pairs, by the residual form."""
    c, h = c.astype(float), h.astype(float)
    r = h.sum() / c.sum()
    return math.sqrt(np.sum((h - r * c) ** 2)) / c.sum()


class TestReflection:
    def test_unique_max_counts_match_reference(self):
        thr = (0.1, 0.01, 0.001)

        def view(w):
            top = np.sort(w, axis=1)
            gap = top[:, -1] - top[:, -2]
            return np.column_stack([gap == 0.0] + [gap < x for x in thr])

        ref = per_draw_reference(view).sum(axis=0)
        stats = unique_max_check(SMALL, REF_SAMPLES, SEED, thresholds=thr)
        assert stats.samples == 2 * 70_001
        assert stats.ties == ref[0]
        assert stats.fractions == tuple(int(k) / stats.samples for k in ref[1:])

    def test_excess_ladder_matches_reference(self):
        eps, deltas = 0.05, (0.2, 0.1, 0.05)

        def view(w):
            max_l, _, max_r, _, w_t = split_reference(w, T)
            cond = np.abs(max_r - max_l) < eps
            small = [(max_l - w_t < d) | (max_r - w_t < d) for d in deltas]
            return np.column_stack([cond] + [s & cond for s in small])

        ref = per_draw_reference(view)
        ests = excess_conditional_ladder(T, eps, deltas, SMALL, REF_SAMPLES, SEED)
        c = ref[:, 0]
        assert (c == 2).any()  # some draws are conditioned as W and as -W
        for i, est in enumerate(ests):
            h = ref[:, 1 + i]
            assert est.samples == c.sum()
            assert est.mean == h.sum() / c.sum()
            assert est.std_error == pytest.approx(delta_method_se(c, h), rel=1e-12)

    def test_double_max_ladder_matches_reference(self):
        epss, delta = (0.1, 0.4), 0.05

        def view(w):
            max_l, arg_l, max_r, arg_r, w_t = split_reference(w, T)
            gap = np.abs(max_r - max_l)
            both = (max_l - w_t > delta) & (max_r - w_t > delta)
            separated = (arg_l < T) & (arg_r > T)
            cols = []
            for e in epss:
                hit = (gap < e) & both
                cols += [gap < e, hit, hit & ~separated]
            return np.column_stack(cols)

        ref = per_draw_reference(view)
        summaries = double_max_ladder(T, epss, delta, SMALL, REF_SAMPLES, SEED)
        for i, s in enumerate(summaries):
            c, h, unseparated = ref[:, 3 * i], ref[:, 3 * i + 1], ref[:, 3 * i + 2]
            assert s.conditioned == c.sum()
            assert s.both_fraction == h.sum() / c.sum()
            assert s.std_error == pytest.approx(delta_method_se(c, h), rel=1e-12)
            assert s.argmax_separated == (unseparated.sum() == 0)

    def test_values_negated_in_place(self):
        values = np.arange(6.0).reshape(2, 3)
        buffer = values
        per_draw = concentration._both_signs(values, lambda v: v[:, :1] > 0)
        assert values is buffer and np.array_equal(values, -np.arange(6.0).reshape(2, 3))
        assert per_draw.dtype == np.int64
        assert per_draw.tolist() == [[0], [1]]  # 0 and -0, then 3 and -3


class TestRatioEstimate:
    def test_single_view_is_binomial(self):
        rng = np.random.default_rng(5)
        c = (rng.random(5_000) < 0.3).astype(np.int64)
        h = c & (rng.random(5_000) < 0.6)
        est = concentration._ratio_estimate(
            concentration._ratio_sums(c[:, None], h[:, None])[:, 0], SEED
        )
        n, p = int(c.sum()), h.sum() / c.sum()
        assert est.samples == n
        assert est.mean == p
        assert est.std_error == pytest.approx(math.sqrt(p * (1 - p) / n), rel=1e-12)

    def test_paired_matches_delta_method(self):
        rng = np.random.default_rng(6)
        c = rng.integers(0, 3, size=(4_000, 1))
        h = np.minimum(c, rng.integers(0, 3, size=(4_000, 3)))
        sums = concentration._ratio_sums(c, h)
        assert sums.shape == (5, 3)
        for i in range(3):
            est = concentration._ratio_estimate(sums[:, i], SEED)
            assert est.mean == h[:, i].sum() / c.sum()
            assert est.std_error == pytest.approx(
                delta_method_se(c[:, 0], h[:, i]), rel=1e-12
            )
