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
        for workers in (2, 4):
            assert excess_conditional_ladder(*args, workers=workers) == a


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
        for workers in (2, 4):
            (b,) = double_max_ladder(
                HALF, [0.1], 0.05, GRID, 50_000, SEED, workers=workers
            )
            assert a.both_fraction == b.both_fraction
            assert a.std_error == b.std_error
            assert a.conditioned == b.conditioned
            assert np.array_equal(a.scatter, b.scatter)


# ---------------------------------------------------------------------------
# Symmetry views: unique_max evaluates W and -W, the ladders W, -W, W~, -W~
# ---------------------------------------------------------------------------

SMALL = TimeGrid(100, 1.0)
T = SMALL.n // 2
# 70_001 draws: 1,094 or 1,093 per stream, so every stream runs two chunks
DRAWS = 70_001


def stream_draws(draws=DRAWS, grid=SMALL, seed=SEED):
    """The Brownian chunks of mc_collect's stream plan for ``draws`` draws,
    in fold order."""
    for j, count in enumerate(stream_counts(draws)):
        rng = seed.generator(j)
        while count > 0:
            c = min(count, DEFAULT_CHUNK)
            yield np.sqrt(grid.step) * walk_sums_batch(rng, c, grid.n)
            count -= c


def both_signs(w):
    return w, -w


def segment_views(w, t=T):
    """W, -W, W~ and -W~ as explicit arrays, where W~ reflects the segment
    after t around W_t."""
    tilde = np.concatenate((w[:, : t + 1], 2 * w[:, t : t + 1] - w[:, t + 1 :]), axis=1)
    return w, -w, tilde, -tilde


def per_draw_reference(view, views, draws=DRAWS):
    """Per-draw sums of ``view`` over the explicit ``views`` of every draw."""
    return np.concatenate(
        [sum(view(v).astype(np.int64) for v in views(w)) for w in stream_draws(draws)]
    )


def split_reference(w, t=T):
    """Segment excesses and first argmaxima around t by plain numpy slices."""
    left, right = w[:, : t + 1], w[:, t:]
    arg_l, arg_r = left.argmax(axis=1), t + right.argmax(axis=1)
    w_t = w[:, t]
    return left.max(axis=1) - w_t, arg_l, right.max(axis=1) - w_t, arg_r


def delta_method_se(c, h):
    """SE of sum h / sum c over iid per-draw pairs, by the residual form."""
    c, h = c.astype(float), h.astype(float)
    r = h.sum() / c.sum()
    return math.sqrt(np.sum((h - r * c) ** 2)) / c.sum()


def double_max_view(epss, delta):
    def view(w):
        a, arg_l, b, arg_r = split_reference(w)
        gap = np.abs(b - a)
        both = (a > delta) & (b > delta)
        separated = (arg_l < T) & (arg_r > T)
        cols = []
        for e in epss:
            hit = (gap < e) & both
            cols += [gap < e, hit, hit & ~separated]
        return np.column_stack(cols)

    return view


class TestReflection:
    def test_unique_max_counts_match_reference(self):
        thr = (0.1, 0.01, 0.001)

        def view(w):
            top = np.sort(w, axis=1)
            gap = top[:, -1] - top[:, -2]
            return np.column_stack([gap == 0.0] + [gap < x for x in thr])

        ref = per_draw_reference(view, both_signs).sum(axis=0)
        stats = unique_max_check(SMALL, 2 * DRAWS - 1, SEED, thresholds=thr)
        assert stats.samples == 2 * DRAWS
        assert stats.ties == ref[0]
        assert stats.fractions == tuple(int(k) / stats.samples for k in ref[1:])

    def test_excess_ladder_matches_reference(self):
        eps, deltas = 0.05, (0.2, 0.1, 0.05)

        def view(w):
            a, _, b, _ = split_reference(w)
            cond = np.abs(b - a) < eps
            small = [(a < d) | (b < d) for d in deltas]
            return np.column_stack([cond] + [s & cond for s in small])

        ref = per_draw_reference(view, segment_views)
        ests = excess_conditional_ladder(T, eps, deltas, SMALL, 4 * DRAWS - 3, SEED)
        c = ref[:, 0]
        assert (c >= 3).any()  # some draws are conditioned in three views or four
        for i, est in enumerate(ests):
            h = ref[:, 1 + i]
            assert est.samples == c.sum()
            assert est.mean == h.sum() / c.sum()
            assert est.std_error == pytest.approx(delta_method_se(c, h), rel=1e-12)

    def test_double_max_ladder_matches_reference(self):
        epss, delta = (0.1, 0.4), 0.05
        ref = per_draw_reference(double_max_view(epss, delta), segment_views)
        summaries = double_max_ladder(T, epss, delta, SMALL, 4 * DRAWS, SEED)
        for i, s in enumerate(summaries):
            c, h, unseparated = ref[:, 3 * i], ref[:, 3 * i + 1], ref[:, 3 * i + 2]
            assert s.conditioned == c.sum()
            assert s.both_fraction == h.sum() / c.sum()
            assert s.std_error == pytest.approx(delta_method_se(c, h), rel=1e-12)
            assert s.argmax_separated == (unseparated.sum() == 0)

    def test_argmax_separation_on_reflected_segment_views(self):
        epss, delta = (0.1, 0.4), 0.05
        view = double_max_view(epss, delta)
        reflected = per_draw_reference(view, lambda w: segment_views(w)[2:])
        hits, unseparated = reflected[:, 1::3], reflected[:, 2::3]
        assert (hits.sum(axis=0) > 0).all()
        assert unseparated.sum() == 0

    def test_scatter_in_view_order(self):
        eps, delta, cap = 0.4, 0.05, 64
        kept = []
        for w in stream_draws(1_000):
            pairs = []
            for v in segment_views(w):
                a, _, b, _ = split_reference(v)
                pairs.append(np.column_stack((a, b))[np.abs(b - a) < eps])
            kept.append(np.vstack(pairs)[: max(8, cap // 32)])
        ref = np.vstack(kept)[:cap]
        (s,) = double_max_ladder(T, [eps], delta, SMALL, 4_000, SEED, scatter_cap=cap)
        assert s.scatter.shape == ref.shape == (cap, 2)
        np.testing.assert_allclose(s.scatter, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("samples, paths", [(1_000, 1_000), (100_001, 100_004)])
    def test_unconditioned_row_counts_four_views_per_draw(self, samples, paths):
        (s,) = double_max_ladder(T, [1e9], 0.05, SMALL, samples, SEED)
        assert s.conditioned == paths

    def test_values_negated_in_place(self):
        values = np.arange(6.0).reshape(2, 3)
        buffer = values
        per_draw = concentration._both_signs(values, lambda v: v[:, :1] > 0)
        assert values is buffer and np.array_equal(values, -np.arange(6.0).reshape(2, 3))
        assert per_draw.dtype == np.int64
        assert per_draw.tolist() == [[0], [1]]  # 0 and -0, then 3 and -3

    def test_segment_views_of_one_path(self):
        w = np.array([[0.0, 3.0, 1.0, -2.0, 2.0]])
        left, right, arg_l, arg_r = concentration._segment_views(w, 2)
        # W_t = 1: A = 2, A' = 1 (min 0 at node 0), B = 1, B' = 3 (min -2 at node 3)
        assert left[:, 0].tolist() == [2.0, 1.0, 2.0, 1.0]
        assert right[:, 0].tolist() == [1.0, 3.0, 3.0, 1.0]
        assert arg_l[:, 0].tolist() == [1, 0, 1, 0]
        assert arg_r[:, 0].tolist() == [4, 3, 3, 4]


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
