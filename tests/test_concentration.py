"""Double-maximum concentration witnesses (trend checks at small scale)."""

import math

import numpy as np
import pytest

from maxbv import concentration, sampling
from maxbv.concentration import (
    double_max_ladder,
    excess_conditional_ladder,
    unique_max_check,
)
from maxbv.errors import InsufficientSamplesError
from maxbv.experiments import OPERATIONS
from maxbv.paths import TimeGrid, bottom_two_gap, top_two_gap
from maxbv.sampling import DEFAULT_CHUNK, SeedSpec, stream_counts, walk_sums_batch

GRID = TimeGrid(500, 1.0)
SEED = SeedSpec(8080, 0)
HALF = GRID.n // 2


THRESHOLDS = (1e-1, 1e-2, 1e-3, 1e-4)


class TestUniqueMax:
    def test_no_exact_ties_and_monotone_fractions(self):
        ties, *fractions = unique_max_check(GRID, THRESHOLDS, 100_000, SEED)
        assert ties.mean == 0.0
        assert ties.samples == 100_000
        fr = [f.mean for f in fractions]
        assert all(a > b for a, b in zip(fr, fr[1:]))

    def test_small_gap_scaling_below_one(self):
        _, *fractions = unique_max_check(GRID, THRESHOLDS, 100_000, SEED)
        for a, b in zip(fractions, fractions[1:]):
            if a.mean > 0:
                assert b.mean / a.mean < 1.0

    def test_custom_thresholds(self):
        # one estimate per threshold, in the order given
        ests = unique_max_check(GRID, (0.01, 0.5), 10_000, SEED)
        assert len(ests) == 3
        assert ests[1].mean < ests[2].mean

    @pytest.mark.parametrize("samples, paths", [(2, 2), (3, 4), (10_001, 10_002)])
    def test_samples_count_both_signs(self, samples, paths):
        grid = TimeGrid(50, 1.0)
        assert all(e.samples == paths for e in unique_max_check(grid, (0.1,), samples, SEED))


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


def ladder_rows(operation, **params):
    """(check, value, passed) of each row, and the series, of a small run."""
    params = dict(n=50, horizon=1.0, t_frac=0.5, samples=8000, **params)
    result = OPERATIONS[operation].run(params, SEED, 1)
    return [(r.check, r.value, r.passed) for r in result.rows], result.series


class TestLadderOrder:
    """A ladder's rows do not depend on the order or repeats of its list:
    a repeat would fail the strict trend rows by construction."""

    def test_excess_ladder_deltas(self):
        def rows(deltas):
            return ladder_rows("concentration.excess_ladder", eps=0.05, deltas=deltas)

        ordered = rows((0.2, 0.1, 0.05, 0.025))
        assert all(passed for _, _, passed in ordered[0])
        assert rows((0.025, 0.05, 0.1, 0.2)) == ordered
        assert rows((0.1, 0.2, 0.05, 0.1, 0.025)) == ordered

    def test_double_max_epss(self):
        def rows(epss):
            return ladder_rows("concentration.double_max_ladder", epss=epss, delta=0.05)

        ordered = rows((0.08, 0.3, 1e9))
        assert ordered[0][2][0] == "both-excess-regression-eps0.08"
        assert rows((0.3, 0.08, 1e9)) == ordered
        assert rows((1e9, 0.3, 0.08, 0.3)) == ordered


# ---------------------------------------------------------------------------
# Symmetry views: unique_max evaluates W and -W, the ladders W, -W, W~, -W~
# ---------------------------------------------------------------------------

SMALL = TimeGrid(100, 1.0)
T = SMALL.n // 2
# 70_001 draws: 1,094 or 1,093 per stream, so every stream crosses a chunk
# boundary both here (DEFAULT_CHUNK) and in the estimators (256-row blocks)
DRAWS = 70_001


def stream_draws(draws=DRAWS, grid=SMALL, seed=SEED):
    """The Brownian chunks of mc_collect's stream plan for ``draws`` draws at
    the driver's default chunk size, in fold order."""
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
    """Segment excesses and first argmaxima around t by plain numpy slices,
    each maximum read at its first argmax (which fixes the sign of a 0)."""
    rows = np.arange(len(w))
    arg_l, arg_r = w[:, : t + 1].argmax(axis=1), t + w[:, t:].argmax(axis=1)
    w_t = w[:, t]
    return w[rows, arg_l] - w_t, arg_l, w[rows, arg_r] - w_t, arg_r


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
        ests = unique_max_check(SMALL, thr, 2 * DRAWS - 1, SEED)
        assert all(e.samples == 2 * DRAWS for e in ests)
        assert [e.mean for e in ests] == [int(k) / (2 * DRAWS) for k in ref]

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
        # the first cap conditioned pairs in stream order, then draw order,
        # then view order W, -W, W~, -W~
        eps, delta, cap = 0.1, 0.05, 512
        kept = []
        for w in stream_draws(20_000):
            pairs = [split_reference(v) for v in segment_views(w)]
            a = np.column_stack([p[0] for p in pairs])
            b = np.column_stack([p[2] for p in pairs])
            kept.append(np.stack((a, b), axis=-1)[np.abs(b - a) < eps])
        ref = np.vstack(kept)[:cap]
        (s,) = double_max_ladder(T, [eps], delta, SMALL, 80_000, SEED, scatter_cap=cap)
        assert s.scatter.shape == ref.shape == (cap, 2)
        assert len(kept[0]) < cap  # the reservoir spans streams
        np.testing.assert_allclose(s.scatter, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [3, 64])
    def test_scatter_independent_of_chunk_size(self, monkeypatch, chunk):
        # 10,000 draws: 156 or 157 per stream, one 256-row block each
        args = (T, [0.1, 0.4], 0.05, SMALL, 40_000, SEED)
        a = double_max_ladder(*args, workers=2)
        monkeypatch.setattr(concentration, "_CHUNK", chunk)
        b = double_max_ladder(*args, workers=2)
        for x, y in zip(a, b):
            assert (x.conditioned, x.both_fraction, x.std_error, x.argmax_separated) == (
                y.conditioned, y.both_fraction, y.std_error, y.argmax_separated)
            assert x.scatter.tobytes() == y.scatter.tobytes()

    @pytest.mark.parametrize("samples, paths", [(1_000, 1_000), (100_001, 100_004)])
    def test_unconditioned_row_counts_four_views_per_draw(self, samples, paths):
        (s,) = double_max_ladder(T, [1e9], 0.05, SMALL, samples, SEED)
        assert s.conditioned == paths

    def test_views_leave_values_unchanged(self):
        # the -W views are read from W: the segment views only read the
        # path buffer, and the two gaps put back every entry they touch
        values = next(stream_draws(300))
        values[:2, T] = values[:2, 0] = -0.0
        before = values.tobytes()
        values.flags.writeable = False
        concentration._segment_views(values, T)
        assert values.tobytes() == before
        values.flags.writeable = True
        top_two_gap(values)
        bottom_two_gap(values)
        assert values.tobytes() == before

    @pytest.mark.parametrize("t", [1, T, SMALL.n - 1])
    def test_segment_views_match_explicit_negation(self, t):
        # W and -W views against split_reference of the arrays w and -w;
        # W~ and -W~ take one segment of each
        w = next(stream_draws(300))
        w[:3] = np.round(w[:3], 1)  # rows with tied maxima and minima
        w[3, t] = -0.0
        left, right, arg_l, arg_r = concentration._segment_views(w, t)
        a, al, b, ar = split_reference(w, t)
        an, aln, bn, arn = split_reference(-w, t)
        expected = (
            np.stack((a, an, a, an)), np.stack((b, bn, bn, b)),
            np.stack((al, aln, al, aln)), np.stack((ar, arn, arn, ar)),
        )
        for got, want in zip((left, right, arg_l, arg_r), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

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
        est = sampling.ratio_estimate(sampling.ratio_sums(c[:, None], h[:, None])[:, 0])
        n, p = int(c.sum()), h.sum() / c.sum()
        assert est.samples == n
        assert est.mean == p
        assert est.std_error == pytest.approx(math.sqrt(p * (1 - p) / n), rel=1e-12)

    def test_paired_matches_delta_method(self):
        rng = np.random.default_rng(6)
        c = rng.integers(0, 3, size=(4_000, 1))
        h = np.minimum(c, rng.integers(0, 3, size=(4_000, 3)))
        sums = sampling.ratio_sums(c, h)
        assert sums.shape == (5, 3)
        for i in range(3):
            est = sampling.ratio_estimate(sums[:, i])
            assert est.mean == h[:, i].sum() / c.sum()
            assert est.std_error == pytest.approx(
                delta_method_se(c[:, 0], h[:, i]), rel=1e-12
            )

    def test_no_counted_path_reads_zero(self):
        est = sampling.ratio_estimate([0, 0, 0, 0, 0])
        assert (est.mean, est.std_error, est.samples) == (0.0, 0.0, 0)
