"""Exact fluctuation identities and their Monte Carlo counterparts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from maxbv.fluctuation import (
    _argmax_census,
    andersen_series_check,
    bridge_argmax_histogram,
    chi_square_sf,
    halfline_prob_exact,
    halfline_prob_float,
    mc_bridge_stay_prob,
    mc_halfline_prob,
    rational_str,
)
from maxbv.reporting import verdict
from maxbv.sampling import (
    SeedSpec,
    bridge_sums_batch,
    mc_collect,
    mc_run,
    walk_sums_batch,
)

SEED = SeedSpec(424242, 0)


class TestExact:
    def test_pinned_values(self):
        assert halfline_prob_exact(0) == 1
        assert halfline_prob_exact(1) == Fraction(1, 2)
        assert halfline_prob_exact(2) == Fraction(3, 8)
        assert halfline_prob_exact(10) == Fraction(46189, 262144)
        assert rational_str(halfline_prob_exact(10)) == "46189/262144"

    def test_strictly_decreasing(self):
        values = [halfline_prob_exact(n) for n in range(65)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_float_matches_exact_through_crossover(self):
        # the log-gamma branch takes over past n = 64
        for n in (1, 64, 65, 80, 200):
            exact = float(Fraction(halfline_prob_exact(n)))
            assert halfline_prob_float(n) == pytest.approx(exact, rel=1e-12)


class TestSeries:
    def test_low_order_coefficients(self):
        lhs, rhs = andersen_series_check(2)
        assert len(lhs) == len(rhs) == 3
        assert lhs[1] == Fraction(1, 2) == rhs[1]
        assert lhs[2] == Fraction(3, 8) == rhs[2]

    def test_order_64_exact_equality(self):
        lhs, rhs = andersen_series_check(64)
        assert lhs == rhs

    def test_series_matches_closed_form_to_64(self):
        lhs, _ = andersen_series_check(64)
        for n in range(65):
            assert lhs[n] == halfline_prob_exact(n)


class TestMC:
    def test_halfline_n1(self):
        est = mc_halfline_prob(1, 100_000, SEED)
        assert verdict(est.mean, 0.5, 3 * est.std_error)

    def test_halfline_n10_vs_exact(self):
        est = mc_halfline_prob(10, 100_000, SEED)
        assert verdict(est.mean, float(halfline_prob_exact(10)), 3 * est.std_error)

    def test_halfline_n50(self):
        est = mc_halfline_prob(50, 200_000, SEED)
        assert verdict(est.mean, float(halfline_prob_exact(50)), 3 * est.std_error)

    def test_bridge_stay_small_n(self):
        for n in (2, 10):
            est = mc_bridge_stay_prob(n, 100_000, SeedSpec(424242, n))
            assert verdict(est.mean, 1.0 / n, 3 * est.std_error), (n, est.mean, est.std_error)


class TestArgmaxHistogram:
    def test_n2_split(self):
        hist = bridge_argmax_histogram(2, 50_000, SEED)
        assert hist.ties == 0
        est_frac = hist.counts[0] / hist.samples
        se = (0.25 / hist.samples) ** 0.5
        assert abs(est_frac - 0.5) <= 3 * se

    def test_uniformity_n20(self):
        hist = bridge_argmax_histogram(20, 50_000, SEED)
        assert hist.p_value > 1e-3
        assert hist.ties == 0
        assert sum(hist.counts) == hist.samples

    def test_rows_export(self):
        hist = bridge_argmax_histogram(4, 1_000, SEED)
        rows = hist.rows()
        assert len(rows) == 4
        assert rows[0][0] == 0

    def test_counts_and_ties_match_origin_layout(self):
        # reference: the census of W_0..W_{n-1} on the (count, n+1) layout
        n, samples = 20, 30_000

        def task(rng, count):
            x = rng.standard_normal((count, n))
            x -= x.mean(axis=1, keepdims=True)
            sums = np.empty((count, n + 1))
            sums[:, 0] = 0.0
            np.cumsum(x, axis=1, out=sums[:, 1:])
            sums[:, -1] = 0.0
            head = sums[:, :n]
            m = head.max(axis=1)
            ties = int(((head == m[:, None]).sum(axis=1) > 1).sum())
            return np.bincount(head.argmax(axis=1), minlength=n), ties

        ref_counts, ref_ties = mc_collect(
            task, samples, SEED, combine=lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        for workers in (1, 2):
            hist = bridge_argmax_histogram(n, samples, SEED, workers=workers)
            assert hist.counts == tuple(int(c) for c in ref_counts)
            assert hist.ties == ref_ties

    def test_census_on_tie_rows(self):
        # rounding the sums makes ties common; the tie count equals the
        # compare-and-sum count on W_0..W_{n-1}, and rows without a tie keep
        # the position of their first argmax
        rng = SeedSpec(5, 2).generator()
        n = 6
        origin = np.zeros((2000, n + 1))
        origin[:, 1:n] = np.round(rng.standard_normal((2000, n - 1)), 0)
        head = origin[:, :n]
        m = head.max(axis=1)
        tied = (head == m[:, None]).sum(axis=1) > 1
        assert 0 < tied.sum() < 2000
        sums = origin[:, 1:].copy()
        counts, ties = _argmax_census(sums)
        assert ties == int(tied.sum())
        assert np.array_equal(sums, origin[:, 1:])  # the input is left as it was
        untied = np.bincount(head[~tied].argmax(axis=1), minlength=n)
        clean, _ = _argmax_census(origin[~tied, 1:].copy())
        assert (clean == untied).all()
        assert counts.sum() == 2000


class TestStayBelowLaw:
    """The step-by-step estimates against the full-path statistic on
    independent streams: equal in law, so their difference is within 4 SE."""

    SAMPLES = 200_000

    def _agree(self, est, statistic):
        ref = mc_run(statistic, self.SAMPLES, SeedSpec(31337, 1))
        se = math.hypot(est.std_error, ref.std_error)
        assert abs(est.mean - ref.mean) <= 4 * se, (est.mean, ref.mean, se)

    @pytest.mark.parametrize("n", [3, 5, 30])
    def test_bridge_matches_full_path_statistic(self, n):
        def statistic(rng, count):
            sums = bridge_sums_batch(rng, count, n)
            return (sums[:, : n - 1].max(axis=1) <= 0.0).astype(float)

        self._agree(mc_bridge_stay_prob(n, self.SAMPLES, SEED), statistic)

    @pytest.mark.parametrize("n", [3, 5, 30])
    def test_walk_matches_full_path_statistic(self, n):
        def statistic(rng, count):
            sums = walk_sums_batch(rng, count, n)
            return (sums[:, 1:].max(axis=1) <= 0.0).astype(float)

        self._agree(mc_halfline_prob(n, self.SAMPLES, SEED), statistic)

    @pytest.mark.parametrize("n", [10, 100])
    def test_estimates_identical_across_workers(self, n):
        for estimator in (mc_halfline_prob, mc_bridge_stay_prob):
            ests = [estimator(n, 300_000, SEED, workers=w) for w in (1, 2, 4)]
            assert ests[0] == ests[1] == ests[2]

    def test_too_few_samples_rejected(self):
        for estimator in (mc_halfline_prob, mc_bridge_stay_prob):
            with pytest.raises(ValueError, match="at least 2 samples"):
                estimator(5, 1, SEED)


class TestChiSquareSurvival:
    def test_matches_scipy(self):
        for df in range(1, 200):
            for x in (0.01 * df, 0.5 * df, df, 2.0 * df, 5.0 * df):
                ref = special.chdtrc(df, x)
                assert chi_square_sf(df, x) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_zero_statistic(self):
        assert chi_square_sf(7, 0.0) == 1.0
