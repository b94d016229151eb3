"""Sampler laws and the deterministic Monte Carlo driver contract."""

import math
import tracemalloc

import numpy as np
import pytest

from maxbv import experiments
from maxbv.errors import NonFiniteStatisticError
from maxbv.experiments import ExperimentSpec, run_experiment
from maxbv.paths import TimeGrid
from maxbv.reporting import verdict
from maxbv.sampling import (
    SeedSpec,
    bridge_sums_batch,
    brownian_values_batch,
    mc_collect,
    mc_run,
    mc_run_many,
    stay_below_count,
    stream_counts,
    walk_sums_batch,
)

SEED = SeedSpec(777, 0)


class TestSeedSpec:
    def test_streams_differ(self):
        a = SeedSpec(1, 0).generator().standard_normal(4)
        b = SeedSpec(1, 1).generator().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(1, -1)


class TestWalk:
    def test_partial_sums_consistent(self):
        (w,) = walk_sums_batch(SEED.generator(), 1, 32)
        assert w.shape == (33,) and w[0] == 0.0
        assert np.array_equal(w[1:], np.cumsum(SEED.generator().standard_normal(32)))

    def test_moments(self):
        est = mc_run(lambda rng, c: rng.standard_normal(c), 100_000, SEED)
        assert verdict(est.mean, 0.0, 3 * est.std_error)
        est2 = mc_run(lambda rng, c: rng.standard_normal(c) ** 2, 100_000, SEED)
        assert verdict(est2.mean, 1.0, 3 * est2.std_error)

    def test_endpoint_sign_probability(self):
        est = mc_run(
            lambda rng, c: (walk_sums_batch(rng, c, 10)[:, -1] <= 0).astype(float),
            100_000,
            SEED,
        )
        assert verdict(est.mean, 0.5, 3 * est.std_error)


def _two_buffer_walk_sums(rng, count, n):
    """The earlier walk_sums_batch, kept as the oracle: the normals drawn
    into their own (count, n) array and summed into a second one."""
    out = np.empty((count, n + 1))
    out[:, 0] = 0.0
    np.cumsum(rng.standard_normal((count, n)), axis=1, out=out[:, 1:])
    return out


class TestWalkSumsInPlace:
    @pytest.mark.parametrize("count, n", [(1, 1), (1, 5), (63, 2), (64, 3), (65, 1),
                                          (130, 7), (782, 1000), (1024, 1000)])
    def test_bitwise_the_two_buffer_formula(self, count, n):
        rng, ref_rng = SEED.generator(), SEED.generator()
        got = walk_sums_batch(rng, count, n)
        ref = _two_buffer_walk_sums(ref_rng, count, n)
        assert got.shape == (count, n + 1)
        assert got.tobytes() == ref.tobytes()
        # the generator is left in the same state
        assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes()

    def test_peak_is_one_path_buffer(self):
        count, n = 1024, 1000
        rng = SEED.generator()
        walk_sums_batch(rng, count, n)  # first-call allocations are not paths
        tracemalloc.start()
        try:
            walk_sums_batch(rng, count, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two-buffer formula peaks at 2.00 buffers, the in-place one at 1.06
        assert peak <= 1.15 * count * (n + 1) * 8


class TestBrownian:
    @pytest.mark.parametrize("horizon", [1.0, 2.0, 0.3])
    def test_batch_scaled_in_place_bitwise(self, horizon):
        grid = TimeGrid(1000, horizon)
        for stream in range(3):
            seed = SeedSpec(31, stream)
            got = brownian_values_batch(seed.generator(), 1024, grid)
            ref = np.sqrt(grid.step) * walk_sums_batch(seed.generator(), 1024, grid.n)
            assert got.shape == (1024, 1001)
            assert got.tobytes() == ref.tobytes()

    def test_terminal_variance(self):
        grid = TimeGrid(100, 4.0)

        def statistic(rng, c):
            sums = walk_sums_batch(rng, c, grid.n)
            return grid.step * sums[:, -1] ** 2

        est = mc_run(statistic, 100_000, SEED)
        assert verdict(est.mean, 4.0, 3 * est.std_error)

    def test_reflection_principle_tail(self):
        from scipy.stats import norm

        grid = TimeGrid(1000, 1.0)

        def statistic(rng, c):
            sums = walk_sums_batch(rng, c, grid.n)
            return (np.sqrt(grid.step) * sums.max(axis=1) > 0.5).astype(float)

        est = mc_run(statistic, 100_000, SEED)
        ref = 2 * norm.sf(0.5)
        # discrete monitoring undershoots the continuous maximum
        assert verdict(est.mean, ref, 3 * est.std_error + 0.02)

    def test_scaled_walk_row_fails_one_ulp_off(self, monkeypatch):
        # the row is the check: a sampler that scales by one ulp too much must FAIL
        spec = ExperimentSpec("workers", "sampling.worker_invariance",
                              dict(n=64, horizon=2.0, samples=2000), 3)

        def verdicts():
            return {row.check: row.passed for row in run_experiment(spec, 777).rows}

        assert verdicts() == {"workers-1-vs-8-bit-identical": True,
                              "brownian-equals-scaled-walk": True}

        def one_ulp_more(rng, count, grid):
            out = walk_sums_batch(rng, count, grid.n)
            out *= np.nextafter(math.sqrt(grid.step), 2)
            return out

        monkeypatch.setattr(experiments, "brownian_values_batch", one_ulp_more)
        assert verdicts() == {"workers-1-vs-8-bit-identical": True,
                              "brownian-equals-scaled-walk": False}


def _bridge_sums_with_origin(rng, count, n):
    """The earlier (count, n+1) bridge layout W_0..W_n, kept as the oracle."""
    x = rng.standard_normal((count, n))
    x -= x.mean(axis=1, keepdims=True)
    out = np.empty((count, n + 1))
    out[:, 0] = 0.0
    np.cumsum(x, axis=1, out=out[:, 1:])
    out[:, -1] = 0.0
    return out


class TestBridge:
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 100])
    def test_batch_is_origin_layout_without_w0(self, n):
        for seed in (SeedSpec(1, 0), SeedSpec(2, 3), SeedSpec(777, 5)):
            got = bridge_sums_batch(seed.generator(), 257, n)
            ref = _bridge_sums_with_origin(seed.generator(), 257, n)[:, 1:]
            assert got.shape == (257, n)
            assert got.tobytes() == ref.tobytes()
            assert (got[:, -1] == 0.0).all()

    def test_raw_projection_kills_sum(self):
        rng = SeedSpec(5, 1).generator()
        x = rng.standard_normal(50)
        inc = x - x.mean()
        assert abs(inc.sum()) <= 1e-12

    def test_covariance_oracle(self):
        # Cov(W_j, W_k) = min(j,k) - j*k/n for the conditioned walk
        n, j, k = 10, 3, 7

        def statistic(rng, c):
            sums = bridge_sums_batch(rng, c, n)  # W_1..W_n
            return sums[:, j - 1] * sums[:, k - 1]

        est = mc_run(statistic, 200_000, SEED)
        assert verdict(est.mean, min(j, k) - j * k / n, 3 * est.std_error)

    def test_cyclic_shift_invariance_in_law(self):
        # mean-subtracted increments are exchangeable under rotation: the
        # statistic sum of squares is invariant pathwise, the law of a fixed
        # coordinate matches across positions statistically
        def statistic(rng, c):
            sums = bridge_sums_batch(rng, c, 8)
            inc = np.diff(sums, axis=1, prepend=0.0)
            return inc[:, 0] ** 2 - inc[:, 5] ** 2

        est = mc_run(statistic, 100_000, SEED)
        assert verdict(est.mean, 0.0, 3 * est.std_error)


class _CountingNormals:
    """A generator stand-in that counts the normals drawn through it."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def standard_normal(self, size):
        self.drawn += int(np.prod(size))
        return self.rng.standard_normal(size)


class TestStayBelowCount:
    @pytest.mark.parametrize("n, bridge", [(1, False), (2, True)])
    def test_one_step_counts_nonpositive_first_draws(self, n, bridge):
        # one step: W_1 = Z (walk) or sqrt(1/2) Z (bridge), same sign as Z
        for seed in (SEED, SeedSpec(3, 9)):
            first = seed.generator().standard_normal(5000)
            got = stay_below_count(seed.generator(), 5000, n, bridge=bridge)
            assert got == int((first <= 0.0).sum())

    def test_walk_draws_per_path(self):
        # expected draws sum_{k<n} C(2k,k)/4^k = 2n C(2n,n)/4^n = 3.524 at n = 10
        rng = _CountingNormals(SEED.generator())
        stay_below_count(rng, 65_536, 10, bridge=False)
        assert rng.drawn / 65_536 == pytest.approx(3.524, rel=0.02)

    def test_bridge_draws_per_path(self):
        # about 9.3 per path at n = 100, against 100 for a full bridge
        rng = _CountingNormals(SEED.generator())
        stay_below_count(rng, 65_536, 100, bridge=True)
        assert rng.drawn / 65_536 < 12

    def test_one_node_bridge_stays_below(self):
        rng = _CountingNormals(SEED.generator())
        assert stay_below_count(rng, 100, 1, bridge=True) == 100
        assert rng.drawn == 0


class TestMCRun:
    def test_worker_count_bit_identical(self):
        def statistic(rng, c):
            return (walk_sums_batch(rng, c, 5)[:, 1:].max(axis=1) <= 0).astype(float)

        runs = [mc_run(statistic, 30_000, SEED, workers=w) for w in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_constant_statistic_zero_stderr(self):
        est = mc_run(lambda rng, c: np.ones(c), 10_000, SEED)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_indicator_half(self):
        est = mc_run(
            lambda rng, c: (rng.standard_normal(c) <= 0).astype(float), 100_000, SEED
        )
        assert verdict(est.mean, 0.5, 3 * est.std_error)

    def test_nonfinite_statistic_aborts_with_seed(self):
        def statistic(rng, c):
            vals = rng.standard_normal(c)
            vals[0] = np.nan
            return vals

        with pytest.raises(NonFiniteStatisticError) as err:
            mc_run(statistic, 1000, SeedSpec(31, 4))
        assert err.value.master_seed == 31
        assert "31/4" in str(err.value)

    def test_sample_count_preserved(self):
        for samples in (2, 63, 64, 65, 1000):
            est = mc_run(lambda rng, c: np.ones(c), samples, SEED)
            assert est.samples == samples

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            mc_run(lambda rng, c: np.ones(c), 1, SEED)

    def test_stream_plan_deterministic(self):
        counts = stream_counts(1000)
        assert counts.sum() == 1000
        assert counts.max() - counts.min() <= 1

    def test_mc_collect_draws_chunking_independent(self):
        # the drawn sample values do not depend on the chunk size; only the
        # fixed-default summation grouping does
        def task(rng, count):
            return [rng.standard_normal(count)]

        cat = lambda a, b: a + b
        a = np.concatenate(mc_collect(task, 3_000, SEED, combine=cat, chunk_size=128))
        b = np.concatenate(mc_collect(task, 3_000, SEED, combine=cat, chunk_size=1024))
        assert np.array_equal(a, b)

    def test_mc_run_repeatable_exactly(self):
        stat = lambda rng, c: rng.standard_normal(c)
        assert mc_run(stat, 10_000, SEED) == mc_run(stat, 10_000, SEED)


class TestMCRunMany:
    @staticmethod
    def rows(rng, c):
        sums = walk_sums_batch(rng, c, 6)
        return np.stack([
            sums[:, -1],
            (sums[:, 1:].max(axis=1) <= 0).astype(float),
            sums[:, 3] ** 2,
        ])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_separate_runs_bitwise(self, workers):
        many = mc_run_many(self.rows, 20_000, SEED, workers=workers, chunk_size=300)
        for i, est in enumerate(many):
            single = mc_run(
                lambda rng, c, i=i: self.rows(rng, c)[i], 20_000, SEED,
                workers=workers, chunk_size=300,
            )
            assert est == single

    def test_nonfinite_value_in_one_row_aborts(self):
        def statistic(rng, c):
            vals = rng.standard_normal((3, c))
            vals[2, 5] = np.inf
            return vals

        with pytest.raises(NonFiniteStatisticError, match="row 2, sample offset 5"):
            mc_run_many(statistic, 1000, SeedSpec(31, 4))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="one row"):
            mc_run_many(lambda rng, c: np.ones(c), 100, SEED)
        with pytest.raises(ValueError, match="one value per sample"):
            mc_run(lambda rng, c: np.ones((1, c)), 100, SEED)
