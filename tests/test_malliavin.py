"""Finite-difference operators, adjoint estimators, and the kernel route."""

import math

import numpy as np
import pytest

from maxbv import malliavin
from maxbv.cylindrical import catalog_entry, constant_one
from maxbv.errors import InsufficientSamplesError
from maxbv.malliavin import (
    FDConfig,
    KernelConfig,
    adjoint2_mean,
    adjoint2_means,
    chain_max_estimator,
    chain_max_integrated,
    chain_vs_weak_paired,
    d2m_weak_estimator,
    fd_directional,
    fd_second,
    path_maximum,
    second_adjoint_batch,
    second_difference_zero_fraction,
    separating_direction,
    sigma_fd_zero_fraction,
    sigma_functional,
    sigma_time,
    skorokhod_second_adjoint,
    split_gap_density_mc,
    tied_peak_second_differences,
    two_peak_path,
    verify_grad_max,
)
from maxbv.density import lt_zero_closed
from maxbv.experiments import ExperimentSpec, run_experiment
from maxbv.paths import (
    Direction,
    DiscretePath,
    TimeGrid,
    direction_inner,
    running_max_tables,
    wiener_integral,
)
from maxbv.sampling import SeedSpec, brownian_values_batch, mc_collect, sample_brownian

GRID = TimeGrid(400, 1.0)
SEED = SeedSpec(5150, 0)
CFG = FDConfig(eps=1e-5)


def brownian(stream=0, grid=GRID):
    return sample_brownian(grid, SeedSpec(5150, stream))


class TestFDDirectional:
    def test_terminal_value_is_linear(self):
        path = brownian(1)
        for h in (Direction.constant(GRID), Direction.indicator(GRID, 0.2, 0.7)):
            fd = fd_directional(lambda p: float(p.values[-1]), path, h, CFG)
            assert fd == pytest.approx(h.primitive[-1], abs=1e-9)

    def test_max_gradient_is_primitive_at_argmax(self):
        path = brownian(2)
        h = Direction.constant(GRID)
        stat = sigma_time(path)
        fd = fd_directional(path_maximum, path, h, CFG)
        assert fd == pytest.approx(stat, abs=1e-9)

    def test_density_supported_past_argmax_gives_zero(self):
        path = brownian(3)
        sigma = sigma_time(path)
        if sigma > 0.95:  # need room after the argmax
            path = brownian(4)
            sigma = sigma_time(path)
        h = Direction.indicator(GRID, sigma + 0.01, 1.0)
        fd = fd_directional(path_maximum, path, h, CFG)
        assert fd == 0.0

    def test_constant_functional(self):
        fd = fd_directional(lambda p: 3.25, brownian(5), Direction.constant(GRID), CFG)
        assert fd == 0.0


class TestFDSecond:
    def test_linear_functional_exactly_zero(self):
        path = brownian(6)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        val = fd_second(lambda p: float(p.values[-1]), path, h, k, FDConfig(eps=1e-3))
        assert val == 0.0

    def test_max_zero_off_tie_set(self):
        cfg = FDConfig(eps=1e-3)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        zeros = 0
        for stream in range(20):
            path = brownian(100 + stream)
            val = fd_second(path_maximum, path, h, k, cfg)
            zeros += val == 0.0
        assert zeros >= 19  # ties are excluded by chance only

    def test_tied_peaks_diverge_like_one_over_eps(self):
        mags = tied_peak_second_differences(GRID, 1e-3, halvings=3)
        assert all(m > 1.0 for m in mags)
        for a, b in zip(mags, mags[1:]):
            assert b / a == pytest.approx(2.0, rel=0.15)

    def test_tied_peak_magnitude_formula(self):
        # the kink contributes |h(s1) - h(s0)| / (2 eps)
        path = two_peak_path(GRID)
        h = separating_direction(GRID)
        eps = 1e-3
        val = fd_second(path_maximum, path, h, h, FDConfig(eps=eps))
        s0, s1 = 0.3, 0.7
        expected = (h.primitive[round(s1 * GRID.n)] - h.primitive[round(s0 * GRID.n)]) / (
            2 * eps
        )
        assert abs(val) == pytest.approx(expected, rel=1e-6)


class TestGradMaxSweep:
    def test_high_pass_fraction(self):
        reports = verify_grad_max(GRID, 400, SEED, FDConfig(eps=1e-5, tolerance=1e-6))
        assert len(reports) == 3
        for r in reports:
            assert r.checked + r.excluded == 400
            assert r.fraction_ok == 1.0

    def test_second_difference_fraction(self):
        rep = second_difference_zero_fraction(GRID, 400, SEED, FDConfig(eps=1e-3))
        assert rep.fraction_ok == 1.0
        assert rep.checked > 0


class TestSecondAdjoint:
    def test_constant_formula_exact(self):
        path = brownian(7)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        val = skorokhod_second_adjoint(constant_one(GRID), k, h, path)
        expected = wiener_integral(k, path) * wiener_integral(h, path) - direction_inner(
            k, h
        )
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ident", ["coord", "bump"])
    def test_mean_zero(self, ident):
        g = catalog_entry(GRID, ident)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        est = adjoint2_mean(g, k, h, GRID, 50_000, SeedSpec(5150, 8))
        assert est.within(0.0), (ident, est.mean, est.std_error)

    def test_weighted_by_coordinate_mean_zero(self):
        h = Direction.constant(GRID)
        k = Direction.constant(GRID)
        est = adjoint2_mean(
            constant_one(GRID), k, h, GRID, 50_000, SeedSpec(5150, 9),
            weight=catalog_entry(GRID, "coord"),
        )
        assert est.within(0.0)

    def test_shared_draw_rows_equal_single_pair_runs(self):
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        coord = catalog_entry(GRID, "coord")
        pairs = [(constant_one(GRID), None), (catalog_entry(GRID, "bump"), None),
                 (constant_one(GRID), coord)]
        seed = SeedSpec(5150, 23)
        many = adjoint2_means(pairs, k, h, GRID, 3_000, seed, workers=2)
        for (g, weight), est in zip(pairs, many):
            assert est == adjoint2_mean(g, k, h, GRID, 3_000, seed, weight=weight)

    def test_disjoint_zero_densities(self):
        path = brownian(10)
        zero = Direction(GRID, np.zeros(GRID.n), label="null")
        val = skorokhod_second_adjoint(constant_one(GRID), zero, zero, path)
        assert val == 0.0


class TestWeakEstimator:
    def test_matches_continuum_closed_form(self):
        # E[M * (W_T^2 - T)] = sqrt(2/pi) T^(3/2) / 3 in the continuum; the
        # discrete-monitoring bias of the maximum is O(sqrt(T/n))
        g = constant_one(GRID)
        h = Direction.constant(GRID)
        est = d2m_weak_estimator(g, h, h, GRID, 150_000, SeedSpec(5150, 11))
        ref = math.sqrt(2.0 / math.pi) / 3.0
        allowance = 0.8 / math.sqrt(GRID.n)
        assert abs(est.mean - ref) <= 3 * est.std_error + allowance

    def test_symmetry_in_directions(self):
        g = catalog_entry(GRID, "bump")
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        e1 = d2m_weak_estimator(g, k, h, GRID, 60_000, SeedSpec(5150, 12))
        e2 = d2m_weak_estimator(g, h, k, GRID, 60_000, SeedSpec(5150, 13))
        comb = math.hypot(e1.std_error, e2.std_error)
        assert abs(e1.mean - e2.mean) <= 3 * comb


class TestChainMax:
    def test_positive_for_unit_direction(self):
        # argmax times are ordered across the split, so the estimand is > 0
        ch = chain_max_estimator(
            constant_one(GRID), Direction.constant(GRID), GRID.n // 2, GRID,
            KernelConfig(), 50_000, SeedSpec(5150, 14),
        )
        assert ch.estimate.mean - 3 * ch.estimate.std_error > 0
        assert ch.effective_samples >= 100

    def test_zero_density_direction_gives_zero(self):
        zero = Direction(GRID, np.zeros(GRID.n), label="null")
        ch = chain_max_estimator(
            constant_one(GRID), zero, GRID.n // 2, GRID,
            KernelConfig(), 5_000, SeedSpec(5150, 15),
        )
        assert ch.estimate.mean == 0.0

    def test_bandwidth_flag(self):
        with pytest.raises(InsufficientSamplesError):
            chain_max_estimator(
                constant_one(GRID), Direction.constant(GRID), GRID.n // 2, GRID,
                KernelConfig(bandwidth=1e-9), 2_000, SeedSpec(5150, 16),
            )

    def test_gaussian_kernel_agrees(self):
        tri = chain_max_estimator(
            constant_one(GRID), Direction.constant(GRID), GRID.n // 2, GRID,
            KernelConfig(kernel="triangular"), 50_000, SeedSpec(5150, 17),
        )
        gau = chain_max_estimator(
            constant_one(GRID), Direction.constant(GRID), GRID.n // 2, GRID,
            KernelConfig(kernel="gaussian"), 50_000, SeedSpec(5150, 18),
        )
        comb = math.hypot(tri.estimate.std_error, gau.estimate.std_error)
        bias = tri.bias_diagnostic + gau.bias_diagnostic
        assert abs(tri.estimate.mean - gau.estimate.mean) <= 3 * comb + 2 * bias

    def test_integrated_matches_weak_route(self):
        g = constant_one(GRID)
        h = Direction.constant(GRID)
        weak = d2m_weak_estimator(g, h, h, GRID, 100_000, SeedSpec(5150, 19))
        chain = chain_max_integrated(
            g, h, h, GRID, KernelConfig(), 100_000, SeedSpec(5150, 20), nodes=16
        )
        comb = math.hypot(weak.std_error, chain.estimate_half.std_error)
        gap = abs(weak.mean - chain.estimate_half.mean)
        assert gap <= 3 * comb + chain.bias_diagnostic


def _chain_integrated_on_full_tables(g, k, h, grid, b, samples, seed, nodes):
    """The integrated chain estimator's moments, computed from full
    running-max tables: the reference for the node-restricted tables."""
    n = grid.n
    t_idx = np.unique(
        np.clip(np.round((np.arange(nodes) + 0.5) * n / nodes).astype(int), 1, n - 1)
    )
    node_weight = h.density[t_idx] * (grid.horizon / nodes)
    kp = k.primitive
    kcfg = KernelConfig()

    def task(rng, count):
        values = brownian_values_batch(rng, count, grid)
        fwd_max, fwd_arg, bwd_max, bwd_arg = running_max_tables(values)
        delta = bwd_max[:, t_idx] - fwd_max[:, t_idx]
        y = g.value(values)[:, None] * (kp[bwd_arg[:, t_idx]] - kp[fwd_arg[:, t_idx]])
        xb = (y * kcfg.weights(delta, b)) @ node_weight
        xh = (y * kcfg.weights(delta, b / 2.0)) @ node_weight
        return np.array([count, xb.sum(), np.dot(xb, xb), xh.sum(), np.dot(xh, xh)])

    return mc_collect(task, samples, seed, combine=np.add)


class TestChainIntegratedTables:
    @pytest.mark.parametrize("ident", ["const1", "bump"])
    def test_bit_identical_to_full_table_reference(self, ident):
        g = constant_one(GRID) if ident == "const1" else catalog_entry(GRID, ident)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        seed = SeedSpec(5150, 24)
        chain = chain_max_integrated(g, k, h, GRID, KernelConfig(), 4_000, seed)
        n, s1, s2, s1h, s2h = _chain_integrated_on_full_tables(
            g, k, h, GRID, chain.bandwidth, 4_000, seed, nodes=24
        )
        for est, (sum1, sum2) in ((chain.estimate, (s1, s2)),
                                  (chain.estimate_half, (s1h, s2h))):
            mean = sum1 / n
            var = max(0.0, (sum2 - n * mean * mean) / (n - 1))
            assert est.mean == mean
            assert est.std_error == math.sqrt(var / n)


class TestChainVsWeakPaired:
    @pytest.mark.parametrize("ident", ["const1", "bump"])
    @pytest.mark.parametrize("k_label", ["unit", "front-half"])
    def test_routes_bit_identical_to_separate_estimators(self, ident, k_label):
        g = constant_one(GRID) if ident == "const1" else catalog_entry(GRID, ident)
        h = Direction.constant(GRID)
        k = h if k_label == "unit" else Direction.indicator(GRID, 0.0, 0.5)
        seed = SeedSpec(5150, 25)
        weak, chain, diff = chain_vs_weak_paired(
            g, k, h, GRID, KernelConfig(), 4_000, seed, workers=2
        )
        assert weak == d2m_weak_estimator(g, k, h, GRID, 4_000, seed)
        assert chain == chain_max_integrated(g, k, h, GRID, KernelConfig(), 4_000, seed)
        assert diff.samples == 4_000

    def test_difference_matches_per_path_reference(self):
        # 64 substreams of 20 paths, one chunk each: redraw every path and
        # form the per-path difference weak - chain(b/2) from full tables
        g = catalog_entry(GRID, "bump")
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        kcfg = KernelConfig(bandwidth=0.3)
        seed = SeedSpec(5150, 26)
        samples, nodes = 1_280, 24
        weak, chain, diff = chain_vs_weak_paired(
            g, k, h, GRID, kcfg, samples, seed, nodes=nodes
        )
        t_idx = np.unique(np.round((np.arange(nodes) + 0.5) * GRID.n / nodes).astype(int))
        node_weight = h.density[t_idx] * (GRID.horizon / nodes)
        kp = k.primitive
        per_path = []
        for j in range(64):
            values = brownian_values_batch(seed.generator(j), samples // 64, GRID)
            w = values.max(axis=1) * second_adjoint_batch(g, k, h, values)
            fwd_max, fwd_arg, bwd_max, bwd_arg = running_max_tables(values)
            delta = bwd_max[:, t_idx] - fwd_max[:, t_idx]
            y = g.value(values)[:, None] * (kp[bwd_arg[:, t_idx]] - kp[fwd_arg[:, t_idx]])
            per_path.append(w - (y * kcfg.weights(delta, 0.15) * node_weight).sum(axis=1))
        d = np.concatenate(per_path)
        assert diff.mean == pytest.approx(d.mean(), rel=1e-9, abs=1e-12)
        assert diff.std_error == pytest.approx(d.std(ddof=1) / math.sqrt(len(d)), rel=1e-9)
        assert diff.mean == pytest.approx(weak.mean - chain.estimate_half.mean, abs=1e-12)

    def test_gate_fails_on_a_wrong_pairing(self, monkeypatch):
        # the chain route for bump against the weak route for const1 on
        # common paths: two different pairings, which the row must reject
        spec = ExperimentSpec("chain", "malliavin.chain_vs_weak",
                              dict(n=200, samples=200_000, nodes=24, g="bump"), 7)
        (honest,) = run_experiment(spec, 5150).rows
        assert honest.passed
        weak_values = malliavin._weak_values
        monkeypatch.setattr(
            malliavin, "_weak_values",
            lambda g, k, h, values: weak_values(constant_one(g.grid), k, h, values),
        )
        (wrong,) = run_experiment(spec, 5150).rows
        assert wrong.passed is False
        assert wrong.value > 2 * wrong.tolerance

    def test_rows_identical_across_workers(self):
        spec = ExperimentSpec("chain", "malliavin.chain_vs_weak",
                              dict(n=200, samples=5_000, nodes=24, g="bump"), 7)
        one, two = (run_experiment(spec, 5150, workers=w) for w in (1, 2))
        assert one.rows == two.rows
        assert one.series == two.series
        assert one.rows[0].samples == 5_000  # the paired path count


class TestSplitGapDensity:
    def test_kde_matches_quadrature(self):
        grid = TimeGrid(1000, 1.0)
        kde = split_gap_density_mc(
            500, grid, KernelConfig(), 150_000, SeedSpec(5150, 21)
        )
        ref = lt_zero_closed(1.0)
        assert abs(kde.estimate_half.mean - ref) / ref <= 0.05


class TestSigma:
    def test_monotone_paths(self):
        up = DiscretePath(GRID, np.linspace(0.0, 1.0, GRID.n + 1))
        down = DiscretePath(GRID, np.linspace(0.0, -1.0, GRID.n + 1))
        assert sigma_time(up) == GRID.horizon
        assert sigma_time(down) == 0.0
        assert sigma_functional(up).riemann_sum == pytest.approx(
            GRID.horizon, abs=GRID.step
        )
        assert sigma_functional(down).riemann_sum == 0.0

    def test_riemann_reconstruction_on_samples(self):
        for stream in range(5):
            stat = sigma_functional(brownian(30 + stream))
            assert abs(stat.sigma - stat.riemann_sum) <= GRID.step

    def test_fd_zero_fraction(self):
        frac = sigma_fd_zero_fraction(GRID, 500, SEED, FDConfig(eps=1e-6))
        assert frac >= 0.99
