"""Finite-difference operators, adjoint estimators, and the kernel route."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from maxbv import concentration, malliavin
from maxbv.cylindrical import catalog, catalog_entry, constant_one
from maxbv.errors import InsufficientSamplesError
from maxbv.malliavin import (
    FDConfig,
    KernelConfig,
    SplitKernel,
    adjoint2_means,
    chain_vs_weak_paired,
    second_adjoint_batch,
    second_difference_zero_fraction,
    separating_direction,
    sigma_fd_zero_fraction,
    sigma_functional,
    sigma_time,
    split_gap_density_mc,
    split_nodes,
    tied_peak_second_differences,
    two_peak_path,
    verify_grad_max,
)
from maxbv.density import lt_zero_closed, walk_max_moments
from maxbv.experiments import ExperimentSpec, run_experiment
from maxbv.paths import (
    _ROW_BLOCK,
    Direction,
    TimeGrid,
    direction_catalog,
    direction_inner,
    running_max_tables,
    wiener_integral_batch,
)
from maxbv.reporting import verdict
from maxbv.sampling import (
    DEFAULT_CHUNK,
    N_SUBSTREAMS,
    SeedSpec,
    brownian_values_batch,
    mc_collect,
    mc_run,
    stream_counts,
)

GRID = TimeGrid(400, 1.0)
SEED = SeedSpec(5150, 0)
CFG = FDConfig(eps=1e-5)


def brownian(stream=0, grid=GRID):
    """The node values of one Brownian path."""
    return brownian_values_batch(SeedSpec(5150, stream).generator(), 1, grid)[0]


def fd_directional(F, values, h, cfg):
    """Central difference (F(w + eps h) - F(w - eps h)) / (2 eps): the
    oracle of the gradient identity."""
    up = F(values + cfg.eps * h.primitive)
    down = F(values - cfg.eps * h.primitive)
    return (up - down) / (2.0 * cfg.eps)


def fd_second(F, values, h, k, eps):
    """Central mixed second difference of F along (h, k) on one path, with
    the alternating sum certified to 0 below rounding: the single-path
    oracle of the batch kernel ``malliavin._max_second_difference``."""
    plus = h.primitive + k.primitive
    minus = h.primitive - k.primitive
    total = malliavin._second_difference_sum(
        F(values + eps * plus), F(values + eps * minus),
        F(values - eps * minus), F(values - eps * plus),
    )
    return float(total) / (4.0 * eps * eps)


class TestFDDirectional:
    def test_terminal_value_is_linear(self):
        path = brownian(1)
        for h in (Direction.constant(GRID), Direction.indicator(GRID, 0.2, 0.7)):
            fd = fd_directional(lambda w: float(w[-1]), path, h, CFG)
            assert fd == pytest.approx(h.primitive[-1], abs=1e-9)

    def test_max_gradient_is_primitive_at_argmax(self):
        path = brownian(2)
        h = Direction.constant(GRID)
        stat = sigma_time(GRID, path)
        fd = fd_directional(np.max, path, h, CFG)
        assert fd == pytest.approx(stat, abs=1e-9)

    def test_density_supported_past_argmax_gives_zero(self):
        path = brownian(3)
        sigma = sigma_time(GRID, path)
        if sigma > 0.95:  # need room after the argmax
            path = brownian(4)
            sigma = sigma_time(GRID, path)
        h = Direction.indicator(GRID, sigma + 0.01, 1.0)
        fd = fd_directional(np.max, path, h, CFG)
        assert fd == 0.0

    def test_constant_functional(self):
        fd = fd_directional(lambda p: 3.25, brownian(5), Direction.constant(GRID), CFG)
        assert fd == 0.0


class TestFDSecond:
    def test_linear_functional_exactly_zero(self):
        path = brownian(6)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        val = fd_second(lambda w: float(w[-1]), path, h, k, 1e-3)
        assert val == 0.0

    def test_max_zero_off_tie_set(self):
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        zeros = 0
        for stream in range(20):
            path = brownian(100 + stream)
            val = fd_second(np.max, path, h, k, 1e-3)
            zeros += val == 0.0
        assert zeros >= 19  # ties are excluded by chance only

    def test_batch_kernel_is_the_single_path_oracle(self):
        eps = 1e-3
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        sep = separating_direction(GRID)
        rows = np.stack([brownian(100 + stream) for stream in range(20)])
        for values, a, b in [(rows, h, k), (two_peak_path(GRID)[None], sep, sep)]:
            got = malliavin._max_second_difference(values, a, b, eps) / (4.0 * eps * eps)
            assert got.tolist() == [fd_second(np.max, w, a, b, eps) for w in values]
        tied = abs(fd_second(np.max, two_peak_path(GRID), sep, sep, eps))
        assert tied_peak_second_differences(GRID, eps, halvings=0) == [tied]

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
        val = fd_second(np.max, path, h, h, eps)
        s0, s1 = 0.3, 0.7
        expected = (h.primitive[round(s1 * GRID.n)] - h.primitive[round(s0 * GRID.n)]) / (
            2 * eps
        )
        assert abs(val) == pytest.approx(expected, rel=1e-6)


class TestGradMaxSweep:
    def test_high_pass_fraction(self):
        ests = verify_grad_max(GRID, 400, SEED, FDConfig(eps=1e-5, tolerance=1e-6))
        assert list(ests) == ["unit", "front-half", "tent"]
        for est in ests.values():
            assert 0 < est.samples <= 400  # the rest are excluded
            assert est.mean == 1.0

    def test_second_difference_fraction(self):
        est = second_difference_zero_fraction(GRID, 400, SEED, FDConfig(eps=1e-3))
        assert est.mean == 1.0
        assert est.samples > 0

    def test_no_checked_path_reads_zero_and_fails_the_row(self, monkeypatch):
        monkeypatch.setattr(malliavin, "tie_exclusion_threshold", lambda eps, *d: math.inf)
        spec = ExperimentSpec("grad", "malliavin.grad_max", dict(n=100, samples=200), 3)
        rows = run_experiment(spec, 5150).rows
        assert len(rows) == 3
        for row in rows:
            assert (row.value, row.samples, row.passed) == (0.0, 0, False)


# ---------------------------------------------------------------------------
# The counting fractions against plain numpy counts on mc_collect's stream plan
# ---------------------------------------------------------------------------

SMALL = TimeGrid(50, 1.0)
# 70_001 draws: 1,094 or 1,093 per stream, so every stream runs two chunks
DRAWS = 70_001


def reference_counts(per_path, draws=DRAWS, grid=SMALL, seed=SEED):
    """Column sums (c, h) of ``per_path(values)`` over the Brownian chunks of
    mc_collect's stream plan for ``draws`` draws."""
    c = h = 0
    for j, count in enumerate(stream_counts(draws)):
        rng = seed.generator(j)
        while count > 0:
            chunk = min(count, DEFAULT_CHUNK)
            included, ok = per_path(brownian_values_batch(rng, chunk, grid))
            c, h = c + included.sum(axis=0), h + ok.sum(axis=0)
            count -= chunk
    return c, h


def gap_reference(values):
    top = np.sort(values, axis=1)
    return top[:, -1] - top[:, -2]


def bumped_max(values, eps, direction):
    return (values + eps * direction).max(axis=1)


@pytest.mark.parametrize("workers", [1, 2])
class TestCountingFractionsMatchReference:
    def test_grad_max(self, workers):
        # a tolerance near the rounding error of the difference, so some fail
        cfg = FDConfig(eps=1e-5, tolerance=2e-11)
        dirs = direction_catalog(SMALL)

        def per_path(w):
            gap, arg = gap_reference(w), w.argmax(axis=1)
            cols = []
            for d in dirs:
                hp = d.primitive
                fd = (bumped_max(w, cfg.eps, hp) - bumped_max(w, -cfg.eps, hp)) / (2 * cfg.eps)
                checked = gap > 10 * cfg.eps * d.sup_primitive
                cols.append((checked, checked & (np.abs(fd - hp[arg]) <= cfg.tolerance)))
            return tuple(np.column_stack(x) for x in zip(*cols))

        c, h = reference_counts(per_path)
        ests = verify_grad_max(SMALL, DRAWS, SEED, cfg, workers=workers)
        assert (0 < h).all() and (h < c).all() and (c < DRAWS).all()
        for i, est in enumerate(ests.values()):
            assert est.samples == c[i]
            assert est.mean == h[i] / c[i]

    def test_second_difference(self, workers):
        eps = 1e-3
        const, front = Direction.constant(SMALL), Direction.indicator(SMALL, 0.0, 0.5)
        plus, minus = const.primitive + front.primitive, const.primitive - front.primitive
        threshold = 10 * eps * (const.sup_primitive + front.sup_primitive)

        def per_path(w):
            f = [bumped_max(w, eps, plus), bumped_max(w, eps, minus),
                 bumped_max(w, -eps, minus), bumped_max(w, -eps, plus)]
            raw = f[0] - f[1] - f[2] + f[3]
            zero = np.abs(raw) <= 32 * np.finfo(float).eps * np.max(np.abs(f), axis=0)
            checked = gap_reference(w) > threshold
            return checked, checked & zero

        c, h = reference_counts(per_path)
        est = second_difference_zero_fraction(SMALL, DRAWS, SEED, FDConfig(eps=eps),
                                              workers=workers)
        assert 0 < h <= c < DRAWS
        assert (est.samples, est.mean) == (c, h / c)

    def test_sigma(self, workers):
        eps = 1e-2
        hp = Direction.constant(SMALL).primitive

        def per_path(w):
            same = (w + eps * hp).argmax(axis=1) == (w - eps * hp).argmax(axis=1)
            return np.ones_like(same), same

        c, h = reference_counts(per_path)
        est = sigma_fd_zero_fraction(SMALL, DRAWS, SEED, FDConfig(eps=eps), workers=workers)
        assert c == DRAWS and 0 < h < c
        assert (est.samples, est.mean) == (c, h / c)


class TestSecondAdjoint:
    def test_constant_formula_exact(self):
        path = brownian(7)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        val = float(second_adjoint_batch(constant_one(GRID), k, h, path))
        ik, ih = wiener_integral_batch((k, h), path)
        expected = ik * ih - direction_inner(k, h)
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ident", ["coord", "bump"])
    def test_mean_zero(self, ident):
        g = catalog_entry(GRID, ident)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        (est,) = adjoint2_means([(g, None)], k, h, GRID, 50_000, SeedSpec(5150, 8))
        assert verdict(est.mean, 0.0, 3 * est.std_error), (ident, est.mean, est.std_error)

    def test_weighted_by_coordinate_mean_zero(self):
        h = Direction.constant(GRID)
        k = Direction.constant(GRID)
        (est,) = adjoint2_means(
            [(constant_one(GRID), catalog_entry(GRID, "coord"))], k, h, GRID, 50_000,
            SeedSpec(5150, 9),
        )
        assert verdict(est.mean, 0.0, 3 * est.std_error)

    def test_shared_draw_rows_equal_single_pair_runs(self):
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        coord = catalog_entry(GRID, "coord")
        pairs = [(constant_one(GRID), None), (catalog_entry(GRID, "bump"), None),
                 (constant_one(GRID), coord)]
        seed = SeedSpec(5150, 23)
        many = adjoint2_means(pairs, k, h, GRID, 3_000, seed, workers=2)
        for (g, weight), est in zip(pairs, many):
            assert [est] == adjoint2_means([(g, weight)], k, h, GRID, 3_000, seed)

    def test_disjoint_zero_densities(self):
        path = brownian(10)
        zero = Direction(GRID, np.zeros(GRID.n), label="null")
        val = float(second_adjoint_batch(constant_one(GRID), zero, zero, path))
        assert val == 0.0

    def test_pathwise_symmetric_in_directions(self):
        assert direction_asymmetries() == []

    def test_pathwise_symmetry_catches_an_asymmetric_adjoint(self, monkeypatch):
        def dh_for_dk(g, k, h, values):
            integral_k, integral_h = wiener_integral_batch((k, h), values)
            gv = g.value(values)
            dh = g.directional(values, h)
            return (g.second_directional(values, k, h) - dh * integral_h
                    - gv * direction_inner(k, h) - integral_k * (dh - gv * integral_h))

        monkeypatch.setattr(malliavin, "second_adjoint_batch", dh_for_dk)
        failed = {ident for ident, _, _ in direction_asymmetries()}
        assert failed == {g.ident for g in catalog(GRID)} - {"const1"}


def direction_asymmetries():
    """(g, k, h) for each catalog g and ordered pair of catalog directions
    where d*_k(d*_h g) and d*_h(d*_k g) differ on 2,000 paths at n=500: by
    any bit for g = 1, by more than 1e-12 * max(1, |value|) otherwise."""
    grid = TimeGrid(500, 1.0)
    values = brownian_values_batch(SeedSpec(5150, 30).generator(), 2_000, grid)
    failed = []
    for g in catalog(grid):
        for k, h in itertools.permutations(direction_catalog(grid), 2):
            a = malliavin.second_adjoint_batch(g, k, h, values)
            b = malliavin.second_adjoint_batch(g, h, k, values)
            if g.ident == "const1":
                same = np.array_equal(a, b)
            else:
                same = bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a))))
            if not same:
                failed.append((g.ident, k.label, h.label))
    return failed


def weak_reference(g, k, h, grid, samples, seed):
    """The double integration-by-parts estimate E[M * d*_k(d*_h g)], written
    out here rather than read from the paired route, so that route has an
    independent reference."""

    def statistic(rng, count):
        values = brownian_values_batch(rng, count, grid)
        return values.max(axis=1) * second_adjoint_batch(g, k, h, values)

    return mc_run(statistic, samples, seed)


class TestWeakEstimator:
    def test_matches_continuum_closed_form(self):
        # E[M * (W_T^2 - T)] = sqrt(2/pi) T^(3/2) / 3 in the continuum; the
        # discrete-monitoring bias of the maximum is O(sqrt(T/n))
        g = constant_one(GRID)
        h = Direction.constant(GRID)
        est = weak_reference(g, h, h, GRID, 150_000, SeedSpec(5150, 11))
        ref = math.sqrt(2.0 / math.pi) / 3.0
        allowance = 0.8 / math.sqrt(GRID.n)
        assert abs(est.mean - ref) <= 3 * est.std_error + allowance


def chain_at_midpoint(k, kcfg, samples, seed):
    """The split-point estimate of g = 1 at the single node t = T/2, with
    unit node weight."""
    h = Direction.constant(GRID)
    return chain_vs_weak_paired(constant_one(GRID), k, h, GRID, kcfg, samples, seed,
                                nodes=1)[1]


class TestChainMax:
    def test_positive_for_unit_direction(self):
        # argmax times are ordered across the split, so the estimand is > 0
        ch = chain_at_midpoint(Direction.constant(GRID), KernelConfig(), 50_000,
                               SeedSpec(5150, 14))
        assert ch.estimate.mean - 3 * ch.estimate.std_error > 0
        assert ch.effective_samples >= 100

    def test_zero_density_direction_gives_zero(self):
        zero = Direction(GRID, np.zeros(GRID.n), label="null")
        ch = chain_at_midpoint(zero, KernelConfig(), 5_000, SeedSpec(5150, 15))
        assert ch.estimate.mean == 0.0

    def test_bandwidth_flag(self):
        with pytest.raises(InsufficientSamplesError):
            chain_at_midpoint(Direction.constant(GRID), KernelConfig(bandwidth=1e-9),
                              2_000, SeedSpec(5150, 16))

    def test_integrated_matches_weak_route(self):
        g = constant_one(GRID)
        h = Direction.constant(GRID)
        weak = weak_reference(g, h, h, GRID, 100_000, SeedSpec(5150, 19))
        _, chain, _ = chain_vs_weak_paired(
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


def assert_chain_on_full_tables(chain, g, k, h, samples, seed):
    n, s1, s2, s1h, s2h = _chain_integrated_on_full_tables(
        g, k, h, GRID, chain.bandwidth, samples, seed, nodes=24
    )
    for est, (sum1, sum2) in ((chain.estimate, (s1, s2)),
                              (chain.estimate_half, (s1h, s2h))):
        mean = sum1 / n
        var = max(0.0, (sum2 - n * mean * mean) / (n - 1))
        assert est.mean == mean
        assert est.std_error == math.sqrt(var / n)


class TestChainIntegratedTables:
    @pytest.mark.parametrize("ident", ["const1", "bump"])
    def test_bit_identical_to_full_table_reference(self, ident):
        g = constant_one(GRID) if ident == "const1" else catalog_entry(GRID, ident)
        h = Direction.constant(GRID)
        k = Direction.indicator(GRID, 0.0, 0.5)
        seed = SeedSpec(5150, 24)
        _, chain, _ = chain_vs_weak_paired(g, k, h, GRID, KernelConfig(), 4_000, seed)
        assert_chain_on_full_tables(chain, g, k, h, 4_000, seed)


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
        assert weak == weak_reference(g, k, h, GRID, 4_000, seed)
        assert_chain_on_full_tables(chain, g, k, h, 4_000, seed)
        assert diff.samples == 4_000

    def test_effective_samples_is_the_least_covered_node(self):
        # 64 substreams of 20 paths, one chunk each: redraw every path and
        # count, per node, the paths whose split gap lies in the window
        h = Direction.constant(GRID)
        kcfg = KernelConfig(bandwidth=0.2)
        seed = SeedSpec(5150, 27)
        samples, nodes = 1_280, 24
        _, chain, _ = chain_vs_weak_paired(
            constant_one(GRID), h, h, GRID, kcfg, samples, seed, nodes=nodes
        )
        t_idx = malliavin.split_nodes(GRID.n, nodes)
        inside = np.zeros(nodes, dtype=np.int64)
        for j in range(64):
            values = brownian_values_batch(seed.generator(j), samples // 64, GRID)
            fwd_max, _, bwd_max, _ = running_max_tables(values)
            delta = bwd_max[:, t_idx] - fwd_max[:, t_idx]
            inside += (np.abs(delta) <= kcfg.bandwidth).sum(axis=0)
        assert chain.effective_samples == inside.min()

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


class TestExactBandwidth:
    @pytest.mark.parametrize("n", [400, 1000])
    @pytest.mark.parametrize("nodes", [1, 24])
    def test_within_3se_of_the_one_shot_pilot(self, n, nodes):
        # the bandwidth is samples^(-1/5) times the exact std of the split
        # gap at the middle node, bit for bit
        grid = TimeGrid(n, 1.0)
        t_idx = split_nodes(n, nodes)
        t = int(t_idx[len(t_idx) // 2])
        samples = 50_000
        right = walk_max_moments(n - t, (n - t) * grid.step)[1]
        left = walk_max_moments(t, t * grid.step)[1]
        std = math.sqrt(right + left)
        kernel = SplitKernel.build(grid, t_idx, np.ones(nodes), KernelConfig(), samples)
        assert kernel.bandwidth == samples**-0.2 * std
        # the former pilot: 4096 paths drawn in one batch from stream branch
        # 10_000, and the std of their gap at the middle node
        pilot = brownian_values_batch(SEED.generator(10_000), 4096, grid)
        fwd_max, _, bwd_max, _ = running_max_tables(pilot)
        gaps = bwd_max[:, t] - fwd_max[:, t]
        centred = gaps - gaps.mean()
        s2 = float(np.mean(centred**2))
        se = math.sqrt((float(np.mean(centred**4)) - s2 * s2) / len(gaps)) / (2.0 * std)
        assert abs(float(np.std(gaps)) - std) <= 3.0 * se


#: The driver chunks and the row blocks scale with n, so a small n measures
#: their ratio.
BUDGET_GRID = TimeGrid(100, 1.0)


def _budget_calls(grid):
    """The path-batch estimators, at full driver chunks, with auto bandwidth
    where they have a kernel."""
    h = Direction.constant(grid)
    k = Direction.indicator(grid, 0.0, 0.5)
    t = grid.n // 2
    bump = catalog_entry(grid, "bump")
    return {
        "chain_vs_weak_paired": lambda s: chain_vs_weak_paired(
            bump, k, h, grid, KernelConfig(), s, SEED, nodes=4),
        "split_gap_density_mc": lambda s: split_gap_density_mc(
            t, grid, KernelConfig(), s, SEED),
        "adjoint2_means": lambda s: adjoint2_means(
            [(constant_one(grid), None), (bump, None)], k, h, grid, s, SEED),
        "verify_grad_max": lambda s: verify_grad_max(grid, s, SEED, CFG),
        "unique_max_check": lambda s: concentration.unique_max_check(
            grid, (0.1, 0.01), s, SEED),
        "excess_conditional_ladder": lambda s: concentration.excess_conditional_ladder(
            t, 0.05, [0.2, 0.05], grid, s, SEED),
        "double_max_ladder": lambda s: concentration.double_max_ladder(
            t, [0.1, 1e9], 0.05, grid, s, SEED),
    }


def _traced_peak(call, samples):
    """Traced peak in bytes of ``call(samples)``."""
    call(2_000)  # first-call allocations (lazy imports, caches) are not paths
    tracemalloc.start()
    try:
        call(samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _budget_peak(name, streams_of_chunks=1):
    """Traced peak of one budget call, in ``DEFAULT_CHUNK`` path buffers,
    at ``streams_of_chunks`` full chunks per substream."""
    call = _budget_calls(BUDGET_GRID)[name]
    peak = _traced_peak(call, streams_of_chunks * N_SUBSTREAMS * DEFAULT_CHUNK)
    return peak / (DEFAULT_CHUNK * (BUDGET_GRID.n + 1) * 8)


class TestMemoryBudget:
    """No estimator holds more than three driver chunks of paths."""

    @pytest.mark.parametrize("name", list(_budget_calls(BUDGET_GRID)))
    def test_peak_within_three_chunk_buffers(self, name):
        assert _budget_peak(name) <= 3

    @pytest.mark.parametrize("name", ["chain_vs_weak_paired", "adjoint2_means"])
    def test_chain_route_holds_one_path_buffer(self, name):
        # the Wiener increments come in row blocks, so the chunk's paths
        # are the one path-sized array: measured 1.43 and 1.31 (2.19 and
        # 2.17 with whole-chunk increments)
        assert _budget_peak(name) <= 1.5


CENSUS = ["unique_max_check", "excess_conditional_ladder", "double_max_ladder"]


class TestCensusMemoryBudget:
    """The concentration estimators draw one row block per chunk, read the
    -W views from W without a second path buffer, and fold each stream's
    results as they arrive, so their peak does not grow with the samples.
    Measured, at one and four DEFAULT_CHUNKs per substream: 0.13/0.13,
    0.14/0.14 and 0.17/0.17 DEFAULT_CHUNK path buffers for unique_max_check,
    excess_conditional_ladder and double_max_ladder, and at n = 1000 2.01,
    2.02 and 2.08 row-block path buffers: the chunk's paths and the cumsum
    temporary of one row block.  With 256-row chunks they read 0.32/0.32,
    0.42/0.41 and 0.43/0.45, and 5.01, 6.06 and 6.09 row blocks."""

    @pytest.mark.parametrize("streams_of_chunks", [1, 4])
    @pytest.mark.parametrize("name", CENSUS)
    def test_peak_half_a_chunk(self, name, streams_of_chunks):
        assert _budget_peak(name, streams_of_chunks) <= 0.2

    @pytest.mark.parametrize("name", CENSUS)
    def test_peak_in_row_blocks_at_n1000(self, name):
        grid = TimeGrid(1000, 1.0)
        # 65,536 paths: 8 (unique_max) or 4 (ladders) row blocks per substream
        peak = _traced_peak(_budget_calls(grid)[name], 16 * N_SUBSTREAMS * _ROW_BLOCK)
        assert peak / (_ROW_BLOCK * (grid.n + 1) * 8) <= 2.5


class TestSigma:
    def test_monotone_paths(self):
        up = np.linspace(0.0, 1.0, GRID.n + 1)
        down = np.linspace(0.0, -1.0, GRID.n + 1)
        assert sigma_time(GRID, up) == GRID.horizon
        assert sigma_time(GRID, down) == 0.0
        assert sigma_functional(GRID, up)[1] == pytest.approx(GRID.horizon, abs=GRID.step)
        assert sigma_functional(GRID, down)[1] == 0.0

    def test_riemann_reconstruction_on_samples(self):
        for stream in range(5):
            sigma, riemann_sum = sigma_functional(GRID, brownian(30 + stream))
            assert abs(sigma - riemann_sum) <= GRID.step

    def test_fd_zero_fraction(self):
        est = sigma_fd_zero_fraction(GRID, 500, SEED, FDConfig(eps=1e-6))
        assert est.samples == 500
        assert est.mean >= 0.99

    def test_gradient_identity_row_fails_when_sigma_is_off(self, monkeypatch):
        # the row is the check: a sigma two cells late must read FAIL
        spec = ExperimentSpec("sigma", "malliavin.sigma_flat",
                              dict(n=100, samples=200, eps=1e-6), 3)

        def identity_row():
            rows = run_experiment(spec, 5150).rows
            return next(r for r in rows if r.check == "argmax-time-running-gradient-identity")

        assert identity_row().passed is True
        step = TimeGrid(100, 1.0).step
        monkeypatch.setattr(malliavin, "sigma_time",
                            lambda grid, values: sigma_time(grid, values) + 2 * step)
        row = identity_row()
        assert row.passed is False
        assert row.value > row.tolerance
