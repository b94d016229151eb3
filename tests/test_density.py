"""Reflection densities, the split-gap density, the discrete TV bound, the
moments of the walk maximum, and the limiting singular integral."""

import math

import numpy as np
import pytest
from scipy import integrate

from maxbv.density import (
    _quad,
    asymptotic_match,
    inner_arcsine_integral,
    limit_integral,
    limit_integral_riemann,
    lt_zero,
    lt_zero_closed,
    segment_max_density,
    segment_max_mass,
    tv_bound_discrete,
    walk_argmax_law,
    walk_max_moments,
)
from maxbv.experiments import OPERATIONS
from maxbv.fluctuation import chi_square_sf, halfline_prob_exact, halfline_prob_float
from maxbv.sampling import SeedSpec, walk_sums_batch

# NaN fails every comparison and inf passes "> 0", so a positivity check
# alone lets both through
BAD_LENGTHS = [math.nan, math.inf, 0.0, -1.0]


class TestSegmentMaxDensity:
    def test_value_at_zero(self):
        assert segment_max_density(0.0, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14
        )

    def test_negative_is_zero(self):
        assert segment_max_density(-0.3, 1.0) == 0.0

    def test_normalization_by_quadrature(self):
        for length in (0.25, 1.0, 4.0):
            mass, err = integrate.quad(
                lambda y: segment_max_density(y, length), 0, np.inf
            )
            assert abs(mass - 1.0) <= 1e-8

    def test_curve_mass_includes_tail(self):
        for length in (0.5, 1.0, 4.0):
            assert abs(segment_max_mass(length) - 1.0) <= 1e-6

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            segment_max_density(0.1, 0.0)

    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_density_rejects_a_non_finite_or_non_positive_length(self, length):
        with pytest.raises(ValueError, match="segment length must be finite and positive"):
            segment_max_density(0.1, length)

    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_mass_rejects_a_non_finite_or_non_positive_length(self, length):
        with pytest.raises(ValueError, match="segment length must be finite and positive"):
            segment_max_mass(length)


class TestSplitDensity:
    def test_matches_closed_form(self):
        assert lt_zero(0.5, 1.0) == pytest.approx(lt_zero_closed(1.0), abs=1e-10)

    def test_constant_in_split_point(self):
        values = [lt_zero(t, 1.0) for t in (0.25, 0.5, 0.75)]
        assert max(values) - min(values) <= 1e-10

    def test_symmetry(self):
        assert abs(lt_zero(0.25, 1.0) - lt_zero(0.75, 1.0)) <= 1e-10

    def test_horizon_scaling(self):
        # quadrupling the horizon halves the density at zero
        assert lt_zero(2.0, 4.0) == pytest.approx(0.5 * lt_zero(0.5, 1.0), abs=1e-8)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            lt_zero(0.0, 1.0)
        with pytest.raises(ValueError):
            lt_zero(1.0, 1.0)

    @pytest.mark.parametrize("horizon", BAD_LENGTHS)
    def test_rejects_a_non_finite_or_non_positive_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            lt_zero(0.5, horizon)

    @pytest.mark.parametrize("horizon", BAD_LENGTHS)
    def test_closed_form_rejects_a_non_finite_or_non_positive_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            lt_zero_closed(horizon)


class TestQuadrature:
    """The in-house Gauss-Kronrod rule against QUADPACK, on the integrands
    of the quadrature rows."""

    @pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 0.75])
    def test_lt_zero_integrand(self, t):
        def f(y):
            return segment_max_density(y, 1.0 - t) * segment_max_density(y, t)

        kw = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
        value, err = _quad(f, 0.0, np.inf, **kw)
        ref, _ = integrate.quad(f, 0.0, np.inf, **kw)
        assert abs(value - ref) <= 1e-12
        assert err <= 1e-10
        assert value == lt_zero(t, 1.0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
    def test_inner_arcsine_integrand(self, t):
        # the square-root substituted halves of inner_arcsine_integral
        def f(v):
            return 2.0 / math.sqrt(1.0 - t - v * v)

        upper = math.sqrt(0.5 * (1.0 - t))
        value, err = _quad(f, 0.0, upper, epsabs=1e-12, epsrel=1e-12)
        ref, _ = integrate.quad(f, 0.0, upper, epsabs=1e-12, epsrel=1e-12)
        assert abs(value - ref) <= 1e-12
        assert err <= 1e-10
        assert abs(inner_arcsine_integral(t) - 2.0 * ref) <= 1e-12

    def test_error_estimate_bounds_true_error(self):
        # one interval, no bisection: the sqrt endpoint singularity leaves a
        # visible error, which the estimate must cover
        value, err = _quad(math.sqrt, 0.0, 1.0, limit=1)
        assert 0.0 < abs(value - 2.0 / 3.0) <= err

    def test_bisection_reaches_tolerance(self):
        value, err = _quad(math.sqrt, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, limit=200)
        assert err <= 1e-10
        assert abs(value - 2.0 / 3.0) <= 1e-10


class TestTVBound:
    def test_n3_against_direct_enumeration(self):
        # every factor exact: stay-below probabilities 1, 1/2, 3/8 and the
        # perimeter-bridge value (2*pi)^(-1/2)/(k-m)
        p = [float(halfline_prob_exact(j)) for j in range(4)]
        total = 0.0
        boundary = 0.0
        for m in range(4):
            for k in range(m + 1, 4):
                term = p[m] * p[3 - k] / math.sqrt(k - m)
                total += term
                if m == 0 or k == 3:
                    boundary += term
        scale = math.sqrt(1.0 / 3.0) / math.sqrt(2.0 * math.pi)
        row = tv_bound_discrete(3, 1.0)
        assert row.total == pytest.approx(scale * total, rel=1e-12)
        assert row.boundary == pytest.approx(scale * boundary, rel=1e-12)
        assert row.total > 0

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_horizon(self, horizon):
        with pytest.raises(ValueError, match="finite and positive"):
            tv_bound_discrete(10, horizon)

    def test_horizon_scaling_exact(self):
        r1 = tv_bound_discrete(50, 1.0)
        r4 = tv_bound_discrete(50, 4.0)
        assert r4.total == 2.0 * r1.total
        assert r4.boundary == 2.0 * r1.boundary

    def test_sequence_trends(self):
        rows = [tv_bound_discrete(n, 1.0) for n in (100, 400, 800)]
        # bounded and slowly varying
        assert all(0 < r.total < 2.0 for r in rows)
        # boundary remainder strictly decreasing
        assert rows[0].boundary > rows[1].boundary > rows[2].boundary
        # bulk approaches the assembled constant sqrt(2/pi) from below
        ref = math.sqrt(2.0 / math.pi)
        gaps = [abs(r.bulk - ref) / ref for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            tv_bound_discrete(2, 1.0)

    def test_repeated_n_runs_once(self):
        # equal n give equal boundaries, so a repeat would fail the
        # strictly-decreasing row by construction
        run = OPERATIONS["density.tv_bound"].run

        def rows(ns):
            result = run({"n": ns, "horizon": 1.0}, SeedSpec(0, 0), 1)
            return [(r.check, r.value, r.passed) for r in result.rows], result.series

        assert rows((100, 100, 200)) == rows((100, 200))


def walk_maxima(m, step, samples, seed):
    """max(W_0, ..., W_m) of ``samples`` Gaussian walks with W_0 = 0."""
    rng = np.random.default_rng(seed)
    out = []
    for count in [10_000] * (samples // 10_000):
        walks = np.cumsum(rng.standard_normal((count, m)) * math.sqrt(step), axis=1)
        out.append(np.maximum(walks.max(axis=1), 0.0))
    return np.concatenate(out)


class TestWalkMaxMoments:
    @pytest.mark.parametrize("n", [3, 10, 100, 1000, 2000])
    def test_mean_is_the_tv_bound(self, n):
        # B(n) = E[max of the walk]: the pair sum of the bound is Spitzer's sum
        mean, _ = walk_max_moments(n, 2.0)
        assert mean == pytest.approx(tv_bound_discrete(n, 2.0).total, rel=1e-12)

    def test_one_and_two_steps_closed_form(self):
        d = 0.3
        _, var1 = walk_max_moments(1, d)
        assert var1 == pytest.approx(d * (0.5 - 1.0 / (2.0 * math.pi)), rel=1e-14)
        # E M^2 = D + D/(2 pi) and E M = sqrt(D/(2 pi)) (1 + 1/sqrt 2) at m = 2
        _, var2 = walk_max_moments(2, 2.0 * d)
        c = d / (2.0 * math.pi)
        assert var2 == pytest.approx(d + c - c * (1.0 + 1.0 / math.sqrt(2.0)) ** 2,
                                     rel=1e-14)

    @pytest.mark.parametrize("m", [5, 20, 100])
    def test_variance_against_sampled_maxima(self, m):
        step = 0.01
        x = walk_maxima(m, step, 200_000, 8800 + m)
        mean, var = walk_max_moments(m, m * step)
        centred = x - x.mean()
        s2 = float(np.mean(centred**2))
        se = math.sqrt((float(np.mean(centred**4)) - s2 * s2) / len(x))
        assert abs(x.var(ddof=1) - var) <= 3.0 * se
        assert abs(x.mean() - mean) <= 3.0 * x.std() / math.sqrt(len(x))

    def test_split_gap_std_tends_to_the_continuum(self):
        # the gap at the middle node is the difference of two independent
        # maxima of n/2-step walks; in the continuum each has variance
        # (T/2)(1 - 2/pi)
        def gap_std(n):
            half = walk_max_moments(n // 2, 0.5)[1]
            return math.sqrt(2.0 * half)

        limit = math.sqrt(1.0 - 2.0 / math.pi)
        assert gap_std(2000) == pytest.approx(0.602755, abs=5e-7)
        errors = [limit - gap_std(n) for n in (250, 500, 1000, 2000)]
        assert all(e > 0 for e in errors)
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-4

    def test_rejects_empty_walk_and_horizon(self):
        with pytest.raises(ValueError):
            walk_max_moments(0, 1.0)
        with pytest.raises(ValueError):
            walk_max_moments(5, 0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_horizon(self, horizon):
        # NaN fails every comparison and inf passes horizon > 0, so both
        # slipped past a positivity check into (nan, nan) and (inf, nan)
        with pytest.raises(ValueError, match="finite and positive"):
            walk_max_moments(10, horizon)


def argmax_law_p_value(law, counts):
    """chi-square p-value of first-argmax counts against a law."""
    expected = counts.sum() * law
    x = float(((counts - expected) ** 2 / expected).sum())
    return chi_square_sf(len(law) - 1, x)


class TestWalkArgmaxLaw:
    @pytest.mark.parametrize("n", [1, 2, 10, 1000, 2000])
    def test_sums_to_one_and_is_symmetric(self, n):
        law = walk_argmax_law(n)
        assert law.shape == (n + 1,)
        assert abs(math.fsum(law) - 1.0) <= 1e-12
        assert np.array_equal(law, law[::-1])

    @pytest.fixture(scope="class")
    def counts(self):
        # first argmax of 200k walks of 20 steps, in 4 chunks of 50k
        rng = SeedSpec(8800, 1).generator()
        return sum(
            np.bincount(walk_sums_batch(rng, 50_000, 20).argmax(axis=1), minlength=21)
            for _ in range(4)
        )

    def test_matches_the_sampled_first_argmax(self, counts):
        assert argmax_law_p_value(walk_argmax_law(20), counts) > 1e-3

    def test_law_from_shifted_stay_below_fails(self, counts):
        # p(j+1) for p(j): the same chi-square test must see it
        p = np.array([halfline_prob_float(j + 1) for j in range(21)])
        law = p * p[::-1]
        assert argmax_law_p_value(law / law.sum(), counts) < 1e-3

    def test_rejects_an_empty_walk(self):
        with pytest.raises(ValueError):
            walk_argmax_law(0)


class TestLimitIntegral:
    def test_inner_is_pi_for_several_t(self):
        for t in (0.0, 0.1, 0.3, 0.7, 0.95):
            assert inner_arcsine_integral(t) == pytest.approx(math.pi, abs=1e-8)

    def test_value_is_two_pi(self):
        value, error = limit_integral()
        assert value == pytest.approx(2.0 * math.pi, abs=1e-6)
        assert error < 1e-8

    def test_riemann_approaches_from_below(self):
        r200 = limit_integral_riemann(200)
        r2000 = limit_integral_riemann(2000)
        ref = 2.0 * math.pi
        assert r200 < r2000 < ref
        assert abs(r2000 - ref) / ref <= 0.05


class TestAsymptote:
    def test_limit_constant(self):
        a = asymptotic_match(10_000)
        assert a.reference == pytest.approx(0.5641895835477563, rel=1e-12)
        assert a.scaled_value == pytest.approx(a.reference, rel=1e-4)

    def test_gap_bounds(self):
        assert asymptotic_match(10).relative_gap < 0.03
        assert asymptotic_match(1000).relative_gap < 3e-4

    def test_rows_pair_each_n_with_its_bound(self):
        run = OPERATIONS["density.asymptote"].run

        def rows(ns, bounds):
            result = run({"n": ns, "bounds": bounds}, SeedSpec(0, 0), 1)
            return [(r.check, r.value, r.reference, r.passed) for r in result.rows]

        ordered = rows((10, 100), (0.03, 0.003))
        assert all(passed for *_, passed in ordered)
        assert rows((100, 10), (0.003, 0.03)) == ordered

    def test_stirling_remainder_scaling(self):
        # gap ~ 1/(8n): check within a factor of 2 at two sizes
        for n in (50, 500):
            gap = asymptotic_match(n).relative_gap
            assert 0.5 / (8 * n) < gap < 2.0 / (8 * n)
