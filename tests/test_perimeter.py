"""Gaussian perimeter values and their cross-checking estimators."""

import math

import numpy as np
import pytest

from maxbv.errors import InsufficientSamplesError
from maxbv.experiments import OPERATIONS
from maxbv.fluctuation import mc_bridge_stay_prob
from maxbv.perimeter import (
    HALFSPACE_PERIMETER,
    HalfspaceSpec,
    concentration_offband_mass,
    corollary_bounds_exact,
    halfspace_perimeter,
    restricted_perimeter_bridge,
    tube_perimeter,
)
from maxbv.reporting import verdict
from maxbv.sampling import SeedSpec

SEED = SeedSpec(321, 0)


class TestExact:
    def test_origin_value_matches_constant(self):
        for dim in (1, 2, 8, 64):
            assert halfspace_perimeter(HalfspaceSpec(np.ones(dim))) == HALFSPACE_PERIMETER

    def test_dimension_independence_any_normal(self):
        a = halfspace_perimeter(HalfspaceSpec(np.array([3.0]), 0.0))
        b = halfspace_perimeter(HalfspaceSpec(np.array([1.0, -2.0, 2.0]), 0.0))
        assert a == b == HALFSPACE_PERIMETER

    def test_far_offset_vanishes(self):
        assert halfspace_perimeter(HalfspaceSpec(np.ones(2), 50.0)) < 1e-100

    def test_unit_offset_is_density_at_one(self):
        est = halfspace_perimeter(HalfspaceSpec(np.array([1.0]), 1.0))
        assert est == pytest.approx(0.24197072451914337, rel=1e-12)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfspaceSpec(np.zeros(3))


@pytest.mark.parametrize("offset", [0.5, -1.0, 1.7])
def test_halfspace_rows_pass_at_any_offset(offset):
    run = OPERATIONS["perimeter.halfspace"].run
    (row,) = run({"dims": (1, 2, 3, 8, 64), "offset": offset}, SEED, 1).rows
    assert row.check == "dimension-independence"
    assert row.passed


class TestTube:
    def test_matches_exact_at_origin(self):
        spec = HalfspaceSpec(np.ones(4))
        est = tube_perimeter(spec, 0.01, 400_000, SEED)
        assert verdict(est.mean, HALFSPACE_PERIMETER, 3 * est.std_error + 1e-4)

    def test_huge_offset_estimates_zero(self):
        spec = HalfspaceSpec(np.ones(2), 40.0)
        est = tube_perimeter(spec, 0.05, 10_000, SEED)
        assert est.mean == 0.0


    @pytest.mark.parametrize("dim", [1, 3, 4])
    @pytest.mark.parametrize("offset", [0.5, -1.0, 1.7])
    def test_row_offset_is_a_distance(self, dim, offset):
        params = dict(dim=dim, offset=offset, eps=0.05, samples=20_000, slack=1e-4)
        (row,) = OPERATIONS["perimeter.tube"].run(params, SEED, 1).rows
        phi = math.exp(-0.5 * offset * offset) / math.sqrt(2.0 * math.pi)
        assert row.reference == pytest.approx(phi, rel=1e-15)
        assert row.passed


class TestRestrictedPerimeter:
    @pytest.mark.parametrize("n", [2, 10])
    def test_bridge_route_matches_lemma_value(self, n):
        est = restricted_perimeter_bridge(n, 200_000, SeedSpec(321, n))
        ref = HALFSPACE_PERIMETER / n
        assert verdict(est.mean, ref, 3 * est.std_error), (n, est.mean, ref)

    def test_scales_the_bridge_stay_estimate(self):
        seed = SeedSpec(321, 7)
        stay = mc_bridge_stay_prob(10, 20_000, seed)
        est = restricted_perimeter_bridge(10, 20_000, seed)
        assert est.mean == HALFSPACE_PERIMETER * stay.mean
        assert est.std_error == HALFSPACE_PERIMETER * stay.std_error
        assert est.samples == stay.samples

    def test_rescaled_estimates_agree_with_constant(self):
        for n in (2, 10, 50):
            est = restricted_perimeter_bridge(n, 100_000, SeedSpec(321, 50 + n))
            assert abs(n * est.mean - HALFSPACE_PERIMETER) <= 3 * n * est.std_error

    def test_methods_consistency(self):
        # exact, tube, and full-space bridge routes for the same halfspace
        spec = HalfspaceSpec(np.ones(3))
        exact = halfspace_perimeter(spec)
        tube = tube_perimeter(spec, 0.02, 200_000, SEED)
        bias = HALFSPACE_PERIMETER * 0.02**2 / 6  # sup|phi''| eps^2 / 6
        assert verdict(tube.mean, exact, 3 * tube.std_error + bias)
        # restricted to the whole space the bridge estimator is the constant
        # times probability one, i.e. exactly the perimeter value


class TestOffband:
    def test_band_wider_than_tube_is_exactly_zero(self):
        est = concentration_offband_mass(3, 0.02, 0.05, 200_000, SEED)
        assert est.mean == 0.0

    def test_half_band_gives_half_mass(self):
        est = concentration_offband_mass(3, 0.02, 0.01, 400_000, SEED)
        assert abs(est.mean - 0.5) <= 3 * est.std_error + 0.01

    def test_std_error_is_binomial(self):
        est = concentration_offband_mass(3, 0.02, 0.01, 400_000, SEED)
        p = est.mean
        assert 0 < p < 1
        assert est.std_error == pytest.approx(math.sqrt(p * (1 - p) / est.samples), rel=1e-14)

    def test_eps_below_band_vanishes(self):
        est = concentration_offband_mass(3, 0.005, 0.01, 400_000, SEED)
        assert est.mean == 0.0

    def test_insufficient_samples_flagged(self):
        with pytest.raises(InsufficientSamplesError):
            concentration_offband_mass(3, 1e-5, 5e-6, 1000, SEED)


def test_corollary_bounds_exact_to_64():
    assert corollary_bounds_exact(64)


def test_restricted_perimeter_below_reciprocal():
    # with constant 1: perimeter restricted mass <= 1/n since phi(0) < 1
    assert HALFSPACE_PERIMETER < 1.0


def test_corollary_row_fails_when_phi0_exceeds_one(monkeypatch):
    # phi(0) <= 1 is the whole restricted-perimeter bound, so breaking it
    # must fail the acceptance row
    from maxbv import perimeter

    def bounds_row():
        run = OPERATIONS["perimeter.corollary_bounds"].run
        (row,) = run({"max_n": 64}, SEED, 1).rows
        return row

    assert bounds_row().passed
    monkeypatch.setattr(perimeter, "HALFSPACE_PERIMETER", 1.01)
    assert not bounds_row().passed
