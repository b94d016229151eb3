"""Cylindrical functionals: exact derivatives against finite differences,
the Skorokhod adjoint formula, and the integration-by-parts dualities."""

import numpy as np
import pytest

from maxbv.cylindrical import catalog, catalog_entry, constant_one
from maxbv.paths import Direction, TimeGrid, wiener_integral_batch
from maxbv.reporting import verdict
from maxbv.sampling import SeedSpec, brownian_values_batch, mc_run

GRID = TimeGrid(128, 1.0)
SEED = SeedSpec(91, 0)


def adjoint(g, h, values):
    """Skorokhod adjoint of d_h applied to g: d_h g - g * I(h), with I the
    discrete Wiener integral of h' against the path increments."""
    return g.directional(values, h) - g.value(values) * wiener_integral_batch((h,), values)[0]


def fd_gradient(outer, x, eps=1e-6):
    d = len(x)
    out = np.zeros(d)
    for j in range(d):
        up, down = x.copy(), x.copy()
        up[j] += eps
        down[j] -= eps
        out[j] = (outer.value(up) - outer.value(down)) / (2 * eps)
    return out


def fd_hessian(outer, x, eps=1e-4):
    d = len(x)
    out = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[j] += eps
            xpp[k] += eps
            xpm[j] += eps
            xpm[k] -= eps
            xmp[j] -= eps
            xmp[k] += eps
            xmm[j] -= eps
            xmm[k] -= eps
            out[j, k] = (
                outer.value(xpp) - outer.value(xpm) - outer.value(xmp) + outer.value(xmm)
            ) / (4 * eps * eps)
    return out


class TestOuterDerivatives:
    @pytest.mark.parametrize("ident", ["coord", "quad", "cubic", "bump", "sigmoid"])
    def test_grad_and_hess_match_finite_differences(self, ident):
        g = catalog_entry(GRID, ident)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(scale=0.8, size=len(g.indices))
            np.testing.assert_allclose(
                g.outer.grad(x), fd_gradient(g.outer, x), rtol=1e-5, atol=1e-7
            )
            np.testing.assert_allclose(
                g.outer.hess(x), fd_hessian(g.outer, x), rtol=1e-3, atol=1e-5
            )

    def test_hessian_symmetric(self):
        for g in catalog(GRID):
            if not g.indices:
                continue
            x = np.array([0.3, -0.7])[: len(g.indices)]
            H = g.outer.hess(x)
            np.testing.assert_allclose(H, H.T)

    def test_batch_broadcasting(self):
        g = catalog_entry(GRID, "bump")
        values = brownian_values_batch(np.random.default_rng(0), 7, GRID)
        assert g.value(values).shape == (7,)
        h = Direction.constant(GRID)
        assert g.directional(values, h).shape == (7,)


class TestAdjoint:
    def test_constant_gives_minus_integral(self):
        (values,) = brownian_values_batch(SEED.generator(), 1, GRID)
        h = Direction.constant(GRID)
        (integral,) = wiener_integral_batch((h,), values)
        assert adjoint(constant_one(GRID), h, values) == -integral

    def test_coordinate_formula(self):
        # g = w at node i, unit density: adjoint = t_i - w_i * w_n
        (values,) = brownian_values_batch(SEED.generator(), 1, GRID)
        g = catalog_entry(GRID, "coord")
        h = Direction.constant(GRID)
        i = g.indices[0]
        expected = h.primitive[i] - values[i] * values[-1]
        assert adjoint(g, h, values) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ident", ["const1", "coord", "quad", "cubic", "bump", "sigmoid"])
    def test_adjoint_mean_zero(self, ident):
        g = catalog_entry(GRID, ident) if ident != "const1" else constant_one(GRID)
        h = Direction.indicator(GRID, 0.0, 0.75, label="front")
        est = mc_run(
            lambda rng, c: adjoint(g, h, brownian_values_batch(rng, c, GRID)),
            100_000,
            SeedSpec(91, 1),
        )
        assert verdict(est.mean, 0.0, 3 * est.std_error), (ident, est.mean, est.std_error)

    def test_duality_pairing_zero_mean(self):
        # E[g * d_h X] + E[X * d*_h g] = 0 for smooth cylindrical g, X
        g = catalog_entry(GRID, "sigmoid")
        X = catalog_entry(GRID, "bump")
        h = Direction.constant(GRID)

        def statistic(rng, count):
            values = brownian_values_batch(rng, count, GRID)
            return g.value(values) * X.directional(values, h) + X.value(
                values
            ) * adjoint(g, h, values)

        est = mc_run(statistic, 100_000, SeedSpec(91, 2))
        assert verdict(est.mean, 0.0, 3 * est.std_error), (est.mean, est.std_error)

    def test_constant_has_no_derivative(self):
        g = constant_one(GRID)
        values = brownian_values_batch(np.random.default_rng(3), 4, GRID)
        h = Direction.constant(GRID)
        assert np.all(g.directional(values, h) == 0.0)
        assert np.all(g.value(values) == 1.0)
