"""Smooth cylindrical test functionals g = phi(w_{t_1}, ..., w_{t_d}).

The outer functions phi come from a closed catalog (polynomials up to degree
3, Gaussian bumps, products of sigmoids) whose gradients and Hessians are
exact, so first and second Skorokhod adjoints never need numerical
differentiation.  All evaluation methods broadcast over a leading batch axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .paths import Direction, TimeGrid


@dataclass(frozen=True)
class PolynomialOuter:
    """Sum of monomials coef * prod_j x_j^e_j with total degree <= 3."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        """Every partial derivative of the given order, indexed by the
        variables it differentiates in: a monomial differentiated in those
        variables is its coefficient times the falling factorials of its
        exponents, times each x_l to its lowered exponent."""
        out = np.zeros(x.shape[:-1] + (x.shape[-1],) * order)
        for coef, exps in self.terms:
            for wrt in itertools.product(range(len(exps)), repeat=order):
                factor, powers = 1, list(exps)
                for l in wrt:
                    factor *= powers[l]
                    powers[l] -= 1
                if factor == 0:
                    continue
                term = np.full(x.shape[:-1], coef * factor)
                for l, p in enumerate(powers):
                    if p:
                        term = term * x[..., l] ** p
                out[(..., *wrt)] += term
        return out

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._derivatives(x, 0)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._derivatives(x, 1)

    def hess(self, x: np.ndarray) -> np.ndarray:
        return self._derivatives(x, 2)


@dataclass(frozen=True)
class GaussianBumpOuter:
    """phi(x) = exp(-|x - center|^2 / (2 width^2)), a bounded smooth bump."""

    center: tuple[float, ...]
    width: float = 1.0

    def _phi(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = (x - np.asarray(self.center)) / self.width
        return np.exp(-0.5 * np.sum(z * z, axis=-1)), z

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._phi(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        phi, z = self._phi(x)
        return -phi[..., None] * z / self.width

    def hess(self, x: np.ndarray) -> np.ndarray:
        phi, z = self._phi(x)
        d = x.shape[-1]
        eye = np.eye(d)
        outer = z[..., :, None] * z[..., None, :]
        return phi[..., None, None] * (outer - eye) / self.width**2


@dataclass(frozen=True)
class SigmoidProductOuter:
    """phi(x) = prod_j sigmoid((x_j - c_j) / a_j)."""

    centers: tuple[float, ...]
    scales: tuple[float, ...]

    def _sig(self, x: np.ndarray) -> np.ndarray:
        z = (x - np.asarray(self.centers)) / np.asarray(self.scales)
        return 1.0 / (1.0 + np.exp(-z))

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.prod(self._sig(x), axis=-1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        s = self._sig(x)
        phi = np.prod(s, axis=-1)
        return phi[..., None] * (1.0 - s) / np.asarray(self.scales)

    def hess(self, x: np.ndarray) -> np.ndarray:
        s = self._sig(x)
        a = np.asarray(self.scales)
        phi = np.prod(s, axis=-1)
        u = (1.0 - s) / a
        out = phi[..., None, None] * (u[..., :, None] * u[..., None, :])
        for j in range(x.shape[-1]):
            out[..., j, j] = phi * (1.0 - s[..., j]) * (1.0 - 2.0 * s[..., j]) / a[j] ** 2
        return out


@dataclass(frozen=True)
class CylindricalFunction:
    """g(w) = phi(w at the given grid node indices), with exact derivatives."""

    ident: str
    grid: TimeGrid
    indices: tuple[int, ...]
    outer: object  # one of the *Outer dataclasses above

    def __post_init__(self) -> None:
        for i in self.indices:
            if not (0 <= i <= self.grid.n):
                raise ValueError(f"evaluation index {i} off the grid")

    def _points(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values)[..., list(self.indices)]

    def value(self, values: np.ndarray) -> np.ndarray:
        return self.outer.value(self._points(values))

    def directional(self, values: np.ndarray, h: Direction) -> np.ndarray:
        """Directional derivative along h: sum_j d_j phi * h(t_j)."""
        if h.grid != self.grid:
            raise GridMismatchError("direction and functional on different grids")
        hp = h.primitive[list(self.indices)]
        return self.outer.grad(self._points(values)) @ hp

    def second_directional(
        self, values: np.ndarray, k: Direction, h: Direction
    ) -> np.ndarray:
        """Mixed second derivative along (k, h) via the exact Hessian."""
        if k.grid != self.grid or h.grid != self.grid:
            raise GridMismatchError("direction and functional on different grids")
        pts = self._points(values)
        hp = h.primitive[list(self.indices)]
        kp = k.primitive[list(self.indices)]
        return np.einsum("...jk,j,k->...", self.outer.hess(pts), kp, hp)


def constant_one(grid: TimeGrid) -> CylindricalFunction:
    """g identically 1: no evaluation points, and the polynomial whose one
    term is the constant 1."""
    return CylindricalFunction("const1", grid, (), PolynomialOuter(terms=((1.0, ()),)))


def catalog(grid: TimeGrid) -> list[CylindricalFunction]:
    """The fixed, enumerable test-functional catalog.

    Evaluation nodes are placed at fixed fractions of the grid so the same
    identifiers reproduce across grid sizes.
    """
    n = grid.n
    i1, i2 = max(1, round(n / 3)), max(2, round(2 * n / 3))
    iend = n
    scale = np.sqrt(grid.horizon)
    return [
        constant_one(grid),
        CylindricalFunction(
            "coord", grid, (i2,), PolynomialOuter(terms=((1.0, (1,)),))
        ),
        CylindricalFunction(
            "quad", grid, (i1, iend), PolynomialOuter(terms=((1.0, (1, 1)), (0.5, (2, 0))))
        ),
        CylindricalFunction(
            "cubic",
            grid,
            (i1, i2),
            PolynomialOuter(terms=((1.0, (1, 2)), (-1.0 / 3.0, (3, 0)))),
        ),
        CylindricalFunction(
            "bump", grid, (i1, i2), GaussianBumpOuter(center=(0.0, 0.0), width=scale)
        ),
        CylindricalFunction(
            "sigmoid",
            grid,
            (i2, iend),
            SigmoidProductOuter(centers=(0.0, 0.0), scales=(scale, scale)),
        ),
    ]


def catalog_entry(grid: TimeGrid, ident: str) -> CylindricalFunction:
    for g in catalog(grid):
        if g.ident == ident:
            return g
    raise KeyError(f"no catalog functional named {ident!r}")
