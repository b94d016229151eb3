"""Finite-dimensional Gaussian perimeter machinery.

The Gaussian perimeter of a halfspace {<a, x> > c} reduces by rotational
invariance to the one-dimensional surface density phi(c/|a|), where phi is
the standard normal density; through the origin the value is (2*pi)^(-1/2)
in every dimension.  Two independent Monte Carlo routes cross-check it: a
tube estimator gamma(eps-slab)/(2 eps), and a bridge estimator for the
perimeter mass restricted to the stay-below event, which equals
(2*pi)^(-1/2)/n by the cyclic bridge identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError
from .fluctuation import mc_bridge_stay_prob
from .sampling import MCEstimate, SeedSpec, mc_collect, mc_run

#: Gaussian perimeter of a halfspace through the origin, phi(0).
HALFSPACE_PERIMETER = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class HalfspaceSpec:
    """The set {<normal, x> > offset} in R^n."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        normal = np.asarray(self.normal, dtype=float)
        if normal.ndim != 1 or normal.size == 0:
            raise ValueError("normal must be a nonempty vector")
        if not np.isfinite(normal).all() or not np.any(normal):
            raise ValueError("normal must be finite and nonzero")
        normal = normal.copy()
        normal.flags.writeable = False
        object.__setattr__(self, "normal", normal)

    @property
    def dim(self) -> int:
        return self.normal.size

    @property
    def standardized_offset(self) -> float:
        """offset / |normal|: the 1-d threshold after rotational reduction."""
        return float(self.offset / np.linalg.norm(self.normal))


@dataclass(frozen=True)
class SurfaceMeasureEstimate:
    """A Gaussian surface-measure value with its method and error bound."""

    value: float
    method: str  # "exact" | "tube" | "bridge-MC"
    error_bound: float
    std_error: float = 0.0
    bias_bound: float = 0.0
    samples: int | None = None
    seed: SeedSpec | None = None


def halfspace_perimeter(spec: HalfspaceSpec) -> SurfaceMeasureEstimate:
    """Exact Gaussian perimeter of a halfspace: phi(offset/|normal|).

    The n-dimensional surface integral collapses to one dimension because
    the standard Gaussian is rotation invariant; the result does not depend
    on the dimension.
    """
    return SurfaceMeasureEstimate(
        value=_phi(spec.standardized_offset), method="exact", error_bound=0.0
    )


def tube_perimeter(
    spec: HalfspaceSpec,
    eps: float,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> SurfaceMeasureEstimate:
    """Independent cross-check: gamma({|<a,x>/|a| - c| < eps}) / (2 eps).

    For a halfspace the estimator targets the tube-averaged density, whose
    deviation from phi(c) is second order in eps; the reported error bound
    is std_error plus the Taylor bias bound sup|phi''| * eps^2 / 6.
    """
    if eps <= 0:
        raise ValueError("tube half-width must be positive")
    unit = spec.normal / np.linalg.norm(spec.normal)
    c = spec.standardized_offset

    def statistic(rng: np.random.Generator, count: int) -> np.ndarray:
        x = rng.standard_normal((count, spec.dim))
        proj = x @ unit
        return (np.abs(proj - c) < eps).astype(float) / (2.0 * eps)

    est = mc_run(statistic, samples, seed, workers=workers)
    bias = _phi(0.0) * eps * eps / 6.0  # sup |phi''| = phi(0)
    return SurfaceMeasureEstimate(
        value=est.mean,
        method="tube",
        error_bound=est.std_error + bias,
        std_error=est.std_error,
        bias_bound=bias,
        samples=est.samples,
        seed=seed,
    )


def restricted_perimeter_bridge(
    n: int, samples: int, seed: SeedSpec, *, workers: int = 1
) -> SurfaceMeasureEstimate:
    """Perimeter mass of {W_n > 0} restricted to the stay-below event.

    The normalized perimeter measure of the halfspace {W_n > 0} is the law
    of the bridge, so the restricted mass equals phi(0) times the bridge
    stay-below probability; its exact value is (2*pi)^(-1/2)/n.
    """
    est = mc_bridge_stay_prob(n, samples, seed, workers=workers)
    return SurfaceMeasureEstimate(
        value=HALFSPACE_PERIMETER * est.mean,
        method="bridge-MC",
        error_bound=HALFSPACE_PERIMETER * est.std_error,
        std_error=HALFSPACE_PERIMETER * est.std_error,
        samples=est.samples,
        seed=seed,
    )


def concentration_offband_mass(
    n: int,
    eps: float,
    band: float,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> MCEstimate:
    """Fraction of eps-tube mass where the linear functional sits more than
    ``band`` away from its level.

    The functional is X = (x_1 + ... + x_n)/sqrt(n) at level 0.  By set
    inclusion the fraction is exactly 0 once band >= eps; as eps shrinks at
    fixed band it vanishes, which is the computable finite-dimensional
    content of level-set concentration of the perimeter measure.
    """
    if eps <= 0 or band <= 0:
        raise ValueError("eps and band must be positive")

    def task(rng: np.random.Generator, count: int):
        x = rng.standard_normal((count, n))
        proj = np.abs(x.sum(axis=1) / math.sqrt(n))
        in_tube = proj < eps
        off_band = in_tube & (proj > band)
        return np.array([in_tube.sum(), off_band.sum()], dtype=np.int64)

    in_tube, off_band = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    m = int(in_tube)
    if m < 100:
        raise InsufficientSamplesError(
            f"only {m} samples landed in the eps={eps} tube; "
            f"increase samples or widen the tube"
        )
    frac = off_band / m
    se = math.sqrt(max(frac * (1.0 - frac), 0.0) / m)
    return MCEstimate(mean=float(frac), std_error=se, samples=m, seed=seed)


def corollary_bounds_exact(max_n: int) -> bool:
    """Exact integer check that, with constant 1, the stay-below probability
    is at most n^(-1/2) and the restricted perimeter at most n^(-1).

    C(2n,n)/4^n <= n^(-1/2) is squared into n * C(2n,n)^2 <= 16^n, an exact
    integer comparison.  The restricted perimeter phi(0)/n is at most 1/n
    for every n exactly when phi(0) <= 1, so that bound is the single
    comparison of ``HALFSPACE_PERIMETER`` with 1 and needs no loop.
    """
    if HALFSPACE_PERIMETER > 1.0:
        return False
    return all(n * math.comb(2 * n, n) ** 2 <= 16**n for n in range(1, max_n + 1))
