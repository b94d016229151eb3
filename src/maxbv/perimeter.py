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
from dataclasses import dataclass, replace

import numpy as np

from .fluctuation import mc_bridge_stay_prob
from .sampling import MCEstimate, SeedSpec, mc_ratios, mc_run, require_counted

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


def halfspace_perimeter(spec: HalfspaceSpec) -> float:
    """Exact Gaussian perimeter of a halfspace: phi(offset/|normal|).

    The n-dimensional surface integral collapses to one dimension because
    the standard Gaussian is rotation invariant; the result does not depend
    on the dimension.
    """
    return _phi(spec.standardized_offset)


def tube_perimeter(
    spec: HalfspaceSpec,
    eps: float,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> MCEstimate:
    """Independent cross-check: gamma({|<a,x>/|a| - c| < eps}) / (2 eps).

    For a halfspace the estimator targets the tube-averaged density, whose
    deviation from phi(c) is second order in eps: at most
    sup|phi''| * eps^2 / 6 = phi(0) * eps^2 / 6.
    """
    if eps <= 0:
        raise ValueError("tube half-width must be positive")
    unit = spec.normal / np.linalg.norm(spec.normal)
    c = spec.standardized_offset

    def statistic(rng: np.random.Generator, count: int) -> np.ndarray:
        x = rng.standard_normal((count, spec.dim))
        proj = x @ unit
        return (np.abs(proj - c) < eps).astype(float) / (2.0 * eps)

    return mc_run(statistic, samples, seed, workers=workers)


def restricted_perimeter_bridge(
    n: int, samples: int, seed: SeedSpec, *, workers: int = 1
) -> MCEstimate:
    """Perimeter mass of {W_n > 0} restricted to the stay-below event.

    The normalized perimeter measure of the halfspace {W_n > 0} is the law
    of the bridge, so the restricted mass equals phi(0) times the bridge
    stay-below probability; its exact value is (2*pi)^(-1/2)/n.
    """
    est = mc_bridge_stay_prob(n, samples, seed, workers=workers)
    return replace(est, mean=HALFSPACE_PERIMETER * est.mean,
                   std_error=HALFSPACE_PERIMETER * est.std_error)


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

    def counts(rng: np.random.Generator, count: int):
        x = rng.standard_normal((count, n))
        proj = np.abs(x.sum(axis=1) / math.sqrt(n))
        in_tube = proj < eps
        return in_tube[:, None], (in_tube & (proj > band))[:, None]

    (est,) = mc_ratios(counts, samples, seed, workers=workers)
    require_counted(
        est.samples, f"samples landed in the eps={eps} tube; increase samples or "
        f"widen the tube"
    )
    return est


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
