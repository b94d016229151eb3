"""Numerical verification toolkit for the running maximum of Brownian motion:
exact random-walk fluctuation identities, Gaussian perimeter computations,
finite-difference Malliavin operators, the discrete total-variation bound for
the second-derivative measure, and Monte Carlo concentration experiments.

Paths are rows of (count, n+1) node-value arrays on a :class:`TimeGrid`,
drawn by the batch samplers of :mod:`maxbv.sampling` inside the Monte Carlo
driver.
"""

__version__ = "0.1.0"

import os

# Before the first numpy import, which starts OpenBLAS's threads: the matrix
# products here are narrow or formed in 64-row blocks, too small to gain from
# BLAS threads, and the Monte Carlo worker pool is the only parallelism, so
# idle OpenBLAS threads would only spin beside it.  A value already in the
# environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    GridMismatchError,
    InsufficientSamplesError,
    MaxBVError,
    NonFiniteStatisticError,
    QuadratureError,
)
from .paths import Direction, TimeGrid, direction_catalog
from .cylindrical import CylindricalFunction, catalog, constant_one
from .sampling import MCEstimate, SeedSpec, mc_collect, mc_run, mc_run_many

__all__ = [
    "ConfigError",
    "GridMismatchError",
    "InsufficientSamplesError",
    "MaxBVError",
    "NonFiniteStatisticError",
    "QuadratureError",
    "Direction",
    "TimeGrid",
    "direction_catalog",
    "CylindricalFunction",
    "catalog",
    "constant_one",
    "MCEstimate",
    "SeedSpec",
    "mc_collect",
    "mc_run",
    "mc_run_many",
    "__version__",
]
