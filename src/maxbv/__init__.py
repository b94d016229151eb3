"""Numerical verification toolkit for the running maximum of Brownian motion:
exact random-walk fluctuation identities, Gaussian perimeter computations,
finite-difference Malliavin operators, the discrete total-variation bound for
the second-derivative measure, and Monte Carlo concentration experiments.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridMismatchError,
    InsufficientSamplesError,
    MaxBVError,
    NonFiniteStatisticError,
    QuadratureError,
)
from .paths import Direction, DiscretePath, TimeGrid, direction_catalog
from .cylindrical import CylindricalFunction, catalog, constant_one
from .sampling import (
    MCEstimate,
    SeedSpec,
    mc_collect,
    mc_run,
    mc_run_many,
    sample_brownian,
    sample_walk,
)

__all__ = [
    "ConfigError",
    "GridMismatchError",
    "InsufficientSamplesError",
    "MaxBVError",
    "NonFiniteStatisticError",
    "QuadratureError",
    "Direction",
    "DiscretePath",
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
    "sample_brownian",
    "sample_walk",
    "__version__",
]
