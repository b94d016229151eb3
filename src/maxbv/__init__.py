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
from .paths import (
    DeltaStat,
    Direction,
    DiscretePath,
    SegmentMaxStat,
    TimeGrid,
    bump,
    delta_stat,
    direction_catalog,
    running_max,
    wiener_integral,
)
from .cylindrical import CylindricalFunction, adjoint_apply, catalog, constant_one
from .sampling import (
    MCEstimate,
    SeedSpec,
    Walk,
    mc_collect,
    mc_run,
    mc_run_many,
    sample_bridge,
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
    "DeltaStat",
    "Direction",
    "DiscretePath",
    "SegmentMaxStat",
    "TimeGrid",
    "bump",
    "delta_stat",
    "direction_catalog",
    "running_max",
    "wiener_integral",
    "CylindricalFunction",
    "adjoint_apply",
    "catalog",
    "constant_one",
    "MCEstimate",
    "SeedSpec",
    "Walk",
    "mc_collect",
    "mc_run",
    "mc_run_many",
    "sample_bridge",
    "sample_brownian",
    "sample_walk",
    "__version__",
]
