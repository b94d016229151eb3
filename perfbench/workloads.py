"""Benchmark workloads: lists of registry operations written out as a
``maxbv run`` config.

Every parameter is the acceptance-suite value of
``maxbv.experiments.acceptance_criteria()`` (or, for the two operations the
suite does not run, the quick-preset value), except ``samples``, which is
scaled so that one pass of a workload takes a few seconds.  Grid sizes are
never lowered: discretisation bias would then fail gates that pass at the
acceptance grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Experiment:
    exp_id: str
    operation: str
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    experiments: tuple[Experiment, ...]


def _exp(exp_id: str, operation: str, **params) -> Experiment:
    return Experiment(exp_id, operation, params)


CHAIN = Workload(
    name="chain",
    why=(
        "chain-vs-weak cross-check and second adjoints at workers=1: the only "
        "user of the running-max tables and the cylindrical layer"
    ),
    workers=1,
    experiments=(
        _exp("chain-const", "malliavin.chain_vs_weak",
             n=1000, samples=20_000, nodes=24, g="const1"),
        _exp("chain-bump", "malliavin.chain_vs_weak",
             n=1000, samples=20_000, nodes=24, g="bump"),
        _exp("adjoint2", "malliavin.adjoint2_zero", n=256, samples=20_000),
    ),
)

CENSUS = Workload(
    name="census",
    why=(
        "double-maximum census on long Brownian paths at workers=2: drawing "
        "dominates, tables unused, the only user of the mc_collect thread pool"
    ),
    workers=2,
    experiments=(
        _exp("unique-max", "concentration.unique_max", n=1000, samples=100_000),
        _exp("excess-ladder", "concentration.excess_ladder",
             n=1000, t_frac=0.5, eps=0.01, deltas=(0.2, 0.1, 0.05, 0.025),
             samples=100_000),
        _exp("double-max", "concentration.double_max_ladder",
             n=1000, t_frac=0.5, epss=(0.08, 0.3, 1e9), delta=0.05,
             samples=100_000),
    ),
)

WALKS = Workload(
    name="walks",
    why=(
        "short walks, bridges and Gaussian vectors in narrow chunks plus the "
        "exact and quadrature rows at workers=1: per-chunk driver cost and CSV writing"
    ),
    workers=1,
    experiments=(
        # quick-preset values: the acceptance suite does not run these two
        _exp("halfline-mc", "fluctuation.mc_halfline", n=(1, 10), samples=400_000),
        _exp("offband", "perimeter.offband",
             dim=3, eps=0.02, band=0.01, samples=400_000),
        _exp("bridge-stay", "fluctuation.mc_bridge_stay",
             n=(2, 5, 10, 100), samples=400_000),
        _exp("bridge-argmax", "fluctuation.bridge_argmax", n=20, samples=400_000),
        _exp("tube", "perimeter.tube",
             dim=4, eps=0.01, samples=400_000, slack=1e-4),
        _exp("restricted", "perimeter.bridge", n=(2, 10, 100), samples=400_000),
        _exp("andersen64", "fluctuation.andersen_series", order=64),
        _exp("bounds", "perimeter.corollary_bounds", max_n=64),
        _exp("halfspace", "perimeter.halfspace", dims=(1, 2, 8, 64)),
        _exp("lt-zero", "density.lt_zero", t_fracs=(0.25, 0.5, 0.75)),
        _exp("limit-integral", "density.limit_integral"),
        _exp("riemann", "density.riemann", n=2000),
        _exp("tv-bound", "density.tv_bound", n=(100, 1000, 2000)),
        _exp("asymptote", "density.asymptote",
             n=(10, 100, 1000), bounds=(0.03, 0.003, 0.0003)),
        _exp("curve-mass", "density.curve_mass"),
        _exp("tied-peak", "malliavin.tied_peak", n=1000, eps=1e-3, halvings=2),
        _exp("grad-max", "malliavin.grad_max",
             n=1000, samples=1000, eps=1e-5, tolerance=1e-6),
        _exp("second-diff", "malliavin.second_diff", n=1000, samples=1000, eps=1e-3),
    ),
)

WORKLOADS = {w.name: w for w in (CHAIN, CENSUS, WALKS)}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_text(workload: Workload) -> str:
    """The ``maxbv run`` config of a workload; the seed is passed on the
    command line, so the text is the same for every seed."""
    lines = ["[run]", f"workers = {workload.workers}", ""]
    for exp in workload.experiments:
        lines.append(f"[experiment:{exp.exp_id}]")
        lines.append(f"operation = {exp.operation}")
        lines.extend(f"{k} = {_format(v)}" for k, v in exp.params.items())
        lines.append("")
    return "\n".join(lines)


def write_config(workload: Workload, path: Path) -> Path:
    path.write_text(config_text(workload), encoding="utf-8")
    return path


def all_exp_ids() -> list[str]:
    return [e.exp_id for w in WORKLOADS.values() for e in w.experiments]
