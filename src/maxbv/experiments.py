"""The experiment registry: every named operation the CLI can run, with its
parameter schema, plus the quick and full verification presets.

Each operation maps validated parameters to an :class:`ExperimentResult`
whose rows carry values, references and tolerances; each row's verdict
follows from them (:func:`maxbv.reporting.verdict`).  Both presets are
views of one table, ``_PRESETS``: the full preset is the acceptance suite,
and the quick preset runs in under a minute with smaller sample counts.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import density, fluctuation, malliavin, perimeter
from . import concentration as conc
from .cylindrical import catalog, catalog_entry, constant_one
from .errors import ConfigError
from .paths import Direction, TimeGrid
from .reporting import (
    ExperimentResult,
    ResultRow,
    stable_fingerprint,
    write_csv,
    write_result_csv,
)
from .sampling import (
    RNG_ALGORITHM,
    MCEstimate,
    SeedSpec,
    brownian_values_batch,
    mc_run,
    mc_run_many,
    walk_sums_batch,
)

#: Master seed of the built-in presets; override with ``--seed``.
DEFAULT_MASTER_SEED = 20260809


# ---------------------------------------------------------------------------
# Parameter schema
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _list(cast: Callable[[Any], Any], text: Any) -> tuple:
    """A non-empty tuple, from a sequence or comma-separated text."""
    items = text if isinstance(text, (tuple, list)) else [
        p for p in str(text).split(",") if p.strip()
    ]
    if not items:
        raise ValueError("needs at least one value")
    return tuple(cast(x) for x in items)


def _floats(text: Any) -> tuple[float, ...]:
    return _list(float, text)


def _ints(text: Any) -> tuple[int, ...]:
    return _list(int, text)


def _functional(text: Any) -> str:
    """The ident of a functional of the catalog."""
    idents = [g.ident for g in catalog(TimeGrid(2, 1.0))]
    if text not in idents:
        raise ValueError(f"unknown functional {text!r} (known: {', '.join(idents)})")
    return text


@dataclass(frozen=True)
class Param:
    """A parameter's parser, its default, and optional range checks that
    every element of a tuple value must meet too: a lower bound, or
    ``positive`` for a float that must be > 0 (which rejects NaN).  Every
    float must be finite."""

    cast: Callable[[Any], Any]
    default: Any = _REQUIRED
    minimum: float | None = None
    positive: bool = False


@dataclass(frozen=True)
class OpSpec:
    """An operation: its parameter schema, its runner, and an optional check
    of parameters that are valid alone but not together, which returns the
    offending field and the reason, or None."""

    name: str
    params: dict[str, Param]
    run: Callable[[dict, SeedSpec, int], ExperimentResult]
    coupled: Callable[[dict], tuple[str, str] | None] | None = None


def validate_params(op: OpSpec, raw: dict, where: str) -> dict:
    out = {}
    for key in raw:
        if key not in op.params:
            raise ConfigError(f"{where}/{key}: unknown parameter for {op.name}")
    for key, spec in op.params.items():
        if key in raw:
            try:
                out[key] = spec.cast(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}/{key}: {exc}") from exc
            values = out[key] if isinstance(out[key], tuple) else (out[key],)
            if spec.minimum is not None and any(v < spec.minimum for v in values):
                raise ConfigError(f"{where}/{key}: must be >= {spec.minimum}")
            if spec.positive and not all(v > 0 for v in values):
                raise ConfigError(f"{where}/{key}: must be > 0")
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise ConfigError(f"{where}/{key}: must be finite")
        elif spec.default is _REQUIRED:
            raise ConfigError(f"{where}/{key}: required parameter missing")
        else:
            out[key] = spec.default
    problem = op.coupled(out) if op.coupled is not None else None
    if problem is not None:
        key, reason = problem
        raise ConfigError(f"{where}/{key}: {reason}")
    return out


def _split_index(p: dict) -> int:
    """The grid node of the split time ``t_frac`` of an n-step grid."""
    return round(p["t_frac"] * p["n"])


def _interior_split(p: dict) -> tuple[str, str] | None:
    t = _split_index(p)
    if not 0 < t < p["n"]:
        return "t_frac", f"round(t_frac * n) = {t} is not an interior node 1..{p['n'] - 1}"
    return None


def _distinct_split_nodes(p: dict) -> tuple[str, str] | None:
    try:
        malliavin.split_nodes(p["n"], p["nodes"])
    except ValueError as exc:
        return "n", str(exc)
    return None


def _two_distinct_n(p: dict) -> tuple[str, str] | None:
    if len(set(p["n"])) < 2:
        return "n", "needs at least two distinct values"
    return None


def _interior_fracs(p: dict) -> tuple[str, str] | None:
    if not all(0.0 < t < 1.0 for t in p["t_fracs"]):
        return "t_fracs", "every value must lie in (0, 1)"
    return None


def _bound_per_n(p: dict) -> tuple[str, str] | None:
    if len(p["bounds"]) != len(p["n"]):
        return "bounds", f"needs one value per n: {len(p['n'])}, got {len(p['bounds'])}"
    if len(set(p["n"])) != len(p["n"]):
        return "n", "values must be distinct"
    return None


def _row(check: str, value, **kw) -> ResultRow:
    return ResultRow(experiment="", check=check, value=value, **kw)


def _holds(check: str, ok: bool, **kw) -> ResultRow:
    """A yes/no check, which passes when ``ok`` is true."""
    return _row(check, ok, reference=True, tolerance=0.0, **kw)


def _bound_row(check: str, value, reference: str, **kw) -> ResultRow:
    """A one-sided check such as ``">=0.99"``, whose bound is its tolerance."""
    return _row(check, value, reference=reference,
                tolerance=float(reference.lstrip("<>=")), **kw)


def _mc_row(check: str, est: MCEstimate, reference: float, slack: float = 0.0) -> ResultRow:
    return _row(check, est.mean, std_error=est.std_error, reference=reference,
                tolerance=3.0 * est.std_error + slack, samples=est.samples)


# ---------------------------------------------------------------------------
# fluctuation
# ---------------------------------------------------------------------------

def _run_halfline_exact(p, seed, workers):
    res = ExperimentResult()
    for n in sorted(set(p["n"])):
        q = fluctuation.halfline_prob_exact(n)
        res.rows.append(_row(f"halfline-exact-n{n}", fluctuation.rational_str(q)))
    return res


def _run_andersen(p, seed, workers):
    lhs, rhs = fluctuation.andersen_series_check(p["order"])
    res = ExperimentResult(
        [_holds(f"series-exponential-equals-binomial-order{p['order']}", lhs == rhs)]
    )
    res.series["coefficients"] = (
        ("n", "exp_side", "binomial_side"),
        [
            (i, fluctuation.rational_str(a), fluctuation.rational_str(b))
            for i, (a, b) in enumerate(zip(lhs, rhs))
        ],
    )
    return res


def _run_mc_halfline(p, seed, workers):
    res = ExperimentResult()
    for n in sorted(set(p["n"])):
        est = fluctuation.mc_halfline_prob(n, p["samples"], seed, workers=workers)
        res.rows.append(
            _mc_row(f"stay-below-n{n}", est, float(fluctuation.halfline_prob_exact(n)))
        )
    return res


def _run_mc_bridge_stay(p, seed, workers):
    res = ExperimentResult()
    for n in sorted(set(p["n"])):
        est = fluctuation.mc_bridge_stay_prob(n, p["samples"], seed, workers=workers)
        res.rows.append(_mc_row(f"bridge-stay-n{n}", est, 1.0 / n))
    return res


def _run_bridge_argmax(p, seed, workers):
    n = p["n"]
    hist = fluctuation.bridge_argmax_histogram(n, p["samples"], seed, workers=workers)
    res = ExperimentResult([
        _bound_row(f"argmax-uniform-chi2-pvalue-n{n}", hist.p_value, ">1e-3",
                   samples=hist.samples),
        _row(f"argmax-exact-ties-n{n}", hist.ties, reference=0, tolerance=0.0,
             samples=hist.samples),
    ])
    res.series["histogram"] = (("position", "count"), hist.rows())
    return res


# ---------------------------------------------------------------------------
# perimeter
# ---------------------------------------------------------------------------

def _run_halfspace(p, seed, workers):
    res = ExperimentResult()
    values = []
    for dim in p["dims"]:
        # the unit normal e_1 puts the halfspace at distance offset in every
        # dimension; the computed norm of ones(dim)/sqrt(dim) is 1 +- 1 ulp
        spec = perimeter.HalfspaceSpec(np.eye(1, dim)[0], p["offset"])
        values.append(perimeter.halfspace_perimeter(spec))
    same = all(v == values[0] for v in values)
    res.rows.append(_holds("dimension-independence", same))
    if p["offset"] == 0.0:
        res.rows.append(_row("origin-halfspace-value", values[0],
                             reference=perimeter.HALFSPACE_PERIMETER, tolerance=0.0))
    return res


def _run_tube(p, seed, workers):
    # the normal ones(dim) with offset scaled by its norm puts the halfspace
    # at distance offset, and offset 0 keeps the tube's projection unchanged
    normal = np.ones(p["dim"])
    spec = perimeter.HalfspaceSpec(normal, p["offset"] * np.linalg.norm(normal))
    est = perimeter.tube_perimeter(spec, p["eps"], p["samples"], seed, workers=workers)
    return ExperimentResult([
        _mc_row(f"tube-vs-exact-eps{p['eps']}", est, perimeter.halfspace_perimeter(spec),
                slack=p["slack"])
    ])


def _run_perimeter_bridge(p, seed, workers):
    res = ExperimentResult()
    for n in sorted(set(p["n"])):
        est = perimeter.restricted_perimeter_bridge(n, p["samples"], seed, workers=workers)
        res.rows.append(
            _mc_row(f"restricted-perimeter-n{n}", est, perimeter.HALFSPACE_PERIMETER / n)
        )
    return res


def _run_offband(p, seed, workers):
    est = perimeter.concentration_offband_mass(
        p["dim"], p["eps"], p["band"], p["samples"], seed, workers=workers
    )
    if p["band"] >= p["eps"]:
        row = _row("offband-mass-inclusion", est.mean, reference=0.0, tolerance=0.0,
                   samples=est.samples)
    else:
        ref = 1.0 - p["band"] / p["eps"]  # flat-density limit of a thin tube
        row = _mc_row("offband-mass-thin-tube", est, ref, slack=0.01)
    return ExperimentResult([row])


def _run_corollary_bounds(p, seed, workers):
    ok = perimeter.corollary_bounds_exact(p["max_n"])
    return ExperimentResult([_holds(f"corollary-bounds-C1-n<=:{p['max_n']}", ok)])


# ---------------------------------------------------------------------------
# malliavin
# ---------------------------------------------------------------------------

def _run_grad_max(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    cfg = malliavin.FDConfig(eps=p["eps"], tolerance=p["tolerance"])
    ests = malliavin.verify_grad_max(grid, p["samples"], seed, cfg, workers=workers)
    return ExperimentResult([
        _bound_row(f"gradient-identity-{label}", est.mean, ">=0.99", samples=est.samples)
        for label, est in ests.items()
    ])


def _run_second_diff(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    cfg = malliavin.FDConfig(eps=p["eps"])
    est = malliavin.second_difference_zero_fraction(
        grid, p["samples"], seed, cfg, workers=workers
    )
    return ExperimentResult([
        _bound_row("second-difference-exact-zero", est.mean, ">=0.99", samples=est.samples)
    ])


def _run_tied_peak(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    mags = malliavin.tied_peak_second_differences(grid, p["eps"], p["halvings"])
    res = ExperimentResult([
        _row(f"tied-peak-doubling-{i}", mags[i + 1] / mags[i], reference=2.0,
             tolerance=0.3)
        for i in range(p["halvings"])
    ])
    res.series["magnitudes"] = (
        ("eps", "second_difference"),
        [(p["eps"] / 2**i, m) for i, m in enumerate(mags)],
    )
    return res


def _run_adjoint2_zero(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    h = Direction.constant(grid)
    k = Direction.indicator(grid, 0.0, grid.horizon / 2, label="front-half")
    gs = catalog(grid)
    pairs = [(g, None) for g in gs] + [(constant_one(grid), catalog_entry(grid, "coord"))]
    checks = [f"mean-second-adjoint-{g.ident}" for g in gs]
    checks.append("mean-weighted-second-adjoint-const")
    ests = malliavin.adjoint2_means(pairs, k, h, grid, p["samples"], seed, workers=workers)
    res = ExperimentResult()
    for check, est in zip(checks, ests):
        res.rows.append(_mc_row(check, est, 0.0))
    return res


def _run_chain_vs_weak(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    g = catalog_entry(grid, p["g"])
    h = Direction.constant(grid)
    k = Direction.constant(grid)
    # both routes on common paths: the gate is a paired test on their
    # per-path difference, whose standard error accounts for the correlation
    weak, chain, diff = malliavin.chain_vs_weak_paired(
        g, k, h, grid, p["samples"], seed, nodes=p["nodes"], workers=workers
    )
    primary = chain.estimate_half  # less kernel bias; diagnostic bounds the rest
    res = ExperimentResult([
        _row(f"chain-vs-weak-{p['g']}", abs(diff.mean), std_error=diff.std_error,
             reference=0.0, tolerance=3.0 * diff.std_error + chain.bias_diagnostic,
             samples=diff.samples)
    ])
    res.series["estimates"] = (
        ("route", "mean", "std_error", "bandwidth"),
        [
            ("double-ibp", weak.mean, weak.std_error, ""),
            ("chain-b", chain.estimate.mean, chain.estimate.std_error, chain.bandwidth),
            ("chain-b/2", primary.mean, primary.std_error, chain.bandwidth / 2),
        ],
    )
    return res


def _run_sigma_flat(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    est = malliavin.sigma_fd_zero_fraction(
        grid, p["samples"], seed, malliavin.FDConfig(eps=p["eps"]), workers=workers
    )
    values = brownian_values_batch(seed.generator(), 1, grid)[0]
    sigma, riemann_sum = malliavin.sigma_functional(grid, values)
    return ExperimentResult([
        _bound_row("argmax-time-fd-zero-fraction", est.mean, ">=0.99", samples=est.samples),
        _row("argmax-time-running-gradient-identity", abs(sigma - riemann_sum),
             reference=0.0, tolerance=grid.step),
    ])


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _run_lt_zero(p, seed, workers):
    horizon = p["horizon"]
    values = [density.lt_zero(t * horizon, horizon) for t in p["t_fracs"]]
    closed = density.lt_zero_closed(horizon)
    res = ExperimentResult([
        _row("split-density-constancy", max(values) - min(values), reference=0.0,
             tolerance=1e-10)
    ])
    for t, v in zip(p["t_fracs"], values):
        res.rows.append(_row(f"split-density-t{t}", v, reference=closed, tolerance=1e-9))
    return res


def _run_lt_zero_mc(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    t_index = _split_index(p)
    kde = malliavin.split_gap_density_mc(t_index, grid, p["samples"], seed, workers=workers)
    ref = density.lt_zero(p["t_frac"] * p["horizon"], p["horizon"])
    est = kde.estimate_half
    return ExperimentResult([
        _row("split-density-mc-vs-quadrature", est.mean, std_error=est.std_error,
             reference=ref, tolerance=0.02 * ref, samples=est.samples)
    ])


def _run_tv_bound(p, seed, workers):
    ns = sorted(set(p["n"]))
    horizon = p["horizon"]
    rows = [density.tv_bound_discrete(n, horizon) for n in ns]
    last, prev = rows[-1], rows[-2]
    drift = abs(last.total - prev.total) / last.total
    decreasing = all(
        rows[i].boundary > rows[i + 1].boundary for i in range(len(rows) - 1)
    )
    scaled = density.tv_bound_discrete(last.n, 4.0 * horizon)
    res = ExperimentResult([
        _bound_row(f"bound-drift-n{prev.n}-to-n{last.n}", drift, "<0.01"),
        _holds("boundary-remainder-decreasing", decreasing),
        _holds("sqrt-horizon-scaling-exact", scaled.total == 2.0 * last.total),
    ])
    res.series["bound"] = (
        ("n", "total", "boundary", "bulk"),
        [(r.n, r.total, r.boundary, r.bulk) for r in rows],
    )
    return res


def _run_limit_integral(p, seed, workers):
    value, error = density.limit_integral()
    return ExperimentResult([
        _row("limit-integral-value", value, reference=2.0 * math.pi, tolerance=1e-6),
        _bound_row("limit-integral-error-estimate", error, "<1e-8"),
        _row("inner-integral-t0.3", density.inner_arcsine_integral(0.3),
             reference=math.pi, tolerance=1e-8),
    ])


def _run_riemann(p, seed, workers):
    ref = 2.0 * math.pi
    return ExperimentResult([
        _row(f"riemann-sum-n{p['n']}", density.limit_integral_riemann(p["n"]),
             reference=ref, tolerance=0.05 * ref)
    ])


def _run_asymptote(p, seed, workers):
    pairs = sorted(zip(p["n"], p["bounds"]))  # each n keeps its bound
    gaps = [density.asymptotic_match(n) for n, _ in pairs]
    res = ExperimentResult([
        _bound_row(f"stirling-gap-n{a.n}", a.relative_gap, f"<{bound}")
        for a, (_, bound) in zip(gaps, pairs)
    ])
    decreasing = all(
        gaps[i].relative_gap > gaps[i + 1].relative_gap for i in range(len(gaps) - 1)
    )
    res.rows.append(_holds("stirling-gap-decreasing", decreasing))
    res.series["asymptote"] = (
        ("n", "scaled_value", "reference"),
        [(a.n, a.scaled_value, a.reference) for a in gaps],
    )
    return res


def _run_density_mass(p, seed, workers):
    return ExperimentResult([
        _row(f"segment-max-mass-L{length}", density.segment_max_mass(length),
             reference=1.0, tolerance=1e-6)
        for length in sorted(set(p["lengths"]))
    ])


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

def _run_unique_max(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    scale = math.sqrt(p["horizon"])
    thresholds = [10.0**-k * scale for k in range(1, 5)]
    ties, *fractions = conc.unique_max_check(grid, thresholds, p["samples"], seed,
                                             workers=workers)
    monotone = all(a.mean > b.mean for a, b in zip(fractions, fractions[1:]))
    samples = ties.samples
    res = ExperimentResult([
        _row("exact-ties", round(ties.mean * samples), reference=0, tolerance=0.0,
             samples=samples),
        _holds("small-gap-fractions-monotone", monotone, samples=samples),
        _holds("no-atom-at-zero-gap", monotone, samples=samples),
    ])
    res.series["gap_fractions"] = (
        ("threshold", "fraction"),
        [(t, f.mean) for t, f in zip(thresholds, fractions)],
    )
    return res


def _run_excess_ladder(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    scale = math.sqrt(p["horizon"])
    t_index = _split_index(p)
    deltas = [d * scale for d in sorted(set(p["deltas"]), reverse=True)]
    ests = conc.excess_conditional_ladder(
        t_index, p["eps"] * scale, deltas, grid, p["samples"], seed, workers=workers
    )
    decreasing = all(ests[i].mean > ests[i + 1].mean for i in range(len(ests) - 1))
    res = ExperimentResult([
        _holds("excess-fraction-strictly-decreasing", decreasing, samples=ests[0].samples)
    ])
    res.series["ladder"] = (
        ("delta", "fraction", "std_error"),
        [(d, e.mean, e.std_error) for d, e in zip(deltas, ests)],
    )
    return res


def _run_double_max_ladder(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    scale = math.sqrt(p["horizon"])
    t_index = _split_index(p)
    epss = sorted(set(p["epss"]))
    summaries = conc.double_max_ladder(
        t_index, [e * scale for e in epss], p["delta"] * scale, grid, p["samples"], seed,
        workers=workers,
    )
    # summaries come back sorted by ascending eps, so a fraction that rises as
    # the window shrinks means strictly decreasing along the list
    increasing = all(
        summaries[i].both_fraction > summaries[i + 1].both_fraction
        for i in range(len(summaries) - 1)
    )
    tight = summaries[0]
    res = ExperimentResult([
        _holds("both-excess-increases-as-eps-shrinks", increasing,
               samples=tight.conditioned),
        _holds("argmax-separation", all(s.argmax_separated for s in summaries)),
        _bound_row(f"both-excess-regression-eps{epss[0]}", tight.both_fraction,
                   ">0.85", std_error=tight.std_error, samples=tight.conditioned),
    ])
    res.series["ladder"] = (
        ("eps", "conditioned", "both_fraction", "std_error"),
        [(s.eps, s.conditioned, s.both_fraction, s.std_error) for s in summaries],
    )
    res.series["scatter"] = (
        ("left_excess", "right_excess"),
        [(float(a), float(b)) for a, b in tight.scatter],
    )
    return res


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _run_sampler_moments(p, seed, workers):
    n, samples = p["n"], p["samples"]
    res = ExperimentResult()
    est = mc_run(lambda rng, c: rng.standard_normal(c), samples, seed, workers=workers)
    res.rows.append(_mc_row("walk-step-mean", est, 0.0))
    est = mc_run(
        lambda rng, c: (walk_sums_batch(rng, c, n)[:, -1] <= 0.0).astype(float),
        samples,
        seed,
        workers=workers,
    )
    res.rows.append(_mc_row(f"endpoint-sign-n{n}", est, 0.5))
    grid = TimeGrid(p["brownian_n"], p["horizon"])
    a = 0.5 * math.sqrt(p["horizon"])

    def brownian_rows(rng, c):
        values = brownian_values_batch(rng, c, grid)
        return np.stack([values[:, -1] ** 2, (values.max(axis=1) > a).astype(float)])

    variance, reflection = mc_run_many(brownian_rows, samples, seed, workers=workers)
    res.rows.append(_mc_row("terminal-variance", variance, p["horizon"]))
    ref = math.erfc(0.5 / math.sqrt(2.0))  # 2 P(W_T > a) at a = sqrt(T)/2
    res.rows.append(_mc_row("reflection-principle", reflection, ref, slack=0.02))
    return res


def _run_worker_invariance(p, seed, workers):
    n, samples = p["n"], p["samples"]

    def statistic(rng, c):
        return (walk_sums_batch(rng, c, n)[:, 1:].max(axis=1) <= 0.0).astype(float)

    e1 = mc_run(statistic, samples, seed, workers=1)
    e8 = mc_run(statistic, samples, seed, workers=8)
    identical = e1 == e8
    grid = TimeGrid(n, p["horizon"])
    values = brownian_values_batch(seed.generator(), 1, grid)
    walk = walk_sums_batch(seed.generator(), 1, n)
    scaling = bool(np.array_equal(values, math.sqrt(grid.step) * walk))
    return ExperimentResult([
        _holds("workers-1-vs-8-bit-identical", identical, samples=samples),
        _holds("brownian-equals-scaled-walk", scaling),
    ])


def _quick_preset_csvs(master_seed: int, workers: int) -> dict[str, bytes]:
    """The bytes of every result and series CSV of the quick preset, by
    file name, as the CLI writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for exp_id, result in run_suite(quick_preset(), master_seed, workers).items():
            write_result_csv(out_dir / f"{exp_id}.csv", result.rows)
            for name, (header, rows) in result.series.items():
                write_csv(out_dir / f"{exp_id}__{name}.csv", header, rows)
        return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def _run_csv_identity(p, seed, workers):
    # twice at the given worker count and once at another, so a multi-worker
    # run is always compared with a single-worker one
    a, b, other = (
        _quick_preset_csvs(seed.master_seed, count)
        for count in (workers, workers, 8 if workers == 1 else 1)
    )
    return ExperimentResult([_holds("quick-preset-csvs-byte-identical", a == b == other)])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

OPERATIONS: dict[str, OpSpec] = {}


def _register(name: str, run, coupled=None, **params: Param) -> None:
    OPERATIONS[name] = OpSpec(name=name, params=params, run=run, coupled=coupled)


_register(
    "fluctuation.halfline_exact", _run_halfline_exact, n=Param(_ints, minimum=1)
)
_register(
    "fluctuation.andersen_series", _run_andersen, order=Param(int, 64, minimum=1)
)
_register(
    "fluctuation.mc_halfline",
    _run_mc_halfline,
    n=Param(_ints, minimum=1),
    samples=Param(int, minimum=2),
)
_register(
    "fluctuation.mc_bridge_stay",
    _run_mc_bridge_stay,
    n=Param(_ints, minimum=2),
    samples=Param(int, minimum=2),
)
_register(
    "fluctuation.bridge_argmax",
    _run_bridge_argmax,
    n=Param(int, minimum=2),
    samples=Param(int, minimum=2),
)
_register(
    "perimeter.halfspace",
    _run_halfspace,
    dims=Param(_ints, (1, 2, 8, 64), minimum=1),
    offset=Param(float, 0.0),
)
_register(
    "perimeter.tube",
    _run_tube,
    dim=Param(int, 4, minimum=1),
    offset=Param(float, 0.0),
    eps=Param(float, 0.01, positive=True),
    samples=Param(int, minimum=2),
    slack=Param(float, 1e-4, minimum=0),
)
_register(
    "perimeter.bridge",
    _run_perimeter_bridge,
    n=Param(_ints, minimum=2),
    samples=Param(int, minimum=2),
)
_register(
    "perimeter.offband",
    _run_offband,
    dim=Param(int, 4, minimum=1),
    eps=Param(float, positive=True),
    band=Param(float, positive=True),
    samples=Param(int, minimum=2),
)
_register(
    "perimeter.corollary_bounds",
    _run_corollary_bounds,
    max_n=Param(int, 64, minimum=1),
)
_register(
    "malliavin.grad_max",
    _run_grad_max,
    n=Param(int, 1000, minimum=1),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 1000, minimum=2),
    eps=Param(float, 1e-5, positive=True),
    tolerance=Param(float, 1e-6, positive=True),
)
_register(
    "malliavin.second_diff",
    _run_second_diff,
    n=Param(int, 1000, minimum=1),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 1000, minimum=2),
    eps=Param(float, 1e-3, positive=True),
)
_register(
    "malliavin.tied_peak",
    _run_tied_peak,
    n=Param(int, 1000, minimum=4),
    horizon=Param(float, 1.0, positive=True),
    eps=Param(float, 1e-3, positive=True),
    halvings=Param(int, 2, minimum=1),
)
_register(
    "malliavin.adjoint2_zero",
    _run_adjoint2_zero,
    n=Param(int, 256, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 100000, minimum=2),
)
_register(
    "malliavin.chain_vs_weak",
    _run_chain_vs_weak,
    coupled=_distinct_split_nodes,
    n=Param(int, 1000, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 1000000, minimum=2),
    nodes=Param(int, 24, minimum=1),
    g=Param(_functional, "const1"),
)
_register(
    "malliavin.sigma_flat",
    _run_sigma_flat,
    n=Param(int, 1000, minimum=1),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 1000, minimum=2),
    eps=Param(float, 1e-6, positive=True),
)
_register(
    "density.lt_zero",
    _run_lt_zero,
    coupled=_interior_fracs,
    horizon=Param(float, 1.0, positive=True),
    t_fracs=Param(_floats, (0.25, 0.5, 0.75)),
)
_register(
    "density.lt_zero_mc",
    _run_lt_zero_mc,
    coupled=_interior_split,
    n=Param(int, 2000, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    t_frac=Param(float, 0.5),
    samples=Param(int, 1000000, minimum=2),
)
_register(
    "density.tv_bound",
    _run_tv_bound,
    coupled=_two_distinct_n,
    n=Param(_ints, (100, 1000, 2000), minimum=3),
    horizon=Param(float, 1.0, positive=True),
)
_register("density.limit_integral", _run_limit_integral)
_register("density.riemann", _run_riemann, n=Param(int, 2000, minimum=3))
_register(
    "density.asymptote",
    _run_asymptote,
    coupled=_bound_per_n,
    n=Param(_ints, (10, 100, 1000), minimum=1),
    bounds=Param(_floats, (0.03, 0.003, 0.0003), positive=True),
)
_register(
    "density.curve_mass",
    _run_density_mass,
    lengths=Param(_floats, (0.5, 1.0, 4.0), positive=True),
)
_register(
    "concentration.unique_max",
    _run_unique_max,
    n=Param(int, 1000, minimum=1),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 1000000, minimum=2),
)
_register(
    "concentration.excess_ladder",
    _run_excess_ladder,
    coupled=_interior_split,
    n=Param(int, 1000, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    t_frac=Param(float, 0.5),
    eps=Param(float, 0.01, positive=True),
    deltas=Param(_floats, (0.2, 0.1, 0.05, 0.025), positive=True),
    samples=Param(int, 1000000, minimum=2),
)
_register(
    "concentration.double_max_ladder",
    _run_double_max_ladder,
    coupled=_interior_split,
    n=Param(int, 1000, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    t_frac=Param(float, 0.5),
    epss=Param(_floats, (0.08, 0.3, 1e9), positive=True),
    delta=Param(float, 0.05, positive=True),
    samples=Param(int, 1000000, minimum=2),
)
_register(
    "sampling.moments",
    _run_sampler_moments,
    n=Param(int, 10, minimum=1),
    brownian_n=Param(int, 1000, minimum=1),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 100000, minimum=2),
)
_register(
    "sampling.worker_invariance",
    _run_worker_invariance,
    n=Param(int, 10, minimum=1),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 100000, minimum=2),
)
_register("sampling.csv_identity", _run_csv_identity)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully configured experiment: id, operation, params, stream."""

    exp_id: str
    operation: str
    params: dict
    stream: int


def run_experiment(
    spec: ExperimentSpec, master_seed: int, workers: int = 1
) -> ExperimentResult:
    op = OPERATIONS[spec.operation]
    params = validate_params(op, spec.params, f"experiment:{spec.exp_id}")
    seed = SeedSpec(master_seed, spec.stream)
    fingerprint = stable_fingerprint(
        {
            "experiment": spec.exp_id,
            "operation": spec.operation,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()},
            "seed": [master_seed, spec.stream],
            "rng": RNG_ALGORITHM,
        }
    )
    result = op.run(params, seed, workers)
    result.rows = [
        replace(r, experiment=spec.exp_id, seed=seed.label, fingerprint=fingerprint)
        for r in result.rows
    ]
    return result


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: its number, a short title, experiments."""

    number: int
    title: str
    experiments: tuple[ExperimentSpec, ...]


#: One row per experiment id: (id, operation, acceptance stream, quick
#: stream, acceptance params, quick overrides).  A stream of None leaves the
#: row out of that preset.  A quick row runs the acceptance params with its
#: overrides applied, so it states only what differs.  An acceptance stream
#: is 10 * criterion + j.
_PRESETS: tuple[tuple[str, str, int | None, int | None, dict, dict], ...] = (
    ("andersen64", "fluctuation.andersen_series", 10, 1010, dict(order=64), {}),
    ("halfline-mc", "fluctuation.mc_halfline", None, 1020,
     {}, dict(n=(1, 10), samples=30_000)),
    ("bridge-stay", "fluctuation.mc_bridge_stay", 20, 1030,
     dict(n=(2, 5, 10, 100), samples=1_000_000), dict(n=(2, 10), samples=30_000)),
    ("bridge-argmax", "fluctuation.bridge_argmax", 30, 1040,
     dict(n=20, samples=100_000), dict(n=10, samples=20_000)),
    ("halfspace", "perimeter.halfspace", 40, 1050,
     dict(dims=(1, 2, 8, 64)), dict(dims=(1, 2, 8))),
    ("tube", "perimeter.tube", 41, 1060,
     dict(dim=4, eps=0.01, samples=1_000_000, slack=1e-4),
     dict(dim=3, eps=0.02, samples=100_000, slack=4e-4)),
    ("restricted", "perimeter.bridge", 42, 1070,
     dict(n=(2, 10, 100), samples=1_000_000), dict(n=(2, 10), samples=30_000)),
    ("offband", "perimeter.offband", None, 1080,
     {}, dict(dim=3, eps=0.02, band=0.01, samples=400_000)),
    ("bounds", "perimeter.corollary_bounds", 50, 1090, dict(max_n=64), {}),
    ("asymptote", "density.asymptote", 51, 1190,
     dict(n=(10, 100, 1000), bounds=(0.03, 0.003, 0.0003)),
     dict(n=(10, 100), bounds=(0.03, 0.003))),
    ("grad-max", "malliavin.grad_max", 60, 1100,
     dict(n=1000, samples=1000, eps=1e-5, tolerance=1e-6), dict(n=500, samples=200)),
    ("second-diff", "malliavin.second_diff", 70, 1110,
     dict(n=1000, samples=1000, eps=1e-3), dict(n=500, samples=200)),
    ("tied-peak", "malliavin.tied_peak", 71, 1120,
     dict(n=1000, eps=1e-3, halvings=2), dict(n=500)),
    ("adjoint2", "malliavin.adjoint2_zero", 80, 1130,
     dict(n=256, samples=100_000), dict(n=128, samples=20_000)),
    ("chain-const", "malliavin.chain_vs_weak", 90, None,
     dict(n=1000, samples=1_000_000, nodes=24, g="const1"), {}),
    ("chain-bump", "malliavin.chain_vs_weak", 92, None,
     dict(n=1000, samples=1_000_000, nodes=24, g="bump"), {}),
    ("sigma-flat", "malliavin.sigma_flat", None, 1140,
     {}, dict(n=500, samples=500, eps=1e-6)),
    ("lt-zero", "density.lt_zero", 100, 1150, dict(t_fracs=(0.25, 0.5, 0.75)), {}),
    ("lt-zero-mc", "density.lt_zero_mc", 101, None,
     dict(n=2000, t_frac=0.5, samples=1_000_000), {}),
    ("curve-mass", "density.curve_mass", 102, 1200, {}, {}),
    ("tv-bound", "density.tv_bound", 110, 1180, dict(n=(100, 1000, 2000)), {}),
    ("limit-integral", "density.limit_integral", 120, 1160, {}, {}),
    ("riemann", "density.riemann", 121, 1170, dict(n=2000), {}),
    ("unique-max", "concentration.unique_max", 130, 1210,
     dict(n=1000, samples=1_000_000), dict(n=500, samples=50_000)),
    ("excess-ladder", "concentration.excess_ladder", 131, 1220,
     dict(n=1000, t_frac=0.5, eps=0.01, deltas=(0.2, 0.1, 0.05, 0.025),
          samples=1_000_000),
     dict(n=500, eps=0.02, deltas=(0.2, 0.1, 0.05), samples=100_000)),
    ("double-max", "concentration.double_max_ladder", 132, None,
     dict(n=1000, t_frac=0.5, epss=(0.08, 0.3, 1e9), delta=0.05, samples=1_000_000),
     {}),
    ("moments", "sampling.moments", None, 1230,
     {}, dict(n=10, brownian_n=1000, samples=50_000)),
    ("workers", "sampling.worker_invariance", 140, 1240,
     dict(n=10, samples=100_000), dict(samples=50_000)),
    ("csv-reproducibility", "sampling.csv_identity", 141, None, {}, {}),
)

_TITLES = {
    1: "exact generating-function identity to order 64",
    2: "bridge stay probability equals 1/n",
    3: "bridge argmax uniform on n cells, no exact ties",
    4: "halfspace perimeter: exact, tube, and bridge routes",
    5: "corollary bounds with constant 1 and Stirling asymptote",
    6: "gradient identity fd(M) = h(argmax time)",
    7: "second differences: a.s. zero, tied-peak divergence",
    8: "double integration by parts annihilates constants",
    9: "chain-max estimator matches the double-IBP route",
    10: "split-gap density: constant in t, matches MC KDE",
    11: "discrete total-variation bound: bounded, converging",
    12: "limit integral equals 2*pi; Riemann sum approaches it",
    13: "concentration trends of the double-maximum witnesses",
    14: "reproducibility: worker invariance",
}


def _preset(quick: bool) -> list[ExperimentSpec]:
    """One preset's rows of the table, in the order of their streams."""
    specs = []
    for exp_id, operation, stream, quick_stream, params, overrides in _PRESETS:
        if quick:
            stream, params = quick_stream, {**params, **overrides}
        if stream is not None:
            specs.append(ExperimentSpec(exp_id, operation, dict(params), stream))
    return sorted(specs, key=lambda s: s.stream)


def acceptance_criteria() -> list[Criterion]:
    """The full acceptance suite: criterion k runs, in stream order, every
    experiment whose acceptance stream // 10 is k."""
    return [
        Criterion(number, _TITLES[number], tuple(specs))
        for number, specs in groupby(_preset(quick=False), key=lambda s: s.stream // 10)
    ]


def quick_preset() -> list[ExperimentSpec]:
    """Exact identities plus small Monte Carlo; runs in well under a minute."""
    return _preset(quick=True)


def run_suite(
    specs: list[ExperimentSpec], master_seed: int, workers: int = 1
) -> dict[str, ExperimentResult]:
    """Run a preset in order; returns results keyed by experiment id."""
    out: dict[str, ExperimentResult] = {}
    for spec in specs:
        if spec.exp_id in out:
            raise ConfigError(f"duplicate experiment id {spec.exp_id!r}")
        out[spec.exp_id] = run_experiment(spec, master_seed, workers)
    return out
