"""The experiment registry: every named operation the CLI can run, with its
parameter schema, plus the quick and full verification presets.

Each operation maps validated parameters to an :class:`ExperimentResult`
whose rows carry values, references, tolerances, and verdicts.  The full
preset is the acceptance suite; the quick preset is a under-a-minute subset
with smaller sample counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import density, fluctuation, malliavin, perimeter
from . import concentration as conc
from .cylindrical import catalog, catalog_entry, constant_one
from .errors import ConfigError
from .paths import Direction, TimeGrid
from .reporting import ExperimentResult, ResultRow, stable_fingerprint
from .sampling import (
    RNG_ALGORITHM,
    MCEstimate,
    SeedSpec,
    brownian_values_batch,
    mc_run,
    mc_run_many,
    sample_brownian,
    sample_walk,
    walk_sums_batch,
)

#: Master seed of the built-in presets; override with ``--seed``.
DEFAULT_MASTER_SEED = 20260809


# ---------------------------------------------------------------------------
# Parameter schema
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _floats(text: Any) -> tuple[float, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(float(x) for x in text)
    return tuple(float(p) for p in str(text).split(",") if p.strip())


def _ints(text: Any) -> tuple[int, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(int(x) for x in text)
    return tuple(int(p) for p in str(text).split(",") if p.strip())


@dataclass(frozen=True)
class Param:
    """A parameter's parser, its default, and optional range checks that
    every element of a tuple value must meet too: an integer lower bound,
    or ``positive`` for a float that must be > 0 (which rejects NaN).  Every
    float must be finite."""

    cast: Callable[[Any], Any]
    default: Any = _REQUIRED
    minimum: int | None = None
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


def _row(check: str, value, **kw) -> ResultRow:
    return ResultRow(experiment="", check=check, value=value, **kw)


def _mc_row(check: str, est: MCEstimate, reference: float, slack: float = 0.0) -> ResultRow:
    tol = 3.0 * est.std_error + slack
    return _row(
        check,
        est.mean,
        std_error=est.std_error,
        reference=reference,
        tolerance=tol,
        passed=abs(est.mean - reference) <= tol,
        samples=est.samples,
    )


# ---------------------------------------------------------------------------
# fluctuation
# ---------------------------------------------------------------------------

def _run_halfline_exact(p, seed, workers):
    res = ExperimentResult()
    for n in p["n"]:
        q = fluctuation.halfline_prob_exact(n)
        res.rows.append(_row(f"halfline-exact-n{n}", fluctuation.rational_str(q)))
    return res


def _run_andersen(p, seed, workers):
    lhs, rhs = fluctuation.andersen_series_check(p["order"])
    match = lhs.coefficients == rhs.coefficients
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"series-exponential-equals-binomial-order{p['order']}",
            match,
            reference=True,
            tolerance=0.0,
            passed=match,
        )
    )
    res.series["coefficients"] = (
        ("n", "exp_side", "binomial_side"),
        [
            (i, fluctuation.rational_str(a), fluctuation.rational_str(b))
            for i, (a, b) in enumerate(zip(lhs.coefficients, rhs.coefficients))
        ],
    )
    return res


def _run_mc_halfline(p, seed, workers):
    res = ExperimentResult()
    for n in p["n"]:
        est = fluctuation.mc_halfline_prob(n, p["samples"], seed, workers=workers)
        res.rows.append(
            _mc_row(f"stay-below-n{n}", est, float(fluctuation.halfline_prob_exact(n)))
        )
    return res


def _run_mc_bridge_stay(p, seed, workers):
    res = ExperimentResult()
    for n in p["n"]:
        est = fluctuation.mc_bridge_stay_prob(n, p["samples"], seed, workers=workers)
        res.rows.append(_mc_row(f"bridge-stay-n{n}", est, 1.0 / n))
    return res


def _run_bridge_argmax(p, seed, workers):
    n = p["n"]
    hist = fluctuation.bridge_argmax_histogram(n, p["samples"], seed, workers=workers)
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"argmax-uniform-chi2-pvalue-n{n}",
            hist.p_value,
            reference=">1e-3",
            tolerance=1e-3,
            passed=hist.p_value > 1e-3,
            samples=hist.samples,
        )
    )
    res.rows.append(
        _row(
            f"argmax-exact-ties-n{n}",
            hist.ties,
            reference=0,
            tolerance=0.0,
            passed=hist.ties == 0,
            samples=hist.samples,
        )
    )
    res.series["histogram"] = (("position", "count"), hist.rows())
    return res


# ---------------------------------------------------------------------------
# perimeter
# ---------------------------------------------------------------------------

def _run_halfspace(p, seed, workers):
    res = ExperimentResult()
    values = []
    for dim in p["dims"]:
        spec = perimeter.HalfspaceSpec(np.ones(dim), p["offset"])
        values.append(perimeter.halfspace_perimeter(spec).value)
    same = all(v == values[0] for v in values)
    ref = perimeter.HALFSPACE_PERIMETER if p["offset"] == 0.0 else values[0]
    res.rows.append(
        _row(
            "dimension-independence",
            same,
            reference=True,
            tolerance=0.0,
            passed=same,
        )
    )
    if p["offset"] == 0.0:
        res.rows.append(
            _row(
                "origin-halfspace-value",
                values[0],
                reference=ref,
                tolerance=0.0,
                passed=values[0] == ref,
            )
        )
    return res


def _run_tube(p, seed, workers):
    spec = perimeter.HalfspaceSpec(np.ones(p["dim"]), p["offset"])
    est = perimeter.tube_perimeter(spec, p["eps"], p["samples"], seed, workers=workers)
    exact = perimeter.halfspace_perimeter(spec).value
    tol = 3.0 * est.std_error + p["slack"]
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"tube-vs-exact-eps{p['eps']}",
            est.value,
            std_error=est.std_error,
            reference=exact,
            tolerance=tol,
            passed=abs(est.value - exact) <= tol,
            samples=est.samples,
        )
    )
    return res


def _run_perimeter_bridge(p, seed, workers):
    res = ExperimentResult()
    for n in p["n"]:
        est = perimeter.restricted_perimeter_bridge(n, p["samples"], seed, workers=workers)
        ref = perimeter.HALFSPACE_PERIMETER / n
        tol = 3.0 * est.std_error
        res.rows.append(
            _row(
                f"restricted-perimeter-n{n}",
                est.value,
                std_error=est.std_error,
                reference=ref,
                tolerance=tol,
                passed=abs(est.value - ref) <= tol,
                samples=est.samples,
            )
        )
    return res


def _run_offband(p, seed, workers):
    est = perimeter.concentration_offband_mass(
        p["dim"], p["eps"], p["band"], p["samples"], seed, workers=workers
    )
    res = ExperimentResult()
    if p["band"] >= p["eps"]:
        res.rows.append(
            _row(
                "offband-mass-inclusion",
                est.mean,
                reference=0.0,
                tolerance=0.0,
                passed=est.mean == 0.0,
                samples=est.samples,
            )
        )
    else:
        ref = 1.0 - p["band"] / p["eps"]  # flat-density limit of a thin tube
        res.rows.append(_mc_row("offband-mass-thin-tube", est, ref, slack=0.01))
    return res


def _run_corollary_bounds(p, seed, workers):
    ok = perimeter.corollary_bounds_exact(p["max_n"])
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"corollary-bounds-C1-n<=:{p['max_n']}",
            ok,
            reference=True,
            tolerance=0.0,
            passed=ok,
        )
    )
    return res


# ---------------------------------------------------------------------------
# malliavin
# ---------------------------------------------------------------------------

def _run_grad_max(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    cfg = malliavin.FDConfig(eps=p["eps"], tolerance=p["tolerance"])
    reports = malliavin.verify_grad_max(grid, p["samples"], seed, cfg, workers=workers)
    res = ExperimentResult()
    for r in reports:
        res.rows.append(
            _row(
                f"gradient-identity-{r.direction}",
                r.fraction_ok,
                reference=">=0.99",
                tolerance=0.99,
                passed=r.fraction_ok >= 0.99 and r.checked > 0,
                samples=r.checked,
            )
        )
    return res


def _run_second_diff(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    cfg = malliavin.FDConfig(eps=p["eps"])
    r = malliavin.second_difference_zero_fraction(
        grid, p["samples"], seed, cfg, workers=workers
    )
    res = ExperimentResult()
    res.rows.append(
        _row(
            "second-difference-exact-zero",
            r.fraction_ok,
            reference=">=0.99",
            tolerance=0.99,
            passed=r.fraction_ok >= 0.99 and r.checked > 0,
            samples=r.checked,
        )
    )
    return res


def _run_tied_peak(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    mags = malliavin.tied_peak_second_differences(grid, p["eps"], p["halvings"])
    res = ExperimentResult()
    for i in range(p["halvings"]):
        ratio = mags[i + 1] / mags[i]
        res.rows.append(
            _row(
                f"tied-peak-doubling-{i}",
                ratio,
                reference=2.0,
                tolerance=0.3,
                passed=abs(ratio - 2.0) <= 0.3,
            )
        )
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


def _run_weak_symmetry(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    g = catalog_entry(grid, p["g"])
    h = Direction.constant(grid)
    k = Direction.indicator(grid, 0.0, grid.horizon / 2, label="front-half")
    e1 = malliavin.d2m_weak_estimator(g, k, h, grid, p["samples"], seed, workers=workers)
    e2 = malliavin.d2m_weak_estimator(
        g, h, k, grid, p["samples"],
        SeedSpec(seed.master_seed, seed.stream_index + 1), workers=workers,
    )
    comb = math.hypot(e1.std_error, e2.std_error)
    gap = abs(e1.mean - e2.mean)
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"weak-estimator-symmetry-{p['g']}",
            gap,
            std_error=comb,
            reference=0.0,
            tolerance=3.0 * comb,
            passed=gap <= 3.0 * comb,
            samples=e1.samples + e2.samples,
        )
    )
    return res


def _run_chain_vs_weak(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    g = catalog_entry(grid, p["g"]) if p["g"] != "const1" else constant_one(grid)
    h = Direction.constant(grid)
    k = Direction.constant(grid)
    # both routes on common paths: the gate is a paired test on their
    # per-path difference, whose standard error accounts for the correlation
    weak, chain, diff = malliavin.chain_vs_weak_paired(
        g, k, h, grid, malliavin.KernelConfig(), p["samples"], seed,
        nodes=p["nodes"], workers=workers,
    )
    primary = chain.estimate_half  # less kernel bias; diagnostic bounds the rest
    tol = 3.0 * diff.std_error + chain.bias_diagnostic
    gap = abs(diff.mean)
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"chain-vs-weak-{p['g']}",
            gap,
            std_error=diff.std_error,
            reference=0.0,
            tolerance=tol,
            passed=gap <= tol,
            samples=diff.samples,
        )
    )
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
    frac = malliavin.sigma_fd_zero_fraction(
        grid, p["samples"], seed, malliavin.FDConfig(eps=p["eps"]), workers=workers
    )
    stat = malliavin.sigma_functional(sample_brownian(grid, seed))
    res = ExperimentResult()
    res.rows.append(
        _row(
            "argmax-time-fd-zero-fraction",
            frac,
            reference=">=0.99",
            tolerance=0.99,
            passed=frac >= 0.99,
            samples=p["samples"],
        )
    )
    res.rows.append(
        _row(
            "argmax-time-running-gradient-identity",
            abs(stat.sigma - stat.riemann_sum),
            reference=0.0,
            tolerance=grid.step,
            passed=abs(stat.sigma - stat.riemann_sum) <= grid.step,
        )
    )
    return res


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _run_lt_zero(p, seed, workers):
    horizon = p["horizon"]
    values = [density.lt_zero(t * horizon, horizon) for t in p["t_fracs"]]
    closed = density.lt_zero_closed(horizon)
    spread = max(values) - min(values)
    res = ExperimentResult()
    res.rows.append(
        _row(
            "split-density-constancy",
            spread,
            reference=0.0,
            tolerance=1e-10,
            passed=spread <= 1e-10,
        )
    )
    for t, v in zip(p["t_fracs"], values):
        res.rows.append(
            _row(
                f"split-density-t{t}",
                v,
                reference=closed,
                tolerance=1e-9,
                passed=abs(v - closed) <= 1e-9,
            )
        )
    return res


def _run_lt_zero_mc(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    t_index = _split_index(p)
    kde = malliavin.split_gap_density_mc(
        t_index, grid, malliavin.KernelConfig(), p["samples"], seed, workers=workers
    )
    ref = density.lt_zero(p["t_frac"] * p["horizon"], p["horizon"])
    est = kde.estimate_half
    rel = abs(est.mean - ref) / ref
    res = ExperimentResult()
    res.rows.append(
        _row(
            "split-density-mc-vs-quadrature",
            est.mean,
            std_error=est.std_error,
            reference=ref,
            tolerance=0.02 * ref,
            passed=rel <= 0.02,
            samples=est.samples,
        )
    )
    return res


def _run_tv_bound(p, seed, workers):
    ns = sorted(p["n"])
    horizon = p["horizon"]
    rows = density.tv_bound_table(ns, horizon)
    res = ExperimentResult()
    last, prev = rows[-1], rows[-2]
    drift = abs(last.total - prev.total) / last.total
    res.rows.append(
        _row(
            f"bound-drift-n{prev.n}-to-n{last.n}",
            drift,
            reference="<0.01",
            tolerance=0.01,
            passed=drift < 0.01,
        )
    )
    decreasing = all(
        rows[i].boundary > rows[i + 1].boundary for i in range(len(rows) - 1)
    )
    res.rows.append(
        _row(
            "boundary-remainder-decreasing",
            decreasing,
            reference=True,
            tolerance=0.0,
            passed=decreasing,
        )
    )
    scaled = density.tv_bound_discrete(last.n, 4.0 * horizon)
    exact_scaling = scaled.total == 2.0 * last.total
    res.rows.append(
        _row(
            "sqrt-horizon-scaling-exact",
            exact_scaling,
            reference=True,
            tolerance=0.0,
            passed=exact_scaling,
        )
    )
    res.series["bound"] = (
        ("n", "total", "boundary", "bulk"),
        [(r.n, r.total, r.boundary, r.bulk) for r in rows],
    )
    return res


def _run_limit_integral(p, seed, workers):
    li = density.limit_integral()
    res = ExperimentResult()
    res.rows.append(
        _row(
            "limit-integral-value",
            li.value,
            reference=2.0 * math.pi,
            tolerance=1e-6,
            passed=abs(li.value - 2.0 * math.pi) <= 1e-6,
        )
    )
    res.rows.append(
        _row(
            "limit-integral-error-estimate",
            li.error_estimate,
            reference="<1e-8",
            tolerance=1e-8,
            passed=li.error_estimate < 1e-8,
        )
    )
    inner = density.inner_arcsine_integral(0.3)
    res.rows.append(
        _row(
            "inner-integral-t0.3",
            inner,
            reference=math.pi,
            tolerance=1e-8,
            passed=abs(inner - math.pi) <= 1e-8,
        )
    )
    return res


def _run_riemann(p, seed, workers):
    value = density.limit_integral_riemann(p["n"])
    ref = 2.0 * math.pi
    rel = abs(value - ref) / ref
    res = ExperimentResult()
    res.rows.append(
        _row(
            f"riemann-sum-n{p['n']}",
            value,
            reference=ref,
            tolerance=0.05 * ref,
            passed=rel <= 0.05,
        )
    )
    return res


def _run_asymptote(p, seed, workers):
    res = ExperimentResult()
    gaps = []
    for n, bound in zip(p["n"], p["bounds"]):
        a = density.asymptotic_match(n)
        gaps.append(a)
        res.rows.append(
            _row(
                f"stirling-gap-n{n}",
                a.relative_gap,
                reference=f"<{bound}",
                tolerance=bound,
                passed=a.relative_gap < bound,
            )
        )
    decreasing = all(
        gaps[i].relative_gap > gaps[i + 1].relative_gap for i in range(len(gaps) - 1)
    )
    res.rows.append(
        _row(
            "stirling-gap-decreasing",
            decreasing,
            reference=True,
            tolerance=0.0,
            passed=decreasing,
        )
    )
    res.series["asymptote"] = (
        ("n", "scaled_value", "reference"),
        [(a.n, a.scaled_value, a.reference) for a in gaps],
    )
    return res


def _run_density_mass(p, seed, workers):
    res = ExperimentResult()
    for length in p["lengths"]:
        curve = density.segment_max_curve(length)
        res.rows.append(
            _row(
                f"segment-max-mass-L{length}",
                curve.total_mass_check,
                reference=1.0,
                tolerance=1e-6,
                passed=abs(curve.total_mass_check - 1.0) <= 1e-6,
            )
        )
    return res


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

def _run_unique_max(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    ts = conc.unique_max_check(grid, p["samples"], seed, workers=workers)
    res = ExperimentResult()
    res.rows.append(
        _row(
            "exact-ties",
            ts.ties,
            reference=0,
            tolerance=0.0,
            passed=ts.ties == 0,
            samples=ts.samples,
        )
    )
    monotone = all(
        ts.fractions[i] > ts.fractions[i + 1] for i in range(len(ts.fractions) - 1)
    )
    res.rows.append(
        _row(
            "small-gap-fractions-monotone",
            monotone,
            reference=True,
            tolerance=0.0,
            passed=monotone,
            samples=ts.samples,
        )
    )
    ratios_ok = all(
        ts.fractions[i + 1] < ts.fractions[i]
        and (ts.fractions[i] == 0.0 or ts.fractions[i + 1] / ts.fractions[i] < 1.0)
        for i in range(len(ts.fractions) - 1)
    )
    res.rows.append(
        _row(
            "no-atom-at-zero-gap",
            ratios_ok,
            reference=True,
            tolerance=0.0,
            passed=ratios_ok,
            samples=ts.samples,
        )
    )
    res.series["gap_fractions"] = (
        ("threshold", "fraction"),
        list(zip(ts.thresholds, ts.fractions)),
    )
    return res


def _run_excess_ladder(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    scale = math.sqrt(p["horizon"])
    t_index = _split_index(p)
    deltas = [d * scale for d in p["deltas"]]
    ests = conc.excess_conditional_ladder(
        t_index, p["eps"] * scale, deltas, grid, p["samples"], seed, workers=workers
    )
    res = ExperimentResult()
    decreasing = all(ests[i].mean > ests[i + 1].mean for i in range(len(ests) - 1))
    res.rows.append(
        _row(
            "excess-fraction-strictly-decreasing",
            decreasing,
            reference=True,
            tolerance=0.0,
            passed=decreasing,
            samples=ests[0].samples,
        )
    )
    res.series["ladder"] = (
        ("delta", "fraction", "std_error"),
        [(d, e.mean, e.std_error) for d, e in zip(deltas, ests)],
    )
    return res


def _run_double_max_ladder(p, seed, workers):
    grid = TimeGrid(p["n"], p["horizon"])
    scale = math.sqrt(p["horizon"])
    t_index = _split_index(p)
    epss = [e * scale if e < 1e8 else e for e in p["epss"]]
    summaries = conc.double_max_ladder(
        t_index, epss, p["delta"] * scale, grid, p["samples"], seed, workers=workers
    )
    res = ExperimentResult()
    # summaries come back sorted by ascending eps, so a fraction that rises as
    # the window shrinks means strictly decreasing along the list
    increasing = all(
        summaries[i].both_fraction > summaries[i + 1].both_fraction
        for i in range(len(summaries) - 1)
    )
    res.rows.append(
        _row(
            "both-excess-increases-as-eps-shrinks",
            increasing,
            reference=True,
            tolerance=0.0,
            passed=increasing,
            samples=summaries[0].conditioned,
        )
    )
    separated = all(s.argmax_separated for s in summaries)
    res.rows.append(
        _row(
            "argmax-separation",
            separated,
            reference=True,
            tolerance=0.0,
            passed=separated,
        )
    )
    tight = summaries[0]
    res.rows.append(
        _row(
            f"both-excess-regression-eps{p['epss'][0]}",
            tight.both_fraction,
            std_error=tight.std_error,
            reference=">0.85",
            tolerance=0.85,
            passed=tight.both_fraction > 0.85,
            samples=tight.conditioned,
        )
    )
    res.series["ladder"] = (
        ("eps", "conditioned", "both_fraction", "std_error"),
        [(s.eps, s.conditioned, s.both_fraction, s.std_error) for s in summaries],
    )
    res.series["scatter"] = (
        ("left_excess", "right_excess"),
        [(float(a), float(b)) for a, b in summaries[0].scatter],
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
    res = ExperimentResult()
    res.rows.append(
        _row(
            "workers-1-vs-8-bit-identical",
            identical,
            reference=True,
            tolerance=0.0,
            passed=identical,
            samples=samples,
        )
    )
    grid = TimeGrid(n, p["horizon"])
    walk = sample_walk(n, seed)
    path = sample_brownian(grid, seed)
    scaling = bool(
        np.array_equal(path.values, math.sqrt(grid.step) * walk.partial_sums)
    )
    res.rows.append(
        _row(
            "brownian-equals-scaled-walk",
            scaling,
            reference=True,
            tolerance=0.0,
            passed=scaling,
        )
    )
    return res


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
    slack=Param(float, 1e-4),
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
    "malliavin.weak_symmetry",
    _run_weak_symmetry,
    n=Param(int, 500, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 200000, minimum=2),
    g=Param(str, "bump"),
)
_register(
    "malliavin.chain_vs_weak",
    _run_chain_vs_weak,
    coupled=_distinct_split_nodes,
    n=Param(int, 1000, minimum=2),
    horizon=Param(float, 1.0, positive=True),
    samples=Param(int, 1000000, minimum=2),
    nodes=Param(int, 24, minimum=1),
    g=Param(str, "const1"),
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
        ResultRow(
            experiment=spec.exp_id,
            check=r.check,
            value=r.value,
            std_error=r.std_error,
            reference=r.reference,
            tolerance=r.tolerance,
            passed=r.passed,
            samples=r.samples,
            seed=seed.label,
            fingerprint=fingerprint,
        )
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


def _spec(exp_id: str, operation: str, stream: int, **params) -> ExperimentSpec:
    return ExperimentSpec(
        exp_id=exp_id, operation=operation, params=params, stream=stream
    )


def acceptance_criteria() -> list[Criterion]:
    """The full acceptance suite; criterion 14's CSV byte-identity check is
    orchestrated by the CLI verify command on top of these."""
    return [
        Criterion(1, "exact generating-function identity to order 64", (
            _spec("andersen64", "fluctuation.andersen_series", 10, order=64),
        )),
        Criterion(2, "bridge stay probability equals 1/n", (
            _spec("bridge-stay", "fluctuation.mc_bridge_stay", 20,
                  n=(2, 5, 10, 100), samples=1_000_000),
        )),
        Criterion(3, "bridge argmax uniform on n cells, no exact ties", (
            _spec("bridge-argmax", "fluctuation.bridge_argmax", 30,
                  n=20, samples=100_000),
        )),
        Criterion(4, "halfspace perimeter: exact, tube, and bridge routes", (
            _spec("halfspace", "perimeter.halfspace", 40, dims=(1, 2, 8, 64)),
            _spec("tube", "perimeter.tube", 41,
                  dim=4, eps=0.01, samples=1_000_000, slack=1e-4),
            _spec("restricted", "perimeter.bridge", 42,
                  n=(2, 10, 100), samples=1_000_000),
        )),
        Criterion(5, "corollary bounds with constant 1 and Stirling asymptote", (
            _spec("bounds", "perimeter.corollary_bounds", 50, max_n=64),
            _spec("asymptote", "density.asymptote", 51,
                  n=(10, 100, 1000), bounds=(0.03, 0.003, 0.0003)),
        )),
        Criterion(6, "gradient identity fd(M) = h(argmax time)", (
            _spec("grad-max", "malliavin.grad_max", 60,
                  n=1000, samples=1000, eps=1e-5, tolerance=1e-6),
        )),
        Criterion(7, "second differences: a.s. zero, tied-peak divergence", (
            _spec("second-diff", "malliavin.second_diff", 70,
                  n=1000, samples=1000, eps=1e-3),
            _spec("tied-peak", "malliavin.tied_peak", 71,
                  n=1000, eps=1e-3, halvings=2),
        )),
        Criterion(8, "double integration by parts annihilates constants", (
            _spec("adjoint2", "malliavin.adjoint2_zero", 80,
                  n=256, samples=100_000),
            _spec("symmetry", "malliavin.weak_symmetry", 82,
                  n=500, samples=200_000, g="bump"),
        )),
        Criterion(9, "chain-max estimator matches the double-IBP route", (
            _spec("chain-const", "malliavin.chain_vs_weak", 90,
                  n=1000, samples=1_000_000, nodes=24, g="const1"),
            _spec("chain-bump", "malliavin.chain_vs_weak", 92,
                  n=1000, samples=1_000_000, nodes=24, g="bump"),
        )),
        Criterion(10, "split-gap density: constant in t, matches MC KDE", (
            _spec("lt-zero", "density.lt_zero", 100, t_fracs=(0.25, 0.5, 0.75)),
            _spec("lt-zero-mc", "density.lt_zero_mc", 101,
                  n=2000, t_frac=0.5, samples=1_000_000),
            _spec("curve-mass", "density.curve_mass", 102),
        )),
        Criterion(11, "discrete total-variation bound: bounded, converging", (
            _spec("tv-bound", "density.tv_bound", 110, n=(100, 1000, 2000)),
        )),
        Criterion(12, "limit integral equals 2*pi; Riemann sum approaches it", (
            _spec("limit-integral", "density.limit_integral", 120),
            _spec("riemann", "density.riemann", 121, n=2000),
        )),
        Criterion(13, "concentration trends of the double-maximum witnesses", (
            _spec("unique-max", "concentration.unique_max", 130,
                  n=1000, samples=1_000_000),
            _spec("excess-ladder", "concentration.excess_ladder", 131,
                  n=1000, t_frac=0.5, eps=0.01,
                  deltas=(0.2, 0.1, 0.05, 0.025), samples=1_000_000),
            _spec("double-max", "concentration.double_max_ladder", 132,
                  n=1000, t_frac=0.5, epss=(0.08, 0.3, 1e9),
                  delta=0.05, samples=1_000_000),
        )),
        Criterion(14, "reproducibility: worker invariance (CSV identity via CLI)", (
            _spec("workers", "sampling.worker_invariance", 140,
                  n=10, samples=100_000),
        )),
    ]


def quick_preset() -> list[ExperimentSpec]:
    """Exact identities plus small Monte Carlo; runs in well under a minute."""
    return [
        _spec("andersen64", "fluctuation.andersen_series", 1010, order=64),
        _spec("halfline-mc", "fluctuation.mc_halfline", 1020,
              n=(1, 10), samples=30_000),
        _spec("bridge-stay", "fluctuation.mc_bridge_stay", 1030,
              n=(2, 10), samples=30_000),
        _spec("bridge-argmax", "fluctuation.bridge_argmax", 1040,
              n=10, samples=20_000),
        _spec("halfspace", "perimeter.halfspace", 1050, dims=(1, 2, 8)),
        _spec("tube", "perimeter.tube", 1060,
              dim=3, eps=0.02, samples=100_000, slack=4e-4),
        _spec("restricted", "perimeter.bridge", 1070, n=(2, 10), samples=30_000),
        _spec("offband", "perimeter.offband", 1080,
              dim=3, eps=0.02, band=0.01, samples=400_000),
        _spec("bounds", "perimeter.corollary_bounds", 1090, max_n=64),
        _spec("grad-max", "malliavin.grad_max", 1100,
              n=500, samples=200, eps=1e-5, tolerance=1e-6),
        _spec("second-diff", "malliavin.second_diff", 1110,
              n=500, samples=200, eps=1e-3),
        _spec("tied-peak", "malliavin.tied_peak", 1120, n=500, eps=1e-3, halvings=2),
        _spec("adjoint2", "malliavin.adjoint2_zero", 1130, n=128, samples=20_000),
        _spec("sigma-flat", "malliavin.sigma_flat", 1140,
              n=500, samples=500, eps=1e-6),
        _spec("lt-zero", "density.lt_zero", 1150, t_fracs=(0.25, 0.5, 0.75)),
        _spec("limit-integral", "density.limit_integral", 1160),
        _spec("riemann", "density.riemann", 1170, n=2000),
        _spec("tv-bound", "density.tv_bound", 1180, n=(100, 1000, 2000)),
        _spec("asymptote", "density.asymptote", 1190,
              n=(10, 100), bounds=(0.03, 0.003)),
        _spec("curve-mass", "density.curve_mass", 1200),
        _spec("unique-max", "concentration.unique_max", 1210,
              n=500, samples=50_000),
        _spec("excess-ladder", "concentration.excess_ladder", 1220,
              n=500, t_frac=0.5, eps=0.02, deltas=(0.2, 0.1, 0.05),
              samples=100_000),
        _spec("moments", "sampling.moments", 1230,
              n=10, brownian_n=1000, samples=50_000),
        _spec("workers", "sampling.worker_invariance", 1240, n=10, samples=50_000),
    ]


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
