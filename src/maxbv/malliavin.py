"""Finite-difference Malliavin operators on path functionals.

Four layers of machinery around the running maximum M:

- central first differences that verify the gradient identity
  d_h M = h(first argmax time) on paths with a unique, well-separated argmax;
- central second differences that certify the almost-sure vanishing of
  pointwise curvature (with an explicit tied-peak path where the second
  difference diverges like 1/eps instead);
- exact second Skorokhod adjoints of catalog functionals, giving the double
  integration-by-parts estimator for the measure pairing of the second
  derivative of M;
- a kernel-conditioned estimator of the split-point disintegration of that
  pairing, for cross-checking the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cylindrical import CylindricalFunction
from .errors import InsufficientSamplesError
from .paths import (
    Direction,
    DiscretePath,
    TimeGrid,
    bump,
    direction_catalog,
    direction_inner,
    running_max,
    same_density,
    segment_split_stats,
    split_tables,
    top_two_gap,
    wiener_integral_batch,
)
from .sampling import (
    MCEstimate,
    SeedSpec,
    brownian_values_batch,
    mc_collect,
    mc_run,
    mc_run_many,
    moment_estimate,
)

#: Multiple of machine epsilon below which a 4-term alternating sum of
#: functional values is indistinguishable from rounding noise.
_SECOND_DIFF_NOISE_ULPS = 32.0


@dataclass(frozen=True)
class FDConfig:
    """Central finite-difference configuration."""

    eps: float
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("bump size must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class KernelConfig:
    """Kernel conditioning at a target value (0 for the split-point gap).

    ``bandwidth=None`` selects samples^(-1/5) * std of the conditioning
    variable, estimated from a deterministic pilot stream.
    """

    bandwidth: float | None = None
    kernel: str = "triangular"
    target: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.kernel not in ("triangular", "gaussian"):
            raise ValueError(f"unsupported kernel {self.kernel!r}")

    def weights(self, x: np.ndarray, bandwidth: float) -> np.ndarray:
        z = (x - self.target) / bandwidth
        if self.kernel == "triangular":
            return np.maximum(0.0, 1.0 - np.abs(z)) / bandwidth
        return np.exp(-0.5 * z * z) / (bandwidth * math.sqrt(2.0 * math.pi))


def path_maximum(path: DiscretePath) -> float:
    return float(path.values.max())


def sigma_time(path: DiscretePath) -> float:
    """First time the global maximum is attained."""
    return running_max(path).argmax_time(path.grid)


# ---------------------------------------------------------------------------
# Pointwise finite differences
# ---------------------------------------------------------------------------

def fd_directional(
    F: Callable[[DiscretePath], float],
    path: DiscretePath,
    h: Direction,
    cfg: FDConfig,
) -> float:
    """Central difference (F(w + eps h) - F(w - eps h)) / (2 eps)."""
    up = F(bump(path, h, cfg.eps))
    down = F(bump(path, h, -cfg.eps))
    if not (math.isfinite(up) and math.isfinite(down)):
        raise ArithmeticError(f"functional returned non-finite values: {up}, {down}")
    return (up - down) / (2.0 * cfg.eps)


def fd_second(
    F: Callable[[DiscretePath], float],
    path: DiscretePath,
    h: Direction,
    k: Direction,
    cfg: FDConfig,
) -> float:
    """Central mixed second difference of F along (h, k).

    Returns exactly 0.0 when the alternating sum falls below the rounding
    resolution of the scheme (a few ulps of the functional values over
    4 eps^2): magnitudes that small certify the absence of curvature rather
    than measure it.  Genuine curvature signals, e.g. on a path whose
    maximum is tied between two nodes, sit many orders of magnitude above
    the floor and diverge like 1/eps.
    """
    plus = h.primitive + k.primitive
    minus = h.primitive - k.primitive
    grid, w = path.grid, path.values
    f_pp = F(DiscretePath(grid, w + cfg.eps * plus))
    f_pm = F(DiscretePath(grid, w + cfg.eps * minus))
    f_mp = F(DiscretePath(grid, w - cfg.eps * minus))
    f_mm = F(DiscretePath(grid, w - cfg.eps * plus))
    raw = f_pp - f_pm - f_mp + f_mm
    scale = max(abs(f_pp), abs(f_pm), abs(f_mp), abs(f_mm), 1e-300)
    if abs(raw) <= _SECOND_DIFF_NOISE_ULPS * np.finfo(float).eps * scale:
        return 0.0
    return raw / (4.0 * cfg.eps * cfg.eps)


def tie_exclusion_threshold(eps: float, *directions: Direction) -> float:
    """Top-two-gap threshold below which a bumped argmax may switch nodes.

    A bump of size eps along h moves node values by at most eps * sup|h|,
    so the maximum provably stays put when the gap exceeds twice the total
    bump sup-norm; the factor 10 adds safety margin.
    """
    return 10.0 * eps * sum(d.sup_primitive for d in directions)


# ---------------------------------------------------------------------------
# Gradient identity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradMaxReport:
    """Outcome of the gradient identity check for one direction."""

    direction: str
    fraction_ok: float
    checked: int
    excluded: int
    samples: int
    eps: float
    tolerance: float


def verify_grad_max(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    cfg: FDConfig,
    directions: Sequence[Direction] | None = None,
    *,
    workers: int = 1,
) -> list[GradMaxReport]:
    """Fraction of sampled paths with |fd(M; h) - h(argmax time)| <= tolerance.

    Paths whose top-two maxima gap is below the tie-exclusion threshold are
    excluded and counted separately: there the maximum is genuinely
    non-smooth and a finite difference cannot be trusted.
    """
    if directions is None:
        directions = direction_catalog(grid)
    eps = cfg.eps

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        gap = top_two_gap(values)
        argmax = values.argmax(axis=1)
        out = np.zeros((len(directions), 3), dtype=np.int64)  # ok, checked, excluded
        for i, h in enumerate(directions):
            hp = h.primitive
            up = (values + eps * hp).max(axis=1)
            down = (values - eps * hp).max(axis=1)
            fd = (up - down) / (2.0 * eps)
            expected = hp[argmax]
            included = gap > tie_exclusion_threshold(eps, h)
            ok = included & (np.abs(fd - expected) <= cfg.tolerance)
            out[i] = (ok.sum(), included.sum(), count - included.sum())
        return out

    counts = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    reports = []
    for i, h in enumerate(directions):
        ok, checked, excluded = (int(x) for x in counts[i])
        reports.append(
            GradMaxReport(
                direction=h.label or f"dir{i}",
                fraction_ok=ok / checked if checked else 0.0,
                checked=checked,
                excluded=excluded,
                samples=samples,
                eps=eps,
                tolerance=cfg.tolerance,
            )
        )
    return reports


def second_difference_zero_fraction(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    cfg: FDConfig,
    h: Direction | None = None,
    k: Direction | None = None,
    *,
    workers: int = 1,
) -> GradMaxReport:
    """Fraction of sampled paths whose second difference of M is exactly 0.

    Paths passing the tie-exclusion gap rule have a locally linear maximum,
    so the alternating sum is pure rounding noise and is certified to 0.
    """
    if h is None:
        h = Direction.constant(grid)
    if k is None:
        k = Direction.indicator(grid, 0.0, grid.horizon / 2, label="front-half")
    eps = cfg.eps
    plus = h.primitive + k.primitive
    minus = h.primitive - k.primitive
    noise = _SECOND_DIFF_NOISE_ULPS * np.finfo(float).eps

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        gap = top_two_gap(values)
        f_pp = (values + eps * plus).max(axis=1)
        f_pm = (values + eps * minus).max(axis=1)
        f_mp = (values - eps * minus).max(axis=1)
        f_mm = (values - eps * plus).max(axis=1)
        raw = f_pp - f_pm - f_mp + f_mm
        scale = np.maximum.reduce(
            [np.abs(f_pp), np.abs(f_pm), np.abs(f_mp), np.abs(f_mm)]
        )
        is_zero = np.abs(raw) <= noise * scale
        included = gap > tie_exclusion_threshold(eps, h, k)
        ok = included & is_zero
        return np.array(
            [ok.sum(), included.sum(), count - included.sum()], dtype=np.int64
        )

    ok, checked, excluded = (
        int(x) for x in mc_collect(task, samples, seed, combine=np.add, workers=workers)
    )
    return GradMaxReport(
        direction=f"{h.label or 'h'}x{k.label or 'k'}",
        fraction_ok=ok / checked if checked else 0.0,
        checked=checked,
        excluded=excluded,
        samples=samples,
        eps=eps,
        tolerance=0.0,
    )


# ---------------------------------------------------------------------------
# Tied-peak path: the visible atom of the second-derivative measure
# ---------------------------------------------------------------------------

def two_peak_path(
    grid: TimeGrid,
    first_frac: float = 0.3,
    second_frac: float = 0.7,
    peak: float | None = None,
) -> DiscretePath:
    """Piecewise-linear path whose global maximum is attained at exactly two
    nodes (identical float values), at the given fractions of the grid."""
    n = grid.n
    scale = math.sqrt(grid.horizon)
    if peak is None:
        peak = 0.5 * scale
    i0 = max(1, round(first_frac * n))
    i1 = min(n - 1, max(i0 + 2, round(second_frac * n)))
    imid = (i0 + i1) // 2
    knots = np.array([0, i0, imid, i1, n], dtype=float)
    vals = np.array([0.0, peak, 0.1 * scale, peak, -0.2 * scale])
    return DiscretePath(grid, np.interp(np.arange(n + 1, dtype=float), knots, vals))


def separating_direction(grid: TimeGrid, first_frac: float = 0.3, second_frac: float = 0.7) -> Direction:
    """Direction whose primitive differs between the two tied peaks."""
    return Direction.indicator(
        grid,
        first_frac * grid.horizon,
        second_frac * grid.horizon,
        label="separating",
    )


def tied_peak_second_differences(
    grid: TimeGrid, eps: float, halvings: int = 2
) -> list[float]:
    """|fd_second(M)| on the tied-peak path at eps, eps/2, ..., eps/2^halvings.

    The maximum of two tied linear competitors has a genuine kink, so the
    magnitudes grow by a factor of 2 per halving (the 1/eps divergence that
    a measure-valued second derivative produces pointwise).
    """
    path = two_peak_path(grid)
    h = separating_direction(grid)
    out = []
    e = eps
    for _ in range(halvings + 1):
        out.append(abs(fd_second(path_maximum, path, h, h, FDConfig(eps=e))))
        e /= 2.0
    return out


# ---------------------------------------------------------------------------
# Second Skorokhod adjoints and the weak estimator
# ---------------------------------------------------------------------------

def second_adjoint_batch(
    g: CylindricalFunction,
    k: Direction,
    h: Direction,
    values: np.ndarray,
    integrals: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact second adjoint d*_k(d*_h g) on a batch of node-value arrays.

    Expanding the adjoint twice and using that the Wiener integral I(h) is
    linear with directional derivative <k', h'>:

        d*_k(d*_h g) = d_k d_h g - (d_k g) I(h) - g <k', h'>
                       - I(k) (d_h g - g I(h)).

    ``integrals`` is (I(k), I(h)) on ``values`` when the caller already has
    them (several functionals on one batch).  When k and h have equal
    densities, I(h) and d_h g serve for k as well.
    """
    if integrals is None:
        integrals = wiener_integral_batch((k, h), values)
    integral_k, integral_h = integrals
    gv = g.value(values)
    dh = g.directional(values, h)
    dk = dh if same_density(k, h) else g.directional(values, k)
    dd = g.second_directional(values, k, h)
    inner = direction_inner(k, h)
    return dd - dk * integral_h - gv * inner - integral_k * (dh - gv * integral_h)


def skorokhod_second_adjoint(
    g: CylindricalFunction, k: Direction, h: Direction, path: DiscretePath
) -> float:
    return float(second_adjoint_batch(g, k, h, path.values))


def adjoint2_means(
    pairs: Sequence[tuple[CylindricalFunction, CylindricalFunction | None]],
    k: Direction,
    h: Direction,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> list[MCEstimate]:
    """MC means of (weight *) d*_k(d*_h g), one per (g, weight) pair, all on
    the same paths (drawn once per chunk, with I(k) and I(h) formed once per
    chunk); ``weight=None`` means 1.  Each is zero in expectation for any
    grid-adapted weight with vanishing second derivative (constants, single
    coordinates)."""

    def statistic(rng: np.random.Generator, count: int) -> np.ndarray:
        values = brownian_values_batch(rng, count, grid)
        integrals = wiener_integral_batch((k, h), values)
        rows = np.empty((len(pairs), count))
        for row, (g, weight) in zip(rows, pairs):
            row[:] = second_adjoint_batch(g, k, h, values, integrals)
            if weight is not None:
                row *= weight.value(values)
        return rows

    return mc_run_many(statistic, samples, seed, workers=workers)


def adjoint2_mean(
    g: CylindricalFunction,
    k: Direction,
    h: Direction,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    weight: CylindricalFunction | None = None,
    workers: int = 1,
) -> MCEstimate:
    """The one-pair case of :func:`adjoint2_means`."""
    (est,) = adjoint2_means([(g, weight)], k, h, grid, samples, seed, workers=workers)
    return est


def _weak_values(
    g: CylindricalFunction, k: Direction, h: Direction, values: np.ndarray
) -> np.ndarray:
    """Per-path values M * d*_k(d*_h g) of the double integration-by-parts
    route."""
    return values.max(axis=1) * second_adjoint_batch(g, k, h, values)


def d2m_weak_estimator(
    g: CylindricalFunction,
    k: Direction,
    h: Direction,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> MCEstimate:
    """Double integration-by-parts estimator E[M * d*_k(d*_h g)], the measure
    pairing of the second derivative of M against g along k' (x) h'."""

    def statistic(rng: np.random.Generator, count: int) -> np.ndarray:
        return _weak_values(g, k, h, brownian_values_batch(rng, count, grid))

    return mc_run(statistic, samples, seed, workers=workers)


# ---------------------------------------------------------------------------
# Kernel-conditioned split-point estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainMaxEstimate:
    """Kernel estimate with its half-bandwidth Richardson companion."""

    estimate: MCEstimate
    estimate_half: MCEstimate
    bandwidth: float
    effective_samples: int

    @property
    def bias_diagnostic(self) -> float:
        """|est(b) - est(b/2)|: the resolvable part of the kernel bias."""
        return abs(self.estimate.mean - self.estimate_half.mean)


_PILOT_COUNT = 4096
_PILOT_BRANCH = 10_000  # pilot stream id, disjoint from mc substreams


def _auto_bandwidth(
    deltas_of: Callable[[np.ndarray], np.ndarray],
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
) -> float:
    rng = seed.generator(_PILOT_BRANCH)
    values = brownian_values_batch(rng, _PILOT_COUNT, grid)
    sd = float(np.std(deltas_of(values)))
    return samples ** (-0.2) * sd


def chain_max_estimator(
    g: CylindricalFunction,
    h: Direction,
    t_index: int,
    grid: TimeGrid,
    kcfg: KernelConfig,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> ChainMaxEstimate:
    """Unnormalized kernel estimate of the split-point disintegration at t:

        mean of g(w) * [h(argmax time on [t, T]) - h(argmax time on [0, t])]
                     * K_b(split gap),

    which targets (density of the gap at 0) times the conditional mean given
    a zero gap.  Returned together with the half-bandwidth estimate as a
    bias diagnostic.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    def deltas_of(values: np.ndarray) -> np.ndarray:
        max_l, _, max_r, _ = segment_split_stats(values, t_index)
        return max_r - max_l

    b = kcfg.bandwidth
    if b is None:
        b = _auto_bandwidth(deltas_of, grid, samples, seed)
    hp = h.primitive

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        max_l, arg_l, max_r, arg_r = segment_split_stats(values, t_index)
        delta = max_r - max_l
        y = g.value(values) * (hp[arg_r] - hp[arg_l])
        xb = y * kcfg.weights(delta, b)
        xh = y * kcfg.weights(delta, b / 2.0)
        eff = int((np.abs(delta - kcfg.target) <= b).sum())
        return np.array(
            [count, xb.sum(), np.dot(xb, xb), xh.sum(), np.dot(xh, xh), eff]
        )

    acc = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    est, est_half = _two_moment_estimates(acc, seed)
    eff = int(acc[5])
    if eff < 100:
        raise InsufficientSamplesError(
            f"bandwidth {b:.3g} left only {eff} effective samples"
        )
    return ChainMaxEstimate(
        estimate=est, estimate_half=est_half, bandwidth=b, effective_samples=eff
    )


def _two_moment_estimates(acc: np.ndarray, seed: SeedSpec):
    """The bandwidth-b and b/2 estimates from a kernel accumulator
    [count, s1(b), s2(b), s1(b/2), s2(b/2), effective]."""
    return (
        moment_estimate(acc[0], acc[1], acc[2], seed),
        moment_estimate(acc[0], acc[3], acc[4], seed),
    )


def split_nodes(n: int, nodes: int) -> np.ndarray:
    """The split nodes of the integrated route: the interior grid indices
    nearest the midpoints of ``nodes`` equal cells of [0, n], which must be
    distinct."""
    t_idx = np.unique(
        np.clip(np.round((np.arange(nodes) + 0.5) * n / nodes).astype(int), 1, n - 1)
    )
    if len(t_idx) < nodes:
        raise ValueError(f"grid too coarse for {nodes} distinct interior nodes")
    return t_idx


@dataclass(frozen=True)
class _SplitQuadrature:
    """The integrated split-point route of :func:`chain_max_integrated`:
    interior split nodes, their midpoint weights h'(t) dt, and the kernel
    bandwidth."""

    g: CylindricalFunction
    k: Direction
    kcfg: KernelConfig
    t_idx: np.ndarray
    node_weight: np.ndarray
    bandwidth: float

    @classmethod
    def build(cls, g, k, h, grid, kcfg, samples, seed, nodes) -> _SplitQuadrature:
        t_idx = split_nodes(grid.n, nodes)
        b = kcfg.bandwidth
        if b is None:
            mid = int(t_idx[len(t_idx) // 2])

            def mid_deltas(values: np.ndarray) -> np.ndarray:
                max_l, _, max_r, _ = segment_split_stats(values, mid)
                return max_r - max_l

            b = _auto_bandwidth(mid_deltas, grid, samples, seed)
        node_weight = h.density[t_idx] * (grid.horizon / nodes)
        return cls(g, k, kcfg, t_idx, node_weight, b)

    def per_path(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-path values at bandwidths b and b/2 on one chunk, and the
        chunk's effective-sample count at the least-covered node."""
        kp, kcfg, b = self.k.primitive, self.kcfg, self.bandwidth
        fwd_max, fwd_arg, bwd_max, bwd_arg = split_tables(values, self.t_idx)
        delta = bwd_max - fwd_max  # (count, nodes), column-major like the tables
        y = self.g.value(values)[:, None] * (kp[bwd_arg] - kp[fwd_arg])
        xb = (y * kcfg.weights(delta, b)) @ self.node_weight
        xh = (y * kcfg.weights(delta, b / 2.0)) @ self.node_weight
        # per-chunk minimum over nodes; summing chunk minima lower-bounds the
        # true per-node total, so the flag in ``estimate`` stays conservative
        eff = int((np.abs(delta - kcfg.target) <= b).sum(axis=0).min())
        return xb, xh, eff

    def estimate(self, acc: np.ndarray, seed: SeedSpec) -> ChainMaxEstimate:
        """The estimate from an accumulator [count, s1(b), s2(b), s1(b/2),
        s2(b/2), effective]."""
        est, est_half = _two_moment_estimates(acc, seed)
        eff = int(acc[5])
        if eff < 100:
            raise InsufficientSamplesError(
                f"bandwidth {self.bandwidth:.3g} left only {eff} effective "
                f"samples at the least-covered node"
            )
        return ChainMaxEstimate(
            estimate=est, estimate_half=est_half, bandwidth=self.bandwidth,
            effective_samples=eff,
        )


def chain_max_integrated(
    g: CylindricalFunction,
    k: Direction,
    h: Direction,
    grid: TimeGrid,
    kcfg: KernelConfig,
    samples: int,
    seed: SeedSpec,
    *,
    nodes: int = 24,
    workers: int = 1,
) -> ChainMaxEstimate:
    """Midpoint-rule integral over split times of the kernel estimator,
    weighted by h', with the k-primitive inside the conditional mean.

    Estimates the same measure pairing as :func:`d2m_weak_estimator`, by the
    split-point disintegration route.  All quadrature nodes are interior.
    """
    route = _SplitQuadrature.build(g, k, h, grid, kcfg, samples, seed, nodes)

    def task(rng: np.random.Generator, count: int):
        xb, xh, eff = route.per_path(brownian_values_batch(rng, count, grid))
        return np.array(
            [count, xb.sum(), np.dot(xb, xb), xh.sum(), np.dot(xh, xh), eff]
        )

    acc = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    return route.estimate(acc, seed)


def chain_vs_weak_paired(
    g: CylindricalFunction,
    k: Direction,
    h: Direction,
    grid: TimeGrid,
    kcfg: KernelConfig,
    samples: int,
    seed: SeedSpec,
    *,
    nodes: int = 24,
    workers: int = 1,
) -> tuple[MCEstimate, ChainMaxEstimate, MCEstimate]:
    """Both routes to the measure pairing on common paths: the
    double integration-by-parts estimate, the integrated split-point
    estimate, and the estimate of their per-path difference
    weak - chain(b/2).

    Each chunk is drawn once and serves both routes.  The first two results
    are bit-identical to :func:`d2m_weak_estimator` and
    :func:`chain_max_integrated` on the same ``seed``.  The two routes are
    correlated path by path, so compare them by the difference's standard
    error, not by combining their separate standard errors.
    """
    route = _SplitQuadrature.build(g, k, h, grid, kcfg, samples, seed, nodes)

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        weak = _weak_values(g, k, h, values)
        xb, xh, eff = route.per_path(values)
        d = weak - xh
        return np.array([
            count, weak.sum(), np.dot(weak, weak), xb.sum(), np.dot(xb, xb),
            xh.sum(), np.dot(xh, xh), d.sum(), np.dot(d, d), eff,
        ])

    acc = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    weak = moment_estimate(acc[0], acc[1], acc[2], seed)
    chain = route.estimate(acc[[0, 3, 4, 5, 6, 9]], seed)
    diff = moment_estimate(acc[0], acc[7], acc[8], seed)
    return weak, chain, diff


def split_gap_density_mc(
    t_index: int,
    grid: TimeGrid,
    kcfg: KernelConfig,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> ChainMaxEstimate:
    """Kernel density estimate at the target of the split gap max[t,T]-max[0,t].

    The g = 1, h-free special case of the kernel machinery: mean of
    K_b(gap), reported at b and b/2.  Cross-checks the quadrature density.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")

    def deltas_of(values: np.ndarray) -> np.ndarray:
        max_l, _, max_r, _ = segment_split_stats(values, t_index)
        return max_r - max_l

    b = kcfg.bandwidth
    if b is None:
        b = _auto_bandwidth(deltas_of, grid, samples, seed)

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        delta = deltas_of(values)
        xb = kcfg.weights(delta, b)
        xh = kcfg.weights(delta, b / 2.0)
        eff = int((np.abs(delta - kcfg.target) <= b).sum())
        return np.array(
            [count, xb.sum(), np.dot(xb, xb), xh.sum(), np.dot(xh, xh), eff]
        )

    acc = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    est, est_half = _two_moment_estimates(acc, seed)
    eff = int(acc[5])
    if eff < 100:
        raise InsufficientSamplesError(
            f"bandwidth {b:.3g} left only {eff} effective samples"
        )
    return ChainMaxEstimate(
        estimate=est, estimate_half=est_half, bandwidth=b, effective_samples=eff
    )


# ---------------------------------------------------------------------------
# The argmax time as a functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaStat:
    """The first argmax time and its running-gradient reconstruction."""

    sigma: float
    riemann_sum: float


def sigma_functional(path: DiscretePath) -> SigmaStat:
    """sigma and its reconstruction from the running gradient of the maximum,
    D_t max W = 1{max over [0, t] < max over (t, T]}, summed over the left
    nodes times the step.

    The two should agree to within one grid cell (exactly, on the grid, except
    for endpoint rounding of the horizon); the ``sigma_flat`` row checks it.
    """
    v = path.values
    behind = np.maximum.accumulate(v)  # max of v[0..i]
    ahead = np.maximum.accumulate(v[::-1])[::-1]  # max of v[i..n]
    riemann = float((behind[:-1] < ahead[1:]).sum()) * path.grid.step
    return SigmaStat(sigma=sigma_time(path), riemann_sum=riemann)


def sigma_fd_zero_fraction(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    cfg: FDConfig,
    h: Direction | None = None,
    *,
    workers: int = 1,
) -> float:
    """Fraction of sampled paths where the central difference of the argmax
    time is exactly 0 (argmax is locally constant off the tie set)."""
    if h is None:
        h = Direction.constant(grid)
    eps = cfg.eps
    hp = h.primitive

    def task(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        arg_up = (values + eps * hp).argmax(axis=1)
        arg_down = (values - eps * hp).argmax(axis=1)
        return np.array([count, (arg_up == arg_down).sum()], dtype=np.int64)

    total, zero = mc_collect(task, samples, seed, combine=np.add, workers=workers)
    return int(zero) / int(total)
