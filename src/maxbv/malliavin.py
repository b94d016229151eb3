"""Finite-difference Malliavin operators on path functionals.

Four layers of machinery around the running maximum M:

- central first differences that verify the gradient identity
  d_h M = h(first argmax time) on paths with a unique, well-separated argmax;
- central second differences that certify the almost-sure vanishing of
  pointwise curvature (with an explicit tied-peak path where the second
  difference diverges like 1/eps instead);
- exact second Skorokhod adjoints of catalog functionals, giving the double
  integration-by-parts (weak) route to the measure pairing of the second
  derivative of M;
- one kernel-conditioned estimator of the split-point disintegration of
  that pairing (:class:`SplitKernel`): integrated over split times and
  paired path by path with the weak route, or at one node with y = 1 as the
  split-gap density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cylindrical import CylindricalFunction
from .density import walk_max_moments
from .paths import (
    Direction,
    TimeGrid,
    direction_catalog,
    direction_inner,
    same_density,
    split_tables,
    top_two_gap,
    wiener_integral_batch,
)
from .sampling import (
    MCEstimate,
    SeedSpec,
    brownian_values_batch,
    mc_ratios,
    mc_run_many,
    require_counted,
)

#: Multiple of machine epsilon below which a 4-term alternating sum of
#: functional values is indistinguishable from rounding noise.
_SECOND_DIFF_NOISE_ULPS = 32.0

#: Grid fractions of the two tied peaks of :func:`two_peak_path`.
_PEAK_FRACS = (0.3, 0.7)


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


class KernelConfig:
    """The triangular kernel K_b(x) = max(0, 1 - |x|/b) / b of
    :class:`SplitKernel`.

    It has no settings: it keeps its name only because the benchmark's
    tracer wraps ``KernelConfig.weights`` on the class, so callers look the
    method up there at call time.  ROADMAP item 3 deletes it with the
    kernel.
    """

    @staticmethod
    def weights(x: np.ndarray, bandwidth: float) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.abs(x / bandwidth)) / bandwidth


def sigma_time(grid: TimeGrid, values: np.ndarray) -> float:
    """First time the global maximum of the node values is attained."""
    return grid.time_at(int(np.argmax(values)))  # first occurrence


# ---------------------------------------------------------------------------
# Pointwise finite differences
# ---------------------------------------------------------------------------

def _second_difference_sum(f_pp, f_pm, f_mp, f_mm):
    """The alternating sum f_pp - f_pm - f_mp + f_mm, set to exactly 0 where
    it is within 32 ulps of the largest |f|: there it is rounding noise of
    the scheme, not curvature."""
    raw = f_pp - f_pm - f_mp + f_mm
    scale = np.maximum(
        np.maximum(np.abs(f_pp), np.abs(f_pm)), np.maximum(np.abs(f_mp), np.abs(f_mm))
    )
    return np.where(
        np.abs(raw) <= _SECOND_DIFF_NOISE_ULPS * np.finfo(float).eps * scale, 0.0, raw
    )


def _max_second_difference(
    values: np.ndarray, h: Direction, k: Direction, eps: float
) -> np.ndarray:
    """Per row of a (count, n+1) array, the alternating sum of the maximum
    over the four bumps w +- eps h +- eps k; divided by 4 eps^2 it is the
    central mixed second difference of M along (h, k).

    The sum is exactly 0.0 below the rounding resolution of the scheme:
    magnitudes that small certify the absence of curvature rather than
    measure it.  Genuine curvature signals, e.g. on a path whose maximum is
    tied between two nodes, sit many orders of magnitude above the floor
    and diverge like 1/eps.
    """
    plus = h.primitive + k.primitive
    minus = h.primitive - k.primitive
    return _second_difference_sum(
        (values + eps * plus).max(axis=1),
        (values + eps * minus).max(axis=1),
        (values - eps * minus).max(axis=1),
        (values - eps * plus).max(axis=1),
    )


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

def verify_grad_max(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    cfg: FDConfig,
    *,
    workers: int = 1,
) -> dict[str, MCEstimate]:
    """Fraction of checked paths with |fd(M; h) - h(argmax time)| <= tolerance,
    for each direction h of :func:`direction_catalog`, keyed by its label.

    Paths whose top-two maxima gap is below the tie-exclusion threshold are
    not checked: there the maximum is genuinely non-smooth and a finite
    difference cannot be trusted.  ``samples - est.samples`` of them are
    excluded; with none checked the fraction reads 0.0.
    """
    directions = direction_catalog(grid)
    eps = cfg.eps

    def counts(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        gap = top_two_gap(values)
        argmax = values.argmax(axis=1)
        included = np.empty((count, len(directions)), dtype=bool)
        ok = np.empty_like(included)
        for i, h in enumerate(directions):
            hp = h.primitive
            up = (values + eps * hp).max(axis=1)
            down = (values - eps * hp).max(axis=1)
            fd = (up - down) / (2.0 * eps)
            included[:, i] = gap > tie_exclusion_threshold(eps, h)
            ok[:, i] = included[:, i] & (np.abs(fd - hp[argmax]) <= cfg.tolerance)
        return included, ok

    ests = mc_ratios(counts, samples, seed, workers=workers)
    return {h.label: est for h, est in zip(directions, ests)}


def second_difference_zero_fraction(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    cfg: FDConfig,
    *,
    workers: int = 1,
) -> MCEstimate:
    """Fraction of checked paths whose second difference of M along the
    constant direction and the front-half indicator is exactly 0.

    Paths passing the tie-exclusion gap rule are checked: their maximum is
    locally linear, so the alternating sum is pure rounding noise and is
    certified to 0.
    """
    h = Direction.constant(grid)
    k = Direction.indicator(grid, 0.0, grid.horizon / 2, label="front-half")
    eps = cfg.eps

    def counts(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        zero = _max_second_difference(values, h, k, eps) == 0.0
        included = top_two_gap(values) > tie_exclusion_threshold(eps, h, k)
        return included[:, None], (included & zero)[:, None]

    (est,) = mc_ratios(counts, samples, seed, workers=workers)
    return est


# ---------------------------------------------------------------------------
# Tied-peak path: the visible atom of the second-derivative measure
# ---------------------------------------------------------------------------

def two_peak_path(grid: TimeGrid) -> np.ndarray:
    """Node values of a piecewise-linear path whose global maximum, half the
    horizon's square root, is attained at exactly two nodes (identical float
    values), at 0.3 and 0.7 of the grid."""
    n = grid.n
    first_frac, second_frac = _PEAK_FRACS
    scale = math.sqrt(grid.horizon)
    peak = 0.5 * scale
    i0 = max(1, round(first_frac * n))
    i1 = min(n - 1, max(i0 + 2, round(second_frac * n)))
    imid = (i0 + i1) // 2
    knots = np.array([0, i0, imid, i1, n], dtype=float)
    vals = np.array([0.0, peak, 0.1 * scale, peak, -0.2 * scale])
    return np.interp(np.arange(n + 1, dtype=float), knots, vals)


def separating_direction(grid: TimeGrid) -> Direction:
    """Direction whose primitive differs between the two tied peaks of
    :func:`two_peak_path`."""
    first_frac, second_frac = _PEAK_FRACS
    return Direction.indicator(
        grid, first_frac * grid.horizon, second_frac * grid.horizon, label="separating"
    )


def tied_peak_second_differences(
    grid: TimeGrid, eps: float, halvings: int = 2
) -> list[float]:
    """|Central second difference of M| along the separating direction on
    the tied-peak path, at eps, eps/2, ..., eps/2^halvings.

    The maximum of two tied linear competitors has a genuine kink, so the
    magnitudes grow by a factor of 2 per halving (the 1/eps divergence that
    a measure-valued second derivative produces pointwise).
    """
    values = two_peak_path(grid)[None]
    h = separating_direction(grid)
    out = []
    e = eps
    for _ in range(halvings + 1):
        out.append(abs(float(_max_second_difference(values, h, h, e)[0]) / (4.0 * e * e)))
        e /= 2.0
    return out


# ---------------------------------------------------------------------------
# Second Skorokhod adjoints and the weak route
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


def _weak_values(
    g: CylindricalFunction, k: Direction, h: Direction, values: np.ndarray
) -> np.ndarray:
    """Per-path values M * d*_k(d*_h g) of the double integration-by-parts
    route."""
    return values.max(axis=1) * second_adjoint_batch(g, k, h, values)


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
class SplitKernel:
    """The kernel-conditioned split-point estimator: per path, the sum over
    split nodes t of

        node_weight(t) * y(w, t) * K_b(max over [t, T] - max over [0, t]),

    which targets the split-gap density at 0 times the conditional mean of y
    given a zero gap, integrated against the node weights.  It is reported
    at b and at b/2, and with the in-window count |gap| <= b of the
    least-covered node.  ``bandwidth`` is samples^(-1/5) times the std of
    the gap at the middle node t.  That std is exact: the gap is M' - M'',
    the maxima of the independent (n - t)-step walk after t and t-step walk
    before it (read backwards from t), so its variance is the sum of the two
    :func:`maxbv.density.walk_max_moments` variances.
    """

    t_idx: np.ndarray
    node_weight: np.ndarray
    bandwidth: float

    @classmethod
    def build(cls, grid, t_idx, node_weight, samples) -> SplitKernel:
        t = int(t_idx[len(t_idx) // 2])
        right = walk_max_moments(grid.n - t, (grid.n - t) * grid.step)[1]
        left = walk_max_moments(t, t * grid.step)[1]
        b = samples ** (-0.2) * math.sqrt(right + left)
        return cls(np.asarray(t_idx), np.asarray(node_weight, dtype=float), b)

    def rows(
        self,
        values: np.ndarray,
        y: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """(2 + nodes, count) sample rows on one chunk: the estimate at b,
        at b/2, then one in-window indicator row per node.  ``y(fwd_arg,
        bwd_arg)`` maps the (count, nodes) argmax tables of
        :func:`split_tables` to the conditioned values; None means y = 1."""
        fwd_max, fwd_arg, bwd_max, bwd_arg = split_tables(values, self.t_idx)
        delta = bwd_max - fwd_max  # (count, nodes), column-major like the tables
        yv = 1.0 if y is None else y(fwd_arg, bwd_arg)
        b = self.bandwidth
        xb = (yv * KernelConfig.weights(delta, b)) @ self.node_weight
        xh = (yv * KernelConfig.weights(delta, b / 2.0)) @ self.node_weight
        return np.vstack((xb, xh, (np.abs(delta) <= b).T))

    def estimate(self, moments: Sequence[MCEstimate]) -> ChainMaxEstimate:
        """The estimate from the :func:`mc_run_many` results of :meth:`rows`;
        fewer than 100 in-window paths at any node is an error."""
        est, est_half, *inside = moments
        eff = min(round(m.mean * m.samples) for m in inside)
        require_counted(
            eff, f"effective samples at the least-covered node of bandwidth "
            f"{self.bandwidth:.3g}"
        )
        return ChainMaxEstimate(est, est_half, self.bandwidth, eff)


def chain_vs_weak_paired(
    g: CylindricalFunction,
    k: Direction,
    h: Direction,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    nodes: int = 24,
    workers: int = 1,
) -> tuple[MCEstimate, ChainMaxEstimate, MCEstimate]:
    """Both routes to the measure pairing on common paths: the double
    integration-by-parts estimate, the split-point estimate, and the
    estimate of their per-path difference weak - chain(b/2).

    The split-point route is the midpoint rule over ``nodes`` interior split
    times of :class:`SplitKernel`, weighted by h', with y = g * (k-primitive
    at the right argmax - at the left argmax); ``nodes=1`` is the estimate
    at the one node nearest T/2.  The weak estimate is bit-identical to
    the ``mc_run`` mean of M * d*_k(d*_h g) on the same ``seed``.  The two
    routes are correlated path by path, so compare them by the difference's
    standard error, not by combining their separate standard errors.
    """
    t_idx = split_nodes(grid.n, nodes)
    node_weight = h.density[t_idx] * (grid.horizon / nodes)
    kernel = SplitKernel.build(grid, t_idx, node_weight, samples)
    kp = k.primitive

    def statistic(rng: np.random.Generator, count: int) -> np.ndarray:
        values = brownian_values_batch(rng, count, grid)
        weak = _weak_values(g, k, h, values)
        gv = g.value(values)[:, None]
        split = kernel.rows(values, lambda fwd, bwd: gv * (kp[bwd] - kp[fwd]))
        return np.vstack((weak, split[:2], weak - split[1], split[2:]))

    weak, xb, xh, diff, *inside = mc_run_many(statistic, samples, seed, workers=workers)
    return weak, kernel.estimate([xb, xh, *inside]), diff


def split_gap_density_mc(
    t_index: int,
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
) -> ChainMaxEstimate:
    """Kernel density estimate at 0 of the split gap max[t,T]-max[0,t]: the
    one-node, y = 1 case of :class:`SplitKernel`, reported at b and b/2.
    Cross-checks the quadrature density.
    """
    if not (0 < t_index < grid.n):
        raise ValueError("t_index must be an interior grid node")
    kernel = SplitKernel.build(grid, [t_index], [1.0], samples)

    def statistic(rng: np.random.Generator, count: int) -> np.ndarray:
        return kernel.rows(brownian_values_batch(rng, count, grid))

    return kernel.estimate(mc_run_many(statistic, samples, seed, workers=workers))


# ---------------------------------------------------------------------------
# The argmax time as a functional
# ---------------------------------------------------------------------------

def sigma_functional(grid: TimeGrid, values: np.ndarray) -> tuple[float, float]:
    """sigma of one path's node values and its reconstruction from the
    running gradient of the maximum, D_t max W = 1{max over [0, t] < max
    over (t, T]}, summed over the left nodes times the step.

    The two should agree to within one grid cell (exactly, on the grid, except
    for endpoint rounding of the horizon); the ``sigma_flat`` row checks it.
    """
    behind = np.maximum.accumulate(values)  # max of values[0..i]
    ahead = np.maximum.accumulate(values[::-1])[::-1]  # max of values[i..n]
    riemann = float((behind[:-1] < ahead[1:]).sum()) * grid.step
    return sigma_time(grid, values), riemann


def sigma_fd_zero_fraction(
    grid: TimeGrid,
    samples: int,
    seed: SeedSpec,
    cfg: FDConfig,
    *,
    workers: int = 1,
) -> MCEstimate:
    """Fraction of sampled paths where the central difference of the argmax
    time along the constant direction is exactly 0 (argmax is locally
    constant off the tie set)."""
    hp = Direction.constant(grid).primitive
    eps = cfg.eps

    def counts(rng: np.random.Generator, count: int):
        values = brownian_values_batch(rng, count, grid)
        arg_up = (values + eps * hp).argmax(axis=1)
        arg_down = (values - eps * hp).argmax(axis=1)
        return 1, (arg_up == arg_down)[:, None]

    (est,) = mc_ratios(counts, samples, seed, workers=workers)
    return est
