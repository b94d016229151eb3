"""Reproducible Gaussian sampling and a deterministic parallel Monte Carlo
driver.

Reproducibility contract: every sampler is a pure function of its inputs and
a :class:`SeedSpec`; ``mc_run``/``mc_run_many``/``mc_collect`` partition work
over a fixed number of substreams and reduce in ascending stream order, so
results are bit-identical for any worker count.  The normal generator is
pinned per build (numpy PCG64 via ``default_rng``) and recorded in run
manifests; statistical acceptance bands absorb cross-platform generator
differences.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import NonFiniteStatisticError
from .paths import DiscretePath, TimeGrid

#: Number of independent substreams mc_collect fans a job out over.  Fixed so
#: the stream plan (and hence every estimate) is independent of worker count.
N_SUBSTREAMS = 64

#: Default samples per task invocation; bounds peak memory for path batches.
DEFAULT_CHUNK = 1024

RNG_ALGORITHM = "numpy-default_rng-PCG64"

T = TypeVar("T")


@dataclass(frozen=True)
class SeedSpec:
    """Addressable randomness: (master_seed, stream_index) names a stream.

    Distinct stream indices give statistically independent streams; the same
    pair reproduces bit-identical output across runs and worker counts.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def seed_sequence(self, *branch: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *branch)
        )

    def generator(self, *branch: int) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence(*branch))

    @property
    def label(self) -> str:
        return f"{self.master_seed}/{self.stream_index}"


@dataclass(frozen=True, eq=False)
class Walk:
    """A standard Gaussian random walk: increments and their partial sums,
    with W_0 = 0 and partial_sums exactly the running sum of increments."""

    increments: np.ndarray
    partial_sums: np.ndarray

    @property
    def n(self) -> int:
        return len(self.increments)


@dataclass(frozen=True)
class MCEstimate:
    """Mean, standard error (sample std / sqrt(samples)), count, and seed."""

    mean: float
    std_error: float
    samples: int
    seed: SeedSpec

    def within(self, reference: float, k: float = 3.0, slack: float = 0.0) -> bool:
        """True if ``reference`` lies inside mean +/- (k*std_error + slack)."""
        return abs(self.mean - reference) <= k * self.std_error + slack


def sample_walk(n: int, seed: SeedSpec) -> Walk:
    """Length-n Gaussian random walk from the seeded stream.

    The partial sums are the running sums of the drawn normals; increments
    are re-derived as their differences so consistency is exact bitwise.
    """
    if n < 1:
        raise ValueError("walk length must be at least 1")
    x = seed.generator().standard_normal(n)
    partial_sums = np.concatenate(([0.0], np.cumsum(x)))
    return Walk(increments=np.diff(partial_sums), partial_sums=partial_sums)


def sample_brownian(grid: TimeGrid, seed: SeedSpec) -> DiscretePath:
    """Brownian path on the grid: sqrt(step) times the walk's partial sums,
    bit-identical to scaling ``sample_walk(grid.n, seed)``."""
    walk = sample_walk(grid.n, seed)
    return DiscretePath(grid, np.sqrt(grid.step) * walk.partial_sums)


def sample_bridge(n: int, seed: SeedSpec) -> Walk:
    """Gaussian walk conditioned to return to 0 at step n.

    Conditioning is realized by the exact mean-subtraction projection
    x -> x - mean(x), which is invariant in law under cyclic shifts of the
    increments.  The final partial sum is forced to exact 0 and increments
    are re-derived from the adjusted sums so both Walk invariants hold.
    """
    if n < 1:
        raise ValueError("bridge length must be at least 1")
    x = seed.generator().standard_normal(n)
    inc = x - x.mean()
    partial_sums = np.concatenate(([0.0], np.cumsum(inc)))
    partial_sums[-1] = 0.0
    return Walk(increments=np.diff(partial_sums), partial_sums=partial_sums)


# ---------------------------------------------------------------------------
# Batch samplers used inside Monte Carlo tasks (one rng, many paths)
# ---------------------------------------------------------------------------

def walk_sums_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n+1) array of walk partial sums, first column exactly 0."""
    out = np.empty((count, n + 1))
    out[:, 0] = 0.0
    np.cumsum(rng.standard_normal((count, n)), axis=1, out=out[:, 1:])
    return out


def bridge_sums_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n) array of bridge partial sums W_1..W_n, summed in place in
    the draw buffer; the last column is exactly 0 (= W_0, left out)."""
    x = rng.standard_normal((count, n))
    x -= x.mean(axis=1, keepdims=True)
    np.cumsum(x, axis=1, out=x)
    x[:, -1] = 0.0
    return x


def brownian_values_batch(
    rng: np.random.Generator, count: int, grid: TimeGrid
) -> np.ndarray:
    """(count, n+1) array of Brownian node values on the grid: the walk's
    partial sums scaled by sqrt(step) in place, bit-identical to
    ``np.sqrt(grid.step) * walk_sums_batch(...)`` without its temporary."""
    out = walk_sums_batch(rng, count, grid.n)
    out *= math.sqrt(grid.step)
    return out


def stay_below_count(
    rng: np.random.Generator, count: int, n: int, *, bridge: bool
) -> int:
    """How many of ``count`` paths keep every node <= 0: W_1..W_n of a walk,
    or W_1..W_{n-1} of a bridge pinned at W_n = 0.

    The paths advance one step at a time, and each is dropped at its first
    exit, so every step draws normals only for the paths still below.  A
    walk steps by W_{k+1} = W_k + Z; a bridge by the exact conditional law
    of its next node given the current one, W_{k+1} = a W_k + sqrt(a) Z with
    a = (n-k-1)/(n-k).  The expected number of normals per path is
    sum_{k<n} C(2k,k)/4^k = 2n C(2n,n)/4^n ~ 2 sqrt(n/pi) for the walk and
    O(sqrt(n)) for the bridge.
    """
    w = np.zeros(count)
    for k in range(n - 1 if bridge else n):
        if w.size == 0:
            break
        z = rng.standard_normal(w.size)
        if bridge:
            a = (n - k - 1) / (n - k)
            w *= a
            z *= math.sqrt(a)
        w += z
        w = w[w <= 0.0]
    return int(w.size)


# ---------------------------------------------------------------------------
# Deterministic parallel driver
# ---------------------------------------------------------------------------

def stream_counts(samples: int, n_streams: int = N_SUBSTREAMS) -> np.ndarray:
    """Deterministic split of ``samples`` over the fixed substreams."""
    base, extra = divmod(samples, n_streams)
    counts = np.full(n_streams, base, dtype=np.int64)
    counts[:extra] += 1
    return counts


def _chunk_sizes(count: int, chunk_size: int):
    while count > 0:
        c = min(count, chunk_size)
        yield c
        count -= c


def mc_collect(
    task: Callable[[np.random.Generator, int], T],
    samples: int,
    seed: SeedSpec,
    *,
    combine: Callable[[T, T], T],
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> T:
    """Run ``task(rng, count)`` over the substream plan and fold the results.

    Each substream j gets its own generator derived from
    (master_seed, stream_index, j) and is consumed in deterministic chunk
    order; stream results are folded in ascending j.  Worker threads only
    change who executes a stream, never its content or the reduction order.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    counts = stream_counts(samples)

    def run_stream(j: int) -> T | None:
        cnt = int(counts[j])
        if cnt == 0:
            return None
        rng = seed.generator(j)
        acc: T | None = None
        for c in _chunk_sizes(cnt, chunk_size):
            part = task(rng, c)
            acc = part if acc is None else combine(acc, part)
        return acc

    indices = [j for j in range(N_SUBSTREAMS) if counts[j] > 0]
    if workers == 1 or len(indices) == 1:
        results = [run_stream(j) for j in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_stream, indices))

    acc: T | None = None
    for part in results:
        if part is None:
            continue
        acc = part if acc is None else combine(acc, part)
    assert acc is not None
    return acc


def moment_estimate(count, s1, s2, seed: SeedSpec) -> MCEstimate:
    """Mean and standard error from a sample count and the sums of the
    values and of their squares."""
    n = int(count)
    mean = s1 / n
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return MCEstimate(
        mean=float(mean),
        std_error=float(np.sqrt(var / n)),
        samples=n,
        seed=seed,
    )


def _moment_task(
    statistic: Callable[[np.random.Generator, int], np.ndarray], seed: SeedSpec
):
    def task(rng: np.random.Generator, count: int):
        vals = np.asarray(statistic(rng, count), dtype=float)
        if vals.ndim != 2 or vals.shape[1] != count:
            raise ValueError(
                f"statistic must return one row of {count} sample values per "
                f"estimate, got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            row, bad = divmod(int(np.flatnonzero(~np.isfinite(vals))[0]), count)
            raise NonFiniteStatisticError(
                f"statistic returned a non-finite value (row {row}, sample "
                f"offset {bad}); seed {seed.label}",
                master_seed=seed.master_seed,
                stream_index=seed.stream_index,
            )
        return np.array([[count, v.sum(), np.dot(v, v)] for v in vals])

    return task


def mc_run_many(
    statistic: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[MCEstimate]:
    """Monte Carlo means of several per-sample statistics on shared draws.

    ``statistic(rng, count)`` must be a pure function returning an
    (m, count) array, one row of sample values per estimate; it owns both
    the sampling and the evaluation, and draws once per chunk for all m
    rows.  Row i's estimate is bit-identical to :func:`mc_run` of a
    statistic returning row i alone, for any worker count.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    moments = mc_collect(
        _moment_task(statistic, seed),
        samples,
        seed,
        combine=np.add,
        workers=workers,
        chunk_size=chunk_size,
    )
    return [moment_estimate(count, s1, s2, seed) for count, s1, s2 in moments]


def mc_run(
    statistic: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> MCEstimate:
    """Monte Carlo mean of a per-sample statistic: the one-row case of
    :func:`mc_run_many`.

    ``statistic(rng, count)`` must be a pure function returning a (count,)
    array of sample values.  The estimate is bit-identical for any worker
    count.
    """

    def one_row(rng: np.random.Generator, count: int) -> np.ndarray:
        vals = np.asarray(statistic(rng, count), dtype=float)
        if vals.shape != (count,):
            raise ValueError(
                f"statistic must return one value per sample, got {vals.shape}"
            )
        return vals[None]

    (est,) = mc_run_many(one_row, samples, seed, workers=workers, chunk_size=chunk_size)
    return est
