"""Batch Gaussian samplers and a deterministic parallel Monte Carlo driver.

The samplers draw a batch of paths, one per row, from one generator: walk
partial sums (:func:`walk_sums_batch`), bridges (:func:`bridge_sums_batch`)
and Brownian node values (:func:`brownian_values_batch`).  Two estimators
fold on the driver: means of real-valued statistics (:func:`mc_run_many`)
and ratios of path counts (:func:`mc_ratios`).

Reproducibility contract: every sampler is a pure function of its inputs and
the generator's state, and a :class:`SeedSpec` names each generator;
``mc_run``, ``mc_run_many``, ``mc_ratios`` and ``mc_collect`` partition work
over a fixed number of substreams and reduce in ascending stream order, so
results are bit-identical for any worker count.  The Wiener integrals inside
a statistic are formed in row blocks that stay on the calling thread (see
:func:`maxbv.paths.wiener_integral_batch`), so their bits do not depend on
the OpenBLAS thread count either.  Importing :mod:`maxbv` before numpy sets
``OPENBLAS_NUM_THREADS=1`` unless the environment already sets it: the
worker pool of :func:`mc_collect` is the only parallelism, and idle OpenBLAS
threads would only spin beside it.  The normal generator is pinned per
build (numpy PCG64 via ``default_rng``) and recorded in run manifests;
statistical acceptance bands absorb cross-platform generator differences.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import InsufficientSamplesError, NonFiniteStatisticError
from .paths import _ROW_BLOCK, TimeGrid

#: Number of independent substreams mc_collect fans a job out over.  Fixed so
#: the stream plan (and hence every estimate) is independent of worker count.
N_SUBSTREAMS = 64

#: Default samples per task invocation; bounds peak memory for path batches.
#: A chunk is the one path-sized array an estimator holds: the Wiener
#: increments are formed in row blocks far smaller than a chunk.  The census
#: estimators of :mod:`maxbv.concentration` pass a quarter of it, since their
#: integer counts do not depend on the chunk size; narrow statistics keep
#: this size, because the per-chunk driver cost dominates them.
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

    def generator(self, *branch: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index, *branch))
        return np.random.default_rng(seq)

    @property
    def label(self) -> str:
        return f"{self.master_seed}/{self.stream_index}"


@dataclass(frozen=True)
class MCEstimate:
    """Mean, standard error (sample std / sqrt(samples)) and sample count.

    An estimate is its numbers: the caller holds the :class:`SeedSpec` it
    passed in, ``run_experiment`` stamps each row with its seed label, and
    :func:`maxbv.reporting.verdict` gates a row against its tolerance.
    """

    mean: float
    std_error: float
    samples: int


# ---------------------------------------------------------------------------
# Batch samplers (one rng, many paths; a single path is a one-row batch)
# ---------------------------------------------------------------------------

def walk_sums_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n+1) array of walk partial sums, first column exactly 0.

    The output is the only path-sized array: one ``standard_normal`` call
    fills its contiguous tail ``out.reshape(-1)[count:]`` with the count*n
    normals, row by row, and the cumsum then runs forward in blocks of
    ``_ROW_BLOCK`` rows into ``out[:, 1:]``.  Row i's normals sit
    count-1-i slots to the right of its sums, so a block never writes where
    a later block reads, and numpy buffers the overlap inside a block (a
    block-sized temporary).  The numbers are bit-identical to the cumsum of
    ``rng.standard_normal((count, n))`` into a separate buffer, and the
    generator advances the same way.  Blocked RNG calls and one call per
    row were measured slower end to end (see :mod:`maxbv.concentration`).
    """
    out = np.empty((count, n + 1))
    z = out.reshape(-1)[count:].reshape(count, n)
    rng.standard_normal(out=z)
    for r in range(0, count, _ROW_BLOCK):
        s = slice(r, r + _ROW_BLOCK)
        np.cumsum(z[s], axis=1, out=out[s, 1:])
    out[:, 0] = 0.0
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
    ``np.sqrt(grid.step) * walk_sums_batch(...)`` without its temporary.
    The returned array is the only path-sized allocation (see
    :func:`walk_sums_batch`)."""
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

def stream_counts(samples: int) -> np.ndarray:
    """Deterministic split of ``samples`` over the fixed substreams."""
    base, extra = divmod(samples, N_SUBSTREAMS)
    counts = np.full(N_SUBSTREAMS, base, dtype=np.int64)
    counts[:extra] += 1
    return counts


def _chunk_sizes(count: int, chunk_size: int):
    """The row counts, in draw order, of ``count`` rows drawn ``chunk_size``
    at a time."""
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
    order; stream results are folded in ascending j, each as soon as it and
    all before it are done, so only results not yet folded are held.
    Worker threads only change who executes a stream, never its content or
    the reduction order.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    counts = stream_counts(samples)

    def fold(parts) -> T:
        acc: T | None = None
        for part in parts:
            acc = part if acc is None else combine(acc, part)
        assert acc is not None
        return acc

    def run_stream(j: int) -> T:
        rng = seed.generator(j)
        return fold(task(rng, c) for c in _chunk_sizes(int(counts[j]), chunk_size))

    indices = [j for j in range(N_SUBSTREAMS) if counts[j] > 0]
    if workers == 1 or len(indices) == 1:
        return fold(map(run_stream, indices))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return fold(pool.map(run_stream, indices))


def moment_estimate(count, s1, s2) -> MCEstimate:
    """Mean and standard error from a sample count and the sums of the
    values and of their squares."""
    n = int(count)
    mean = s1 / n
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return MCEstimate(
        mean=float(mean),
        std_error=float(np.sqrt(var / n)),
        samples=n,
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
    return [moment_estimate(count, s1, s2) for count, s1, s2 in moments]


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


# ---------------------------------------------------------------------------
# Ratios of path counts
# ---------------------------------------------------------------------------

def ratio_sums(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(5, m) sums [sum c, sum c^2, sum h, sum h^2, sum hc] over draws of the
    (draws, m) hit counts ``h`` against the conditioning counts ``c``, which
    broadcast to the shape of ``h``."""
    c = np.broadcast_to(c, h.shape)
    return np.stack(
        [c.sum(axis=0), (c * c).sum(axis=0), h.sum(axis=0), (h * h).sum(axis=0),
         (h * c).sum(axis=0)]
    )


def ratio_estimate(sums: Sequence[int]) -> MCEstimate:
    """Conditional fraction R = sum h / sum c from iid per-draw counts, with
    the delta-method standard error
    SE^2 = (sum h^2 - 2 R sum hc + R^2 sum c^2) / (sum c)^2.

    With one path per draw (c, h in {0, 1}) this is the binomial p(1-p)/n.
    The numerator is formed times (sum c)^2 in exact integers, so it never
    cancels below 0.  ``samples`` is sum c, the counted path count; with no
    counted path the fraction reads 0.0.
    """
    sc, sc2, sh, sh2, shc = (int(x) for x in sums)
    if sc == 0:
        return MCEstimate(mean=0.0, std_error=0.0, samples=0)
    num = sc * sc * sh2 - 2 * sc * sh * shc + sh * sh * sc2
    return MCEstimate(mean=sh / sc, std_error=math.sqrt(num) / (sc * sc), samples=sc)


def require_counted(counted: int, what: str) -> None:
    """Raise :class:`InsufficientSamplesError`, reading "only <counted>
    <what>", when fewer than 100 paths were counted."""
    if counted < 100:
        raise InsufficientSamplesError(f"only {counted} {what}")


def mc_ratios(
    counts: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    samples: int,
    seed: SeedSpec,
    *,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[MCEstimate]:
    """Monte Carlo fractions sum h / sum c of per-draw path counts, one
    :func:`ratio_estimate` per column of h, on shared draws.

    ``counts(rng, count)`` must be a pure function returning integer or
    boolean arrays (c, h) for ``count`` draws: h is (count, m), and c
    broadcasts to its shape (a constant, one column, or one column per
    estimate).  The sums are folded as exact integers, so every estimate is
    bit-identical for any worker count.  ``chunk_size`` caps the draws of
    one ``counts`` call; when ``counts`` draws its paths in one sampler
    call, such as :func:`brownian_values_batch`, whose draws concatenate,
    the estimates do not depend on it either.
    """

    def task(rng: np.random.Generator, count: int) -> np.ndarray:
        return ratio_sums(*counts(rng, count))

    sums = mc_collect(task, samples, seed, combine=np.add, workers=workers,
                      chunk_size=chunk_size)
    return [ratio_estimate(col) for col in sums.T]
