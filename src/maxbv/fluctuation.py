"""Random-walk fluctuation identities, exact and Monte Carlo.

The exact layer works in arbitrary-precision rationals: the stay-below
probability P(W_1 <= 0, ..., W_n <= 0) = C(2n,n)/4^n for symmetric
continuous increments (Sparre Andersen) and its generating function
(1-t)^(-1/2).  The Monte Carlo layer checks the same quantities on sampled
walks, the bridge identity P(stay below | W_n = 0) = 1/n on sampled
bridges, and its cyclic-symmetry consequence that the bridge argmax
position is uniform.

The stay-below estimates step each walk or bridge one node at a time and
drop it at its first exit above 0 (``sampling.stay_below_count``), so a
path costs O(sqrt(n)) normals instead of n: 3.52 for the walk at n = 10,
about 9.3 for the bridge at n = 100.  The bridge steps by the exact
conditional law of its next node given the current one.  Mean-subtracted
full paths reach 1/n for any exchangeable increments, whatever their law;
the stepped bridge reaches it only if the transition's mean and variance
are right, so the 1/n rows also test that law.  The argmax census needs
whole bridges and draws them with ``bridge_sums_batch``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sampling import (
    MCEstimate,
    SeedSpec,
    bridge_sums_batch,
    mc_collect,
    moment_estimate,
    stay_below_count,
)


def rational_str(q: Fraction) -> str:
    """Serialize as "p/q"."""
    return f"{q.numerator}/{q.denominator}"


def halfline_prob_exact(n: int) -> Fraction:
    """P(all of W_1..W_n <= 0) = C(2n,n)/4^n, exactly; n = 0 gives 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return Fraction(math.comb(2 * n, n), 4**n)


def halfline_prob_float(n: int) -> float:
    """Float stay-below probability, via log-gamma beyond n = 64 where the
    central binomial over 4^n would overflow naively."""
    if n <= 64:
        return float(halfline_prob_exact(n))
    log_p = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) - n * math.log(4.0)
    return math.exp(log_p)


def andersen_series_check(order: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The coefficients of t^0 .. t^order on both sides of the stay-below
    generating identity.

    lhs: exp(sum_{k>=1} t^k/(2k)) by exact formal-series exponentiation
    (g_n = (1/(2n)) * sum_{j<n} g_j, from g' = f' g with f' summing to 1/2);
    rhs: the binomial series of (1-t)^(-1/2).  Equal coefficients constitute
    a machine-checked proof of the identity at every truncation order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    lhs = [Fraction(1)]
    running = Fraction(1)  # sum of lhs so far
    for n in range(1, order + 1):
        g_n = running / (2 * n)
        lhs.append(g_n)
        running += g_n
    rhs = [Fraction(1)]
    for n in range(1, order + 1):
        rhs.append(rhs[-1] * Fraction(2 * n - 1, 2 * n))
    return tuple(lhs), tuple(rhs)


# ---------------------------------------------------------------------------
# Monte Carlo counterparts
# ---------------------------------------------------------------------------

#: Paths per task call of the stay-below estimators.  Part of their stream
#: definition, like ``N_SUBSTREAMS``: changing it changes the estimates.
STAY_BELOW_CHUNK = 65_536


def _stay_below_estimate(
    n: int, samples: int, seed: SeedSpec, workers: int, *, bridge: bool
) -> MCEstimate:
    """Stay-below fraction from :func:`stay_below_count` over the substream
    plan, with the mean and SE that ``mc_run`` gives 0/1 values."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")

    def task(rng: np.random.Generator, count: int) -> int:
        return stay_below_count(rng, count, n, bridge=bridge)

    hits = mc_collect(
        task,
        samples,
        seed,
        combine=operator.add,
        workers=workers,
        chunk_size=STAY_BELOW_CHUNK,
    )
    return moment_estimate(samples, hits, hits)


def mc_halfline_prob(
    n: int, samples: int, seed: SeedSpec, *, workers: int = 1
) -> MCEstimate:
    """MC estimate of P(W_1 <= 0, ..., W_n <= 0) for the Gaussian walk.

    Each walk is stepped until its first exit above 0, so a path costs
    2n C(2n,n)/4^n normals on average (3.52 at n = 10) instead of n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _stay_below_estimate(n, samples, seed, workers, bridge=False)


def mc_bridge_stay_prob(
    n: int, samples: int, seed: SeedSpec, *, workers: int = 1
) -> MCEstimate:
    """MC estimate of P(W_1 <= 0, ..., W_{n-1} <= 0 | W_n = 0) = 1/n.

    Each bridge is stepped by the exact conditional law of its next node,
    W_{k+1} = a W_k + sqrt(a) Z with a = (n-k-1)/(n-k), until its first exit
    above 0: about 9.3 normals per path at n = 100 and 28 at n = 1000.
    The reference 1/n holds for any exchangeable increments, so on
    mean-subtracted paths it cannot see a wrong Gaussian law; stepped this
    way it holds only if the transition's mean and variance are right.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return _stay_below_estimate(n, samples, seed, workers, bridge=True)


def chi_square_sf(df: int, x: float) -> float:
    """P(chi-square with df degrees of freedom > x): the regularized upper
    incomplete gamma Q(df/2, x/2), by its power series (as 1 - P) below
    a + 1 and by the modified Lentz continued fraction above it."""
    a, y = 0.5 * df, 0.5 * x
    if y <= 0.0:
        return 1.0
    front = math.exp(a * math.log(y) - y - math.lgamma(a))
    eps, tiny = 1e-16, 1e-300
    if y < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while abs(term) > eps * total:
            ap += 1.0
            term *= y / ap
            total += term
        return 1.0 - front * total
    b = y + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= eps:
            return front * h


@dataclass(frozen=True)
class ArgmaxHistogram:
    """First-argmax census of bridge partial sums W_0..W_{n-1}."""

    counts: tuple[int, ...]
    ties: int
    samples: int
    p_value: float

    def rows(self) -> list[tuple[int, int]]:
        return list(enumerate(self.counts))


def _argmax_census(sums: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-position counts of the argmax of W_0..W_{n-1} and the number of
    rows whose maximum is attained more than once, from bridge sums
    W_1..W_n.

    W_n = W_0 = 0, so the row is W_0..W_{n-1} rotated by one: argmax j maps
    to position (j + 1) % n.  On a tie row the position may differ from the
    first argmax of W_0..W_{n-1}; those rows are the counted ties.  The
    argmax is taken once: each row holds its maximum at least once, so the
    entries equal to it number the rows plus the surplus of tie rows, and
    only a non-zero surplus pays for the exact per-row count.
    """
    n = sums.shape[1]
    arg = sums.argmax(axis=1)
    at_top = sums == sums[np.arange(len(sums)), arg][:, None]
    ties = int(np.count_nonzero(at_top)) - len(sums)
    if ties:
        ties = int(np.count_nonzero(np.count_nonzero(at_top, axis=1) > 1))
    return np.roll(np.bincount(arg, minlength=n), 1), ties


def bridge_argmax_histogram(
    n: int, samples: int, seed: SeedSpec, *, workers: int = 1
) -> ArgmaxHistogram:
    """Histogram of the first argmax position of W_0..W_{n-1} over sampled
    bridges, with the chi-square p-value against the uniform law on n cells.

    The forced W_n = 0 is excluded from the census (it duplicates W_0 in the
    cyclic picture).  Exact float ties of the maximum are counted and
    expected to be 0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")

    def task(rng: np.random.Generator, count: int):
        return _argmax_census(bridge_sums_batch(rng, count, n))

    def combine(a, b):
        return a[0] + b[0], a[1] + b[1]

    counts, ties = mc_collect(task, samples, seed, combine=combine, workers=workers)
    expected = samples / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return ArgmaxHistogram(
        counts=tuple(int(c) for c in counts),
        ties=ties,
        samples=samples,
        p_value=chi_square_sf(n - 1, chi2),
    )
