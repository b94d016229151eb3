"""Reflection-principle densities, the split-point density at zero, the
discrete total-variation bound for the second-derivative measure of the
running maximum, the exact moments of the walk maximum, and the bound's
limiting singular integral.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .fluctuation import halfline_prob_float
from .perimeter import HALFSPACE_PERIMETER

# 15-point Kronrod nodes on [-1, 1] (positive half, centre last) with their
# weights, and the weights of the embedded 7-point Gauss rule, whose nodes are
# the odd-indexed Kronrod nodes (QUADPACK's QK15).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod estimate of int_a^b f and its error bound |K15 - G7|."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    kronrod = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        pair = f(centre - dx) + f(centre + dx)
        kronrod += _WGK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    return kronrod * half, abs(kronrod - gauss) * half


def _quad(f, a: float, b: float, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Adaptive Gauss-Kronrod quadrature of f over [a, b] (b may be inf).

    The interval with the largest error is bisected until the summed error
    estimate is within max(epsabs, epsrel*|value|) or ``limit`` intervals
    exist.  [a, inf) is mapped to [0, 1) by y = a + u/(1-u).  Returns
    (value, error estimate); the estimate sums |K15 - G7| over the
    intervals.
    """
    if b == math.inf:
        g, origin = f, a

        def f(u: float) -> float:
            return g(origin + u / (1.0 - u)) / (1.0 - u) ** 2

        a, b = 0.0, 1.0
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value)]
    total, total_err = value, err
    while len(heap) < limit and total_err > max(epsabs, epsrel * abs(total)):
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            heapq.heappush(heap, (neg_err, lo, hi, val))
            break
        left, left_err = _gk15(f, lo, mid)
        right, right_err = _gk15(f, mid, hi)
        heapq.heappush(heap, (-left_err, lo, mid, left))
        heapq.heappush(heap, (-right_err, mid, hi, right))
        total += left + right - val
        total_err += left_err + right_err + neg_err
    return (
        math.fsum(item[3] for item in heap),
        math.fsum(-item[0] for item in heap),
    )


def segment_max_density(y: float, length: float) -> float:
    """Density of the running maximum of a Brownian segment of the given
    length, started at 0: the half-normal 2*phi(y/sqrt(L))/sqrt(L) for y >= 0.

    Via the reflection principle, P(max > a) = 2 P(W_L > a)."""
    if length <= 0:
        raise ValueError("segment length must be positive")
    if y < 0:
        return 0.0
    s = math.sqrt(length)
    return 2.0 * math.exp(-0.5 * (y / s) ** 2) / (s * math.sqrt(2.0 * math.pi))


def segment_max_mass(length: float) -> float:
    """Mass of the segment-max density: the trapezoid rule at 801 points up
    to 8 sqrt(length), plus the analytic half-normal tail beyond."""
    y_max = 8.0 * math.sqrt(length)
    ys = np.linspace(0.0, y_max, 801)
    vals = np.array([segment_max_density(float(y), length) for y in ys])
    mass = float(np.trapezoid(vals, ys))
    z = y_max / math.sqrt(length)
    tail = float(math.erfc(z / math.sqrt(2.0)))  # 2*(1 - Phi(z))
    return mass + tail


def lt_zero(t: float, horizon: float) -> float:
    """Density at 0 of the split-point difference max[t,T] - max[0,t].

    The two sides, each measured above the path value at t, are independent
    half-normals of lengths T - t (forward) and t (by time reversal), so the
    density of their difference at 0 is the overlap integral
    int_0^inf f_{T-t}(y) f_t(y) dy, evaluated by adaptive quadrature.
    """
    if not (0.0 < t < horizon):
        raise ValueError(f"need 0 < t < horizon, got t={t}, horizon={horizon}")
    a, b = horizon - t, t

    def integrand(y: float) -> float:
        return segment_max_density(y, a) * segment_max_density(y, b)

    value, err = _quad(
        integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200
    )
    if err > 1e-10:
        raise QuadratureError(f"lt_zero quadrature error {err:.2e} too large")
    return float(value)


def lt_zero_closed(horizon: float) -> float:
    """Closed evaluation of the overlap integral: sqrt(2/(pi*T)), independent
    of the split point (the Gaussian product integrates in closed form)."""
    return math.sqrt(2.0 / (math.pi * horizon))


# ---------------------------------------------------------------------------
# Discrete total-variation bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TVBoundRow:
    """One row of the discrete total-variation bound table.

    ``total`` is sqrt(T/n) * (2*pi)^(-1/2) * sum over ordered index pairs
    (m, k) of p(m) * p(n-k) / sqrt(k-m) with p the exact stay-below
    probability; ``boundary`` collects the m = 0 and k = n terms.
    """

    n: int
    total: float
    boundary: float

    @property
    def bulk(self) -> float:
        return self.total - self.boundary


def tv_bound_discrete(n: int, horizon: float = 1.0) -> TVBoundRow:
    """Exact-factor bound for the total variation of the discretized second
    derivative.

    Every pair m < k contributes the product of three independent factors:
    the stay-below probabilities of the two outer segments and the
    perimeter-times-bridge value (2*pi)^(-1/2)/(k-m) of the middle one,
    weighted by the increment scale sqrt((k-m) T / n).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    p = np.array([halfline_prob_float(j) for j in range(n + 1)])
    # sum over 0 <= m < k <= n of p[m] * p[n-k] / sqrt(k-m), grouped by d = k-m
    q = p[::-1]  # q[k] = p[n-k]
    total = 0.0
    for d in range(1, n + 1):
        total += float(np.dot(p[: n - d + 1], q[d:])) / math.sqrt(d)
    # boundary: m = 0 terms, k = n terms, minus the doubly counted corner
    m0 = sum(p[0] * p[n - k] / math.sqrt(k) for k in range(1, n + 1))
    kn = sum(p[m] * p[0] / math.sqrt(n - m) for m in range(0, n))
    corner = p[0] * p[0] / math.sqrt(n)
    boundary = m0 + kn - corner
    scale = math.sqrt(horizon / n) * HALFSPACE_PERIMETER
    return TVBoundRow(
        n=n,
        total=float(scale * total),
        boundary=float(scale * boundary),
    )


def walk_max_moments(n: int, horizon: float) -> tuple[float, float]:
    """Mean and variance of max(W_0, ..., W_n) for the walk W_0 = 0 of n
    Gaussian steps of variance D = horizon/n, in O(n) by Spitzer's identity
    (Spitzer 1956).

    With a_k = E[W_k^+]/k = sqrt(D/(2 pi k)), the identity gives
    E M = sum_{k<=n} a_k, which is the total of :func:`tv_bound_discrete`,
    and E M^2 = n D/2 + sum_{j+k<=n} a_j a_k, where n D/2 sums
    E[(W_k^+)^2]/k = D/2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    a = np.sqrt(horizon / n / (2.0 * math.pi * np.arange(1, n + 1)))
    cum = np.cumsum(a)
    mean = float(cum[-1])
    # sum_{j+k<=n} a_j a_k = sum_{j<n} a_j * cum_{n-j}
    second = 0.5 * horizon + float(np.dot(a[:-1], cum[-2::-1]))
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# The limiting singular integral
# ---------------------------------------------------------------------------

def inner_arcsine_integral(t: float) -> float:
    """int_t^1 ds / sqrt((s-t)(1-s)), by square-root substitutions at both
    endpoints (s = t + v^2 below the midpoint, s = 1 - w^2 above); the exact
    value is pi for every t in [0, 1)."""
    if not (0.0 <= t < 1.0):
        raise ValueError("t must lie in [0, 1)")
    mid = 0.5 * (t + 1.0)

    def integrand(x: float) -> float:  # the same in v and in w
        return 2.0 / math.sqrt(1.0 - t - x * x)

    vmax = math.sqrt(mid - t)
    wmax = math.sqrt(1.0 - mid)
    a, ea = _quad(integrand, 0.0, vmax, epsabs=1e-12, epsrel=1e-12)
    b, eb = _quad(integrand, 0.0, wmax, epsabs=1e-12, epsrel=1e-12)
    if ea + eb > 1e-9:
        raise QuadratureError(f"inner quadrature error {ea + eb:.2e} too large")
    return a + b


def limit_integral() -> tuple[float, float]:
    """int_0^1 dt int_t^1 ds / sqrt(t (s-t) (1-s)), with its error estimate.

    The outer 1/sqrt(t) singularity is removed by t = r^2; the inner
    integral gets square-root substitutions at both of its endpoints.
    """

    def outer(r: float) -> float:
        return 2.0 * inner_arcsine_integral(r * r)

    value, err = _quad(
        outer, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200
    )
    total_err = err + 2.0e-9  # inner quadrature tolerance propagated
    if total_err > 1e-8:
        raise QuadratureError(
            f"limit integral reached error {total_err:.2e}, wanted < 1e-8"
        )
    return float(value), float(total_err)


def limit_integral_riemann(n: int) -> float:
    """Riemann-sum version sum_{0<m<k<n} n^-2 / sqrt((m/n)((k-m)/n)((n-k)/n))."""
    if n < 3:
        raise ValueError("n must be at least 3")
    m = np.arange(1, n)
    total = 0.0
    for k in range(2, n):
        mm = m[: k - 1]
        total += float(
            np.sum(1.0 / np.sqrt((mm / n) * ((k - mm) / n) * ((n - k) / n)))
        )
    return total / (n * n)


# ---------------------------------------------------------------------------
# Stirling asymptotics of the stay-below probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticGap:
    n: int
    scaled_value: float  # sqrt(n) * P(stay below n steps)
    reference: float  # 1/sqrt(pi)
    relative_gap: float


def asymptotic_match(n: int) -> AsymptoticGap:
    """Compare sqrt(n)*P(stay below) to its Stirling limit 1/sqrt(pi).

    The relative gap is 1/(8n) + O(n^-2), so it decreases in n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    scaled = math.sqrt(n) * halfline_prob_float(n)
    ref = 1.0 / math.sqrt(math.pi)
    return AsymptoticGap(
        n=n,
        scaled_value=scaled,
        reference=ref,
        relative_gap=abs(scaled - ref) / ref,
    )
