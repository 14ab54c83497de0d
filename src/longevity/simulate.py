"""Deterministic Monte Carlo machinery for mortality and index paths.

Reproducibility contract
------------------------
:class:`RngStream` wraps the counter-based Philox-4x64 bit generator keyed by
``(seed, stream_id)`` and reads its raw 64-bit words by ``random_raw``.  The
same pair always yields the same draw sequence, on any platform, and
distinct ``stream_id`` values give statistically independent streams.

Uniform deviates are built from the top 53 bits ``k`` of one 64-bit word
each as ``min((k + 0.5) / 2**53, 1 - 2**-53)``, so they lie strictly
inside (0, 1) and are safe under logarithms.  The clamp only touches the
one word in ``2**53`` whose top bits are all ones, where the half rounds
to even and the quotient is 1.  Normal deviates use the Box-Muller
transform, one uniform pair per normal (the cosine branch only), so the
stream position after ``n`` normals is ``2n`` words regardless of
batching.

Death-year sampling
-------------------
A curtate death year is the inverse of the life table's death CDF at one
uniform: year ``i + 1`` where ``i`` counts the CDF entries ``<= u``.  The
CDF's last entry is set to 1 and every uniform is below 1, so ``i`` never
passes the last year.

Death-year counts
-----------------
Where only the histogram of ``n`` death years is read, it is drawn
directly: it is Multinomial(n, d) over the years, with ``d`` the death
distribution, and so follows year by year as conditional binomials
(Devroye 1986, ch. XI).  Year ``y`` takes Binomial(n left, d_y / S_y) of the
lives still alive, where the survival mass ``S_y = d_y + d_{y+1} + ...`` is
summed from the far end, so no ``1 - sum`` cancels; the ratio is clamped to
[0, 1], and the last year takes whoever is left.  A binomial with
``p > 1/2`` is drawn as ``n - Bin(n, 1 - p)``; with ``p <= 1/2`` it is drawn
by inversion, walking its pmf up from 0 with one uniform, where
``n p < 10``, and by Hörmann's transformed rejection BTRS (J. Statist.
Comput. Simul. 46, 1993), two uniforms a trial, elsewhere.  Probability 0
or 1, or no one left, reads nothing.
So the cost depends on the number of years, not on ``n``.  The uniforms
come from the stream's raw words by the formula above, read
``_WORD_BLOCK`` words at a time; a block's unread words are dropped when
the draw ends.  No numpy ``Generator`` method is called, not even
``integers``, since numpy does not promise their streams across releases
(NEP 19); every deviate here is built from the raw words.

Death-time order statistics
---------------------------
A death time is a death year minus a uniform fraction, so its CDF ``F``
is piecewise linear between the death CDF's values ``C[y]`` at the whole
years.  A sorted sample of ``n`` death times has the law of ``F^-1``
applied to ``n`` sorted uniforms, so the few order statistics a quantile
fit reads are drawn without the rest (David & Nagaraja, *Order
Statistics*, 2003, §2.2).  They are drawn from the top down, from
``U_(n+1) := 1``: given ``U_(h) = u`` the next rank down is
``U_(k) = u B``, ``B`` a Beta(k, h - k) variate independent of ``u``.
Next to the rank above, ``B`` is Beta(k, 1), ``V^(1/k)`` for one uniform
``V``; otherwise it is ``Ga / (Ga + Gb)`` for gamma variates of shapes
``k`` and ``h - k``, both at least 1, each drawn by Marsaglia & Tsang's
squeeze-and-reject method (ACM TOMS 26(3), 2000) on Box-Muller normals
(cosine branch, two uniforms each) and one uniform a trial.  A uniform
``u``, held below 1 like a word's, maps to the time
``y + (u - C[y-1]) / (C[y] - C[y-1])`` past whole year ``y``, the first
whose ``C[y]`` exceeds ``u`` (found by bisection), with ``C[-1] = 0``.
Dividing by the CDF's own step keeps the fraction in [0, 1) on rounded
and subnormal tables, and a time that rounds onto a whole number is moved
inside its year, as :func:`sample_death_times` does, so its ceiling is
its death year.  The uniforms are read from whole ``_WORD_BLOCK`` blocks,
as the counts' are, so the cost depends on the number of ranks, not on
``n``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable

import numpy as np

from .errors import _Record, require_finite
from .lifetable import LifeTable, death_distribution

__all__ = [
    "RngStream",
    "box_muller",
    "SimSummary",
    "GbmParams",
    "sample_death_years",
    "sample_death_times",
    "simulate_deaths",
    "vole",
    "gbm_terminal_samples",
    "randomized_horizon_payoff",
]

_TWO_POW_53 = float(1 << 53)
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1
_WORD_BLOCK = 128  # words the count and order-statistic samplers read from a stream at a time


class RngStream:
    """A named, reproducible stream of pseudo-random deviates.

    Parameters
    ----------
    seed : int
        Experiment-level seed, ``0 <= seed < 2**64``.
    stream_id : int
        Sub-stream identifier, ``0 <= stream_id < 2**64``.  Streams with the
        same seed and different ids are independent.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, v in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._bits = np.random.Philox(key=key)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def spawn(self, offset: int) -> "RngStream":
        """Fresh stream with the same seed and ``stream_id + offset``."""
        return RngStream(self.seed, self.stream_id + int(offset))

    def uniform(self, size: int) -> np.ndarray:
        """``size`` uniforms in (0, 1), one 64-bit word each (see the module notes)."""
        return _uniforms(self._words(size))

    def _words(self, size: int) -> np.ndarray:
        """The next ``size`` raw 64-bit words of the stream, straight from the bit generator."""
        if size < 0:
            raise ValueError("size must be >= 0")
        return self._bits.random_raw(size)

    def normals(self, size: int) -> np.ndarray:
        """``size`` standard normals via Box-Muller, cosine branch.

        Consumes exactly ``2 * size`` uniforms (radius first, angle second
        for each deviate).
        """
        u = self.uniform(2 * size)
        y1, _ = box_muller(u[0::2], u[1::2])
        return y1


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The module's uniform formula on 64-bit words; shifts ``words`` in place."""
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u /= _TWO_POW_53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


def box_muller(r1, r2):
    """Box-Muller transform of two independent uniform(0,1) deviates.

    Returns the pair ``(y1, y2)`` with
    ``y1 = sqrt(-2 log r1) * cos(2 pi r2)`` and
    ``y2 = sqrt(-2 log r1) * sin(2 pi r2)``; both are standard normal and
    independent, and ``y1**2 + y2**2 = -2 log r1`` exactly.
    Accepts scalars or arrays; inputs must lie strictly in (0, 1).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if np.any(r1 <= 0.0) or np.any(r1 >= 1.0) or np.any(r2 <= 0.0) or np.any(r2 >= 1.0):
        raise ValueError("Box-Muller inputs must lie strictly inside (0, 1)")
    radius = np.sqrt(-2.0 * np.log(r1))
    angle = 2.0 * np.pi * r2
    y1 = radius * np.cos(angle)
    y2 = radius * np.sin(angle)
    if y1.ndim == 0:
        return float(y1), float(y2)
    return y1, y2


# ------------------------------------------------------- death sampling #

def _death_cdf(table: LifeTable, x: int) -> np.ndarray:
    # a running sum that rounds past 1 is clipped, so the CDF never
    # decreases and every uniform in [0, 1] has one well-defined year
    cdf = np.minimum(np.cumsum(death_distribution(table, x)), 1.0)
    cdf[-1] = 1.0
    return cdf


def sample_death_years(table: LifeTable, x: int, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` curtate death years in one batch, as int64.

    Each year inverts the death CDF at one uniform of ``rng`` (see the
    module notes), so the draw consumes exactly ``n`` words, as
    ``rng.uniform(n)`` does.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    years = np.searchsorted(_death_cdf(table, x), rng.uniform(n), side="right")
    years += 1
    return years.astype(np.int64, copy=False)


def sample_death_times(table: LifeTable, x: int, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` fractional death times under within-year uniformity.

    Each time is a curtate death year minus an independent uniform(0,1)
    fraction, so the values are continuous and positive.  Consumes ``n``
    uniforms for the years, then ``n`` for the fractions.  A difference
    that rounds onto a whole number, ``year - 1`` or ``year`` (a fraction
    within about ``year * 2**-53`` of 1 or 0), is moved to the nearest
    float inside ``(year - 1, year)``, so ``ceil(time)`` is always the year.
    """
    years = sample_death_years(table, x, n, rng)
    times = rng.uniform(n)
    np.subtract(years, times, out=times)
    whole = np.flatnonzero(times == np.floor(times))
    y = years[whole]
    times[whole] = np.clip(times[whole], np.nextafter(y - 1.0, y), np.nextafter(y, 0.0))
    return times


def _block_uniforms(rng: RngStream):
    """Endless uniforms from ``rng``, one word each, read ``_WORD_BLOCK`` words at a time."""
    while True:
        yield from _uniforms(rng._words(_WORD_BLOCK)).tolist()


def _gamma(shape: float, uniform: Callable[[], float]) -> float:
    """One Gamma(shape) draw, ``shape >= 1``, by Marsaglia & Tsang (see the module notes)."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        z = math.sqrt(-2.0 * math.log(uniform())) * math.cos(2.0 * math.pi * uniform())
        v = 1.0 + c * z
        if v <= 0.0:
            continue
        v = v * v * v
        u, zz = uniform(), z * z
        if u < 1.0 - 0.0331 * zz * zz or math.log(u) < 0.5 * zz + d * (1.0 - v + math.log(v)):
            return d * v


def _death_time_order_stats(
    table: LifeTable, x: int, n: int, ranks: Iterable[int], rng: RngStream
) -> dict[int, float]:
    """The death times at the 1-based ``ranks`` of a sorted sample of ``n`` lives aged ``x``.

    Drawn rank by rank from the top (see the module notes), in law the
    same as ``np.sort(sample_death_times(table, x, n, rng))`` read at those
    ranks; the cost depends on how many ranks there are, not on ``n``.
    """
    cdf = _death_cdf(table, x).tolist()
    uniform = _block_uniforms(rng).__next__
    out: dict[int, float] = {}
    u, above = 1.0, n + 1
    for k in sorted(set(ranks), reverse=True):
        if above - k == 1:
            u *= uniform() ** (1.0 / k)
        else:
            ga = _gamma(k, uniform)
            u *= ga / (ga + _gamma(above - k, uniform))
        above = k
        v = min(u, _BELOW_ONE)
        y = bisect_right(cdf, v)  # cdf[-1] is 1, so y is inside the table
        low = cdf[y - 1] if y else 0.0
        t = y + (v - low) / (cdf[y] - low)
        out[k] = min(max(t, math.nextafter(y, y + 1)), math.nextafter(y + 1, y))
    return out


def _binomial(n: int, p: float, uniform: Callable[[], float]) -> int:
    """One Binomial(n, p) draw from the uniforms ``uniform()`` returns (see the module notes)."""
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, uniform)
    q = 1.0 - p
    if n * p < 10.0:
        # inversion from 0; a uniform past the mass the rounded pmf reaches
        # within 110 terms (beyond them the tail is below 1e-60) draws again
        first, ratio, last = math.exp(n * math.log1p(-p)), p / q, min(n, 110)
        while True:
            u, k, f = uniform(), 0, first
            while u > f and k < last:
                u -= f
                k += 1
                f *= (n - k + 1) / k * ratio
            if u <= f:
                return k
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    m = math.floor((n + 1) * p)
    log_ratio = math.log(p / q)
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        # accept where v under the hat lies below pmf(k) / pmf(m)
        if (math.log(v * alpha / (a / (us * us) + b))
                <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * log_ratio):
            return k


def _death_counts(table: LifeTable, x: int, n: int, rng: RngStream) -> np.ndarray:
    """How many of ``n`` lives aged ``x`` die in each year ``1..t_max``, as int64 summing to ``n``.

    One Multinomial(n, d) draw by conditional binomials (see the module
    notes), whose cost does not depend on ``n``.
    """
    d = death_distribution(table, x)
    alive = np.cumsum(d[::-1])[::-1]  # S_y, summed from the far end
    p = np.divide(d, alive, out=np.zeros_like(d), where=alive > 0.0)
    uniform = _block_uniforms(rng).__next__
    counts = [0] * d.size
    left = int(n)
    for y, p_y in enumerate(np.clip(p[:-1], 0.0, 1.0).tolist()):
        if left == 0:
            break
        counts[y] = _binomial(left, p_y, uniform)
        left -= counts[y]
    counts[-1] = left
    return np.array(counts, dtype=np.int64)


class SimSummary(_Record):
    """Summary of a batch of simulated death years.

    ``histogram`` maps death year to count; ``mode`` is the smallest year
    attaining the maximum count; ``max_year`` is the largest observed year
    and is what the volatility measure normalises by.
    """

    n: int
    mode: int
    max_year: int
    mean: float
    histogram: dict[int, int]
    _hidden = ("histogram",)  # left out of the repr

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("summary needs n > 0")
        if sum(self.histogram.values()) != self.n:
            raise ValueError("histogram counts must sum to n")
        if self.mode not in self.histogram or self.max_year not in self.histogram:
            raise ValueError("mode and max_year must be observed years")


def simulate_deaths(table: LifeTable, x: int, n: int, rng: RngStream) -> SimSummary:
    """Simulate ``n`` death years for a life aged ``x`` and summarise them.

    The years are drawn as one histogram by :func:`_death_counts`, not one by
    one, so the cost does not depend on ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    counts = _death_counts(table, x, n, rng)
    observed = counts.nonzero()[0]
    hist = dict(zip((observed + 1).tolist(), counts[observed].tolist()))  # ascending years
    top = max(hist.values())
    mode = min(y for y in hist if hist[y] == top)
    mean = sum(y * c for y, c in hist.items()) / n
    return SimSummary(n=n, mode=mode, max_year=max(hist), mean=mean, histogram=hist)


def vole(e_complete: float, max_death: float) -> float:
    """Volatility of life expectancy: ``1 - e_complete / max_death``.

    ``e_complete`` is the expected remaining lifetime and ``max_death`` the
    longest death year observed in simulation; the ratio of the two is the
    fraction of the worst case already expected, and one minus it lies in
    ``[0, 1)`` with 0 meaning a fully predictable lifetime.  In floats the
    result is exactly 1.0 once the ratio is at most ``2**-54``, half the
    gap below 1, e.g. ``vole(1e-320, 1e308)``.
    """
    require_finite(e_complete=e_complete, max_death=max_death)
    if not (max_death > 0.0):
        raise ValueError("max_death must be positive")
    if not (0.0 < e_complete <= max_death):
        raise ValueError(
            f"need 0 < e_complete <= max_death, got {e_complete!r} vs {max_death!r}"
        )
    return 1.0 - e_complete / max_death


# ------------------------------------------------------------ GBM paths #

class GbmParams(_Record):
    """Geometric Brownian motion: drift ``rate``, volatility ``sigma``, start ``s0``."""

    rate: float
    sigma: float
    s0: float

    def __post_init__(self):
        require_finite(rate=self.rate, sigma=self.sigma, s0=self.s0)
        # the jump formulas square sigma with a float power, which raises
        # OverflowError rather than giving inf once the square overflows
        if not math.isfinite(self.sigma * self.sigma):
            raise ValueError(f"sigma must have a finite square, got {self.sigma}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.s0 <= 0.0:
            raise ValueError("s0 must be positive")


def gbm_terminal_samples(
    params: GbmParams, t: float, n: int, rng: RngStream, n_steps: int = 1
) -> np.ndarray:
    """Terminal index values at horizon ``t`` for ``n`` paths.

    Each path takes ``n_steps`` equal exact sub-steps.  Draw order is
    step-major: all paths' step-1 shocks, then all step-2 shocks, and so
    on, one normal per path per step.  ``n_steps = 1`` is the single-jump
    sampler, identical in law to any finer partition.
    """
    if t < 0.0:
        raise ValueError("horizon t must be >= 0")
    if n <= 0 or n_steps <= 0:
        raise ValueError("n and n_steps must be positive")
    s = np.full(n, params.s0)
    if t == 0.0:
        return s
    dt = t / n_steps
    drift = (params.rate - 0.5 * params.sigma**2) * dt
    scale = params.sigma * math.sqrt(dt)
    for _ in range(n_steps):
        s = s * np.exp(drift + scale * rng.normals(n))
    return s


def randomized_horizon_payoff(
    params: GbmParams,
    table: LifeTable,
    x: int,
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray | float],
    n: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo mean of a payoff evaluated at a mortality-random horizon.

    For each of ``n`` paths a death year ``T`` is drawn from the life table
    and the index is jumped to ``S_T`` in one exact GBM step.  ``payoff`` is
    called once, with the arrays of all ``n`` terminal values and integer
    death years, and its result is broadcast to one value per path, so a
    constant payoff works too.  Draw order: ``n`` death years first, then
    ``n`` normals.  Returns the sample mean and its standard error.
    """
    if n < 2:
        raise ValueError("n must be >= 2 to estimate a standard error")
    years = sample_death_years(table, x, n, rng)
    eps = rng.normals(n)
    drift = (params.rate - 0.5 * params.sigma**2) * years
    shock = params.sigma * np.sqrt(years.astype(float)) * eps
    s_t = params.s0 * np.exp(drift + shock)
    values = np.empty(n)
    values[:] = payoff(s_t, years)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n))
    return mean, stderr
