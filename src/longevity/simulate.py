"""Deterministic Monte Carlo machinery for mortality and index paths.

Reproducibility contract
------------------------
:class:`RngStream` wraps the counter-based Philox-4x64 bit generator keyed by
``(seed, stream_id)``.  The same pair always yields the same draw sequence,
on any platform, and distinct ``stream_id`` values give statistically
independent streams.

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
uniform: year ``i + 1`` where ``i`` counts the CDF entries ``<= u``, capped
at the last year.  :func:`sample_death_years` inverts a batch with a guide
table (indexed search, Chen & Asau 1974) read straight from the words.  It
splits (0, 1) into 4096 equal buckets and, with one binary search of the
4097 bucket edges, counts the CDF values at or below each edge.  A bucket
whose two edges give the same count sends all its draws to one year.  A
word's bucket is its top 12 bits, ``w >> 52``, so most draws read their
year from the table without ever becoming a float.  Only the draws in the
other buckets, at most ``cdf.size`` of the 4096, are turned into uniforms
and take the binary search, and every year equals the plain inversion's.

The integer bucket is ``floor(4096 u)`` for every word but one kind.  With
``k = w >> 11``, ``k + 0.5`` is exact below ``2**52`` and the bucket is
``k >> 41``.  From ``2**52`` on the half rounds to even, and an odd ``k``
becomes ``k + 1``.  That crosses a bucket edge only when the low 41 bits
of ``k`` are all ones: then ``u`` is exactly edge ``j`` while the word sits
in bucket ``j - 1``.  If bucket ``j - 1`` holds no CDF value in
``(edge j-1, edge j]``, the count at ``u`` is the count at edge ``j``,
which is the bucket's year.  If it holds one, the draw takes the binary
search on its exact ``u``.  The clamp below 1 keeps ``u`` in the last
bucket, where ``k >> 41`` puts it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import require_finite
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
_BUCKETS = 4096
_BUCKET_EDGES = np.arange(_BUCKETS + 1) / _BUCKETS


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
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def spawn(self, offset: int) -> "RngStream":
        """Fresh stream with the same seed and ``stream_id + offset``."""
        return RngStream(self.seed, self.stream_id + int(offset))

    def uniform(self, size: int) -> np.ndarray:
        """``size`` uniforms in (0, 1), one 64-bit word each (see the module notes).

        :func:`sample_death_years` reads the same words but makes floats
        only for the few draws that need them, so it does not call this.
        """
        return _uniforms(self._words(size))

    def _words(self, size: int) -> np.ndarray:
        """The next ``size`` raw 64-bit words of the stream."""
        if size < 0:
            raise ValueError("size must be >= 0")
        return self._gen.integers(0, 2**64, size=size, dtype=np.uint64)

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


def _years_from_uniforms(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1) + 1


def _bucket_years(cdf: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``_years_from_uniforms(cdf, _uniforms(words))`` by guide-table lookup.

    ``words`` is left as it was.  The years are gathered into the int64
    buffer that holds ``words >> 52``, so the lookup allocates one
    path-sized array, not two.  See the module notes for why the top 12
    bits give the year whenever the bucket is not mixed.
    """
    # first[b] counts the CDF values <= edge b, so a draw in bucket b,
    # [edge b, edge b+1), counts between first[b] and first[b+1] of them:
    # the bucket fixes the year unless the two differ; year 0 marks those
    first = np.searchsorted(cdf, _BUCKET_EDGES, side="right")
    year_of = np.minimum(first[:-1], cdf.size - 1) + 1
    year_of[first[:-1] != first[1:]] = 0
    # a word's top 12 bits are its bucket, small enough to view as int64;
    # the years overwrite the buckets, safe as each index is read before its
    # slot is written ("clip" never clips, and unlike "raise" skips a copy)
    buckets = (words >> np.uint64(52)).view(np.int64)
    years = year_of.take(buckets, out=buckets, mode="clip")
    fallback = (years == 0).nonzero()[0]
    if fallback.size:
        years[fallback] = _years_from_uniforms(cdf, _uniforms(words[fallback]))
    return years


def sample_death_years(table: LifeTable, x: int, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` curtate death years in one batch (``n`` words of ``rng``).

    The years equal a binary search of each word's uniform in the death
    CDF, but most draws read them from a 4096-bucket guide table indexed by
    the word's top 12 bits, with no float in between.  A bucket with no
    CDF value inside it or on its upper edge maps every draw to one year.
    Only the draws that land in one of the at most ``cdf.size`` other
    buckets become uniforms and take the binary search.  Consumes exactly
    ``n`` words of ``rng``, as ``rng.uniform(n)`` would.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return _bucket_years(_death_cdf(table, x), rng._words(n))


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


@dataclass(frozen=True)
class SimSummary:
    """Summary of a batch of simulated death years.

    ``histogram`` maps death year to count; ``mode`` is the smallest year
    attaining the maximum count; ``max_year`` is the largest observed year
    and is what the volatility measure normalises by.
    """

    n: int
    mode: int
    max_year: int
    mean: float
    histogram: dict[int, int] = field(repr=False)

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("summary needs n > 0")
        if sum(self.histogram.values()) != self.n:
            raise ValueError("histogram counts must sum to n")
        if self.mode not in self.histogram or self.max_year not in self.histogram:
            raise ValueError("mode and max_year must be observed years")


def simulate_deaths(table: LifeTable, x: int, n: int, rng: RngStream) -> SimSummary:
    """Simulate ``n`` death years for a life aged ``x`` and summarise them."""
    years = sample_death_years(table, x, n, rng)
    counts = np.bincount(years)
    observed = counts.nonzero()[0]
    hist = dict(zip(observed.tolist(), counts[observed].tolist()))  # ascending years
    top = max(hist.values())
    mode = min(y for y in hist if hist[y] == top)
    mean = sum(y * c for y, c in hist.items()) / years.size
    return SimSummary(n=years.size, mode=mode, max_year=max(hist), mean=mean, histogram=hist)


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

@dataclass(frozen=True)
class GbmParams:
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
