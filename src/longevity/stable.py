"""Alpha-stable distributions: characteristic function and tail-index fit.

The characteristic function uses the standard S1 parameterisation with
stability ``alpha``, skew ``beta``, scale ``gamma`` and location ``delta``.
At ``alpha = 2`` it reduces to a Gaussian with mean ``delta`` and variance
``2 * gamma`` (note the factor of two: the stable scale is not the standard
deviation).

The tail index is estimated from five sample quantiles by the McCulloch
lookup method: the spread ratio ``(x95 - x05) / (x75 - x25)`` and the
skew ratio ``(x95 + x05 - 2 x50) / (x95 - x05)`` are interpolated in a
tabulated inverse, clamped to the table edges, giving ``alpha`` in
``[0.5, 2.0]``.  The five quantiles are read off one sort of the sample by
numpy's default ``linear`` rule, bit for bit what ``np.quantile`` returns
(see :func:`estimate_alpha` for the sign of a zero).  The estimate is
scale/location invariant, and plenty to rank how heavy death-time tails get
with age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lifetable import LifeTable
from .simulate import RngStream, sample_death_times

__all__ = [
    "StableParams",
    "log_char_function",
    "estimate_alpha",
    "alpha_age_profile",
]


@dataclass(frozen=True)
class StableParams:
    """S1 parameter bundle: ``0 < alpha <= 2``, ``|beta| <= 1``, ``gamma > 0``."""

    alpha: float
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta!r}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")


def log_char_function(params: StableParams, t) -> np.ndarray | complex:
    """Log characteristic function ``log E[exp(i t X)]`` at real ``t``.

    For ``alpha != 1``:
    ``i delta t - gamma |t|^alpha (1 - i beta sign(t) tan(pi alpha / 2))``;
    for ``alpha = 1`` the tangent is replaced by the logarithmic correction
    ``-(2/pi) log|t|`` on the skew term.  At ``alpha = 2`` the skew factor
    vanishes identically (the tangent of pi is treated as exact zero), so
    the value is the Gaussian ``i delta t - gamma t**2`` for every beta.
    """
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    t = np.asarray(t, dtype=float)
    abs_t = np.abs(t)
    sign_t = np.sign(t)
    with np.errstate(divide="ignore"):
        if a == 1.0:
            # |t|^1 * log|t| -> 0 as t -> 0; sign(0) = 0 kills the skew term,
            # so feeding log a harmless 1 at t = 0 changes nothing
            safe_t = np.where(abs_t > 0.0, abs_t, 1.0)
            skew = b * sign_t * (2.0 / np.pi) * np.log(safe_t)
            out = 1j * d * t - g * abs_t * (1.0 + 1j * skew)
        else:
            tan_factor = 0.0 if a == 2.0 else np.tan(np.pi * a / 2.0)
            out = 1j * d * t - g * abs_t**a * (1.0 - 1j * b * sign_t * tan_factor)
    out = np.where(abs_t == 0.0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


# ------------------------------------------------- quantile tail fitting #

# McCulloch's tabulated inverse of the quantile ratios for the stability
# index.  Rows: the spread ratio nu_alpha; columns: |skew ratio| nu_beta.
_NU_ALPHA = np.array(
    [2.439, 2.5, 2.6, 2.7, 2.8, 3.0, 3.2, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 25.0]
)
_NU_BETA = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0])
_ALPHA_TABLE = np.array(
    [
        [2.000, 2.000, 2.000, 2.000, 2.000, 2.000, 2.000],
        [1.916, 1.924, 1.924, 1.924, 1.924, 1.924, 1.924],
        [1.808, 1.813, 1.829, 1.829, 1.829, 1.829, 1.829],
        [1.729, 1.730, 1.737, 1.745, 1.745, 1.745, 1.745],
        [1.664, 1.663, 1.663, 1.668, 1.676, 1.676, 1.676],
        [1.563, 1.560, 1.553, 1.548, 1.547, 1.547, 1.547],
        [1.484, 1.480, 1.471, 1.460, 1.448, 1.438, 1.438],
        [1.391, 1.386, 1.378, 1.364, 1.337, 1.318, 1.318],
        [1.279, 1.273, 1.266, 1.250, 1.210, 1.184, 1.150],
        [1.128, 1.121, 1.114, 1.101, 1.067, 1.027, 0.973],
        [1.029, 1.021, 1.014, 1.004, 0.974, 0.935, 0.874],
        [0.896, 0.892, 0.887, 0.883, 0.855, 0.823, 0.769],
        [0.818, 0.812, 0.806, 0.801, 0.780, 0.756, 0.691],
        [0.698, 0.695, 0.692, 0.689, 0.676, 0.656, 0.595],
        [0.593, 0.590, 0.588, 0.586, 0.579, 0.563, 0.513],
    ]
)


def _bilinear(x: float, y: float) -> float:
    """Interpolate the alpha table at (nu_alpha, nu_beta), clamped at edges."""
    x = float(np.clip(x, _NU_ALPHA[0], _NU_ALPHA[-1]))
    y = float(np.clip(y, _NU_BETA[0], _NU_BETA[-1]))
    i = int(np.searchsorted(_NU_ALPHA, x, side="right") - 1)
    j = int(np.searchsorted(_NU_BETA, y, side="right") - 1)
    i = min(i, _NU_ALPHA.size - 2)
    j = min(j, _NU_BETA.size - 2)
    tx = (x - _NU_ALPHA[i]) / (_NU_ALPHA[i + 1] - _NU_ALPHA[i])
    ty = (y - _NU_BETA[j]) / (_NU_BETA[j + 1] - _NU_BETA[j])
    row0 = (1 - ty) * _ALPHA_TABLE[i, j] + ty * _ALPHA_TABLE[i, j + 1]
    row1 = (1 - ty) * _ALPHA_TABLE[i + 1, j] + ty * _ALPHA_TABLE[i + 1, j + 1]
    return float((1 - tx) * row0 + tx * row1)


_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


def _quantiles(x: np.ndarray) -> list[float]:
    """``np.quantile(x, _QUANTILES)`` by numpy's ``linear`` rule, off one sort.

    Quantile ``q`` sits at ``v = (n - 1) q`` in the sorted sample, between
    the order statistics ``a = s[floor(v)]`` and ``b`` next to it, with
    ``g = v - floor(v)`` and ``d = b - a``.  numpy returns ``a + d g``, or
    ``b - d (1 - g)`` where ``g >= 0.5``; so does this.  ``x`` is not
    touched.  Every ``q`` is below 1, so ``b`` is inside the sample.  Where
    ``0.0`` and ``-0.0`` tie, their order is unspecified in a sort and in
    numpy's partition alike, so a zero quantile may differ in sign.
    """
    s = np.sort(x)
    last = s.size - 1
    out = []
    for q in _QUANTILES:
        v = last * q
        lo = math.floor(v)
        g = v - lo
        a, b = float(s[lo]), float(s[lo + 1])
        d = b - a
        out.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
    return out


def estimate_alpha(samples: np.ndarray) -> float:
    """Estimate the stability index of a sample via quantile ratios.

    Needs at least 100 observations and a non-degenerate spread; a zero
    interquantile range raises :class:`DataError`.  The 5 %, 25 %, 50 %, 75 %
    and 95 % quantiles come from one sort of a copy of the sample, by
    numpy's ``linear`` rule, and equal ``np.quantile``'s bit for bit, save
    the sign of a zero quantile where ``0.0`` and ``-0.0`` tie.  The
    estimate is the same either way: that sign can reach only a zero sum or
    difference, which the degenerate-spread check and the absolute skew
    ratio do not tell apart.  The estimate is clamped to ``[0.5, 2.0]`` (the table's support), and is
    invariant under positive affine rescaling of the data.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 100:
        raise DataError(f"need at least 100 samples to fit a tail index, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DataError("samples contain non-finite values")
    q05, q25, q50, q75, q95 = _quantiles(x)
    spread = q95 - q05
    iqr = q75 - q25
    if spread <= 0.0 or iqr <= 0.0:
        raise DataError("degenerate sample: zero interquantile range")
    nu_alpha = spread / iqr
    nu_beta = abs((q95 + q05 - 2.0 * q50) / spread)
    alpha = _bilinear(nu_alpha, nu_beta)
    return float(np.clip(alpha, 0.5, 2.0))


def alpha_age_profile(
    table: LifeTable,
    ages: list[int] | np.ndarray,
    n: int,
    rng: RngStream,
) -> list[tuple[int, float]]:
    """Tail-index of simulated fractional death times, age by age.

    For each requested age, ``n`` death times (curtate year minus a uniform
    fraction) are simulated on an independent sub-stream
    (``stream_id + 1 + position``) and fed to :func:`estimate_alpha`.
    Ages are processed and returned ascending, so the result is independent
    of the order in which they were requested.  A degenerate age, where the
    whole death-year distribution sits in a single year (as with a table
    whose every probability is 1), carries no shape information beyond the
    within-year fraction and raises :class:`DataError` naming that age.
    """
    if n < 1000:
        raise ValueError("n must be at least 1000 for a stable quantile fit")
    out: list[tuple[int, float]] = []
    for position, age in enumerate(sorted(int(a) for a in ages)):
        sub = rng.spawn(1 + position)
        times = sample_death_times(table, age, n, sub)
        if math.ceil(times.min()) == math.ceil(times.max()):
            raise DataError(
                f"age {age}: degenerate death-year distribution (zero dispersion)"
            )
        try:
            out.append((age, estimate_alpha(times)))
        except DataError as exc:
            raise DataError(f"age {age}: {exc}") from None
    return out
