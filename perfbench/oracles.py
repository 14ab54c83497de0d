"""Reference answers the benchmark checks the package against.

Nothing here imports ``longevity``: every value is computed from textbook
closed forms or direct sums over the raw life-table CSV, so a defect in the
package cannot hide in its own check.
"""

from __future__ import annotations

import csv
import math


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes(kind: str, s: float, k: float, r: float, vol: float, t: float) -> float:
    """Closed-form European call or put value."""
    sd = vol * math.sqrt(t)
    d1 = (math.log(s / k) + (r + 0.5 * vol * vol) * t) / sd
    d2 = d1 - sd
    if kind == "call":
        return s * norm_cdf(d1) - k * math.exp(-r * t) * norm_cdf(d2)
    return k * math.exp(-r * t) * norm_cdf(-d2) - s * norm_cdf(-d1)


def decay_effective_vol(sigma0: float, decay: float, t: float) -> float:
    """Constant volatility with the same total variance as ``sigma0 * exp(-decay * tau)`` over ``t``."""
    if decay == 0.0:
        return sigma0
    return sigma0 * math.sqrt((1.0 - math.exp(-2.0 * decay * t)) / (2.0 * decay * t))


def grid_tolerance(strike: float, intervals: int) -> float:
    """Allowed |finite-difference - closed form| at spot = strike.

    First order in the mesh width with a 4e-3 * strike allowance at 100
    intervals; the largest error seen over 240 random requests per grid size
    was 8.3e-4 * strike at 100 intervals and 3.7e-4 * strike at 200.
    """
    return 4e-3 * strike * 100.0 / intervals


def read_qx(path) -> tuple[int, list[float]]:
    """Start age and death probabilities from an ``age,qx`` CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)][1:]
    return int(rows[0][0]), [float(q) for _, q in rows]


def rated_qx(qx: list[float], multiplier: float, improvement: float) -> list[float]:
    """``min(1, multiplier * q * (1 - improvement)**i)`` with the last age forced to 1."""
    out = [min(1.0, multiplier * q * (1.0 - improvement) ** i) for i, q in enumerate(qx)]
    out[-1] = 1.0
    return out


def death_year_probs(start_age: int, qx: list[float], age: int) -> list[float]:
    """``Pr(T = y)`` for ``y = 1, 2, ...`` for a life aged ``age``."""
    probs = []
    alive = 1.0
    for q in qx[age - start_age:]:
        probs.append(alive * q)
        alive *= 1.0 - q
    return probs


def flat_value(p: float, b: float, r: float, t: int) -> float:
    """Level-premium position value for death in period ``t``, summed flow by flow."""
    a = 1.0 / (1.0 + r)
    return -p * sum(a**i for i in range(1, t + 1)) + b * a**t


def schedule_value(premiums: list[float], benefits: list[float], r: float, t: int) -> float:
    """Scheduled position value for death in period ``t``: premiums 1..t paid, benefit t collected."""
    a = 1.0 / (1.0 + r)
    return -sum(premiums[i - 1] * a**i for i in range(1, t + 1)) + benefits[t - 1] * a**t


def mortality_option_exact(probs: list[float], rate: float, value_of_year, horizon: int) -> float:
    """``sum_y Pr(T=y) * exp(-rate*y) * max(value(min(y, horizon)), 0)``."""
    return sum(pr * math.exp(-rate * y) * max(value_of_year(min(y, horizon)), 0.0)
               for y, pr in enumerate(probs, start=1))


def le_duration(p: float, b: float, r: float, t: float) -> float:
    """Elasticity ``t * V'(t) / V(t)`` of ``V(t) = a**t * (p/r + b) - p/r``."""
    a = 1.0 / (1.0 + r)
    v = a**t * (p / r + b) - p / r
    return t * math.log(a) * a**t * (p / r + b) / v


def npv(flows: list[float], rate: float) -> float:
    return sum(f / (1.0 + rate) ** i for i, f in enumerate(flows))
