"""Independent reference implementations used to check the package.

Everything in here is deliberately written the slow, obvious way (direct
summation, textbook closed forms, lattice backward induction) and shares
no code with ``longevity`` itself, so a bug in the package cannot hide in
its own test oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm


def settlement_value_by_summation(p: float, b: float, r: float, t: int) -> float:
    """Death-at-t position value as an explicit cash-flow sum."""
    a = 1.0 / (1.0 + r)
    return -p * sum(a**i for i in range(1, t + 1)) + b * a**t


def macaulay_by_summation(p: float, b: float, r: float, t: int) -> float:
    """Time-weighted cash-flow sum over present value, premium term positive."""
    a = 1.0 / (1.0 + r)
    numerator = p * sum(i * a**i for i in range(1, t + 1)) - t * b * a**t
    return numerator / settlement_value_by_summation(p, b, r, t)


def death_year_probabilities(qx) -> list[float]:
    """``Pr(death in year t)`` for ``t = 1 .. len(qx)``, by direct accumulation of survival."""
    probs, alive = [], 1.0
    for q in qx:
        probs.append(alive * q)
        alive *= 1.0 - q
    return probs


def death_time_quantile(start_age: int, qx, age: int, q: float) -> float:
    """The ``q``-quantile of the fractional death time of a life aged ``age``.

    A death time is the death year less a uniform fraction, so its CDF runs
    linearly between the cumulative death-year probabilities at whole
    years; this walks those years from ``age`` on and inverts the segment
    that reaches ``q``.
    """
    below = 0.0
    for year, prob in enumerate(death_year_probabilities(qx[age - start_age:])):
        if prob > 0.0 and below + prob >= q:
            return year + (q - below) / prob
        below += prob
    return float(year + 1)


def binomial_pmf(n: int, p: float, k: int) -> float:
    """``Pr(Binomial(n, p) = k)``: ``math.comb`` up to ``n = 1000``, log-gamma beyond."""
    if n <= 1000:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def mortality_option_exact_value(qx, p: float, b: float, policy_rate: float, r: float) -> float:
    """``sum_y Pr(T = y) e^{-r y} max(settlement value at y, 0)`` over the death years of ``qx``."""
    return sum(prob * math.exp(-r * t) * max(settlement_value_by_summation(p, b, policy_rate, t), 0.0)
               for t, prob in enumerate(death_year_probabilities(qx), start=1))


def curtate_mean_from_rates(qx: np.ndarray, start_index: int = 0) -> float:
    """Mean whole-year death time by direct probability accumulation."""
    mean = 0.0
    alive = 1.0
    for k, q in enumerate(qx[start_index:], start=1):
        mean += k * alive * q
        alive *= 1.0 - q
    return mean


def bs_price(kind: str, s: float, k: float, r: float, vol: float, t: float) -> float:
    """Closed-form European option value."""
    d1 = (np.log(s / k) + (r + 0.5 * vol**2) * t) / (vol * np.sqrt(t))
    d2 = d1 - vol * np.sqrt(t)
    if kind == "call":
        return s * norm.cdf(d1) - k * np.exp(-r * t) * norm.cdf(d2)
    if kind == "put":
        return k * np.exp(-r * t) * norm.cdf(-d2) - s * norm.cdf(-d1)
    raise ValueError(kind)


def half_variance_by_quadrature(sigma0: float, decay: float, tau: float) -> float:
    """Integral of ``(sigma0 * exp(-decay * s))**2 / 2`` over ``s`` in ``[0, tau]``, by quadrature."""
    value, _ = quad(lambda s: 0.5 * (sigma0 * np.exp(-decay * s)) ** 2, 0.0, tau,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def effective_vol(sigma0: float, decay: float, t: float) -> float:
    """Constant volatility with the variance of ``sigma0 * exp(-decay * tau)`` over ``[0, t]``."""
    if decay == 0.0:
        return sigma0
    return sigma0 * np.sqrt((1.0 - np.exp(-2.0 * decay * t)) / (2.0 * decay * t))


def grid_tolerance(strike: float, intervals: int) -> float:
    """Allowed |finite-difference - closed form| at spot = strike: 4e-3 * strike at 100 intervals, first order."""
    return 4e-3 * strike * 100.0 / intervals


def crr_american(kind: str, s: float, k: float, r: float, vol: float, t: float,
                 steps: int = 1000) -> tuple[float, np.ndarray, np.ndarray]:
    """Cox-Ross-Rubinstein lattice of an American call or put: value, remaining times, boundary.

    Layer ``n`` of the lattice sits at remaining time ``t - n dt``.  A node
    is exercised where its payoff is positive and above the discounted
    continuation value; the layer's boundary is the exercised node nearest
    the strike, the smallest for a call and the largest for a put, and NaN
    where no node is exercised.  Returns the root value and, for layers
    ``0 .. steps - 1``, their remaining times and boundaries.  Layer ``n``
    has ``n + 1`` nodes, so a boundary at remaining time ``tau`` needs a
    lattice whose ``t`` lies far enough past ``tau`` for its nodes there to
    span it.
    """
    sign = 1.0 if kind == "call" else -1.0
    dt = t / steps
    u = np.exp(vol * np.sqrt(dt))
    d = 1.0 / u
    disc = np.exp(-r * dt)
    p = (np.exp(r * dt) - d) / (u - d)
    st = s * u ** np.arange(steps, -1, -1) * d ** np.arange(0, steps + 1)
    v = np.maximum(sign * (st - k), 0.0)
    boundary = np.full(steps, np.nan)
    for n in range(steps - 1, -1, -1):
        st = s * u ** np.arange(n, -1, -1) * d ** np.arange(0, n + 1)
        payoff = sign * (st - k)
        held = disc * (p * v[:-1] + (1.0 - p) * v[1:])
        exercised = st[(payoff > 0.0) & (payoff > held)]
        if exercised.size:
            boundary[n] = exercised.min() if kind == "call" else exercised.max()
        v = np.maximum(held, payoff)
    return float(v[0]), t - dt * np.arange(steps), boundary


def binomial_american_put(s: float, k: float, r: float, vol: float, t: float,
                          steps: int = 1000) -> float:
    """Cox-Ross-Rubinstein lattice value of an American put."""
    return crr_american("put", s, k, r, vol, t, steps)[0]


def zero_vol_mortality_value(qx: np.ndarray, p: float, b: float, policy_rate: float,
                             r: float, steps: int) -> float:
    """The mortality option's American grid value at zero volatility, by direct search.

    ``qx`` runs from the age at issue to the table's last age.  The index
    starts at the complete expectation of life ``e`` and, without
    volatility, grows to ``e * exp(r s)`` after ``s`` years, so the claim
    is worth the best discounted payoff over the exercise times, taken at
    the march's level times ``s_n = n * t_max / steps``, ``n = 0..steps``.
    An index level maps to the death year it rounds to (ties to even),
    clamped to ``1..t_max``, and a year's payoff is its settlement value
    floored at zero.
    """
    alive, e = 1.0, 0.5
    for q in qx:
        alive *= 1.0 - q
        e += alive
    t_max = len(qx)
    by_year = [max(settlement_value_by_summation(p, b, policy_rate, t), 0.0)
               for t in range(1, t_max + 1)]
    best = 0.0
    for n in range(steps + 1):
        s = n * t_max / steps
        year = min(max(round(e * np.exp(r * s)), 1), t_max)
        best = max(best, float(np.exp(-r * s)) * by_year[year - 1])
    return best
