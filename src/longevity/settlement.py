"""Life-settlement valuation: present value, durations, and realized IRR.

A settlement position pays premiums each period while the insured lives and
collects the death benefit when they die.  With level premium ``p``, benefit
``b``, flat per-period rate ``r`` and discount factor ``a = 1/(1+r)``, death
at the end of period ``t`` is worth

    lsv(t) = a**t * (p/r + b) - p/r

which is the closed form of ``-p * (a + ... + a**t) + b * a**t``.  The value
falls monotonically in ``t``: each extra year of survival costs a premium
and defers the benefit.

Two duration notions are carried side by side.  The life-expectancy
duration is the elasticity ``t * lsv'(t) / lsv(t)``, measuring percentage
value change per percentage shift in expected time to death.  The Macaulay
duration follows the source convention of this toolkit's formulas verbatim:
the premium leg enters with positive sign and the benefit leg negative, so
benefit-dominated positions get negative durations (the textbook convention
is the negation of this one).
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import DataError, NumericalError, _read_csv, _Record, require_finite

__all__ = [
    "FlatPolicy",
    "PolicySchedule",
    "CashflowSeries",
    "lsv",
    "lsv_schedule",
    "lsv_dt",
    "le_duration",
    "macaulay_duration",
    "critical_time",
    "irr",
    "npv",
    "load_cashflows",
    "load_schedule",
]


class FlatPolicy(_Record):
    """Level-premium policy: premium ``p >= 0``, benefit ``b > 0``, rate ``r > 0``."""

    p: float
    b: float
    r: float

    def __post_init__(self):
        require_finite(premium=self.p, benefit=self.b, rate=self.r)
        if self.p < 0.0:
            raise ValueError("premium must be >= 0")
        if self.b <= 0.0:
            raise ValueError("death benefit must be positive")
        if self.r <= 0.0:
            raise ValueError("discount rate must be positive")
        # the closed forms divide by a - 1 and ln(a), and need p/r + b finite
        if self.a == 1.0:
            raise ValueError(f"discount rate {self.r} is too small: 1/(1+rate) rounds to 1")
        if not math.isfinite(self.p / self.r + self.b):
            raise ValueError(f"premium/rate + benefit must be finite, got {self.p}/{self.r}"
                             f" + {self.b}")

    @property
    def a(self) -> float:
        """One-period discount factor ``1/(1+r)``."""
        return 1.0 / (1.0 + self.r)


def _floats(values, error: type[ValueError], what: str) -> tuple[float, ...]:
    """``values``, a 1-D sequence of finite numbers, as a tuple of Python floats.

    A string, an array of another rank, an entry ``float`` cannot convert
    or a non-finite entry raises ``error``, naming ``what``.
    """
    if isinstance(values, (str, bytes)) or getattr(values, "ndim", 1) != 1:
        raise error(f"{what} must be a 1-D sequence of numbers")
    try:
        floats = tuple(map(float, values))
    except (TypeError, ValueError):
        raise error(f"{what} must be a 1-D sequence of numbers") from None
    if not all(map(math.isfinite, floats)):
        raise error(f"{what} must be finite")
    return floats


class PolicySchedule(_Record):
    """Per-period premiums and benefits (period 1 first) at flat rate ``r``.

    Both are stored as tuples of Python floats, like ``CashflowSeries``.
    """

    premiums: tuple[float, ...]
    benefits: tuple[float, ...]
    r: float

    def __post_init__(self):
        prem = _floats(self.premiums, DataError, "schedule entries")
        ben = _floats(self.benefits, DataError, "schedule entries")
        object.__setattr__(self, "premiums", prem)
        object.__setattr__(self, "benefits", ben)
        if not prem or len(prem) != len(ben):
            raise DataError("premium and benefit vectors must be 1-D, non-empty, same length")
        if min(prem) < 0.0 or min(ben) < 0.0:
            raise DataError("schedule entries must be >= 0")
        require_finite(rate=self.r)
        if self.r <= 0.0:
            raise ValueError("discount rate must be positive")

    def __len__(self) -> int:
        return len(self.premiums)


class CashflowSeries(_Record):
    """Signed flows indexed by period, ``flows[0]`` at time zero.

    Any 1-D sequence of finite numbers is accepted and stored as a tuple of
    Python floats.
    """

    flows: tuple[float, ...]

    def __post_init__(self):
        f = _floats(self.flows, ValueError, "cash flows")
        object.__setattr__(self, "flows", f)
        if len(f) < 2:
            raise ValueError("need a 1-D series of at least two flows")
        if not (any(x > 0.0 for x in f) and any(x < 0.0 for x in f)):
            raise DataError("cash flows must contain at least one inflow and one outflow")


# --------------------------------------------------------------- values #

def lsv(pol: FlatPolicy, t: float) -> float:
    """Settlement value given death at the end of period ``t``.

    ``t = 0`` means immediate benefit with no premiums paid, so the value is
    ``b``.  Integer ``t`` is the contractual case; real ``t`` is accepted for
    the calculus helpers built on top.
    """
    require_finite(t=t)
    if t < 0:
        raise ValueError("t must be >= 0")
    a = pol.a
    return a**t * (pol.p / pol.r + pol.b) - pol.p / pol.r


def lsv_schedule(s: PolicySchedule, t: int) -> float:
    """Schedule value for death in period ``t``: premiums ``1..t`` paid, benefit ``t`` collected.

    A discounted premium leg past the float range gives ``-inf``.
    """
    if not (1 <= t <= len(s)) or int(t) != t:
        raise ValueError(f"t must be an integer in [1, {len(s)}], got {t!r}")
    t = int(t)
    a = 1.0 / (1.0 + s.r)
    try:  # correctly rounded, so the result does not depend on summation order
        paid = math.fsum(p * a**k for k, p in enumerate(s.premiums[:t], start=1))
    except OverflowError:  # non-negative terms summing past the float range
        paid = math.inf
    return s.benefits[t - 1] * a**t - paid


def lsv_dt(pol: FlatPolicy, t: float) -> float:
    """Sensitivity of the settlement value to the time of death.

    ``(p/r + b) * a**t * ln(a)``, the derivative of ``lsv`` in continuous
    ``t``.  Always negative: living longer always erodes the position.
    """
    require_finite(t=t)
    if t < 0:
        raise ValueError("t must be >= 0")
    a = pol.a
    return (pol.p / pol.r + pol.b) * a**t * math.log(a)


def le_duration(pol: FlatPolicy, t: float) -> float:
    """Life-expectancy duration: elasticity of value to time of death.

    ``t * lsv_dt(t) / lsv(t)``.  Negative whenever the position has positive
    value, which is the healthy configuration; a positive reading flags a
    position whose value is already under water.
    """
    value = lsv(pol, t)
    if value == 0.0:
        raise ValueError(f"settlement value is zero at t={t}; duration undefined")
    return t * lsv_dt(pol, t) / value


# ------------------------------------------------------------ durations #

_DIRECT_SUM_MAX_T = 10_000  # longest horizon macaulay_duration sums term by term


def _c_constant(pol: FlatPolicy) -> float:
    a = pol.a
    return a * pol.p / (a - 1.0) ** 2


def macaulay_duration(pol: FlatPolicy, t: int) -> float:
    """Macaulay duration of the death-at-``t`` position, source sign convention.

    Numerator: time-weighted premium leg minus ``t`` times the discounted
    benefit, ``p * sum(k * a**k, k=1..t) - t*b*a**t``, divided by the
    position's present value ``-p * sum(a**k, k=1..t) + b*a**t``.  Up to
    ``t = 10_000`` both are summed directly over the periods, because the
    closed form of the premium sum,
    ``p/(a-1)**2 * (t*a**(t+2) - (t+1)*a**(t+1) + a)``, loses accuracy to
    cancellation when the present value is small.  Longer horizons, where a
    direct sum would be slow, use the closed form.
    Note the sign convention: with no premiums the result is ``-t``, the
    negation of the textbook duration of a single inflow at ``t``.
    A leg that overflows the float range raises :class:`NumericalError`.
    """
    if t < 1 or int(t) != t:
        raise ValueError("t must be an integer >= 1")
    t = int(t)
    a = pol.a
    if t <= _DIRECT_SUM_MAX_T:
        disc = [a**k for k in range(1, t + 1)]
        value = -pol.p * sum(disc) + pol.b * disc[-1]
        numerator = (pol.p * sum(k * d for k, d in enumerate(disc, start=1))
                     - t * pol.b * disc[-1])
    else:
        value = lsv(pol, t)
        c = _c_constant(pol)
        numerator = t * a**t * (c * (a - 1.0) - pol.b) - a**t * c + c
    if value == 0.0:
        raise ValueError(f"present value is zero at t={t}; duration undefined")
    duration = numerator / value
    if not math.isfinite(duration):
        raise NumericalError(f"Macaulay duration at t={t} overflowed the float range")
    return duration


def critical_time(pol: FlatPolicy) -> float:
    """Time of death at which the duration's sensitivity crosses zero.

    ``t* = -1/ln(a) + a*p / (a*p*(a-1) - b*(a-1)**2)``.  Differentiating the
    closed-form Macaulay numerator in ``t`` with the present value ``P`` held
    fixed gives ``(a**t / P) * (t*K*ln(a) + K - C*ln(a))`` with
    ``C = a*p/(a-1)**2`` and ``K = C*(a-1) - b``; at ``t*`` the braced factor
    vanishes.  With no premiums this collapses to ``-1/ln(a)``.
    """
    a = pol.a
    den = a * pol.p * (a - 1.0) - pol.b * (a - 1.0) ** 2
    if den == 0.0:
        raise ValueError("degenerate policy: critical-time denominator is zero")
    return -1.0 / math.log(a) + a * pol.p / den


# ------------------------------------------------------------------ IRR #

def npv(cf: CashflowSeries, rate: float) -> float:
    """Net present value of the series at a per-period ``rate > -1``."""
    if rate <= -1.0:
        raise ValueError("rate must exceed -1")
    x = 1.0 / (1.0 + float(rate))
    # Horner on ascending powers of the discount factor, in Python floats,
    # which overflow to inf (and inf - inf to nan) without a warning
    value = 0.0
    for flow in reversed(cf.flows):
        value = value * x + flow
    return value


def _bisect(cf: CashflowSeries, lo: float, v_lo: float, hi: float, v_hi: float) -> float:
    """Bisect a sign-change bracket of the NPV down to two adjacent floats.

    Returns an exact zero if a midpoint hits one, else the end with the
    smaller ``|NPV|``.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(v_lo) <= abs(v_hi) else hi
        v_mid = npv(cf, mid)
        if v_mid == 0.0:
            return mid
        if (v_mid < 0.0) == (v_lo < 0.0):
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid


def irr(cf: CashflowSeries) -> float:
    """Internal rate of return: the rate making the NPV zero.

    The rate axis is scanned with ``1 + r`` doubling from ``1e-3`` (that is,
    from ``r = -0.999``) up to ``1e6``.  A scan point where the NPV is
    exactly zero is returned as it is; otherwise the first sign-change
    bracket is bisected until its ends are adjacent floats, and the end
    with the smaller ``|NPV|`` is returned.  The root therefore lies in the
    first bracket of that documented scan; when that bracket holds several
    roots, which of them is returned is unspecified.  The result is
    accepted when ``|NPV| <= 1e-6 * sum(|flows|)``.
    """
    # the built-in sum goes to inf past the float range, where math.fsum raises
    scale = sum(abs(f) for f in cf.flows)
    grid = [1e-3 * 2.0**k for k in range(41)]  # 1+r from 1e-3 past 1e6
    rates = [g - 1.0 for g in grid if g - 1.0 < 1e6]
    rates.append(1e6)
    values = [npv(cf, r) for r in rates]
    root = None
    for (lo, v_lo), (hi, v_hi) in zip(zip(rates, values), zip(rates[1:], values[1:])):
        if v_lo == 0.0:
            root = lo
            break
        if v_lo * v_hi < 0.0:
            root = _bisect(cf, lo, v_lo, hi, v_hi)
            break
    else:
        if values[-1] == 0.0:
            root = rates[-1]
    if root is None:
        raise NumericalError("no IRR found in (-0.999, 1e6) on the bracket scan")
    if abs(npv(cf, root)) > 1e-6 * scale:
        raise NumericalError(
            f"IRR polish failed: |NPV({root})| = {abs(npv(cf, root)):.3e} "
            f"exceeds 1e-6 * {scale:.3e}"
        )
    return root


# -------------------------------------------------------------- loading #

# Largest period a cash-flow file may name.  Unlisted periods are filled
# with zero flows, so the period sets the series length that ``irr`` scans;
# ten thousand periods is far beyond any deal and still loads in milliseconds.
_MAX_PERIOD = 10_000


def load_cashflows(path: str | Path) -> CashflowSeries:
    """Read a cash-flow series from CSV with header ``period,amount``.

    Periods must be integers in ``[0, 10000]``, strictly ascending; periods
    not listed are taken as zero flows.
    """
    rows: list[tuple[int, float]] = []
    for line, (period, amount) in _read_csv(path, {"period": int, "amount": float}):
        if not 0 <= period <= _MAX_PERIOD:
            raise DataError(f"{path}:{line}: period must lie in [0, {_MAX_PERIOD}], "
                            f"got {period}")
        if rows and period <= rows[-1][0]:
            raise DataError(f"{path}:{line}: periods must be strictly ascending")
        rows.append((period, amount))
    if len(rows) < 2:
        raise DataError(f"{path}: need at least two flows")
    flows = [0.0] * (rows[-1][0] + 1)
    for period, amount in rows:
        flows[period] = amount
    try:
        return CashflowSeries(flows)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_schedule(path: str | Path, rate: float) -> PolicySchedule:
    """Read a policy schedule from CSV with header ``period,premium,benefit``.

    Periods must run ``1..T`` consecutively.  The discount rate is not part
    of the file format, so it is supplied alongside the path.
    """
    rows: list[tuple[float, float]] = []
    columns = {"period": int, "premium": float, "benefit": float}
    for line, (period, premium, benefit) in _read_csv(path, columns):
        if period != len(rows) + 1:
            raise DataError(f"{path}:{line}: periods must run 1..T consecutively, got {period}")
        rows.append((premium, benefit))
    premiums, benefits = zip(*rows)
    try:
        return PolicySchedule(premiums, benefits, rate)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
