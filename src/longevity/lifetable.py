"""Discrete life tables and the actuarial quantities built on them.

A life table here is the minimal object needed for settlement work: a run of
consecutive integer ages and the one-year death probability ``qx`` at each
age.  The final tabulated age (``omega``) must carry ``qx = 1`` so that the
distribution of the curtate death year sums to one and every expectation
below is a finite sum.

Conventions
-----------
* ``t_p_x`` (survival probability) is the chance a life aged ``x`` survives
  ``t`` whole years: the product of ``(1 - q)`` over ages ``x .. x+t-1``.
* The death year ``T`` counts from 1: ``T = i`` means death occurs between
  exact ages ``x+i-1`` and ``x+i``.  Its distribution is
  ``Pr(T = i) = (i-1)_p_x * q_{x+i-1}``.
* The complete expectation of life ``e_x`` applies the standard half-year
  adjustment to the mean death year: ``e_x = E[T] - 1/2``, equivalently
  ``sum_{t>=1} t_p_x + 1/2``.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import DataError, _read_csv, require_finite

__all__ = [
    "LifeTable",
    "MortalityAssumptions",
    "load_table",
    "sample_table",
    "sample_table_path",
    "survival_probability",
    "death_distribution",
    "complete_expectation",
    "lifetime_variance",
    "apply_assumptions",
]


@dataclass(frozen=True)
class LifeTable:
    """One-year death probabilities over a consecutive run of integer ages.

    Parameters
    ----------
    start_age : int
        First tabulated age.
    qx : numpy.ndarray
        Death probabilities for ages ``start_age .. start_age + len(qx) - 1``,
        each in ``[0, 1]``, with the final entry exactly 1.
    """

    start_age: int
    qx: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.qx, dtype=float)
        object.__setattr__(self, "qx", q)
        if q.ndim != 1 or q.size == 0:
            raise DataError("life table needs a non-empty 1-D qx vector")
        if not np.all(np.isfinite(q)):
            raise DataError("life table qx contains non-finite values")
        if np.any(q < 0.0) or np.any(q > 1.0):
            bad = int(np.argmax((q < 0.0) | (q > 1.0)))
            raise DataError(
                f"qx out of [0, 1] at age {self.start_age + bad}: {q[bad]!r}"
            )
        if q[-1] != 1.0:
            raise DataError(
                f"terminal age {self.start_age + q.size - 1} must have qx = 1, "
                f"got {q[-1]!r}"
            )

    @property
    def omega(self) -> int:
        """Last tabulated age (the age at which death is certain)."""
        return self.start_age + self.qx.size - 1

    def _check_age(self, age: int) -> None:
        if not (self.start_age <= age <= self.omega):
            raise ValueError(
                f"age {age} outside table range "
                f"[{self.start_age}, {self.omega}]"
            )


@dataclass(frozen=True)
class MortalityAssumptions:
    """Underwriting adjustments applied to a base table.

    ``multiplier`` scales every death probability (a frailty rating), and
    ``improvement`` is an annual mortality-improvement rate compounded from
    the first tabulated age, so age ``x`` receives the factor
    ``(1 - improvement) ** (x - start_age)``.
    """

    multiplier: float = 1.0
    improvement: float = 0.0

    def __post_init__(self):
        require_finite(multiplier=self.multiplier, improvement=self.improvement)
        if self.multiplier < 0.0:
            raise ValueError("mortality multiplier must be >= 0")
        if not (0.0 <= self.improvement < 1.0):
            raise ValueError("improvement rate must lie in [0, 1)")


def apply_assumptions(table: LifeTable, assumptions: MortalityAssumptions) -> LifeTable:
    """Return a new table with rated and improvement-adjusted probabilities.

    Each probability becomes
    ``min(1, multiplier * qx * (1 - improvement) ** t)`` where ``t`` counts
    ages from the start of the table.  The terminal age is re-clamped to 1 so
    the result is again a valid life table.
    """
    t = np.arange(table.qx.size, dtype=float)
    q = assumptions.multiplier * table.qx * (1.0 - assumptions.improvement) ** t
    q = np.minimum(q, 1.0)
    q[-1] = 1.0
    return LifeTable(table.start_age, q)


# ---------------------------------------------------------------- loading #

def load_table(path: str | Path) -> LifeTable:
    """Read a life table from CSV with header ``age,qx``.

    Ages must be consecutive ascending integers and probabilities must parse
    as decimals in ``[0, 1]``; violations raise :class:`DataError` naming the
    offending line.
    """
    ages: list[int] = []
    qx: list[float] = []
    for line, (age, q) in _read_csv(path, {"age": int, "qx": float}):
        if not 0.0 <= q <= 1.0:
            raise DataError(f"{path}:{line}: qx {q!r} outside [0, 1]")
        if ages and age != ages[-1] + 1:
            raise DataError(f"{path}:{line}: ages must be consecutive ascending, "
                            f"found {ages[-1]} then {age}")
        ages.append(age)
        qx.append(q)
    try:
        return LifeTable(ages[0], np.array(qx))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def sample_table_path() -> Path:
    """Filesystem path of the bundled synthetic sample table."""
    return Path(str(importlib.resources.files("longevity") / "data" / "sample_table.csv"))


def sample_table() -> LifeTable:
    """The bundled synthetic table (Gompertz-style hazard, e_70 close to 15)."""
    return load_table(sample_table_path())


# ------------------------------------------------------------ actuarial #

def survival_probability(table: LifeTable, x: int, t: int) -> float:
    """Probability that a life aged ``x`` survives ``t`` whole years.

    ``t = 0`` gives 1 and ``t = omega - x + 1`` gives exactly 0.  The product
    telescopes over the one-year survival probabilities, so the result is
    non-increasing in ``t``.
    """
    table._check_age(x)
    if t < 0 or int(t) != t:
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    t = int(t)
    horizon = table.omega - x + 1
    if t > horizon:
        raise ValueError(f"t={t} exceeds remaining table horizon {horizon}")
    i = x - table.start_age
    return float(np.prod(1.0 - table.qx[i : i + t]))


def death_distribution(table: LifeTable, x: int) -> np.ndarray:
    """Distribution of the curtate death year for a life aged ``x``.

    Returns ``p`` with ``p[i-1] = Pr(death in year i)`` for
    ``i = 1 .. omega - x + 1``.  Because the terminal probability is 1 the
    entries sum to 1 up to rounding.
    """
    table._check_age(x)
    i0 = x - table.start_age
    q = table.qx[i0:]
    # survival to the start of each year: 1, p1, p1*p2, ...
    surv = np.concatenate(([1.0], np.cumprod(1.0 - q[:-1])))
    return surv * q


def complete_expectation(table: LifeTable, x: int) -> float:
    """Complete expectation of life at age ``x``.

    Mean curtate death year minus one half, computed as the survival sum
    ``sum_{t=1..} t_p_x + 1/2``.  Deaths are assumed uniform within each year
    of age, which is where the half-year correction comes from.
    """
    table._check_age(x)
    i0 = x - table.start_age
    tpx = np.cumprod(1.0 - table.qx[i0:])
    return float(np.sum(tpx) + 0.5)


def lifetime_variance(
    table: LifeTable,
    x: int,
    mode: Literal["corrected", "as_written"] = "corrected",
) -> float:
    """Variance of the fractional time of death under within-year uniformity.

    With ``T`` the curtate death year and ``U`` uniform on (0, 1), the death
    time ``T - U`` has variance ``Var(T) + 1/12``; that is the ``corrected``
    value.  The ``as_written`` mode instead centres the spread on the
    half-year-adjusted mean, ``sum (e_x - i)^2 Pr(T = i) + 1/12``, which
    exceeds the corrected value by exactly 1/4 because the centring point is
    off the distribution mean by one half.  Both are kept so the discrepancy
    stays visible; ``corrected`` is the default.
    """
    if mode not in ("corrected", "as_written"):
        raise ValueError(f"unknown variance mode {mode!r}")
    probs = death_distribution(table, x)
    years = np.arange(1, probs.size + 1, dtype=float)
    mean_year = float(np.dot(years, probs))
    if mode == "corrected":
        centre = mean_year
    else:
        centre = mean_year - 0.5  # the complete expectation
    return float(np.dot((centre - years) ** 2, probs) + 1.0 / 12.0)
