"""Two-state (alive/dead) Markov mortality with a constant intensity.

The model has a single parameter, the death intensity ``rate``: over a
horizon ``t`` an alive life dies with probability ``1 - exp(-rate * t)`` and
dead is absorbing.  The lifetime is therefore exponential, which makes this
the natural closed-form benchmark for the simulation machinery: mean
``1/rate``, variance ``1/rate**2``, and a memoryless survival function.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import _Record

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TwoStateModel", "MeanVariance"]


class MeanVariance(NamedTuple):
    mean: float
    variance: float


class TwoStateModel(_Record):
    """Alive/dead Markov chain with constant death intensity ``rate > 0``."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"death intensity must be positive and finite, got {self.rate!r}")

    def transition_matrix(self, t: float) -> np.ndarray:
        """Transition matrix over horizon ``t``, states ordered (dead, alive).

        Rows are the current state, columns the state after ``t``.  Dead is
        absorbing, so the first row is ``(1, 0)``; the alive row moves mass
        ``1 - exp(-rate * t)`` into dead.  Rows sum to 1 and the matrix over
        ``t + s`` equals the product of the matrices over ``t`` and ``s``.
        """
        import numpy as np

        if t < 0.0:
            raise ValueError("horizon t must be >= 0")
        s = math.exp(-self.rate * t)
        return np.array([[1.0, 0.0], [1.0 - s, s]])

    def survival(self, t: float) -> float:
        """Probability an alive life is still alive after ``t``."""
        if t < 0.0:
            raise ValueError("horizon t must be >= 0")
        return math.exp(-self.rate * t)

    def pdf(self, t: float) -> float:
        """Density of the exponential lifetime at ``t >= 0``."""
        if t < 0.0:
            raise ValueError("t must be >= 0")
        return self.rate * math.exp(-self.rate * t)

    def mean_and_variance(self) -> MeanVariance:
        """Closed-form lifetime mean ``1/rate`` and variance ``1/rate**2``."""
        m = 1.0 / self.rate
        return MeanVariance(mean=m, variance=m * m)

    def sample_lifetime(self, u):
        """Map uniform(0,1) draws to lifetimes via the inverse CDF.

        ``-log(u) / rate``; monotone in ``u``, so quantiles of the draws
        converge to the exponential quantile function.  Accepts a scalar or
        an array of deviates.
        """
        import numpy as np

        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ValueError("uniform draws must lie strictly inside (0, 1)")
        out = -np.log(u) / self.rate
        return float(out) if out.ndim == 0 else out

