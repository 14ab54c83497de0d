"""Exception types shared across the toolkit.

Three failure categories are distinguished so that callers (the CLI in
particular) can map them onto distinct exit codes:

* ``ValueError`` for domain errors on in-memory arguments,
* :class:`DataError` for malformed or inconsistent input data,
* :class:`NumericalError` for non-convergence or detected instability.

:func:`require_finite` is the shared guard that turns a nan or infinite
argument into the first category, before it can surface as the third.
"""

import math


class DataError(ValueError):
    """Input data (a file, a table, a sample) failed validation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or went unstable."""


def require_finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first keyword argument that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
