"""Exception types shared across the toolkit, and the one CSV input reader.

Three failure categories are distinguished so that callers (the CLI in
particular) can map them onto distinct exit codes:

* ``ValueError`` for domain errors on in-memory arguments,
* :class:`DataError` for malformed or inconsistent input data,
* :class:`NumericalError` for non-convergence or detected instability.

:func:`require_finite` is the shared guard that turns a nan or infinite
argument into the first category, before it can surface as the third.
``_read_csv`` holds the rules every input file shares (life tables, cash
flows, policy schedules), so each loader states only its own.
"""

import csv
import math

__all__ = ["DataError", "NumericalError", "require_finite"]


class DataError(ValueError):
    """Input data (a file, a table, a sample) failed validation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or went unstable."""


def require_finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first keyword argument that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _read_csv(path, columns: dict[str, type]):
    """Yield ``(line, values)`` for each data row of the UTF-8 CSV at ``path``.

    ``columns`` maps each header name, in file order, to ``int`` or
    ``float``.  The header must match it ignoring case and surrounding
    blanks, blank rows are skipped, every other row needs exactly one cell
    per column, and each cell must parse as its column's type; a float cell
    must also be finite.  A file needs at least one data row.  A violation
    raises :class:`DataError` naming the file, and the line once past the
    header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != list(columns):
            raise DataError(f"{path}: expected header '{','.join(columns)}', got {header!r}")
        rows = 0
        for line, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            if len(row) != len(columns):
                raise DataError(f"{path}:{line}: expected {len(columns)} columns, got {len(row)}")
            values = []
            for (name, kind), cell in zip(columns.items(), row):
                try:
                    value = kind(cell)
                    ok = kind is int or math.isfinite(value)
                except ValueError:
                    ok = False
                if not ok:
                    what = "an integer" if kind is int else "a finite number"
                    raise DataError(f"{path}:{line}: {name} {cell!r} is not {what}")
                values.append(value)
            rows += 1
            yield line, values
    if not rows:
        raise DataError(f"{path}: no data rows")
