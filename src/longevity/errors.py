"""Exception types shared across the toolkit, and the one CSV input reader.

Three failure categories are distinguished so that callers (the CLI in
particular) can map them onto distinct exit codes:

* ``ValueError`` for domain errors on in-memory arguments,
* :class:`DataError` for malformed or inconsistent input data,
* :class:`NumericalError` for non-convergence or detected instability.

:func:`require_finite` is the shared guard that turns a nan or infinite
argument into the first category, before it can surface as the third.
``_read_csv`` holds the rules every input file shares (life tables, cash
flows, policy schedules), so each loader states only its own.  ``_Record``
is the base of the package's immutable value classes; it lives here, in
the one module every command loads, and costs no import beyond ``csv``
and ``math``.
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


class _Record:
    """Immutable value class whose fields are its annotated names, in order.

    A field with a value in the class body takes it as its default.  The
    constructor accepts fields by position or keyword, stores them and then
    runs ``__post_init__`` if the class has one, which may normalise a
    field through ``object.__setattr__``.  The repr is
    ``Name(field=value, ...)`` without the fields named in ``_hidden``;
    ``==`` and ``hash`` compare the tuple of field values between instances
    of one class; assigning or deleting an attribute raises
    ``AttributeError``.  Instances pickle by their attribute dict.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected or repeated field {min(kwargs)!r}")
        self.__dict__.update(values)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={self.__dict__[name]!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
