"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes (config 2, data 3, numeric 4), so every
module raises one of the subclasses rather than bare ValueError.
``check_fields`` validates the config dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real
from typing import Iterable, Mapping


class ParksimError(Exception):
    """Base class for all package errors."""


class ConfigError(ParksimError):
    """Invalid run configuration or command-line arguments."""


class DataError(ParksimError):
    """Malformed or inconsistent input data (files, ids, tables)."""


class NumericError(ParksimError):
    """Non-finite values or failed numeric sanity checks."""


_KINDS = {"int": "an integer", "float": "a finite number",
          "tuple[int, ...]": "a list of integers", "tuple[str, ...]": "a list of strings"}


def _fits(kind: str, value) -> bool:
    if kind == "str":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, Integral if kind == "int" else Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int too large for a float
        return kind == "int"


def check_fields(config, positive: Iterable[str] = (),
                 at_least: Mapping[str, float] | None = None) -> None:
    """Type- and range-check the fields of a config dataclass.

    A field annotated ``int`` needs an integer, one annotated ``float`` a
    finite real number (an integer will do), and a ``tuple[int, ...]`` or
    ``tuple[str, ...]`` field a tuple of integers or strings; a bool is
    never a number. Then each field named in ``positive`` must be above 0
    and each in ``at_least`` at or above its bound. The first failure
    raises a DataError naming the field.
    """
    for f in fields(config):
        if f.type not in _KINDS:
            continue
        value = getattr(config, f.name)
        if f.type.startswith("tuple["):
            kind = f.type[len("tuple["):-len(", ...]")]
            ok = isinstance(value, tuple) and all(_fits(kind, v) for v in value)
        else:
            ok = _fits(f.type, value)
        if not ok:
            raise DataError(f"{f.name} must be {_KINDS[f.type]}, got {value!r}")
    for name in positive:
        if not getattr(config, name) > 0:
            raise DataError(f"{name} must be positive")
    for name, bound in (at_least or {}).items():
        if not getattr(config, name) >= bound:
            raise DataError(f"{name} must be at least {bound}")
