"""Exception hierarchy shared by all rydgan modules.

The three subclasses map onto the CLI exit codes: validation problems
exit with 2, data/format problems with 3, numeric failures with 4; an
error of no more specific kind exits with 1, as an internal error does.
"""

import math
import operator
from dataclasses import field, fields

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class RydganError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(RydganError):
    """Bad configuration, arguments, domains, shapes, or state."""

    exit_code = 2


class DataError(RydganError):
    """Malformed or insufficient input data (file formats, dataset sizes)."""

    exit_code = 3


class NumericError(RydganError):
    """Numerical failure (non-finite values, failed decompositions)."""

    exit_code = 4

    def __init__(self, message, run=None):
        super().__init__(message)
        self.run = run      # batch row of the one run that failed, if any


def setting(default, *bounds, **metadata):
    """A settings dataclass field: its default and its bounds, each an
    (op, limit) pair with op one of >, >=, < and <=."""
    return field(default=default, metadata={"bounds": bounds, **metadata})


def check_settings(owner):
    """Raise ValidationError naming the first field of owner, a settings
    dataclass, that holds a non-finite float or breaks a declared bound."""
    for f in fields(owner):
        value = getattr(owner, f.name)
        if f.type in (float, "float") and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value}")
        for op, limit in f.metadata.get("bounds", ()):
            if not _OPS[op](value, limit):
                raise ValidationError(
                    f"{f.name} must be {op} {limit}, got {value}")
