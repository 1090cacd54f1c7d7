"""Exception hierarchy shared by all rydgan modules.

The three subclasses map onto the CLI exit codes: validation problems
exit with 2, data/format problems with 3, numeric failures with 4; an
error of no more specific kind exits with 1, as an internal error does.
"""

import math
from dataclasses import fields


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


def check_finite(owner):
    """Raise ValidationError naming the first non-finite float field of owner,
    a settings dataclass."""
    for name in (f.name for f in fields(owner) if f.type in (float, "float")):
        if not math.isfinite(value := getattr(owner, name)):
            raise ValidationError(f"{name} must be finite, got {value}")
