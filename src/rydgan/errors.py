"""Exception hierarchy shared by all rydgan modules.

The three subclasses map onto the CLI exit codes: validation problems
exit with 2, data/format problems with 3, numeric failures with 4; an
error of no more specific kind exits with 1, as an internal error does.
"""

import numbers
import operator
import sys
from dataclasses import field, fields

_FINITE = -sys.float_info.max, sys.float_info.max   # an int may lie outside
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
# what a value of each declared field type is; a bool is neither int nor float
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
          "tuple": (tuple, list)}


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


def setting(default, *bounds, choices=(), **metadata):
    """A settings dataclass field: its default, its bounds, each an
    (op, limit) pair with op one of >, >=, < and <=, and its choices: the
    values a str field may hold, or that a tuple field names, each once."""
    return field(default=default, metadata=dict(metadata, bounds=bounds,
                                                 choices=choices))


def check_settings(owner):
    """Raise ValidationError naming the first field of owner, a dataclass,
    that is not of its declared type (int, float, str, tuple of str) or
    breaks a rule that `setting` declared: a finite float, its bounds, its
    choices."""
    for f in fields(owner):
        value, kind = getattr(owner, f.name), getattr(f.type, "__name__", f.type)
        if kind in _TYPES and (
                isinstance(value, bool) or not isinstance(value, _TYPES[kind])
                or kind == "tuple" and not all(isinstance(s, str) for s in value)):
            raise ValidationError(f"{f.name} must be of type {kind}, got {value!r}")
        if kind == "float" and f.metadata and not _FINITE[0] <= value <= _FINITE[1]:
            raise ValidationError(f"{f.name} must be finite, got {value}")
        for op, limit in f.metadata.get("bounds", ()):
            if not _OPS[op](value, limit):
                raise ValidationError(
                    f"{f.name} must be {op} {limit}, got {value}")
        named = (value,) if kind == "str" else value
        choices = f.metadata.get("choices")
        if choices and not (named and set(named) <= set(choices)
                            and len(set(named)) == len(named)):
            what = "one" if kind == "str" else "one or more, none twice,"
            raise ValidationError(f"{f.name} must name {what} of "
                                  f"{', '.join(choices)}, got {value!r}")
