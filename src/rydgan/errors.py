"""Exception hierarchy shared by all rydgan modules.

The three subclasses map onto the CLI exit codes: validation problems
exit with 2, data/format problems with 3, numeric failures with 4; an
error of no more specific kind exits with 1, as an internal error does.
"""


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
