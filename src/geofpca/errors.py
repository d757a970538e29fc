"""Exception hierarchy shared across the package.

DataError covers invalid or insufficient input data (CLI exit code 3),
NumericalError covers solver and conditioning failures (CLI exit code 4).
"""


class GeofpcaError(Exception):
    """Base class for all package-specific errors."""


class DataError(GeofpcaError):
    """Input data is malformed, out of contract, or insufficient."""


class NumericalError(GeofpcaError):
    """A numerical routine failed (singular system, non-finite objective, ...)."""


def require(*checks: tuple[bool, str]) -> None:
    """Raise DataError with the message of the first (holds, message) check that fails."""
    for ok, problem in checks:
        if not ok:
            raise DataError(problem)
