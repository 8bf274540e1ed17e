"""Exception types shared across the library, and the one check of each
kind of outside number.

DomainError marks invalid inputs (bad parameters, violated preconditions);
NumericsError marks failures of a numerical procedure (no convergence,
rank-deficient fit, step underflow).  The CLI maps them to exit codes 1
and 2 respectively.  require_number reads a number (a config setting, a
coefficient-file value) and require_count checks a count argument; the
messages of both live here alone.
"""

import math
import numbers


class DomainError(ValueError):
    """Input outside the admissible domain of an operation."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


def require_number(what: str, value) -> float:
    """float(value), inf for an int past the float range; DomainError for
    a bool (float(True) would read as 1.0) or a value float() rejects.
    Finiteness is left to the caller."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{what} is not a number: {value!r}") from None
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def require_count(name: str, value, least: int) -> None:
    """DomainError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"requires an integer {name} >= {least}, got {value!r}")
