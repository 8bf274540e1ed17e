"""Exception types shared across the library and its check of count arguments.

DomainError marks invalid inputs (bad parameters, violated preconditions);
NumericsError marks failures of a numerical procedure (no convergence,
rank-deficient fit, step underflow).  The CLI maps them to exit codes 1
and 2 respectively.
"""

import numbers


class DomainError(ValueError):
    """Input outside the admissible domain of an operation."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


def require_count(name: str, value, least: int) -> None:
    """DomainError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"requires an integer {name} >= {least}, got {value!r}")
