"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class FemriskError(Exception):
    """Base class for all package errors."""


class DataError(FemriskError):
    """Invalid input data: bad CSV, invariant violation, missing column."""


class NumericalError(FemriskError):
    """Numerical failure: singular system, non-convergence, degenerate test."""


@contextmanager
def malformed(what: str):
    """Report a document read in this block that lacks an entry or holds
    one of the wrong type or value as DataError("malformed <what>: ...")."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"malformed {what}: missing {exc}") from exc
    except (AttributeError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
