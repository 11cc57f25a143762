"""Exception hierarchy shared across the package, the shared input checks
(require_finite for a number, require_labels for 0/1 fracture status,
require_one_per_label for the scores or rows that go with them) and JSON
document I/O."""

import json
from contextlib import contextmanager
from math import isfinite

import numpy as np


class FemriskError(Exception):
    """Base class for all package errors."""


class DataError(FemriskError):
    """Invalid input data: bad CSV, invariant violation, missing column."""


class NumericalError(FemriskError):
    """Numerical failure: singular system, non-convergence, degenerate test."""


def require_finite(value, what: str) -> None:
    """DataError unless value is a finite int or float (a bool is neither)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not isfinite(value):
        raise DataError(f"{what} must be a finite number, got {value!r}")


def require_labels(y) -> np.ndarray:
    """The 0/1 labels y as ints, an int array uncopied.  DataError unless
    every value is 0 or 1 (checked before any cast; bools and floats count
    by value) and every row along the last axis holds both classes."""
    y = np.asarray(y)
    if y.dtype.kind not in "biuf" or not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be 0/1")
    y = y.astype(int, copy=False)
    if y.ndim == 0 or np.any(y.all(axis=-1) | ~y.any(axis=-1)):
        raise DataError("both classes must be present")
    return y


def require_one_per_label(y, values, what: str, axis: int = 0) -> None:
    """DataError("<m> <what> for <n> labels") unless the array values has as
    many entries along axis as the labels y have along their last axis."""
    n = y.shape[-1]
    m = values.shape[axis] if values.ndim else 1
    if m != n:
        raise DataError(f"{m} {what} for {n} labels")


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


def read_json(path, what: str):
    """The JSON document in the file at path; a missing file or one that
    is not JSON, or nests too deep to decode, is DataError("<what> file
    not found: ...") or DataError("bad <what> JSON: ...")."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except (ValueError, RecursionError) as exc:
        raise DataError(f"bad {what} JSON: {exc}") from None


def write_json(doc, path) -> None:
    """Write doc to the file at path as JSON with sorted keys, a 2-space
    indent and one final newline: the layout of every JSON file the
    package writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
