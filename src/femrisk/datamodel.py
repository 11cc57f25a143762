"""Cohort ingestion, validation, standardization and feature-set assembly.

The cohort CSV format is fixed: comma separated, UTF-8, header exactly

    id,sex,age,height_cm,weight_kg,healstat,bmdmed,abmd_ct,fx,
    Sy,Su,Senergy,Py,Pu,Penergy,PLy,PLu,PLenergy,Ly,Lu,Lenergy,frax_prob

(one line, shown wrapped) with sex in {M, F} and frax_prob left blank when
absent.  Column order in every feature matrix is deterministic and is the
list :func:`feature_columns` returns.

A :class:`Cohort` is a float table, one row per subject and one column per
name in :data:`TABLE_COLUMNS`, with the subject ids beside it.  Every row
passes :func:`invalid_row` before a cohort exists, whether it was read from
a CSV, generated or built directly.  Subsets, strata, labels and the
feature matrices of :func:`femrisk.evaluate.build_feature_matrix` are
gathers on that table.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

# Load cases and their (yield, ultimate, energy) column triplets.
LOAD_CASE_PARAMS = {
    "stance": ("Sy", "Su", "Senergy"),
    "posterior": ("Py", "Pu", "Penergy"),
    "posterolateral": ("PLy", "PLu", "PLenergy"),
    "lateral": ("Ly", "Lu", "Lenergy"),
}

# Canonical FE parameter order: the triplets in load-case order.
FE12 = sum(LOAD_CASE_PARAMS.values(), ())

# The nine fracture-associated FE parameters used for the risk index.
FE9 = ("Sy", "Su", "Senergy", "Py", "Pu", "PLy", "PLu", "Ly", "Lu")

COHORT_HEADER = (
    "id,sex,age,height_cm,weight_kg,healstat,bmdmed,abmd_ct,fx,"
    "Sy,Su,Senergy,Py,Pu,Penergy,PLy,PLu,PLenergy,Ly,Lu,Lenergy,frax_prob"
).split(",")

COVARIATES = ("age", "sex", "height", "weight", "healstat", "bmdmed")

# The subject groups a command can run on.
STRATA = ("all", "male", "female")

# Columns of Cohort.table: sex is 1.0 for M and 0.0 for F, frax_prob is NaN
# when absent, every other value is the CSV field as a float.
TABLE_COLUMNS = FE12 + ("abmd_ct",) + COVARIATES + ("frax_prob", "fx")
COLUMN_INDEX = {name: j for j, name in enumerate(TABLE_COLUMNS)}
_SEX = COLUMN_INDEX["sex"]
_FRAX = COLUMN_INDEX["frax_prob"]
_FX = COLUMN_INDEX["fx"]

# The CSV fields after id, each with its table column.
_CSV_FIELDS = tuple(
    (name, COLUMN_INDEX[{"height_cm": "height", "weight_kg": "weight"}.get(name, name)])
    for name in COHORT_HEADER[1:])
_INTEGER_COLUMNS = ("sex", "healstat", "bmdmed", "fx")


def _positive(v):
    return np.isfinite(v) & (v > 0)


def _one_of(*allowed):
    return lambda v: np.isin(v, allowed)


# The rules every cohort row obeys, in the order a row is checked: the
# columns a rule reads, a vectorized test that holds on valid rows, and the
# message for a row that fails it, formatted with the row's values.
_RULES = (
    *(((n,), _positive, f"FE parameter {n} must be finite and positive, got {{}}")
      for n in FE12),
    *(((y, u), np.less_equal, f"yield exceeds ultimate for {case} load case ({y}={{}} > {u}={{}})")
      for case, (y, u, _) in LOAD_CASE_PARAMS.items()),
    (("sex",), _one_of(0, 1), "sex must be 1 (M) or 0 (F), got {}"),
    *(((n,), _positive, f"{n} must be positive, got {{}}") for n in ("age", "height", "weight")),
    (("healstat",), _one_of(1, 2, 3, 4, 5), "healstat must be in 1..5, got {}"),
    (("bmdmed",), _one_of(0, 1), "bmdmed must be 0 or 1, got {}"),
    (("abmd_ct",), _positive, "abmd_ct must be positive, got {}"),
    (("fx",), _one_of(0, 1), "fx must be 0 or 1, got {}"),
    (("frax_prob",), lambda v: np.isnan(v) | ((v >= 0) & (v <= 1)),
     "frax_prob must be in [0,1], got {}"),
)


def _shown(name: str, value) -> object:
    value = float(value)
    return int(value) if name in _INTEGER_COLUMNS and value.is_integer() else value


def invalid_row(table, columns: Sequence[str] = TABLE_COLUMNS) -> Optional[tuple[int, str]]:
    """The first row of table (n, len(columns)) that breaks a cohort rule,
    and the message of the first rule it breaks; None when every row holds.

    columns names the columns of table.  Rules on columns it lacks are not
    checked, so that FE parameters can be checked on their own.
    """
    table = np.asarray(table, dtype=float)
    index = {name: j for j, name in enumerate(columns)}
    rules = [rule for rule in _RULES if all(c in index for c in rule[0])]
    bad = np.array([~test(*(table[:, index[c]] for c in cols)) for cols, test, _ in rules])
    failing = bad.any(axis=0)
    if not failing.any():
        return None
    row = int(np.argmax(failing))
    cols, _, message = rules[int(np.argmax(bad[:, row]))]
    return row, message.format(*(_shown(c, table[row, index[c]]) for c in cols))


@dataclass(frozen=True, eq=False)
class Cohort:
    """Subjects in file order: `table` has one row per subject and the
    columns of TABLE_COLUMNS, `ids` holds the subject ids.

    Construction checks every row with invalid_row and names the subject of
    the first bad one.  Both arrays are read-only.
    """

    table: np.ndarray = field(repr=False)
    ids: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        ids = np.asarray(self.ids, dtype=str)
        if ids.ndim != 1 or table.shape != (ids.size, len(TABLE_COLUMNS)):
            raise DataError("cohort table does not match its ids")
        bad = invalid_row(table)
        if bad is not None:
            raise DataError(f"subject {ids[bad[0]]}: {bad[1]}")
        table.flags.writeable = False
        ids.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "ids", ids)

    def __len__(self):
        return len(self.ids)

    def _rows(self, idx: np.ndarray) -> "Cohort":
        return Cohort(self.table[idx], self.ids[idx])

    def subset(self, indices: Sequence[int]) -> "Cohort":
        return self._rows(np.asarray(indices, dtype=np.intp))

    def stratum(self, stratum: str) -> "Cohort":
        if stratum not in STRATA:
            raise DataError(f"unknown stratum {stratum!r}")
        if stratum == "all":
            return self
        keep = self.table[:, _SEX] == (1.0 if stratum == "male" else 0.0)
        if keep.all():
            return self
        if not keep.any():
            raise DataError(f"stratum {stratum!r} has no subjects")
        return self._rows(np.flatnonzero(keep))

    def columns(self, names: Sequence[str]) -> np.ndarray:
        """C-ordered (n, len(names)) copy of the named table columns."""
        return np.take(self.table, [COLUMN_INDEX[c] for c in names], axis=1)

    def labels(self) -> np.ndarray:
        return self.table[:, _FX].astype(int)

    def missing_frax(self) -> list[str]:
        """Ids of the subjects without a frax_prob, in cohort order."""
        return self.ids[np.isnan(self.table[:, _FRAX])].tolist()


def _parse_line(raw: list[str], line_no: int) -> list[float]:
    """The table row of one CSV line; a cell that is not a value raises."""
    if len(raw) != len(COHORT_HEADER):
        raise DataError(f"line {line_no}: expected {len(COHORT_HEADER)} fields, got {len(raw)}")
    row = [math.nan] * len(TABLE_COLUMNS)
    for (name, j), cell in zip(_CSV_FIELDS, raw[1:]):
        cell = cell.strip()
        if name == "sex":
            if cell not in ("M", "F"):
                raise DataError(f"line {line_no}: sex must be M or F, got {cell!r}")
            row[j] = 1.0 if cell == "M" else 0.0
        elif name != "frax_prob" or cell:
            try:
                row[j] = float(cell)
            except ValueError:
                raise DataError(
                    f"line {line_no}: non-numeric value {cell!r} in column {name}") from None
            if not math.isfinite(row[j]):
                raise DataError(f"line {line_no}: non-finite value {cell!r} in column {name}")
    return row


def _csv_records(text):
    """(line number, fields) of each CSV record of text, numbered from 1; a
    record the csv module refuses (a field too large) is DataError."""
    line_no = 0
    try:
        for line_no, raw in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield line_no, raw
    except csv.Error as exc:
        raise DataError(f"line {line_no + 1}: {exc}") from None


def load_cohort(path) -> Cohort:
    """Read and validate a cohort CSV; the first invalid line raises, a line
    holding a byte that is not UTF-8 or a field too large for the csv
    module included.  Subject ids must be non-empty and unique."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"cohort file not found: {path}")
    unreadable = None                             # the first line that cannot be read
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The lines above the first undecodable byte are read as usual.
        head = data[:data.rfind(b"\n", 0, exc.start) + 1]
        text, line_no = head.decode("utf-8"), head.count(b"\n") + 1
        unreadable = DataError(f"line {line_no}: not UTF-8 ({exc.reason} at byte {exc.start})")
    records = _csv_records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise unreadable or DataError("empty file: no header row")
    if header != COHORT_HEADER:
        raise DataError(
            f"bad header: expected {','.join(COHORT_HEADER)}, got {','.join(header)}"
        )
    rows = []
    id_lines = {}                                 # subject id -> its line, in file order
    try:
        for line_no, raw in records:
            if not raw or all(not c.strip() for c in raw):
                continue
            row = _parse_line(raw, line_no)
            subject_id = raw[0].strip()
            if not subject_id:
                raise DataError(f"line {line_no}: empty subject id")
            if subject_id in id_lines:
                raise DataError(f"line {line_no}: duplicate subject id {subject_id!r}, "
                                f"first on line {id_lines[subject_id]}")
            rows.append(row)
            id_lines[subject_id] = line_no
    except DataError as exc:
        unreadable = exc                          # reported only if no line above breaks a rule
    table = np.array(rows, dtype=float).reshape(len(rows), len(TABLE_COLUMNS))
    bad = invalid_row(table)
    if bad is not None:
        raise DataError(f"line {list(id_lines.values())[bad[0]]}: {bad[1]}")
    if unreadable is not None:
        raise unreadable
    if not rows:
        raise DataError("empty cohort")
    return Cohort(table, list(id_lines))


def save_cohort(cohort: Cohort, path) -> None:
    """Write a cohort in the canonical CSV format (round-trips load_cohort)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COHORT_HEADER)
        for subject_id, row in zip(cohort.ids.tolist(), cohort.table.tolist()):
            fields = [subject_id]
            for name, j in _CSV_FIELDS:
                v = row[j]
                if name == "sex":
                    fields.append("M" if v == 1.0 else "F")
                elif name in _INTEGER_COLUMNS:
                    fields.append(str(int(v)))
                else:
                    fields.append("" if math.isnan(v) else repr(v))
            writer.writerow(fields)



# ---------------------------------------------------------------------------
# Standardization


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column mean and sample SD (n-1 denominator) of the fitting data."""

    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "sd", np.asarray(self.sd, dtype=float))
        if self.mean.shape != self.sd.shape:
            raise DataError("mean/sd shape mismatch")
        if np.any(self.sd <= 0):
            raise DataError("standardization SD must be positive")


def standardize_fit(values: np.ndarray) -> StandardizationParams:
    """Fit per-column mean and sample SD of a matrix (n, p).  Raises on
    non-finite values and on constant columns.

    A stack of matrices (B, n, p) gets one fit per matrix: mean and sd are
    then (B, p), and the error names the column of the first matrix that
    has a constant one.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[-2] < 2:
        raise DataError("need at least 2 rows to standardize")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite values in fit input")
    mean = x.mean(axis=-2)
    sd = x.std(axis=-2, ddof=1)
    tiny = sd <= 1e-12 * np.maximum(np.abs(mean), 1.0)
    if np.any(tiny):
        bad = int(np.flatnonzero(tiny)[0]) % tiny.shape[-1]
        raise DataError(f"constant column at index {bad} (SD = 0)")
    return StandardizationParams(mean, sd)


def standardize_apply(params: StandardizationParams, values: np.ndarray) -> np.ndarray:
    """Standardize the rows of a matrix (n, p), or of each matrix of a
    (B, n, p) stack with that matrix's own fit from a stacked
    standardize_fit."""
    x = np.asarray(values, dtype=float)
    if x.shape[-1] != params.mean.shape[-1]:
        raise DataError(
            f"dimension mismatch: {x.shape[-1]} columns vs {params.mean.shape[-1]} params"
        )
    z = x - params.mean[..., None, :]
    z /= params.sd[..., None, :]        # in place: one stack, not two
    return z


# ---------------------------------------------------------------------------
# aBMD conversion

DXA_SLOPE = 0.924
DXA_INTERCEPT = 0.137


def derive_dxa_abmd(abmd_ct: float) -> float:
    """DXA-equivalent aBMD (g/cm^2) from the CT-derived value."""
    if np.any(np.asarray(abmd_ct) < 0):
        raise DataError("abmd_ct must be non-negative")
    return DXA_SLOPE * abmd_ct + DXA_INTERCEPT


# ---------------------------------------------------------------------------
# Feature sets

# The columns of each feature set on the whole sample, by the name users
# type: its leading pc1 or FE columns, then abmd_ct and the covariates with
# sex encoded female=0 / male=1; FRAX_ONLY is the frax_prob column alone.
_FEATURE_SETS = {
    **{name: (*lead, "abmd_ct", *COVARIATES) for name, lead in (
        ("ABMD_COV", ()), ("PC1_ABMD_COV", ("pc1",)), ("FE9_ABMD_COV", FE9),
        *((f"{p}_ABMD_COV", (p,)) for p in FE9))},
    "FRAX_ONLY": ("frax_prob",),
}


def feature_columns(name: str, stratum: str) -> list[str]:
    """The columns of the named feature set under a stratum, in the order of
    every feature matrix: sex is dropped when stratum != all."""
    if name not in _FEATURE_SETS:
        raise DataError(f"unknown feature set {name!r}")
    return [c for c in _FEATURE_SETS[name] if stratum == "all" or c != "sex"]
