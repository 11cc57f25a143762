"""Cohort ingestion, validation, standardization and feature-set assembly.

The cohort CSV format is fixed: comma separated, UTF-8, header exactly

    id,sex,age,height_cm,weight_kg,healstat,bmdmed,abmd_ct,fx,
    Sy,Su,Senergy,Py,Pu,Penergy,PLy,PLu,PLenergy,Ly,Lu,Lenergy,frax_prob

(one line, shown wrapped) with sex in {M, F} and frax_prob left blank when
absent.  Column order in every feature matrix is deterministic and matches
the lists documented on :func:`build_feature_matrix`.

A :class:`Cohort` keeps its validated records for I/O and, built once from
them, one float table with a column per name in :data:`TABLE_COLUMNS`.
Subsets, strata, labels and feature matrices are gathers on that table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError

# Canonical FE parameter order (stance, posterior, posterolateral, lateral;
# yield / ultimate / energy within each loading condition).
FE12 = (
    "Sy", "Su", "Senergy",
    "Py", "Pu", "Penergy",
    "PLy", "PLu", "PLenergy",
    "Ly", "Lu", "Lenergy",
)

# The nine fracture-associated FE parameters used for the risk index.
FE9 = ("Sy", "Su", "Senergy", "Py", "Pu", "PLy", "PLu", "Ly", "Lu")

# Load cases and their (yield, ultimate, energy) column triplets.
LOAD_CASE_PARAMS = {
    "stance": ("Sy", "Su", "Senergy"),
    "posterior": ("Py", "Pu", "Penergy"),
    "posterolateral": ("PLy", "PLu", "PLenergy"),
    "lateral": ("Ly", "Lu", "Lenergy"),
}

COHORT_HEADER = (
    "id,sex,age,height_cm,weight_kg,healstat,bmdmed,abmd_ct,fx,"
    "Sy,Su,Senergy,Py,Pu,Penergy,PLy,PLu,PLenergy,Ly,Lu,Lenergy,frax_prob"
).split(",")

COVARIATES = ("age", "sex", "height", "weight", "healstat", "bmdmed")

# Columns of Cohort.table: sex is 1.0 for M and 0.0 for F, frax_prob is NaN
# when absent, every other value is the record's field as a float.
TABLE_COLUMNS = FE12 + ("abmd_ct",) + COVARIATES + ("frax_prob", "fx")
COLUMN_INDEX = {name: j for j, name in enumerate(TABLE_COLUMNS)}
_SEX = COLUMN_INDEX["sex"]
_FRAX = COLUMN_INDEX["frax_prob"]
_FX = COLUMN_INDEX["fx"]


@dataclass(frozen=True)
class FeParameterSet:
    """Twelve FE parameters: yield load (N), ultimate load (N) and
    energy-to-failure (N*mm) for each of the four loading conditions."""

    Sy: float
    Su: float
    Senergy: float
    Py: float
    Pu: float
    Penergy: float
    PLy: float
    PLu: float
    PLenergy: float
    Ly: float
    Lu: float
    Lenergy: float

    def __post_init__(self):
        for name in FE12:
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise DataError(f"FE parameter {name} must be finite and positive, got {v}")
        for case, (y, u, _) in LOAD_CASE_PARAMS.items():
            if getattr(self, y) > getattr(self, u):
                raise DataError(
                    f"yield exceeds ultimate for {case} load case "
                    f"({y}={getattr(self, y)} > {u}={getattr(self, u)})"
                )

    def as_array(self, names: Sequence[str] = FE12) -> np.ndarray:
        return np.array([getattr(self, n) for n in names], dtype=float)


@dataclass(frozen=True)
class SubjectRecord:
    """One study participant."""

    id: str
    sex: str                      # "M" or "F"
    age: float                    # years
    height: float                 # cm
    weight: float                 # kg
    healstat: int                 # ordinal 1 (excellent) .. 5 (poor)
    bmdmed: int                   # 0/1 bone medication status
    abmd_ct: float                # g/cm^2
    fx: int                       # 1 = incident hip fracture
    fe: FeParameterSet
    frax_prob: Optional[float] = None

    def __post_init__(self):
        if self.sex not in ("M", "F"):
            raise DataError(f"sex must be M or F, got {self.sex!r}")
        if not self.age > 0:
            raise DataError(f"age must be positive, got {self.age}")
        if not self.height > 0:
            raise DataError(f"height must be positive, got {self.height}")
        if not self.weight > 0:
            raise DataError(f"weight must be positive, got {self.weight}")
        if self.healstat not in (1, 2, 3, 4, 5):
            raise DataError(f"healstat must be in 1..5, got {self.healstat}")
        if self.bmdmed not in (0, 1):
            raise DataError(f"bmdmed must be 0 or 1, got {self.bmdmed}")
        if not self.abmd_ct > 0:
            raise DataError(f"abmd_ct must be positive, got {self.abmd_ct}")
        if self.fx not in (0, 1):
            raise DataError(f"fx must be 0 or 1, got {self.fx}")
        if self.frax_prob is not None and not 0.0 <= self.frax_prob <= 1.0:
            raise DataError(f"frax_prob must be in [0,1], got {self.frax_prob}")


_fe12_values = attrgetter(*FE12)


def _table_row(r: SubjectRecord) -> tuple:
    frax = math.nan if r.frax_prob is None else r.frax_prob
    sex = 1.0 if r.sex == "M" else 0.0
    return (*_fe12_values(r.fe), r.abmd_ct, r.age, sex, r.height, r.weight,
            r.healstat, r.bmdmed, frax, r.fx)


def _record_table(records: Sequence[SubjectRecord]) -> np.ndarray:
    table = np.array([_table_row(r) for r in records], dtype=float)
    return table.reshape(len(records), len(TABLE_COLUMNS))


@dataclass(frozen=True)
class Cohort:
    """Validated subject records in file order, with their float table.

    `table` has one row per record and the columns of TABLE_COLUMNS.  It is
    built from the records when omitted; subset and stratum pass the rows
    they gather instead of rebuilding them.
    """

    records: tuple[SubjectRecord, ...]
    dropped_count: int = 0
    table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        table = _record_table(self.records) if self.table is None else self.table
        if table.shape != (len(self.records), len(TABLE_COLUMNS)):
            raise DataError("cohort table does not match its records")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def n_fracture(self) -> int:
        return int(self.table[:, _FX].sum())

    def _rows(self, idx: np.ndarray) -> "Cohort":
        records = self.records
        return Cohort(tuple([records[i] for i in idx.tolist()]), table=self.table[idx])

    def subset(self, indices: Iterable[int]) -> "Cohort":
        if not isinstance(indices, np.ndarray):
            indices = np.fromiter(indices, dtype=np.intp)
        return self._rows(indices)

    def stratum(self, stratum: str) -> "Cohort":
        if stratum == "all":
            return self
        if stratum not in ("male", "female"):
            raise DataError(f"unknown stratum {stratum!r}")
        keep = self.table[:, _SEX] == (1.0 if stratum == "male" else 0.0)
        if keep.all():
            return self
        return self._rows(np.flatnonzero(keep))

    def columns(self, names: Sequence[str]) -> np.ndarray:
        """C-ordered (n, len(names)) copy of the named table columns."""
        return np.take(self.table, [COLUMN_INDEX[c] for c in names], axis=1)

    def labels(self) -> np.ndarray:
        return self.table[:, _FX].astype(int)

    def missing_frax(self) -> list[str]:
        """Ids of the subjects without a frax_prob, in cohort order."""
        return [self.records[i].id for i in np.flatnonzero(np.isnan(self.table[:, _FRAX]))]


def _parse_row(row: dict[str, str], line_no: int) -> SubjectRecord:
    def num(col):
        raw = row[col].strip()
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric value {raw!r} in column {col}")

    frax_raw = row["frax_prob"].strip()
    try:
        fe = FeParameterSet(**{name: num(name) for name in FE12})
        return SubjectRecord(
            id=row["id"].strip(),
            sex=row["sex"].strip(),
            age=num("age"),
            height=num("height_cm"),
            weight=num("weight_kg"),
            healstat=int(num("healstat")),
            bmdmed=int(num("bmdmed")),
            abmd_ct=num("abmd_ct"),
            fx=int(num("fx")),
            fe=fe,
            frax_prob=float(frax_raw) if frax_raw else None,
        )
    except DataError as exc:
        msg = str(exc)
        if not msg.startswith("line "):
            msg = f"line {line_no}: {msg}"
        raise DataError(msg) from None


def load_cohort(path, policy: str = "strict") -> Cohort:
    """Read and validate a cohort CSV.

    policy "strict" raises on the first invalid row; "drop_invalid" skips
    invalid rows and records how many were dropped.
    """
    if policy not in ("strict", "drop_invalid"):
        raise ValueError(f"unknown policy {policy!r}")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"cohort file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row")
        if header != COHORT_HEADER:
            raise DataError(
                f"bad header: expected {','.join(COHORT_HEADER)}, got {','.join(header)}"
            )
        records = []
        dropped = 0
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(COHORT_HEADER):
                msg = f"line {line_no}: expected {len(COHORT_HEADER)} fields, got {len(raw)}"
                if policy == "strict":
                    raise DataError(msg)
                dropped += 1
                continue
            row = dict(zip(COHORT_HEADER, raw))
            try:
                records.append(_parse_row(row, line_no))
            except DataError:
                if policy == "strict":
                    raise
                dropped += 1
    if not records:
        raise DataError("empty cohort")
    return Cohort(tuple(records), dropped_count=dropped)


def save_cohort(cohort: Cohort, path) -> None:
    """Write a cohort in the canonical CSV format (round-trips load_cohort)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COHORT_HEADER)
        for r in cohort:
            fields = [
                r.id, r.sex,
                repr(float(r.age)), repr(float(r.height)), repr(float(r.weight)),
                str(r.healstat), str(r.bmdmed), repr(float(r.abmd_ct)), str(r.fx),
            ]
            fields += [repr(float(getattr(r.fe, n))) for n in FE12]
            fields.append("" if r.frax_prob is None else repr(float(r.frax_prob)))
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
    """Fit per-column mean and sample SD.  Raises on constant columns.

    A stack of matrices (B, n, p) gets one fit per matrix: mean and sd are
    then (B, p), and the error names the column of the first matrix that
    has a constant one.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[-2] < 2:
        raise DataError("need at least 2 rows to standardize")
    mean = x.mean(axis=-2)
    sd = x.std(axis=-2, ddof=1)
    tiny = sd <= 1e-12 * np.maximum(np.abs(mean), 1.0)
    if np.any(tiny):
        bad = int(np.flatnonzero(tiny)[0]) % tiny.shape[-1]
        raise DataError(f"constant column at index {bad} (SD = 0)")
    return StandardizationParams(mean, sd)


def standardize_apply(params: StandardizationParams, values: np.ndarray) -> np.ndarray:
    """Standardize rows of values, or of each matrix of a (B, n, p) stack
    with that matrix's own fit from a stacked standardize_fit."""
    x = np.asarray(values, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[-1] != params.mean.shape[-1]:
        raise DataError(
            f"dimension mismatch: {x.shape[-1]} columns vs {params.mean.shape[-1]} params"
        )
    out = (x - params.mean[..., None, :]) / params.sd[..., None, :]
    return out[:, 0] if squeeze else out


def standardize_invert(params: StandardizationParams, values: np.ndarray) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[1] != params.mean.shape[0]:
        raise DataError("dimension mismatch")
    out = x * params.sd + params.mean
    return out[:, 0] if squeeze else out


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


@dataclass(frozen=True)
class FeatureSet:
    """A named predictor column list.

    kind is one of ABMD_COV, PC1_ABMD_COV, FE9_ABMD_COV, SINGLE_FE_ABMD_COV
    (with fe_param set) and FRAX_ONLY.
    """

    kind: str
    fe_param: Optional[str] = None

    KINDS = ("ABMD_COV", "PC1_ABMD_COV", "FE9_ABMD_COV", "SINGLE_FE_ABMD_COV", "FRAX_ONLY")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DataError(f"unknown feature set kind {self.kind!r}")
        if self.kind == "SINGLE_FE_ABMD_COV":
            if self.fe_param not in FE9:
                raise DataError(f"fe_param must be one of {FE9}, got {self.fe_param!r}")
        elif self.fe_param is not None:
            raise DataError("fe_param only valid for SINGLE_FE_ABMD_COV")

    @property
    def name(self) -> str:
        if self.kind == "SINGLE_FE_ABMD_COV":
            return f"{self.fe_param}_ABMD_COV"
        return self.kind

    @classmethod
    def parse(cls, name: str) -> "FeatureSet":
        if name in cls.KINDS and name != "SINGLE_FE_ABMD_COV":
            return cls(name)
        if name.endswith("_ABMD_COV") and name[: -len("_ABMD_COV")] in FE9:
            return cls("SINGLE_FE_ABMD_COV", name[: -len("_ABMD_COV")])
        raise DataError(f"unknown feature set {name!r}")


def _covariate_columns(stratum: str) -> list[str]:
    cols = list(COVARIATES)
    if stratum != "all":
        cols.remove("sex")
    return cols


def feature_columns(feature_set: FeatureSet, stratum: str) -> list[str]:
    """Deterministic column order for a feature set under a stratum."""
    cov = _covariate_columns(stratum)
    k = feature_set.kind
    if k == "ABMD_COV":
        return ["abmd_ct"] + cov
    if k == "PC1_ABMD_COV":
        return ["pc1", "abmd_ct"] + cov
    if k == "FE9_ABMD_COV":
        return list(FE9) + ["abmd_ct"] + cov
    if k == "SINGLE_FE_ABMD_COV":
        return [feature_set.fe_param, "abmd_ct"] + cov
    return ["frax_prob"]


def build_feature_matrix(
    cohort: Cohort,
    feature_set: FeatureSet,
    stratum: str = "all",
    pc1_scores: Optional[np.ndarray] = None,
):
    """Assemble (X, y, column_names) for a cohort stratum.

    Column order: optional leading pc1 / FE columns, then abmd_ct, then the
    covariate block (age, sex, height, weight, healstat, bmdmed) with sex
    encoded female=0 / male=1 and dropped when stratum != all.  pc1_scores
    must align with the (already stratified) cohort when a PC1 set is used.
    """
    sub = cohort.stratum(stratum)
    if pc1_scores is not None and len(pc1_scores) != len(sub):
        raise DataError("pc1_scores length does not match stratified cohort")
    cols = feature_columns(feature_set, stratum)
    if cols[0] == "pc1":
        if pc1_scores is None:
            raise DataError("pc1 scores required for a PC1 feature set")
        x = np.column_stack([np.asarray(pc1_scores, dtype=float), sub.columns(cols[1:])])
    else:
        x = sub.columns(cols)
    if "frax_prob" in cols:
        missing = sub.missing_frax()
        if missing:
            raise DataError(f"subject {missing[0]}: frax_prob missing but required")
    return x, sub.labels(), cols
