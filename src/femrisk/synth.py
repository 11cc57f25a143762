"""Seeded synthetic cohort generator.

Each (sex x fracture-status) group is calibrated to target means and SDs
for age, height, weight and the twelve FE parameters.  Within a group, the
FE parameters share one latent "strength" factor so the generated cohort
shows a dominant first principal component; the factor is shifted downward
for fracture groups and drives aBMD_CT and a simulated FRAX score.

Generation is per-subject seeded: the output is a pure function of
(spec, seed) and invariant to generation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import sqrt

import numpy as np

from .datamodel import COLUMN_INDEX, FE12, LOAD_CASE_PARAMS, TABLE_COLUMNS, Cohort
from .errors import DataError, malformed, read_json, require_finite

GROUPS = ("male_control", "male_fx", "female_control", "female_fx")
GROUP_SEX = {"male_control": "M", "male_fx": "M",
             "female_control": "F", "female_fx": "F"}
GROUP_FX = {"male_control": 0, "male_fx": 1, "female_control": 0, "female_fx": 1}

CONTINUOUS_VARS = ("age", "height", "weight") + FE12


def _check_moments(target: dict, what: str) -> None:
    """A {"mean", "sd"} target: finite numbers, SD positive."""
    require_finite(target["mean"], f"{what} mean")
    require_finite(target["sd"], f"{what} SD")
    if target["sd"] <= 0:
        raise DataError(f"{what}: SD must be positive")


def _floor(floor_frac: float, mean: float) -> float:
    """The value below which _draw_group truncates a variable's draws."""
    return max(floor_frac * mean, 1e-6)


@dataclass(frozen=True)
class CohortSpec:
    """A cohort spec document; every value _draw_group reads is checked here."""

    doc: dict

    def __post_init__(self):
        g = self.doc.get("groups", {})
        if set(g) != set(GROUPS):
            raise DataError(f"spec must define exactly the groups {GROUPS}")
        for name, grp in g.items():
            n = grp["n"]
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                raise DataError(f"group {name}: n must be an integer >= 2, got {n!r}")
            for var in CONTINUOUS_VARS:
                if var not in grp["variables"]:
                    raise DataError(f"group {name}: missing variable {var}")
                _check_moments(grp["variables"][var], f"group {name}/{var}")
        for var, l in self.doc["loadings"].items():
            if var not in CONTINUOUS_VARS:
                raise DataError(f"loading for unknown variable {var!r}")
            if not 0.0 < l < 1.0:
                raise DataError(f"loading for {var} must be in (0, 1)")
        ab = self.doc["abmd_ct"]
        for sex in ("male", "female"):
            _check_moments(ab[sex], f"abmd_ct {sex}")
        require_finite(ab["loading"], "abmd_ct loading")
        if not -1.0 <= ab["loading"] <= 1.0:
            raise DataError("abmd_ct loading must be in [-1, 1]")
        require_finite(self.doc["fx_factor_shift"], "fx_factor_shift")
        for kind in ("control", "fx"):
            require_finite(self.doc["bmdmed_p"][kind], f"bmdmed_p {kind}")
            if not 0.0 <= self.doc["bmdmed_p"][kind] <= 1.0:
                raise DataError(f"bmdmed_p {kind} must be in [0, 1]")
        fr = self.doc.get("frax", {})
        if not isinstance(fr, dict):
            raise DataError(f"frax must be an object, got {fr!r}")
        if fr.get("enabled", False):
            for key in ("age_coef", "noise_sd", "offset", "scale"):
                require_finite(fr[key], f"frax {key}")
        # healstat is drawn as Generator.choice(5, p=probs) draws it, so the
        # probabilities must be ones choice accepts.
        for kind in ("control", "fx"):
            probs = self.doc["healstat_probs"][kind]
            p = np.asarray(probs, dtype=float)
            if p.shape != (5,) or not np.all(p >= 0) or not abs(p.sum() - 1.0) <= 1.5e-8:
                raise DataError(f"healstat_probs {kind}: need 5 non-negative "
                                f"probabilities summing to 1, got {probs}")
        floor_frac = self.doc.get("floor_frac", 0.01)
        require_finite(floor_frac, "floor_frac")
        # A floor at or above the mean truncates at least half of the draws,
        # so the sample cannot match its target.
        for name, grp in g.items():
            for var in CONTINUOUS_VARS:
                mean = grp["variables"][var]["mean"]
                floor = _floor(floor_frac, mean)
                if floor >= mean:
                    raise DataError(f"group {name}/{var}: truncation floor {floor:g} "
                                    f"is not below the mean {mean:g}")

    @property
    def groups(self) -> dict:
        return self.doc["groups"]


def default_spec() -> CohortSpec:
    """The shipped spec with the reference group statistics embedded."""
    text = resources.files("femrisk.data").joinpath("table1_default.json").read_text()
    return CohortSpec(json.loads(text))


def load_spec(path) -> CohortSpec:
    doc = read_json(path, "spec")
    with malformed("spec"):
        return CohortSpec(doc)


def _mix_seed(seed: int, group_idx: int, subj_idx: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed & 0xFFFFFFFFFFFFFFFF,
                               spawn_key=(group_idx, subj_idx)))


def _draw_group(spec: CohortSpec, group: str, group_idx: int, n: int,
                seed: int) -> tuple[np.ndarray, list[str]]:
    """Table rows and ids of the group's first n subjects.

    Subject i draws from its own stream _mix_seed(seed, group_idx, i), in
    this order: z0 and one normal per CONTINUOUS_VARS entry, a uniform for
    healstat and one for bmdmed, the aBMD normal, then the FRAX normal when
    FRAX is enabled.  The arithmetic runs on all n subjects at once.
    """
    doc = spec.doc
    grp = doc["groups"][group]
    fx = GROUP_FX[group]
    sex = GROUP_SEX[group]
    floor_frac = doc.get("floor_frac", 0.01)
    fr = doc.get("frax", {})
    n_tail = 2 if fr.get("enabled", False) else 1

    rngs = [_mix_seed(seed, group_idx, si) for si in range(n)]
    z = np.array([rng.standard_normal(1 + len(CONTINUOUS_VARS)) for rng in rngs])
    u = np.array([rng.random(2) for rng in rngs])
    tail = np.array([rng.standard_normal(n_tail) for rng in rngs])

    z0 = z[:, 0]
    col = {}
    for j, var in enumerate(CONTINUOUS_VARS, start=1):
        tgt = grp["variables"][var]
        loading = doc["loadings"].get(var, 0.0)
        v = tgt["mean"] + tgt["sd"] * (loading * z0 + sqrt(1.0 - loading**2) * z[:, j])
        col[var] = np.maximum(v, _floor(floor_frac, tgt["mean"]))

    # Enforce yield <= ultimate per load case by ordering the drawn pair.
    for yname, uname, _e in LOAD_CASE_PARAMS.values():
        col[yname], col[uname] = (np.minimum(col[yname], col[uname]),
                                  np.maximum(col[yname], col[uname]))

    # rng.choice(5, p=probs) on the first uniform, as Generator.choice does it.
    cdf = np.cumsum(doc["healstat_probs"]["fx" if fx else "control"], dtype=float)
    cdf /= cdf[-1]
    col["healstat"] = cdf.searchsorted(u[:, 0], side="right") + 1.0
    col["bmdmed"] = (u[:, 1] < doc["bmdmed_p"]["fx" if fx else "control"]).astype(float)

    # Shifted strength factor: lower for fracture groups; drives aBMD/FRAX.
    zf = z0 + doc["fx_factor_shift"] * fx
    ab = doc["abmd_ct"]["male" if sex == "M" else "female"]
    l_a = doc["abmd_ct"]["loading"]
    abmd = ab["mean"] + ab["sd"] * (l_a * zf + sqrt(1.0 - l_a**2) * tail[:, 0])
    col["abmd_ct"] = np.maximum(abmd, 0.05)

    col["frax_prob"] = np.full(n, np.nan)
    if n_tail == 2:
        age_tgt = grp["variables"]["age"]
        age_z = (col["age"] - age_tgt["mean"]) / age_tgt["sd"]
        risk = -zf + fr["age_coef"] * age_z + fr["noise_sd"] * tail[:, 1]
        eta = fr["offset"] + fr["scale"] * risk
        # exp overflows to inf for a large scale, and 1 / inf is the 0 wanted.
        with np.errstate(over="ignore"):
            col["frax_prob"] = 1.0 / (1.0 + np.exp(-eta))

    col["sex"] = np.full(n, 1.0 if sex == "M" else 0.0)
    col["fx"] = np.full(n, float(fx))
    table = np.column_stack([col[name] for name in TABLE_COLUMNS])
    return table, [f"{group}_{si:05d}" for si in range(n)]


def generate_cohort(spec: CohortSpec, seed: int) -> Cohort:
    """Generate a cohort of spec.groups[group]["n"] subjects per group."""
    tables, ids = [], []
    for gi, group in enumerate(GROUPS):
        table, group_ids = _draw_group(spec, group, gi, spec.groups[group]["n"], seed)
        tables.append(table)
        ids += group_ids
    return Cohort(np.concatenate(tables), ids)


@dataclass(frozen=True)
class CalibrationCell:
    group: str
    variable: str
    z_mean: float
    sd_ratio: float
    flagged: bool


def calibration_check(cohort: Cohort, spec: CohortSpec) -> list[CalibrationCell]:
    """Per-(group, variable) z-scores of sample means and SD ratios; a cell
    is flagged when |z| > 4 or the SD ratio lies outside [0.7, 1.4]."""
    out = []
    sex, fx = cohort.columns(["sex", "fx"]).T
    for group in GROUPS:
        members = (sex == (1.0 if GROUP_SEX[group] == "M" else 0.0)) & (fx == GROUP_FX[group])
        n = int(members.sum())
        if not n:
            raise DataError(f"empty group {group}")
        for var in CONTINUOUS_VARS:
            tgt = spec.groups[group]["variables"][var]
            sample = cohort.table[members, COLUMN_INDEX[var]]
            se = tgt["sd"] / sqrt(n)
            z = (sample.mean() - tgt["mean"]) / se
            ratio = sample.std(ddof=1) / tgt["sd"]
            flagged = abs(z) > 4.0 or not 0.7 <= ratio <= 1.4
            out.append(CalibrationCell(group=group, variable=var,
                                       z_mean=float(z), sd_ratio=float(ratio),
                                       flagged=flagged))
    return out
