import json
import warnings
from math import sqrt

import numpy as np
import pytest
from conftest import sized_spec
from hypothesis import given, settings, strategies as st

from femrisk.cli import dispatch
from femrisk.datamodel import FE12, LOAD_CASE_PARAMS, save_cohort
from femrisk.errors import DataError
from femrisk.synth import (CONTINUOUS_VARS, GROUP_FX, GROUP_SEX, CohortSpec,
                           calibration_check, default_spec, generate_cohort,
                           load_spec)

GROUPS = ("male_control", "male_fx", "female_control", "female_fx")


def reference_draw_subject(spec, group, group_idx, subj_idx, seed):
    """Scalar draws and arithmetic for one subject, as the CSV line that
    save_cohort writes for it."""
    doc = spec.doc
    grp = doc["groups"][group]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed & 0xFFFFFFFFFFFFFFFF,
                               spawn_key=(group_idx, subj_idx)))
    fx = GROUP_FX[group]
    sex = GROUP_SEX[group]
    floor_frac = doc.get("floor_frac", 0.01)

    z0 = rng.standard_normal()
    vals = {}
    for var in CONTINUOUS_VARS:
        tgt = grp["variables"][var]
        loading = doc["loadings"].get(var, 0.0)
        eps = rng.standard_normal()
        v = tgt["mean"] + tgt["sd"] * (loading * z0 + sqrt(1.0 - loading**2) * eps)
        floor = max(floor_frac * tgt["mean"], 1e-6)
        vals[var] = max(v, floor)

    for _, (yname, uname, _e) in LOAD_CASE_PARAMS.items():
        lo, hi = sorted((vals[yname], vals[uname]))
        vals[yname], vals[uname] = lo, hi

    hs_probs = doc["healstat_probs"]["fx" if fx else "control"]
    healstat = int(rng.choice(5, p=hs_probs)) + 1
    bmdmed = int(rng.random() < doc["bmdmed_p"]["fx" if fx else "control"])

    zf = z0 + doc["fx_factor_shift"] * fx
    ab = doc["abmd_ct"]["male" if sex == "M" else "female"]
    l_a = doc["abmd_ct"]["loading"]
    abmd = ab["mean"] + ab["sd"] * (l_a * zf + sqrt(1.0 - l_a**2) * rng.standard_normal())
    abmd = max(abmd, 0.05)

    frax = ""
    fr = doc.get("frax", {})
    if fr.get("enabled", False):
        age_tgt = grp["variables"]["age"]
        age_z = (vals["age"] - age_tgt["mean"]) / age_tgt["sd"]
        risk = -zf + fr["age_coef"] * age_z + fr["noise_sd"] * rng.standard_normal()
        eta = fr["offset"] + fr["scale"] * risk
        with np.errstate(over="ignore"):
            frax = repr(float(1.0 / (1.0 + np.exp(-eta))))

    fields = [f"{group}_{subj_idx:05d}", sex,
              repr(float(vals["age"])), repr(float(vals["height"])),
              repr(float(vals["weight"])), str(healstat), str(bmdmed),
              repr(float(abmd)), str(fx)]
    fields += [repr(float(vals[name])) for name in FE12]
    return ",".join(fields + [frax])


def column(cohort, name):
    return cohort.columns([name])[:, 0]


class TestSpec:
    def test_default_group_sizes(self):
        spec = default_spec()
        sizes = {g: spec.groups[g]["n"] for g in GROUPS}
        assert sizes == {"male_control": 92, "male_fx": 42,
                         "female_control": 143, "female_fx": 68}

    def test_load_spec_round_trip(self, tmp_path):
        spec = default_spec()
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec.doc))
        assert load_spec(p).doc == spec.doc

    def test_invalid_loading_rejected(self):
        doc = json.loads(json.dumps(default_spec().doc))
        doc["loadings"]["Su"] = 1.2
        with pytest.raises(DataError):
            CohortSpec(doc)

    @pytest.mark.parametrize("probs", [[0.2, 0.2, 0.2, 0.2, 0.1], [0.25] * 4,
                                       [0.5, 0.5, 0.2, -0.2, 0.0], [0.2] * 4 + [float("nan")]])
    def test_invalid_healstat_probs_rejected(self, probs):
        doc = json.loads(json.dumps(default_spec().doc))
        doc["healstat_probs"]["fx"] = probs
        with pytest.raises(DataError, match="^healstat_probs fx: need 5 non-negative"):
            CohortSpec(doc)

    def test_missing_group_rejected(self):
        doc = json.loads(json.dumps(default_spec().doc))
        del doc["groups"]["male_fx"]
        with pytest.raises(DataError):
            CohortSpec(doc)


class TestGeneration:
    def test_default_counts(self, full_cohort):
        assert len(full_cohort) == 345
        by = {}
        for sex, fx in full_cohort.columns(["sex", "fx"]).tolist():
            key = ("M" if sex == 1.0 else "F", int(fx))
            by[key] = by.get(key, 0) + 1
        assert by == {("M", 0): 92, ("M", 1): 42, ("F", 0): 143, ("F", 1): 68}

    def test_same_seed_identical_csv(self, tmp_path):
        spec = default_spec()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_cohort(generate_cohort(spec, seed=3), p1)
        save_cohort(generate_cohort(spec, seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        spec = default_spec()
        a = generate_cohort(spec, seed=1)
        b = generate_cohort(spec, seed=2)
        assert column(a, "Su")[0] != column(b, "Su")[0]

    def test_yield_never_exceeds_ultimate(self, full_cohort):
        for y, u, _ in LOAD_CASE_PARAMS.values():
            assert np.all(column(full_cohort, y) <= column(full_cohort, u))

    def test_per_subject_seeding_is_order_invariant(self):
        # Shrinking one group leaves every other group's draws untouched.
        spec = default_spec()
        full = generate_cohort(spec, seed=9)
        small = generate_cohort(sized_spec({"male_control": 5}), seed=9)
        full_f = column(full.stratum("female"), "Su")
        small_f = column(small.stratum("female"), "Su")
        assert full_f.tolist() == small_f.tolist()

    def test_frax_present_and_valid(self, full_cohort):
        frax = column(full_cohort, "frax_prob")
        assert not full_cohort.missing_frax()
        assert np.all((frax >= 0) & (frax <= 1))

    def test_fracture_groups_weaker_on_average(self, full_cohort):
        for stratum in ("male", "female"):
            sub = full_cohort.stratum(stratum)
            fx = column(sub, "abmd_ct")[sub.labels() == 1]
            ctrl = column(sub, "abmd_ct")[sub.labels() == 0]
            assert np.mean(fx) < np.mean(ctrl)


    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**64 - 1),
           sizes=st.dictionaries(st.sampled_from(GROUPS), st.integers(2, 12)),
           frax=st.booleans())
    def test_rows_match_scalar_reference(self, tmp_path_factory, seed, sizes, frax):
        # Each subject draws from its own stream; the arrays must give every
        # CSV line the scalar draws and arithmetic give it, byte for byte.
        doc = json.loads(json.dumps(default_spec().doc))
        doc["frax"]["enabled"] = frax
        spec = sized_spec(sizes, CohortSpec(doc))
        path = tmp_path_factory.mktemp("synth") / "cohort.csv"
        save_cohort(generate_cohort(spec, seed), path)
        want = [reference_draw_subject(spec, group, gi, si, seed)
                for gi, group in enumerate(GROUPS)
                for si in range(spec.groups[group]["n"])]
        assert path.read_text().splitlines()[1:] == want

    def test_large_frax_scale_runs_without_warning(self, tmp_path, capsys):
        # exp(-eta) overflows to inf for the low-risk subjects; their FRAX
        # probability is 1 / inf = 0, and nothing is printed about it.
        doc = json.loads(json.dumps(default_spec().doc))
        doc["frax"]["scale"] = 1e6
        spec, out = tmp_path / "spec.json", tmp_path / "c.csv"
        spec.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["synth", "--spec", str(spec), "--seed", "3",
                             "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        want = [reference_draw_subject(CohortSpec(doc), group, gi, si, 3)
                for gi, group in enumerate(GROUPS)
                for si in range(doc["groups"][group]["n"])]
        lines = out.read_text().splitlines()[1:]
        assert lines == want
        assert any(line.endswith(",0.0") for line in lines)


class TestCalibration:
    def test_large_cohort_no_flags(self):
        spec = sized_spec({g: 2000 for g in GROUPS})
        cohort = generate_cohort(spec, seed=1)
        cells = calibration_check(cohort, spec)
        assert not any(c.flagged for c in cells)

    def test_planted_mean_shift_flagged(self):
        spec = default_spec()
        doc = json.loads(json.dumps(spec.doc))
        target = doc["groups"]["male_control"]["variables"]["weight"]
        target["mean"] += 10 * target["sd"]
        shifted = CohortSpec(doc)
        cohort = generate_cohort(sized_spec({g: 200 for g in GROUPS}), seed=1)
        cells = calibration_check(cohort, shifted)
        bad = [c for c in cells
               if c.group == "male_control" and c.variable == "weight"]
        assert bad and bad[0].flagged

    def test_empty_group_rejected(self):
        with pytest.raises(DataError, match="^group male_fx: n must be an integer >= 2"):
            sized_spec({"male_fx": 0})
