import numpy as np
import pytest

from femrisk.datamodel import (FE9, FE12, Cohort, FeParameterSet,
                               FeatureSet, SubjectRecord, build_feature_matrix,
                               derive_dxa_abmd, feature_columns, load_cohort,
                               save_cohort, standardize_apply, standardize_fit,
                               standardize_invert)
from femrisk.errors import DataError
from femrisk.evaluate import fe9_matrix

from conftest import make_fe, make_record


class TestFeParameterSet:
    def test_yield_above_ultimate_rejected(self):
        kwargs = {n: 1000.0 for n in FE12}
        kwargs["Sy"] = 2000.0  # above Su
        with pytest.raises(DataError, match="yield exceeds ultimate"):
            FeParameterSet(**kwargs)

    def test_nonpositive_rejected(self):
        kwargs = {n: 1000.0 for n in FE12}
        kwargs["Lu"] = 0.0
        with pytest.raises(DataError, match="finite and positive"):
            FeParameterSet(**kwargs)

    def test_as_array_order(self):
        fe = make_fe()
        np.testing.assert_array_equal(fe.as_array(("Su", "Sy")),
                                      [fe.Su, fe.Sy])


class TestSubjectRecord:
    @pytest.mark.parametrize("field,value", [
        ("sex", "X"), ("age", -1.0), ("healstat", 0), ("healstat", 6),
        ("bmdmed", 2), ("abmd_ct", 0.0), ("fx", 2), ("frax_prob", 1.5),
    ])
    def test_invalid_field_rejected(self, field, value):
        good = dict(id="a", sex="F", age=70.0, height=160.0, weight=60.0,
                    healstat=3, bmdmed=1, abmd_ct=0.4, fx=1, fe=make_fe(),
                    frax_prob=0.1)
        good[field] = value
        with pytest.raises(DataError):
            SubjectRecord(**good)


class TestCohortIo:
    def test_round_trip_bytes(self, tmp_path, small_cohort):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_cohort(small_cohort, p1)
        save_cohort(load_cohort(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,sex\nx,M\n")
        with pytest.raises(DataError, match="header"):
            load_cohort(p)

    def test_strict_fails_on_bad_row(self, tmp_path, small_cohort):
        p = tmp_path / "c.csv"
        save_cohort(small_cohort, p)
        lines = p.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "-5"  # negative age
        lines[1] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_cohort(p, policy="strict")
        cohort = load_cohort(p, policy="drop_invalid")
        assert cohort.dropped_count == 1
        assert len(cohort) == len(small_cohort) - 1

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            load_cohort("/nonexistent/cohort.csv")

    def test_missing_frax_round_trips_as_none(self, tmp_path):
        from femrisk.datamodel import Cohort
        p = tmp_path / "d.csv"
        save_cohort(Cohort(records=(make_record(frax=None),)), p)
        back = load_cohort(p)
        assert back.records[0].frax_prob is None


class TestCohortViews:
    def test_stratum_and_labels(self, small_cohort):
        males = small_cohort.stratum("male")
        assert all(r.sex == "M" for r in males)
        assert set(small_cohort.labels()) == {0, 1}
        assert small_cohort.stratum("all") is small_cohort

    def test_subset_preserves_order(self, small_cohort):
        sub = small_cohort.subset([3, 1, 2])
        ids = [r.id for r in small_cohort.records]
        assert [r.id for r in sub.records] == [ids[3], ids[1], ids[2]]


class TestStandardization:
    def test_round_trip(self, rng):
        x = rng.normal(size=(30, 4)) * [1, 10, 0.1, 5] + [2, -3, 0, 100]
        params = standardize_fit(x)
        z = standardize_apply(params, x)
        np.testing.assert_allclose(z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1, atol=1e-12)
        np.testing.assert_allclose(standardize_invert(params, z), x, atol=1e-10)

    def test_constant_column_rejected(self):
        x = np.ones((10, 2))
        x[:, 0] = np.arange(10)
        with pytest.raises(DataError, match="constant"):
            standardize_fit(x)


class TestDerivedAbmd:
    def test_formula(self):
        assert derive_dxa_abmd(0.0) == pytest.approx(0.137, abs=1e-12)
        assert derive_dxa_abmd(0.5) == pytest.approx(0.599, abs=1e-12)

    def test_monotone(self):
        assert derive_dxa_abmd(0.6) > derive_dxa_abmd(0.5)


class TestFeatureSets:
    def test_parse_known(self):
        assert FeatureSet.parse("ABMD_COV").kind == "ABMD_COV"
        fs = FeatureSet.parse("Su_ABMD_COV")
        assert fs.kind == "SINGLE_FE_ABMD_COV" and fs.fe_param == "Su"

    def test_parse_unknown(self):
        with pytest.raises(DataError):
            FeatureSet.parse("nonsense")

    def test_sex_dropped_in_single_sex_stratum(self):
        fs = FeatureSet.parse("ABMD_COV")
        assert "sex" in feature_columns(fs, "all")
        assert "sex" not in feature_columns(fs, "male")

    def test_matrix_shapes_and_encoding(self, small_cohort):
        fs = FeatureSet.parse("ABMD_COV")
        x, y, cols = build_feature_matrix(small_cohort, fs, "all")
        assert x.shape == (len(small_cohort), len(cols))
        assert set(y) == {0, 1}
        j = cols.index("sex")
        sexes = np.array([1.0 if r.sex == "M" else 0.0
                          for r in small_cohort])
        np.testing.assert_array_equal(x[:, j], sexes)

    def test_pc1_requires_scores(self, small_cohort):
        fs = FeatureSet.parse("PC1_ABMD_COV")
        with pytest.raises(DataError):
            build_feature_matrix(small_cohort, fs, "all", None)

    def test_fe9_is_nine_params(self):
        assert len(FE9) == 9
        assert set(FE9) < set(FE12)


STRATA = ("all", "male", "female")
EVERY_FEATURE_SET = [FeatureSet.parse(n) for n in
                     ("ABMD_COV", "PC1_ABMD_COV", "FE9_ABMD_COV", "FRAX_ONLY")]
EVERY_FEATURE_SET += [FeatureSet("SINGLE_FE_ABMD_COV", p) for p in FE9]


def reference_feature_matrix(cohort, feature_set, stratum, pc1_scores):
    """Per-record assembly: one Python value per (subject, column)."""
    sex = {"male": "M", "female": "F"}.get(stratum)
    records = [r for r in cohort.records if sex is None or r.sex == sex]
    cols = feature_columns(feature_set, stratum)

    def value(i, r, col):
        if col == "pc1":
            return float(pc1_scores[i])
        if col == "sex":
            return 1.0 if r.sex == "M" else 0.0
        if col in FE12:
            return getattr(r.fe, col)
        return float(getattr(r, col))

    x = np.array([[value(i, r, c) for c in cols] for i, r in enumerate(records)])
    return x, np.array([r.fx for r in records]), cols


def cohort_views(cohort, stratum):
    """The cohort, a shuffled subset of it, and a subset of its stratum."""
    rng = np.random.default_rng(5)
    sub = cohort.stratum(stratum)
    return [cohort,
            cohort.subset(rng.permutation(len(cohort))[:70]),
            sub.subset(np.sort(rng.choice(len(sub), size=len(sub) // 2, replace=False)))]


class TestColumnarAssembly:
    @pytest.mark.parametrize("stratum", STRATA)
    @pytest.mark.parametrize("feature_set", EVERY_FEATURE_SET, ids=lambda f: f.name)
    def test_matches_per_record_reference(self, small_cohort, feature_set, stratum):
        rng = np.random.default_rng(8)
        for view in cohort_views(small_cohort, stratum):
            n = len(view.stratum(stratum))
            pc1 = rng.normal(size=n) if feature_set.kind == "PC1_ABMD_COV" else None
            x, y, cols = build_feature_matrix(view, feature_set, stratum, pc1)
            x_ref, y_ref, cols_ref = reference_feature_matrix(view, feature_set, stratum, pc1)
            assert cols == cols_ref
            np.testing.assert_array_equal(x, x_ref)
            np.testing.assert_array_equal(y, y_ref)
            # Downstream reductions depend on memory order; keep it row-major.
            assert x.flags.c_contiguous

    @pytest.mark.parametrize("stratum", STRATA)
    def test_fe9_matrix_matches_records(self, small_cohort, stratum):
        for view in cohort_views(small_cohort, stratum):
            got = fe9_matrix(view)
            np.testing.assert_array_equal(got, [r.fe.as_array(FE9) for r in view])
            assert got.flags.c_contiguous

    def test_table_same_from_records_and_csv(self, small_cohort, tmp_path):
        p = tmp_path / "c.csv"
        save_cohort(small_cohort, p)
        np.testing.assert_array_equal(load_cohort(p).table,
                                      Cohort(small_cohort.records).table)

    def test_stratum_of_a_stratum_is_itself(self, small_cohort):
        males = small_cohort.stratum("male")
        assert males.stratum("male") is males
        assert len(males.stratum("female")) == 0

    def test_missing_frax_names_the_subject(self):
        cohort = Cohort((make_record("a", frax=0.2), make_record("b7", frax=None),
                         make_record("c", frax=None)))
        with pytest.raises(DataError, match="subject b7: frax_prob missing"):
            build_feature_matrix(cohort, FeatureSet.parse("FRAX_ONLY"), "male")

    def test_pc1_set_without_scores_rejected(self):
        cohort = Cohort((make_record("a"), make_record("b", fx=1)))
        with pytest.raises(DataError, match="pc1 scores required"):
            build_feature_matrix(cohort, FeatureSet.parse("PC1_ABMD_COV"), "all")
