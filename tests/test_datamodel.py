import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femrisk.datamodel import (COHORT_HEADER, FE9, FE12, derive_dxa_abmd, feature_columns, invalid_row,
                               load_cohort, save_cohort, standardize_apply,
                               standardize_fit)
from femrisk.errors import DataError
from femrisk.evaluate import (build_feature_matrix, fe9_matrix, mix_seed,
                              stratified_split_indices)
from femrisk.stats import fit_pca, risk_index

from conftest import make_cohort, make_row


# (column, bad value, message): one case or more per rule of a cohort row.
RULE_CASES = [
    ("Lu", 0.0, "FE parameter Lu must be finite and positive, got 0.0"),
    ("Senergy", np.inf, "FE parameter Senergy must be finite and positive, got inf"),
    ("Sy", 9500.0, "yield exceeds ultimate for stance load case (Sy=9500.0 > Su=9000.0)"),
    ("Py", 3400.0, "yield exceeds ultimate for posterior load case (Py=3400.0 > Pu=3300.0)"),
    ("PLy", 3300.0,
     "yield exceeds ultimate for posterolateral load case (PLy=3300.0 > PLu=3200.0)"),
    ("Ly", 3300.0, "yield exceeds ultimate for lateral load case (Ly=3300.0 > Lu=3250.0)"),
    ("sex", 0.5, "sex must be 1 (M) or 0 (F), got 0.5"),
    ("age", -1.0, "age must be positive, got -1.0"),
    ("height", 0.0, "height must be positive, got 0.0"),
    ("weight", np.nan, "weight must be positive, got nan"),
    ("healstat", 0, "healstat must be in 1..5, got 0"),
    ("healstat", 6, "healstat must be in 1..5, got 6"),
    ("healstat", 2.5, "healstat must be in 1..5, got 2.5"),
    ("bmdmed", 2, "bmdmed must be 0 or 1, got 2"),
    ("abmd_ct", 0.0, "abmd_ct must be positive, got 0.0"),
    ("fx", 2, "fx must be 0 or 1, got 2"),
    ("fx", 0.7, "fx must be 0 or 1, got 0.7"),
    ("frax_prob", 1.5, "frax_prob must be in [0,1], got 1.5"),
    ("frax_prob", -np.inf, "frax_prob must be in [0,1], got -inf"),
]

# The rule cases a CSV cell can hold: a finite number, sex aside.
CSV_RULE_CASES = [case for case in RULE_CASES
                  if case[0] != "sex" and np.isfinite(case[1])]

# (CSV column, bad cell, message) for cells that are not values; the CLI
# tests take the malformed cells that once crashed or were truncated.
CSV_CASES = [
    ("sex", "X", "sex must be M or F, got 'X'"),
    ("height_cm", "", "non-numeric value '' in column height_cm"),
    ("frax_prob", "nan", "non-finite value 'nan' in column frax_prob"),
    ("age", "-5", "age must be positive, got -5.0"),
]


def write_cohort_csv(path, cells_by_line):
    """Four valid subjects s2..s5 on lines 2..5 of a cohort CSV, with the
    cells of cells_by_line ({line: {CSV column: text}}) replaced."""
    save_cohort(make_cohort({f"s{i}": {} for i in range(2, 6)}), path)
    lines = path.read_text().splitlines()
    for line_no, cells in cells_by_line.items():
        fields = lines[line_no - 1].split(",")
        for name, text in cells.items():
            fields[COHORT_HEADER.index(name)] = text
        lines[line_no - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestColumnValidator:
    @pytest.mark.parametrize("column,value,message", RULE_CASES,
                             ids=[f"{c}-{v}" for c, v, _ in RULE_CASES])
    def test_invalid_field_rejected(self, column, value, message):
        # Subjects b and c both break the rule; the first is named.
        rows = {"a": {}, "b": {column: value}, "c": {column: value}}
        with pytest.raises(DataError) as exc:
            make_cohort(rows)
        assert str(exc.value) == f"subject b: {message}"

    @pytest.mark.parametrize("column,value,message", CSV_RULE_CASES,
                             ids=[f"{c}-{v}" for c, v, _ in CSV_RULE_CASES])
    def test_rules_checked_on_load(self, tmp_path, column, value, message):
        p = tmp_path / "c.csv"
        name = {"height": "height_cm", "weight": "weight_kg"}.get(column, column)
        write_cohort_csv(p, {3: {name: str(value)}})
        with pytest.raises(DataError) as exc:
            load_cohort(p)
        assert str(exc.value) == f"line 3: {message}"

    @pytest.mark.parametrize("column,cell,message", CSV_CASES,
                             ids=[f"{c}-{v}" for c, v, _ in CSV_CASES])
    def test_bad_cell_names_its_line(self, tmp_path, column, cell, message):
        p = tmp_path / "c.csv"
        write_cohort_csv(p, {4: {column: cell}})
        with pytest.raises(DataError) as exc:
            load_cohort(p)
        assert str(exc.value) == f"line 4: {message}"

    @pytest.mark.parametrize("first,second", [
        ({"age": "-5"}, {"fx": "3"}),
        ({"age": "-5"}, {"fx": "abc"}),
        ({"fx": "abc"}, {"age": "-5"}),
    ], ids=["rule_rule", "rule_unreadable", "unreadable_rule"])
    def test_earlier_of_two_bad_lines_named(self, tmp_path, first, second):
        p = tmp_path / "c.csv"
        write_cohort_csv(p, {3: first, 5: second})
        with pytest.raises(DataError, match="^line 3: "):
            load_cohort(p)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "c.csv"
        write_cohort_csv(p, {4: {"healstat": "7"}})
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:2] + ["", " , ", ""] + lines[2:]) + "\n")
        assert p.read_text().splitlines()[6].startswith("s4,")
        with pytest.raises(DataError) as exc:
            load_cohort(p)
        assert str(exc.value) == "line 7: healstat must be in 1..5, got 7"

    def test_field_count(self, tmp_path):
        p = tmp_path / "c.csv"
        write_cohort_csv(p, {})
        p.write_text(p.read_text() + "s6,M,70\n")
        with pytest.raises(DataError, match="^line 6: expected 22 fields, got 3$"):
            load_cohort(p)

    @pytest.mark.parametrize("cells,message", [
        ({4: {"id": ""}}, "line 4: empty subject id"),
        ({4: {"id": "  "}}, "line 4: empty subject id"),
        ({5: {"id": "s3"}}, "line 5: duplicate subject id 's3', first on line 3"),
        ({4: {"id": " s2 "}}, "line 4: duplicate subject id 's2', first on line 2"),
        ({3: {"age": "-5"}, 5: {"id": "s2"}}, "line 3: age must be positive, got -5.0"),
    ], ids=["empty", "blank", "duplicate", "duplicate_padded", "earlier_rule"])
    def test_subject_ids_non_empty_and_unique(self, tmp_path, cells, message):
        p = tmp_path / "c.csv"
        write_cohort_csv(p, cells)
        with pytest.raises(DataError) as exc:
            load_cohort(p)
        assert str(exc.value) == message

    def test_fe_parameters_alone(self):
        fe = make_row()[None, :len(FE12)]
        assert invalid_row(fe, FE12) is None
        fe[0, FE12.index("Pu")] = -1.0
        assert invalid_row(fe, FE12) == (0, "FE parameter Pu must be finite and positive, got -1.0")


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
            load_cohort(p)

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            load_cohort("/nonexistent/cohort.csv")

    def test_missing_frax_round_trips_as_none(self, tmp_path):
        p = tmp_path / "d.csv"
        save_cohort(make_cohort({"s1": {}}), p)
        back = load_cohort(p)
        assert np.isnan(back.columns(["frax_prob"])[0, 0])
        assert back.missing_frax() == ["s1"]


class TestCohortViews:
    def test_stratum_and_labels(self, small_cohort):
        males = small_cohort.stratum("male")
        assert np.all(males.columns(["sex"]) == 1.0)
        assert set(small_cohort.labels()) == {0, 1}
        assert small_cohort.stratum("all") is small_cohort

    def test_subset_preserves_order(self, small_cohort):
        sub = small_cohort.subset([3, 1, 2])
        ids = small_cohort.ids.tolist()
        assert sub.ids.tolist() == [ids[3], ids[1], ids[2]]


class TestStandardization:
    def test_round_trip(self, rng):
        x = rng.normal(size=(30, 4)) * [1, 10, 0.1, 5] + [2, -3, 0, 100]
        params = standardize_fit(x)
        z = standardize_apply(params, x)
        np.testing.assert_allclose(z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1, atol=1e-12)
        np.testing.assert_allclose(z * params.sd + params.mean, x, atol=1e-10)

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


# The columns of every feature set: its leading columns, then abmd_ct and
# the covariates, without sex in a single-sex stratum.
LEADING_COLUMNS = {
    "ABMD_COV": [],
    "PC1_ABMD_COV": ["pc1"],
    "FE9_ABMD_COV": ["Sy", "Su", "Senergy", "Py", "Pu", "PLy", "PLu", "Ly", "Lu"],
    "Sy_ABMD_COV": ["Sy"], "Su_ABMD_COV": ["Su"], "Senergy_ABMD_COV": ["Senergy"],
    "Py_ABMD_COV": ["Py"], "Pu_ABMD_COV": ["Pu"], "PLy_ABMD_COV": ["PLy"],
    "PLu_ABMD_COV": ["PLu"], "Ly_ABMD_COV": ["Ly"], "Lu_ABMD_COV": ["Lu"],
}
COVARIATE_COLUMNS = {
    "all": ["abmd_ct", "age", "sex", "height", "weight", "healstat", "bmdmed"],
    "male": ["abmd_ct", "age", "height", "weight", "healstat", "bmdmed"],
    "female": ["abmd_ct", "age", "height", "weight", "healstat", "bmdmed"],
}
EXPECTED_COLUMNS = {
    **{(name, stratum): lead + cov for name, lead in LEADING_COLUMNS.items()
       for stratum, cov in COVARIATE_COLUMNS.items()},
    **{("FRAX_ONLY", stratum): ["frax_prob"] for stratum in COVARIATE_COLUMNS},
}


class TestFeatureSets:
    def test_parse_known(self):
        assert feature_columns("ABMD_COV", "all")[0] == "abmd_ct"
        assert feature_columns("Su_ABMD_COV", "all")[0] == "Su"

    def test_parse_unknown(self):
        # The old internal kind name and an FE12 parameter outside FE9 too.
        for name in ("nonsense", "", "SINGLE_FE_ABMD_COV", "Penergy_ABMD_COV",
                     "abmd_cov", "PC1_ABMD_COV ", "Su", "FRAX"):
            for stratum in ("all", "male", "female"):
                with pytest.raises(DataError) as got:
                    feature_columns(name, stratum)
                assert str(got.value) == f"unknown feature set {name!r}"

    @pytest.mark.parametrize("name,stratum", list(EXPECTED_COLUMNS),
                             ids=[f"{n}-{s}" for n, s in EXPECTED_COLUMNS])
    def test_columns_of_every_name_and_stratum(self, name, stratum):
        assert feature_columns(name, stratum) == EXPECTED_COLUMNS[name, stratum]

    def test_sex_dropped_in_single_sex_stratum(self):
        assert "sex" in feature_columns("ABMD_COV", "all")
        assert "sex" not in feature_columns("ABMD_COV", "male")

    def test_matrix_shapes_and_encoding(self, small_cohort, tmp_path):
        cols = feature_columns("ABMD_COV", "all")
        rows = np.arange(len(small_cohort))[None]
        x = build_feature_matrix(small_cohort, cols, rows, rows[:, :0], None)[0][0]
        assert x.shape == (len(small_cohort), len(cols))
        j = cols.index("sex")
        sexes = np.array([1.0 if r["sex"] == "M" else 0.0
                          for r in csv_records(small_cohort, tmp_path / "c.csv")])
        np.testing.assert_array_equal(x[:, j], sexes)

    def test_fe9_is_nine_params(self):
        assert len(FE9) == 9
        assert set(FE9) < set(FE12)


STRATA = ("all", "male", "female")
EVERY_FEATURE_SET = ["ABMD_COV", "PC1_ABMD_COV", "FE9_ABMD_COV", "FRAX_ONLY"]
EVERY_FEATURE_SET += [f"{p}_ABMD_COV" for p in FE9]


def csv_records(cohort, path):
    """The subjects as the CSV rows save_cohort writes, one dict of strings
    per subject."""
    save_cohort(cohort, path)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def reference_feature_matrix(records, feature_set, stratum, pc1_scores):
    """Per-record assembly from CSV rows: one Python value per (subject, column)."""
    sex = {"male": "M", "female": "F"}.get(stratum)
    records = [r for r in records if sex is None or r["sex"] == sex]
    cols = feature_columns(feature_set, stratum)
    field = {"height": "height_cm", "weight": "weight_kg"}

    def value(i, r, col):
        if col == "pc1":
            return float(pc1_scores[i])
        if col == "sex":
            return 1.0 if r["sex"] == "M" else 0.0
        return float(r[field.get(col, col)])

    x = np.array([[value(i, r, c) for c in cols] for i, r in enumerate(records)])
    return x, np.array([int(r["fx"]) for r in records]), cols


def cohort_views(cohort, stratum):
    """The cohort, a shuffled subset of it, and a subset of its stratum."""
    rng = np.random.default_rng(5)
    sub = cohort.stratum(stratum)
    return [cohort,
            cohort.subset(rng.permutation(len(cohort))[:70]),
            sub.subset(np.sort(rng.choice(len(sub), size=len(sub) // 2, replace=False)))]


class TestColumnarAssembly:
    @pytest.mark.parametrize("stratum", STRATA)
    @pytest.mark.parametrize("feature_set", EVERY_FEATURE_SET)
    def test_matches_per_record_reference(self, small_cohort, feature_set, stratum,
                                          tmp_path):
        # Every row trains; the test side is the same rows shuffled.  PC1 is
        # risk_index on a PCA of every row, given or fit by the builder.
        rng = np.random.default_rng(8)
        for view in cohort_views(small_cohort, stratum):
            sub = view.stratum(stratum)
            pca = fit_pca(fe9_matrix(sub))
            x_ref, y_ref, cols_ref = reference_feature_matrix(
                csv_records(view, tmp_path / "view.csv"), feature_set, stratum,
                risk_index(pca, fe9_matrix(sub)))
            assert feature_columns(feature_set, stratum) == cols_ref
            np.testing.assert_array_equal(sub.labels(), y_ref)
            rows = np.arange(len(sub))
            perm = rng.permutation(len(sub))
            for given_pca in (pca, None):
                x_tr, x_te = build_feature_matrix(sub, feature_columns(feature_set, stratum),
                                                  rows[None], perm[None], given_pca)
                np.testing.assert_array_equal(x_tr[0], x_ref)
                np.testing.assert_array_equal(x_te[0], x_ref[perm])
                # Downstream reductions depend on memory order; keep it row-major.
                assert x_tr[0].flags.c_contiguous and x_te[0].flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(stratum=st.sampled_from(STRATA),
           feature_set=st.sampled_from(EVERY_FEATURE_SET),
           fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2**64 - 1),
           n_splits=st.integers(1, 6), stored_pca=st.booleans())
    def test_block_rows_equal_one_split_calls(self, small_cohort, stratum, feature_set,
                                              fraction, seed, n_splits, stored_pca):
        # What lets the split loop fit a block at once: row i of the block's
        # stacks is what the one-split call on split i builds, fold PCA too.
        sub = small_cohort.stratum(stratum)
        y = sub.labels()
        splits = [stratified_split_indices(y, fraction, mix_seed(seed, i, 0))
                  for i in range(n_splits)]
        tr, te = (np.stack(side) for side in zip(*splits))
        pca = fit_pca(fe9_matrix(sub)) if stored_pca else None
        cols = feature_columns(feature_set, stratum)
        block = build_feature_matrix(sub, cols, tr, te, pca)
        for i in range(n_splits):
            one = build_feature_matrix(sub, cols, tr[i:i + 1], te[i:i + 1], pca)
            for got, want in zip(block, one):
                np.testing.assert_array_equal(got[i], want[0])

    @pytest.mark.parametrize("stratum", STRATA)
    def test_fe9_matrix_matches_records(self, small_cohort, stratum, tmp_path):
        for view in cohort_views(small_cohort, stratum):
            got = fe9_matrix(view)
            records = csv_records(view, tmp_path / "view.csv")
            np.testing.assert_array_equal(got, [[float(r[c]) for c in FE9] for r in records])
            assert got.flags.c_contiguous

    def test_table_same_from_records_and_csv(self, small_cohort, tmp_path):
        p = tmp_path / "c.csv"
        save_cohort(small_cohort, p)
        back = load_cohort(p)
        np.testing.assert_array_equal(back.table, small_cohort.table)
        assert back.ids.tolist() == small_cohort.ids.tolist()

    def test_stratum_of_a_stratum_is_itself(self, small_cohort):
        males = small_cohort.stratum("male")
        assert males.stratum("male") is males
        assert len(males.stratum("female")) == 0

    def test_missing_frax_names_the_subject(self):
        cohort = make_cohort({"a": {"frax_prob": 0.2}, "b7": {}, "c": {}})
        rows = np.arange(3)[None]
        with pytest.raises(DataError, match="subject b7: frax_prob missing"):
            build_feature_matrix(cohort, feature_columns("FRAX_ONLY", "male"),
                                 rows[:, :2], rows[:, 2:], None)
