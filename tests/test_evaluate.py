import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femrisk.classifiers import KINDS, model_to_json
from femrisk.datamodel import COLUMN_INDEX, Cohort, feature_columns
from femrisk.errors import DataError
from femrisk.evaluate import (BLOCK, CvConfig, ResampleConfig, build_report,
                              cell_name, compare_with_frax, fe9_matrix,
                              fit_and_score, mix_seed, run_lgocv,
                              run_resample_comparison, stratified_split_indices)
from femrisk.stats import auc_mann_whitney, fit_pca, paired_one_sided_ttest

FS_PC1 = feature_columns("PC1_ABMD_COV", "all")
FS_ABMD = feature_columns("ABMD_COV", "all")
LOGIT = "logistic"


def feature_sets(*names, stratum="all"):
    """The split loop's {name: columns} for the named feature sets."""
    return {name: feature_columns(name, stratum) for name in names}


class TestMixSeed:
    def test_deterministic_and_order_sensitive(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1, 2, 3) != mix_seed(2, 2, 3)

    def test_64_bit_range(self):
        for s in (mix_seed(0, 0, 0), mix_seed(2 ** 64 - 1, 5)):
            assert 0 <= s < 2 ** 64


class TestStratifiedSplit:
    def test_class_counts_preserved(self):
        y = np.array([1] * 110 + [0] * 235)
        tr, te = stratified_split_indices(y, 0.8, seed=0)
        assert (y[tr] == 1).sum() == 88
        assert (y[tr] == 0).sum() == 188
        assert len(set(tr) & set(te)) == 0
        assert len(tr) + len(te) == 345

    def test_both_classes_on_both_sides(self):
        y = np.array([1, 1, 0, 0, 0])
        for seed in range(20):
            tr, te = stratified_split_indices(y, 0.8, seed)
            assert 0 < y[tr].sum() < 2 or y[tr].sum() == 1
            assert set(y[te]) <= {0, 1} and y[te].size >= 1
            assert y[tr].min() == 0 and y[tr].max() == 1

    @settings(max_examples=200)
    @given(n0=st.integers(2, 60), n1=st.integers(2, 60),
           order=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**64 - 1),
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_every_split_has_both_classes_on_both_sides(self, n0, n1, order,
                                                        seed, fraction):
        # Why the split loop never redraws: each class keeps at least one
        # member on each side, whatever the fraction.
        y = np.random.default_rng(order).permutation(np.repeat([0, 1], [n0, n1]))
        tr, te = stratified_split_indices(y, fraction, seed)
        assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(y.size))
        for side in (tr, te):
            assert set(y[side]) == {0, 1}

    def test_cohort_split_roundtrips(self, small_cohort):
        tr, te = stratified_split_indices(small_cohort.labels(), 0.75, seed=4)
        tr_c, te_c = small_cohort.subset(tr), small_cohort.subset(te)
        assert len(tr_c) + len(te_c) == len(small_cohort)
        ids = set(small_cohort.ids.tolist())
        assert set(tr_c.ids.tolist()) | set(te_c.ids.tolist()) == ids

    def test_tiny_class_rejected(self):
        with pytest.raises(DataError):
            stratified_split_indices(np.array([1, 0, 0]), 0.8, 0)


class TestNoLeakage:
    def test_held_out_rows_cannot_change_fit(self, small_cohort):
        tr, te = stratified_split_indices(small_cohort.labels(), 0.8, seed=1)
        _, _, model_a = fit_and_score(small_cohort, tr, te, FS_PC1, LOGIT)
        # Replace the test rows entirely, with training rows too; the trained
        # model must be identical because nothing may be fit on held-out data.
        _, _, model_b = fit_and_score(small_cohort, tr, tr[:10], FS_PC1, LOGIT)
        assert model_to_json(model_a) == model_to_json(model_b)


class TestLgocv:
    def test_shape_and_range(self, small_cohort):
        aucs = run_lgocv(small_cohort, feature_sets("PC1_ABMD_COV"), [LOGIT],
                         CvConfig(repeats=5, seed=2))["PC1_ABMD_COV|logistic"]
        assert aucs.shape == (5,)
        assert np.all((aucs >= 0) & (aucs <= 1))

    def test_deterministic(self, small_cohort):
        cfg = CvConfig(repeats=4, seed=7)
        sets = feature_sets("PC1_ABMD_COV")
        a = run_lgocv(small_cohort, sets, [LOGIT], cfg)["PC1_ABMD_COV|logistic"]
        b = run_lgocv(small_cohort, sets, [LOGIT], cfg)["PC1_ABMD_COV|logistic"]
        np.testing.assert_array_equal(a, b)


class TestSharedSplitLoop:
    @pytest.mark.parametrize("paper_mode", [False, True])
    def test_every_cell_matches_fit_and_score(self, small_cohort, paper_mode):
        # Both protocols score each cell on split i, drawn from
        # mix_seed(seed, i, 0), exactly as fit_and_score would on its own;
        # BLOCK + 3 resamples run one full stacked block and a partial one.
        # LDA and kNN AUCs move when PC1 comes from another PCA fit.
        stratum = "all"
        sets = feature_sets("PC1_ABMD_COV", "ABMD_COV", "FE9_ABMD_COV", "Lu_ABMD_COV",
                            stratum=stratum)
        sub = small_cohort.stratum(stratum)
        pca_full = fit_pca(fe9_matrix(sub)) if paper_mode else None
        cv = CvConfig(repeats=4, seed=21)
        rs = ResampleConfig(resamples=BLOCK + 3, seed=22)
        lgocv = run_lgocv(sub, sets, KINDS, cv, pca_full)
        res = run_resample_comparison(sub, sets, KINDS, rs, pca_full)
        names = [cell_name(fs, kind) for fs in sets for kind in KINDS]
        for cells, cfg, n_splits in ((lgocv, cv, cv.repeats), (res.cells, rs, rs.resamples)):
            assert list(cells) == names
            for i in range(n_splits):
                tr, te = stratified_split_indices(sub.labels(), cfg.train_fraction,
                                                  mix_seed(cfg.seed, i, 0))
                for fs, cols in sets.items():
                    for kind in KINDS:
                        scores, y_te, _ = fit_and_score(sub, tr, te, cols, kind, pca_full)
                        assert cells[cell_name(fs, kind)][i] == auc_mann_whitney(scores, y_te)

    def test_error_is_the_first_failing_cell_of_the_split_loop(self, small_cohort):
        # Subject 125 alone takes bone medication and subject 123 alone has
        # another Lu: a split that holds one of them out has a constant
        # training column in ABMD_COV (bmdmed, first at split 27) or in
        # Lu_ABMD_COV (Lu at split 14, bmdmed at 27).  Split by split, the
        # Lu cell fails first, although the ABMD cell comes first in a block.
        table = small_cohort.table.copy()
        rows = np.arange(len(table))
        table[:, COLUMN_INDEX["bmdmed"]] = rows == 125
        table[:, COLUMN_INDEX["Lu"]] = np.where(rows == 123, 2e6, 1e6)
        cohort = Cohort(table, small_cohort.ids)
        fs_lu = feature_columns("Lu_ABMD_COV", "all")
        cfg = ResampleConfig(resamples=BLOCK + 3, seed=5)
        y = cohort.labels()
        for i in range(cfg.resamples):
            tr, te = stratified_split_indices(y, cfg.train_fraction, mix_seed(cfg.seed, i, 0))
            try:
                for fs in (FS_ABMD, fs_lu):
                    fit_and_score(cohort, tr, te, fs, LOGIT)
            except DataError as exc:
                expected = str(exc)
                break
        assert expected == "constant column at index 0 (SD = 0)"
        with pytest.raises(DataError, match=r"^constant column at index 6 \(SD = 0\)$"):
            run_resample_comparison(cohort, feature_sets("ABMD_COV"), [LOGIT], cfg)
        with pytest.raises(DataError) as got:
            run_resample_comparison(cohort, feature_sets("ABMD_COV", "Lu_ABMD_COV"),
                                    [LOGIT], cfg)
        assert str(got.value) == expected


class TestResampling:
    def test_cells_share_splits_and_pairing_holds(self, small_cohort):
        cfg = ResampleConfig(resamples=30, seed=3)
        res = run_resample_comparison(small_cohort, feature_sets("PC1_ABMD_COV", "ABMD_COV"),
                                      [LOGIT], cfg)
        assert set(res.cells) == {"PC1_ABMD_COV|logistic", "ABMD_COV|logistic"}
        # Paired test on the shared splits must match a direct computation.
        key = "PC1_ABMD_COV|logistic>ABMD_COV|logistic"
        assert key in res.comparisons
        direct = paired_one_sided_ttest(res.cells["PC1_ABMD_COV|logistic"],
                                        res.cells["ABMD_COV|logistic"])
        assert res.comparisons[key].p == direct.p


class TestFraxComparison:
    def test_requires_frax(self, small_cohort):
        tr, te = stratified_split_indices(small_cohort.labels(), 0.8, seed=1)
        scores, _, _ = fit_and_score(small_cohort, tr, te, FS_PC1, LOGIT)
        result, roc_m, roc_f = compare_with_frax(small_cohort.subset(te), scores)
        assert 0 <= result.p <= 1
        assert roc_m.fpr[0] == 0.0 and roc_f.tpr[-1] == 1.0

    def test_score_alignment_checked(self, small_cohort):
        with pytest.raises(DataError):
            compare_with_frax(small_cohort, np.zeros(3))


class TestReport:
    def test_empty_comparisons_valid_json(self):
        doc = build_report({"cells": {}, "comparisons": {}}, {}, seed=0)
        assert doc["comparisons"] == {} and doc["seed"] == 0

    def test_byte_identical_regeneration(self, small_cohort):
        cfg = ResampleConfig(resamples=15, seed=9)
        outs = []
        for _ in range(2):
            res = run_resample_comparison(small_cohort, feature_sets("PC1_ABMD_COV"),
                                          [LOGIT], cfg)
            outs.append(build_report({"cells": res.cells,
                                      "comparisons": res.comparisons},
                                     {"resamples": 15}, seed=9))
        assert outs[0] == outs[1]

    def test_six_significant_digits(self):
        doc = build_report({"cells": {"c": [0.123456789, 0.2]},
                            "comparisons": {}}, {}, seed=1)
        assert doc["cells"]["c"]["aucs"][0] == 0.123457
