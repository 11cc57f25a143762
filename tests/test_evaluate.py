import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femrisk.classifiers import KINDS, ClassifierSpec, model_to_json
from femrisk.datamodel import Cohort, FeatureSet
from femrisk.errors import DataError
from femrisk.evaluate import (BLOCK, CvConfig, ResampleConfig, build_report,
                              cell_name, compare_with_frax, fe9_matrix,
                              fit_and_score, mix_seed, run_lgocv,
                              run_resample_comparison, stratified_split_indices)
from femrisk.stats import auc_mann_whitney, fit_pca, paired_one_sided_ttest

FS_PC1 = FeatureSet.parse("PC1_ABMD_COV")
FS_ABMD = FeatureSet.parse("ABMD_COV")
LOGIT = ClassifierSpec("logistic")


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

    @settings(max_examples=200, deadline=None)
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
        ids = {r.id for r in small_cohort}
        assert {r.id for r in tr_c} | {r.id for r in te_c} == ids

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
        aucs = run_lgocv(small_cohort, [FS_PC1], [LOGIT],
                         CvConfig(repeats=5, seed=2))["PC1_ABMD_COV|logistic"]
        assert aucs.shape == (5,)
        assert np.all((aucs >= 0) & (aucs <= 1))

    def test_deterministic(self, small_cohort):
        cfg = CvConfig(repeats=4, seed=7)
        a = run_lgocv(small_cohort, [FS_PC1], [LOGIT], cfg)["PC1_ABMD_COV|logistic"]
        b = run_lgocv(small_cohort, [FS_PC1], [LOGIT], cfg)["PC1_ABMD_COV|logistic"]
        np.testing.assert_array_equal(a, b)


class TestSharedSplitLoop:
    @pytest.mark.parametrize("paper_mode", [False, True])
    def test_every_cell_matches_fit_and_score(self, small_cohort, paper_mode):
        # Both protocols score each cell on split i, drawn from
        # mix_seed(seed, i, 0), exactly as fit_and_score would on its own;
        # BLOCK + 3 resamples run one full stacked block and a partial one.
        # LDA and kNN AUCs move when PC1 comes from another PCA fit.
        feature_sets = [FS_PC1, FS_ABMD, FeatureSet.parse("FE9_ABMD_COV"),
                        FeatureSet.parse("Lu_ABMD_COV")]
        specs = [ClassifierSpec(kind) for kind in KINDS]
        stratum = "all"
        sub = small_cohort.stratum(stratum)
        pca_full = fit_pca(fe9_matrix(sub)) if paper_mode else None
        cv = CvConfig(repeats=4, seed=21)
        rs = ResampleConfig(resamples=BLOCK + 3, seed=22)
        lgocv = run_lgocv(small_cohort, feature_sets, specs, cv, stratum, pca_full)
        res = run_resample_comparison(small_cohort, feature_sets, specs, rs,
                                      stratum, pca_full)
        assert res.split_seeds == tuple(mix_seed(22, i, 0) for i in range(BLOCK + 3))
        names = [cell_name(fs, sp) for fs in feature_sets for sp in specs]
        for cells, cfg, n_splits in ((lgocv, cv, cv.repeats), (res.cells, rs, rs.resamples)):
            assert list(cells) == names
            for i in range(n_splits):
                tr, te = stratified_split_indices(sub.labels(), cfg.train_fraction,
                                                  mix_seed(cfg.seed, i, 0))
                for fs in feature_sets:
                    for sp in specs:
                        scores, y_te, _ = fit_and_score(sub, tr, te, fs, sp,
                                                        stratum, pca_full)
                        assert cells[cell_name(fs, sp)][i] == auc_mann_whitney(scores, y_te)

    def test_error_is_the_first_failing_cell_of_the_split_loop(self, small_cohort):
        # Subject 125 alone takes bone medication and subject 123 alone has
        # another Lu: a split that holds one of them out has a constant
        # training column in ABMD_COV (bmdmed, first at split 27) or in
        # Lu_ABMD_COV (Lu at split 14, bmdmed at 27).  Split by split, the
        # Lu cell fails first, although the ABMD cell comes first in a block.
        records = [replace(r, bmdmed=int(i == 125),
                           fe=replace(r.fe, Lu=2e6 if i == 123 else 1e6))
                   for i, r in enumerate(small_cohort)]
        cohort = Cohort(tuple(records))
        fs_lu = FeatureSet.parse("Lu_ABMD_COV")
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
            run_resample_comparison(cohort, [FS_ABMD], [LOGIT], cfg)
        with pytest.raises(DataError) as got:
            run_resample_comparison(cohort, [FS_ABMD, fs_lu], [LOGIT], cfg)
        assert str(got.value) == expected


class TestResampling:
    def test_cells_share_splits_and_pairing_holds(self, small_cohort):
        cfg = ResampleConfig(resamples=30, seed=3)
        res = run_resample_comparison(small_cohort, [FS_PC1, FS_ABMD], [LOGIT], cfg)
        assert set(res.cells) == {"PC1_ABMD_COV|logistic", "ABMD_COV|logistic"}
        assert len(res.split_seeds) == 30
        # Paired test on the shared splits must match a direct computation.
        key = "PC1_ABMD_COV|logistic>ABMD_COV|logistic"
        assert key in res.comparisons
        direct = paired_one_sided_ttest(res.cells["PC1_ABMD_COV|logistic"],
                                        res.cells["ABMD_COV|logistic"])
        assert res.comparisons[key].p == direct.p

    def test_explicit_comparison_direction(self, small_cohort):
        cfg = ResampleConfig(resamples=10, seed=6)
        res = run_resample_comparison(
            small_cohort, [FS_PC1, FS_ABMD], [LOGIT], cfg,
            comparisons=[("ABMD_COV|logistic", "PC1_ABMD_COV|logistic")])
        assert list(res.comparisons) == ["ABMD_COV|logistic>PC1_ABMD_COV|logistic"]

    def test_unknown_cell_in_comparison(self, small_cohort):
        cfg = ResampleConfig(resamples=10, seed=6)
        with pytest.raises(DataError):
            run_resample_comparison(small_cohort, [FS_PC1], [LOGIT], cfg,
                                    comparisons=[("nope|x", "PC1_ABMD_COV|logistic")])


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
        text = build_report({"cells": {}, "comparisons": {}}, {}, seed=0)
        doc = json.loads(text)
        assert doc["comparisons"] == {} and doc["seed"] == 0

    def test_byte_identical_regeneration(self, small_cohort):
        cfg = ResampleConfig(resamples=15, seed=9)
        outs = []
        for _ in range(2):
            res = run_resample_comparison(small_cohort, [FS_PC1], [LOGIT], cfg)
            outs.append(build_report({"cells": res.cells,
                                      "comparisons": res.comparisons},
                                     {"resamples": 15}, seed=9))
        assert outs[0] == outs[1]

    def test_six_significant_digits(self):
        text = build_report({"cells": {"c": [0.123456789, 0.2]},
                             "comparisons": {}}, {}, seed=1)
        doc = json.loads(text)
        assert doc["cells"]["c"]["aucs"][0] == 0.123457
