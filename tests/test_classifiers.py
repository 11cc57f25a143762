import numpy as np
import pytest

from femrisk.classifiers import (KINDS, ClassifierSpec, _nipals_pls,
                                 model_from_json, model_to_json, pls_latent,
                                 predict_scores, train, train_and_score_stack)
from femrisk.datamodel import standardize_apply, standardize_fit
from femrisk.errors import DataError
from femrisk.stats import auc_mann_whitney


def blobs(rng, n=120, sep=3.0, d=4):
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, d))
    x[:, 0] += sep * y
    x[:, 1] -= 0.5 * sep * y
    return x, y


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(DataError):
            ClassifierSpec("tree")

    @pytest.mark.parametrize("field,value", [
        ("ridge", -1.0), ("shrinkage", 1.5), ("components", 0), ("neighbors", 0),
    ])
    def test_bad_hyperparameters(self, field, value):
        with pytest.raises(DataError):
            ClassifierSpec("logistic", **{field: value})


class TestAllKinds:
    @pytest.mark.parametrize("kind", KINDS)
    def test_separable_blobs(self, kind, rng):
        x, y = blobs(rng)
        model = train(ClassifierSpec(kind), x, y)
        assert auc_mann_whitney(predict_scores(model, x), y) > 0.95

    @pytest.mark.parametrize("kind", KINDS)
    def test_null_features_near_chance(self, kind):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, size=200)
        x_te = rng.normal(size=(200, 4))
        y_te = rng.integers(0, 2, size=200)
        model = train(ClassifierSpec(kind), x, y)
        auc = auc_mann_whitney(predict_scores(model, x_te), y_te)
        assert 0.35 < auc < 0.65

    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_in_unit_interval(self, kind, rng):
        x, y = blobs(rng)
        model = train(ClassifierSpec(kind), x, y)
        s = predict_scores(model, x)
        assert np.all((s >= 0) & (s <= 1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_json_round_trip(self, kind, rng):
        x, y = blobs(rng)
        model = train(ClassifierSpec(kind), x, y)
        back = model_from_json(model_to_json(model))
        np.testing.assert_allclose(predict_scores(back, x),
                                   predict_scores(model, x), atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_feature_permutation_invariance(self, kind, rng):
        x, y = blobs(rng)
        names = ("a", "b", "c", "d")
        perm = [2, 0, 3, 1]
        m1 = train(ClassifierSpec(kind), x, y, names)
        m2 = train(ClassifierSpec(kind), x[:, perm], y,
                   tuple(names[j] for j in perm))
        np.testing.assert_allclose(predict_scores(m1, x),
                                   predict_scores(m2, x[:, perm]), atol=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_class_rejected(self, kind, rng):
        x = rng.normal(size=(20, 3))
        with pytest.raises(DataError):
            train(ClassifierSpec(kind), x, np.ones(20, dtype=int))


class TestKnn:
    def test_k_equals_n_gives_prevalence(self, rng):
        x, y = blobs(rng, n=40)
        model = train(ClassifierSpec("knn", neighbors=40), x, y)
        s = predict_scores(model, rng.normal(size=(10, 4)))
        np.testing.assert_allclose(s, y.mean(), atol=1e-12)

    def test_distance_ties_all_included(self):
        # Query equidistant from one positive and one negative training
        # point at the k=1 boundary: both neighbors must count.
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0], [0.0, -5.0]])
        y = np.array([1, 0, 1, 0])
        model = train(ClassifierSpec("knn", neighbors=1), x, y)
        s = predict_scores(model, np.array([[0.0, 0.0]]))
        assert s[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 8, 9, 13])
    def test_ties_at_kth_distance_match_row_loop(self, k):
        # A symmetric integer grid standardizes to mean 0 and one SD for
        # both columns, so mirrored points lie at exactly equal distances
        # from grid-point queries: several points tie at the k-th distance.
        g = np.arange(-2.0, 3.0)
        x = np.array([(a, b) for a in g for b in g])
        y = (np.arange(len(x)) * 7 % 3 == 0).astype(int)
        queries = np.array([(a, b) for a in g for b in g] + [(0.5, 0.0), (3.0, 3.0)])
        model = train(ClassifierSpec("knn", neighbors=k), x, y)

        z = standardize_apply(model.standardization, queries)
        tz = model.params["train_z"]
        d2 = ((z[:, None, :] - tz[None, :, :]) ** 2).sum(axis=2)
        expected = np.empty(len(queries))
        widest = 0
        for i, row in enumerate(d2):
            kth = np.sort(row)[k - 1]
            inc = row <= kth + 1e-12 * max(kth, 1.0)
            expected[i] = y[inc].mean()
            widest = max(widest, int(inc.sum()))
        assert widest > k
        np.testing.assert_array_equal(predict_scores(model, queries), expected)


class TestPls:
    def test_full_rank_equals_ols(self, rng):
        # With as many components as features, PLS1 spans the full predictor
        # space, so its regression vector equals OLS on the same data.
        x, y = blobs(rng, n=80, d=3)
        model = train(ClassifierSpec("pls", components=3), x, y)
        z = (x - model.standardization.mean) / model.standardization.sd
        yc = 2.0 * y - 1.0
        zc = z - z.mean(axis=0)
        ycc = yc - yc.mean()
        ols, *_ = np.linalg.lstsq(zc, ycc, rcond=None)
        np.testing.assert_allclose(model.params["b"], ols, atol=1e-8)

    def test_latent_monotone_in_scores(self, rng):
        x, y = blobs(rng)
        model = train(ClassifierSpec("pls"), x, y)
        latent = pls_latent(model, x)
        scores = predict_scores(model, x)
        order = np.argsort(latent)
        assert np.all(np.diff(scores[order]) >= -1e-12)

    def test_components_beyond_rank_rejected(self, rng):
        x, y = blobs(rng, d=2)
        with pytest.raises(DataError, match="exceeds feature rank"):
            train(ClassifierSpec("pls", components=10), x, y)


class TestGaussian:
    def test_lda_symmetric_blobs_boundary(self):
        rng = np.random.default_rng(9)
        x, y = blobs(rng, n=400, sep=2.0, d=2)
        model = train(ClassifierSpec("lda"), x, y)
        # Scores should separate the classes far better than chance.
        assert auc_mann_whitney(predict_scores(model, x), y) > 0.9

    def test_qda_handles_unequal_covariance(self):
        rng = np.random.default_rng(10)
        n = 400
        y = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 2)) * np.where(y[:, None] == 1, 3.0, 0.5)
        qda = train(ClassifierSpec("qda"), x, y)
        lda = train(ClassifierSpec("lda"), x, y)
        auc_q = auc_mann_whitney(predict_scores(qda, x), y)
        auc_l = auc_mann_whitney(predict_scores(lda, x), y)
        assert auc_q > 0.85 > auc_l


def split_stack(rng, b=5, n=(30, 30), m=(10, 10), d=4):
    """b stratified splits of one sample: train rows x (b, sum(n), d) with
    labels y, test rows x_te (b, sum(m), d)."""
    y = np.repeat([0, 1], [n[0] + m[0], n[1] + m[1]])
    x = rng.normal(size=(y.size, d))
    x[:, 0] += y
    tr, te = [], []
    for _ in range(b):
        zeros = rng.permutation(n[0] + m[0])
        ones = n[0] + m[0] + rng.permutation(n[1] + m[1])
        tr.append(np.sort(np.r_[zeros[:n[0]], ones[:n[1]]]))
        te.append(np.sort(np.r_[zeros[n[0]:], ones[n[1]:]]))
    return x[tr], y[tr], x[te]


class TestStackedFits:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_equal_lone_fits(self, kind, rng):
        x, y, x_te = split_stack(rng)
        scores = train_and_score_stack(ClassifierSpec(kind), x, y, x_te)
        for i in range(len(x)):
            lone = predict_scores(train(ClassifierSpec(kind), x[i], y[i]), x_te[i])
            assert np.array_equal(scores[i], lone)

    @pytest.mark.parametrize("kind", KINDS)
    def test_constant_training_column_raises_standardize_fit_message(self, kind, rng):
        x, y, x_te = split_stack(rng)
        x[3, :, 2] = 7.0
        with pytest.raises(DataError) as lone:
            standardize_fit(x[3])
        with pytest.raises(DataError) as got:
            train_and_score_stack(ClassifierSpec(kind), x, y, x_te)
        assert str(got.value) == str(lone.value) == "constant column at index 2 (SD = 0)"

    def test_separable_pls_link_takes_the_lone_ridge_fallback(self, rng):
        x, y, x_te = split_stack(rng)
        spec = ClassifierSpec("pls", components=2)
        plain = train_and_score_stack(spec, x, y, x_te)
        x[1, :, 0] += 50.0 * y[1]
        lone = train(spec, x[1], y[1])
        assert lone.params["link"].penalized
        scores = train_and_score_stack(spec, x, y, x_te)
        assert np.array_equal(scores[1], predict_scores(lone, x_te[1]))
        others = np.arange(len(x)) != 1
        assert np.array_equal(scores[others], plain[others])

    def test_nipals_row_that_stops_early_keeps_its_components(self, rng):
        # Row 1's first component explains the coded label exactly, so its
        # deflation stops after one component; the other rows take three.
        yc = np.repeat([1.0, -1.0], 4)
        planted = np.c_[yc, np.tile([1.0, -1.0], 4), np.repeat([1.0, -1.0, 1.0, -1.0], 2)]
        z = rng.normal(size=(4, 8, 3))
        z -= z.mean(axis=1, keepdims=True)
        z[1] = planted
        ys = np.tile(yc, (4, 1))
        b = _nipals_pls(z, ys, 3)
        assert np.array_equal(b[1], [1.0, 0.0, 0.0])
        for i in range(4):
            assert np.array_equal(b[i], _nipals_pls(z[i:i + 1], ys[i:i + 1], 3)[0])

    def test_unequal_class_counts_rejected(self, rng):
        x, y, x_te = split_stack(rng)
        y[2, np.flatnonzero(y[2] == 0)[0]] = 1
        with pytest.raises(DataError, match="same class counts"):
            train_and_score_stack(ClassifierSpec("lda"), x, y, x_te)
