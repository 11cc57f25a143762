import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

import femrisk.classifiers
from femrisk.classifiers import (KINDS, NEIGHBORS, SHRINKAGE, _fit_gaussian,
                                 _gaussian_posterior, _knn_scores, _nipals_pls,
                                 _pls_latent, _sq_distances, model_from_json,
                                 model_to_json, predict_scores, score_stack,
                                 standardize_stack, train)
from femrisk.datamodel import standardize_apply, standardize_fit
from femrisk.errors import DataError, NumericalError
from femrisk.stats import auc_mann_whitney, fit_logistic, logistic


def blobs(rng, n=120, sep=3.0, d=4):
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, d))
    x[:, 0] += sep * y
    x[:, 1] -= 0.5 * sep * y
    return x, y


def pls_latent(model, x):
    """The PLS prediction of the coded label at the rows of x."""
    z = standardize_apply(model.standardization, x)
    p = model.params
    return _pls_latent(z[None], p["x_mean"][None], p["b"][None], p["y_mean"][None])[0]


class TestSpec:
    def test_unknown_kind(self, rng):
        x, y = blobs(rng)
        with pytest.raises(DataError, match="^unknown classifier kind 'tree'$"):
            train("tree", x, y)
        z, z_te = standardize_stack(x[None], x[None])
        with pytest.raises(DataError, match="^unknown classifier kind 'tree'$"):
            score_stack(["tree"], z, y[None], z_te)


class TestAllKinds:
    @pytest.mark.parametrize("kind", KINDS)
    def test_separable_blobs(self, kind, rng):
        x, y = blobs(rng)
        model = train(kind, x, y)
        assert auc_mann_whitney(predict_scores(model, x), y) > 0.95

    @pytest.mark.parametrize("kind", KINDS)
    def test_null_features_near_chance(self, kind):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, size=200)
        x_te = rng.normal(size=(200, 4))
        y_te = rng.integers(0, 2, size=200)
        model = train(kind, x, y)
        auc = auc_mann_whitney(predict_scores(model, x_te), y_te)
        assert 0.35 < auc < 0.65

    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_in_unit_interval(self, kind, rng):
        x, y = blobs(rng)
        model = train(kind, x, y)
        s = predict_scores(model, x)
        assert np.all((s >= 0) & (s <= 1))

    @pytest.mark.parametrize("kind", ["logistic"])
    def test_json_round_trip(self, kind, rng):
        x, y = blobs(rng)
        model = train(kind, x, y)
        back = model_from_json(model_to_json(model))
        assert np.array_equal(predict_scores(back, x), predict_scores(model, x))

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "logistic"])
    def test_model_file_holds_only_logistic(self, kind, rng):
        x, y = blobs(rng)
        with pytest.raises(DataError, match="only logistic"):
            model_to_json(train(kind, x, y))

    @pytest.mark.parametrize("kind", KINDS)
    def test_feature_permutation_invariance(self, kind, rng):
        x, y = blobs(rng)
        names = ("a", "b", "c", "d")
        perm = [2, 0, 3, 1]
        m1 = train(kind, x, y, names)
        m2 = train(kind, x[:, perm], y,
                   tuple(names[j] for j in perm))
        np.testing.assert_allclose(predict_scores(m1, x),
                                   predict_scores(m2, x[:, perm]), atol=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_class_rejected(self, kind, rng):
        x = rng.normal(size=(20, 3))
        with pytest.raises(DataError):
            train(kind, x, np.ones(20, dtype=int))


class TestKnn:
    def test_k_equals_n_gives_prevalence(self, rng):
        x, y = blobs(rng, n=40)
        s = _knn_scores(x, y, 40, rng.normal(size=(10, 4)))
        np.testing.assert_allclose(s, y.mean(), atol=1e-12)

    def test_distance_ties_all_included(self):
        # Query equidistant from one positive and one negative training
        # point at the k=1 boundary: both neighbors must count.
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0], [0.0, -5.0]])
        y = np.array([1, 0, 1, 0])
        s = _knn_scores(x, y, 1, np.array([[0.0, 0.0]]))
        assert s[0] == pytest.approx(0.5)

    def test_k_beyond_training_size_rejected(self, rng):
        x, y, x_te = split_stack(rng, n=(2, 2), m=(2, 2), d=2)
        error = rf"^k \({NEIGHBORS}\) exceeds training size \(4\)$"
        with pytest.raises(DataError, match=error):
            train("knn", x[0], y[0])
        z, z_te = standardize_stack(x, x_te)
        with pytest.raises(DataError, match=error):
            score_stack(["knn"], z, y, z_te)

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 8, 9, 13])
    def test_ties_at_kth_distance_match_row_loop(self, k):
        # A symmetric integer grid standardizes to mean 0 and one SD for
        # both columns, so mirrored points lie at exactly equal distances
        # from grid-point queries: several points tie at the k-th distance.
        g = np.arange(-2.0, 3.0)
        x = np.array([(a, b) for a in g for b in g])
        y = (np.arange(len(x)) * 7 % 3 == 0).astype(int)
        queries = np.array([(a, b) for a in g for b in g] + [(0.5, 0.0), (3.0, 3.0)])
        std = standardize_fit(x)
        z, tz = standardize_apply(std, queries), standardize_apply(std, x)
        d2 = ((z[:, None, :] - tz[None, :, :]) ** 2).sum(axis=2)
        expected = np.empty(len(queries))
        widest = 0
        for i, row in enumerate(d2):
            kth = np.sort(row)[k - 1]
            inc = row <= kth + 1e-12 * max(kth, 1.0)
            expected[i] = y[inc].mean()
            widest = max(widest, int(inc.sum()))
        assert widest > k
        np.testing.assert_array_equal(_knn_scores(tz, y, k, z), expected)
        if k == NEIGHBORS:
            model = train("knn", x, y)
            np.testing.assert_array_equal(predict_scores(model, queries), expected)


def old_sq_distances(z, tz):
    """The (m, n, p) difference array summed over its last axis (pairwise)."""
    return ((z[:, None, :] - tz[None, :, :]) ** 2).sum(axis=2)


def sequential_sq_distances(z, tz):
    """The (m, n, p) squared differences added left to right."""
    return np.add.accumulate((z[:, None, :] - tz[None, :, :]) ** 2, axis=2)[..., -1]


def knn_scores_from(d2, ty, k):
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    inc = d2 <= kth + 1e-12 * np.maximum(kth, 1.0)
    return (inc * ty).sum(axis=1) / inc.sum(axis=1)


def assert_within_rounding_bound(z, tz):
    """_sq_distances within 8 p eps (|a|^2 + |b|^2) of the sequential sum at
    every pair of rows a of z and b of tz: the Gram form's rounding and the
    sequential sum's are each at most about (p + 2) eps (|a|^2 + |b|^2)."""
    got = _sq_distances(z, tz)
    assert got.shape == (len(z), len(tz))
    norms = (z * z).sum(axis=1)[:, None] + (tz * tz).sum(axis=1)[None, :]
    bound = 8 * z.shape[1] * np.finfo(float).eps * norms
    assert np.all(np.abs(got - sequential_sq_distances(z, tz)) <= bound)


class TestSqDistances:
    @settings(max_examples=150)
    @given(p=st.integers(1, 40), m=st.integers(1, 9), n=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_within_rounding_bound_of_sequential_sum(self, p, m, n, seed):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=p)
        tz = rng.normal(size=(n, p)) * scales
        z = rng.normal(size=(m, p)) * scales
        tz[-1] = tz[0]                      # a duplicated train row
        z[0] = tz[rng.integers(n)]          # a test row equal to a train row
        assert_within_rounding_bound(z, tz)

    @pytest.mark.parametrize("p", [129, 150])
    def test_within_rounding_bound_past_128_features(self, p, rng):
        z, tz = rng.normal(size=(3, p)), rng.normal(size=(4, p))
        assert_within_rounding_bound(z, tz)

    @settings(max_examples=100)
    @given(p=st.integers(1, 12), k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_knn_scores_match_old_distances_on_ties(self, p, k, seed):
        # Small integer features put many training points at exactly the
        # k-th distance.
        rng = np.random.default_rng(seed)
        tz = rng.integers(-2, 3, size=(30, p)).astype(float)
        ty = rng.integers(0, 2, size=30)
        z = rng.integers(-2, 3, size=(8, p)).astype(float)
        d2 = old_sq_distances(z, tz)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        inc = d2 <= kth + 1e-12 * np.maximum(kth, 1.0)
        expected = (inc * ty).sum(axis=1) / inc.sum(axis=1)
        assert np.array_equal(_knn_scores(tz, ty, k, z), expected)

    @settings(max_examples=40)
    @given(p=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_knn_scores_match_old_distances_at_workload_size(self, p, seed):
        # Standardized continuous features, 276 training and 69 test rows:
        # the sizes of the all-subjects resample cells.
        rng = np.random.default_rng(seed)
        tz = rng.normal(size=(276, p))
        ty = rng.integers(0, 2, size=276)
        z = rng.normal(size=(69, p))
        expected = knn_scores_from(old_sq_distances(z, tz), ty, NEIGHBORS)
        assert np.array_equal(_knn_scores(tz, ty, NEIGHBORS, z), expected)

    @settings(max_examples=60)
    @given(p=st.integers(1, 16), tails=st.sampled_from(["t2", "lognormal", "outliers"]),
           k=st.sampled_from([1, NEIGHBORS, 10]), seed=st.integers(0, 2**32 - 1))
    def test_knn_scores_match_old_distances_on_heavy_tails(self, p, tails, k, seed):
        # Rows standardized as the classifiers standardize them, from
        # Student-t(2), lognormal or normal features with 40x outliers, with
        # duplicated training rows and test rows equal to training rows:
        # large norms and exact ties together.
        rng = np.random.default_rng(seed)
        if tails == "t2":
            x = rng.standard_t(2, size=(345, p))
        elif tails == "lognormal":
            x = rng.lognormal(0.0, 2.0, size=(345, p))
        else:
            x = rng.normal(size=(345, p))
            x[rng.integers(0, 345, size=10)] *= 40.0
        train, test = x[:276], x[276:]
        train[rng.integers(0, 276, size=20)] = train[rng.integers(0, 276, size=20)]
        test[:10] = train[rng.integers(0, 276, size=10)]
        std = standardize_fit(train)
        tz, z = standardize_apply(std, train), standardize_apply(std, test)
        ty = rng.integers(0, 2, size=276)
        expected = knn_scores_from(old_sq_distances(z, tz), ty, k)
        assert np.array_equal(_knn_scores(tz, ty, k, z), expected)


class TestPls:
    def test_full_rank_equals_ols(self, rng):
        # With as many components as features, PLS1 spans the full predictor
        # space, so its regression vector equals OLS on the same data.  On
        # fewer features than PLS_COMPONENTS the count is capped at p.
        x3, y = blobs(rng, n=80, d=3)
        for d in (3, 2, 1):
            x = x3[:, :d]
            model = train("pls", x, y)
            z = (x - model.standardization.mean) / model.standardization.sd
            yc = 2.0 * y - 1.0
            zc = z - z.mean(axis=0)
            ycc = yc - yc.mean()
            ols, *_ = np.linalg.lstsq(zc, ycc, rcond=None)
            np.testing.assert_allclose(model.params["b"], ols, atol=1e-8)

    def test_latent_monotone_in_scores(self, rng):
        x, y = blobs(rng)
        model = train("pls", x, y)
        latent = pls_latent(model, x)
        scores = predict_scores(model, x)
        order = np.argsort(latent)
        assert np.all(np.diff(scores[order]) >= -1e-12)

    def test_components_beyond_rank_rejected(self, rng):
        # Three columns, the third the sum of the other two: rank 2.
        x, y = blobs(rng, d=2)
        x = np.c_[x, x[:, 0] + x[:, 1]]
        with pytest.raises(DataError, match=r"^components \(3\) exceeds feature rank \(2\)$"):
            train("pls", x, y)


def einsum_posterior(mu, priors, inv, logdet, z):
    """The oracle for _gaussian_posterior: a loop over the classes, each
    Mahalanobis term from the three-operand einsum, with a pooled fit's one
    covariance used for both classes."""
    logp = np.empty(z.shape[:2] + (2,))
    for c in range(2):
        k = min(c, inv.shape[1] - 1)
        d = z - mu[:, c, None, :]
        maha = np.einsum("bij,bjk,bik->bi", d, inv[:, k], d)
        logp[:, :, c] = np.log(priors[:, c, None]) - 0.5 * (maha + logdet[:, k, None])
    shift = logp.max(axis=2, keepdims=True)
    w = np.exp(logp - shift)
    return w[:, :, 1] / w.sum(axis=2)


class TestGaussian:
    def test_lda_symmetric_blobs_boundary(self):
        rng = np.random.default_rng(9)
        x, y = blobs(rng, n=400, sep=2.0, d=2)
        model = train("lda", x, y)
        # Scores should separate the classes far better than chance.
        assert auc_mann_whitney(predict_scores(model, x), y) > 0.9

    def test_qda_handles_unequal_covariance(self):
        rng = np.random.default_rng(10)
        n = 400
        y = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 2)) * np.where(y[:, None] == 1, 3.0, 0.5)
        qda = train("qda", x, y)
        lda = train("lda", x, y)
        auc_q = auc_mann_whitney(predict_scores(qda, x), y)
        auc_l = auc_mann_whitney(predict_scores(lda, x), y)
        assert auc_q > 0.85 > auc_l

    @pytest.mark.parametrize("dependent", ["duplicate", "sum"])
    @pytest.mark.parametrize("pooled", [True, False])
    def test_singular_covariance_without_shrinkage_raises(self, pooled, dependent):
        # Three orthogonal +-1 columns of a Hadamard matrix, and a fourth that
        # repeats the second or adds the first two: every covariance is a
        # multiple of exact small integers, so LU finds an exact zero pivot
        # whatever the BLAS.  Each variance passes the diagonal check.
        h = np.array([[(-1) ** bin(i & j).count("1") for j in range(8)] for i in range(8)],
                     dtype=float)[:, 1:4]
        extra = h[:, 1] if dependent == "duplicate" else h[:, 0] + h[:, 1]
        rows = np.c_[h, extra]
        z = np.stack([np.r_[rows, rows + 1.0]] * 2)
        y = np.tile(np.repeat([0, 1], 8), (2, 1))
        with pytest.raises(NumericalError, match="^singular class covariance after shrinkage$"):
            _fit_gaussian(z, y, 0.0, pooled)
        _fit_gaussian(z, y, SHRINKAGE, pooled)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.6])
    @pytest.mark.parametrize("kind", ["lda", "qda"])
    def test_scores_equal_per_row_bayes_rule(self, kind, gamma):
        # Unequal class sizes and covariances, so swapped priors, a pooled
        # QDA or a mis-weighted LDA pooling all move the scores.
        rng = np.random.default_rng(12)
        y = np.repeat([0, 1], [70, 40])
        x = rng.normal(size=(110, 3))
        x[y == 1] = x[y == 1] @ [[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 0.5]]
        x[:, 0] += 1.5 * y
        queries = rng.normal(size=(30, 3)) * 1.5

        mean, sd = x.mean(axis=0), x.std(axis=0, ddof=1)
        z, zq = (x - mean) / sd, (queries - mean) / sd
        covs = []
        for c in (0, 1):
            cov = np.cov(z[y == c], rowvar=False, ddof=1)
            covs.append((1.0 - gamma) * cov + gamma * np.diag(np.diag(cov)))
        if kind == "lda":
            pooled = (69 * covs[0] + 39 * covs[1]) / 108
            covs = [pooled, pooled]
        expected = []
        for row in zq:
            logp = [np.log(prior) + multivariate_normal.logpdf(row, z[y == c].mean(axis=0), covs[c])
                    for c, prior in ((0, 70 / 110), (1, 40 / 110))]
            expected.append(1.0 / (1.0 + np.exp(logp[0] - logp[1])))
        fit = _fit_gaussian(z[None], y[None], gamma, pooled=kind == "lda")
        np.testing.assert_allclose(_gaussian_posterior(*fit, zq[None])[0], expected,
                                   rtol=1e-12, atol=0)
        if gamma == SHRINKAGE:
            model = train(kind, x, y)
            np.testing.assert_allclose(predict_scores(model, queries), expected,
                                       rtol=1e-12, atol=0)

    @settings(max_examples=150)
    @given(b=st.integers(1, 6), p=st.integers(1, 16), extra=st.tuples(
               st.integers(2, 40), st.integers(2, 40)), m=st.integers(1, 30),
           gamma=st.sampled_from([0.0, 0.1, 0.6]), collinear=st.booleans(),
           pooled=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_posterior_matches_einsum_oracle(self, b, p, extra, m, gamma, collinear,
                                             pooled, seed):
        # Class sizes p + 2 and up keep every unshrunk covariance
        # invertible.  Two almost collinear columns (cond near 1e8 at
        # gamma 0) make neither form exact: there the bound is absolute and
        # scales with the condition number.
        rng = np.random.default_rng(seed)
        n0, n1 = p + extra[0], p + extra[1]
        y = np.stack([rng.permutation(np.repeat([0, 1], [n0, n1])) for _ in range(b)])
        z = rng.normal(size=(b, n0 + n1, p)) + 0.8 * y[:, :, None]
        zq = rng.normal(size=(b, m, p)) * 1.5
        if collinear and p > 1:
            z[:, :, 1] = z[:, :, 0] + 1e-4 * rng.normal(size=(b, n0 + n1))
            zq[:, :, 1] = zq[:, :, 0] + 1e-4 * rng.normal(size=(b, m))
        fit = _fit_gaussian(z, y, gamma, pooled)
        k = 1 if pooled else 2
        assert fit[2].shape == (b, k, p, p) and fit[3].shape == (b, k)
        got, want = _gaussian_posterior(*fit, zq), einsum_posterior(*fit, zq)
        if gamma == 0.0:
            cond = np.linalg.cond(fit[2]).max()
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=100 * np.finfo(float).eps * cond)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_column_constant_within_a_class_raises(self):
        # After standardization such a column keeps a variance of rounding
        # noise at most, on which QDA would score.  LDA pools the two
        # classes' covariances, so only a column constant within both
        # stops it.
        x, y = blobs(np.random.default_rng(13), d=3)
        x[y == 1, 2] = 0.1
        with pytest.raises(NumericalError,
                           match="^column at index 2 is constant within class 1$"):
            train("qda", x, y)
        train("lda", x, y)
        x[y == 0, 2] = 0.7
        with pytest.raises(NumericalError,
                           match="^column at index 2 is constant within each class$"):
            train("lda", x, y)


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
        z, z_te = standardize_stack(x, x_te)
        [scores] = score_stack([kind], z, y, z_te)
        for i in range(len(x)):
            lone = predict_scores(train(kind, x[i], y[i]), x_te[i])
            assert np.array_equal(scores[i], lone)

    def test_spec_list_equals_each_spec_alone(self, rng):
        x, y, x_te = split_stack(rng)
        kinds = ["lda", "qda", "knn", "logistic", "pls"]
        z, z_te = standardize_stack(x, x_te)
        together = score_stack(kinds, z, y, z_te)
        assert len(together) == len(kinds)
        for kind, scores in zip(kinds, together):
            [alone] = score_stack([kind], z, y, z_te)
            assert scores.tobytes() == alone.tobytes()

    def test_standardizes_once_per_call(self, rng, monkeypatch):
        calls = []

        def counted(values):
            calls.append(1)
            return standardize_fit(values)

        monkeypatch.setattr(femrisk.classifiers, "standardize_fit", counted)
        x, y, x_te = split_stack(rng)
        z, z_te = standardize_stack(x, x_te)
        score_stack(KINDS, z, y, z_te)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_constant_training_column_raises_standardize_fit_message(self, kind, rng):
        x, y, x_te = split_stack(rng)
        x[3, :, 2] = 7.0
        with pytest.raises(DataError) as lone:
            standardize_fit(x[3])
        with pytest.raises(DataError) as got:
            z, z_te = standardize_stack(x, x_te)
            score_stack([kind], z, y, z_te)
        assert str(got.value) == str(lone.value) == "constant column at index 2 (SD = 0)"

    def test_separable_pls_link_takes_the_lone_ridge_fallback(self, rng):
        # One feature, so row 1's latent is affine in it: the classes lie
        # 1e-3 to 1 either side of 0, a margin that diverges at ridge 1e-8.
        x, y, x_te = split_stack(rng, d=1)
        z, z_te = standardize_stack(x, x_te)
        [plain] = score_stack(["pls"], z, y, z_te)
        v = np.linspace(1e-3, 1.0, 30)
        x[1, y[1] == 0, 0] = -v
        x[1, y[1] == 1, 0] = v
        lone = train("pls", x[1], y[1])
        link = fit_logistic(y[1], pls_latent(lone, x[1]), ridge=1e-8)
        assert link.ridge == logistic.SEPARATION_RIDGE
        z, z_te = standardize_stack(x, x_te)
        [scores] = score_stack(["pls"], z, y, z_te)
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
        b = _nipals_pls(z.copy(), ys, 3)
        assert np.array_equal(b[1], [1.0, 0.0, 0.0])
        for i in range(4):
            assert np.array_equal(b[i], _nipals_pls(z[i:i + 1], ys[i:i + 1], 3)[0])

    def test_unequal_class_counts_rejected(self, rng):
        x, y, x_te = split_stack(rng)
        y[2, np.flatnonzero(y[2] == 0)[0]] = 1
        z, z_te = standardize_stack(x, x_te)
        with pytest.raises(DataError, match="same class counts"):
            score_stack(["lda"], z, y, z_te)
