import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from conftest import any_float, same_bits
from femrisk.errors import DataError, NumericalError
from femrisk.stats import auc_mann_whitney, delong_compare, roc_curve
from femrisk.stats._special import ndtr
from femrisk.stats.roc import _midranks, _placements


def auc_by_enumeration(scores, labels):
    """O(n*m) oracle: fraction of (pos, neg) pairs ranked correctly,
    ties counting one half."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestAuc:
    def test_matches_pair_enumeration_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 200))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # Coarse rounding forces plenty of ties.
            s = np.round(rng.normal(size=n) + y, 1)
            assert auc_mann_whitney(s, y) == pytest.approx(
                auc_by_enumeration(s, y), abs=1e-12)

    def test_perfect_and_inverted(self):
        y = [0, 0, 1, 1]
        assert auc_mann_whitney([1, 2, 3, 4], y) == 1.0
        assert auc_mann_whitney([4, 3, 2, 1], y) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_mann_whitney([1.0, 2.0], [1, 1])


class TestRocCurve:
    def test_endpoints_and_area(self, rng):
        y = rng.integers(0, 2, size=80)
        y[:2] = [0, 1]
        s = rng.normal(size=80) + 0.8 * y
        curve = roc_curve(s, y)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        area = np.trapezoid(curve.tpr, curve.fpr)
        assert area == pytest.approx(auc_mann_whitney(s, y), abs=1e-12)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DataError, match="scores must be finite"):
            roc_curve([0.1, bad, 0.3, 0.4], [0, 0, 1, 1])


class TestDeLong:
    def test_identical_scores(self, rng):
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        s = rng.normal(size=40)
        res = delong_compare(s, s.copy(), y)
        assert res.z == 0.0 and res.p == 0.5

    def test_monotone_transform_invariance(self, rng):
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        a = rng.normal(size=60) + y
        b = rng.normal(size=60) + 0.5 * y
        r1 = delong_compare(a, b, y)
        r2 = delong_compare(np.exp(a), 3 * b - 7, y)
        assert r1.z == pytest.approx(r2.z, abs=1e-12)
        assert r1.p == pytest.approx(r2.p, abs=1e-12)

    def test_variance_close_to_jackknife(self, rng):
        n = 20
        y = np.array([1] * 8 + [0] * 12)
        a = rng.normal(size=n) + 1.2 * y
        b = rng.normal(size=n) + 0.5 * y
        res = delong_compare(a, b, y)

        def delta(idx):
            return (auc_mann_whitney(a[idx], y[idx])
                    - auc_mann_whitney(b[idx], y[idx]))

        thetas = np.array([delta(np.delete(np.arange(n), i)) for i in range(n)])
        var_jack = (n - 1) / n * ((thetas - thetas.mean()) ** 2).sum()
        assert res.var_diff == pytest.approx(var_jack, rel=0.10)

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            delong_compare([1.0, 2.0], [1.0], [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_scores_rejected(self, bad, side):
        y = np.array([0, 0, 1, 1])
        scores = {"a": np.array([1.0, 2.0, 3.0, 4.0]), "b": np.array([2.0, 1.0, 4.0, 3.0])}
        scores[side][1] = bad
        with pytest.raises(DataError, match="scores must be finite"):
            delong_compare(scores["a"], scores["b"], y)

    def test_zero_variance_nonzero_delta(self):
        y = np.array([0, 0, 1, 1])
        a = np.array([1.0, 2.0, 3.0, 4.0])   # AUC 1
        b = np.array([4.0, 3.0, 2.0, 1.0])   # AUC 0
        with pytest.raises(NumericalError):
            delong_compare(a, b, y)


class TestNdtrIsNormSf:
    """DeLong's and the Wald p-values use ndtr(-x), the survival function
    scipy.stats.norm computes: its value at x = 0, +-inf and NaN, and
    elsewhere the same to 1e-12 relative down to 1e-300.
    tests/test_special.py bounds it against mpmath."""

    @settings(max_examples=300)
    @given(x=any_float)
    def test_scalar(self, x):
        ours, ref = ndtr(-x), sps.norm.sf(x)
        if math.isnan(x):
            assert math.isnan(ours)
        elif x == 0 or math.isinf(x):
            assert same_bits(ours, ref)
        elif ref >= 1e-300:
            assert ours == pytest.approx(ref, rel=1e-12, abs=0)

    @settings(max_examples=200)
    @given(x=arrays(np.float64, 8, elements=st.floats(-37.0, 37.0)))
    def test_array(self, x):
        # One value per element, as the Wald p-values take them.
        ours = np.array([ndtr(-v) for v in x.tolist()])
        np.testing.assert_allclose(ours, sps.norm.sf(x), rtol=1e-12, atol=0)


class TestBootstrapAgreement:
    def test_p_close_to_stratified_bootstrap(self, rng):
        n_pos, n_neg = 8, 12
        y = np.array([1] * n_pos + [0] * n_neg)
        a = rng.normal(size=20) + 1.0 * y
        b = rng.normal(size=20) + 0.3 * y
        res = delong_compare(a, b, y)

        draws = 100_000
        pos_idx = rng.integers(0, n_pos, size=(draws, n_pos))
        neg_idx = rng.integers(0, n_neg, size=(draws, n_neg)) + n_pos
        pa, na = a[pos_idx], a[neg_idx]
        pb, nb = b[pos_idx], b[neg_idx]

        def boot_auc(p, q):
            wins = (p[:, :, None] > q[:, None, :]).sum(axis=(1, 2))
            ties = (p[:, :, None] == q[:, None, :]).sum(axis=(1, 2))
            return (wins + 0.5 * ties) / (n_pos * n_neg)

        delta = boot_auc(pa, na) - boot_auc(pb, nb)
        p_boot = np.mean(delta <= 0)
        assert res.p == pytest.approx(p_boot, abs=0.02)


# Scores drawn from a pool of a few values, so that ties are common.
SCORE_POOL = st.sampled_from([-1.5, -0.25, 0.0, 0.125, 0.3, 1.0, 2.75])


@st.composite
def scored_labels(draw, n_scores=1):
    """(score vectors, labels) with both classes present at least twice."""
    n = draw(st.integers(4, 40))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(2 <= y.sum() <= n - 2)
    vecs = [np.array(draw(st.lists(SCORE_POOL, min_size=n, max_size=n)))
            for _ in range(n_scores)]
    return vecs, y


def brute_placements(scores, y):
    """Per-case and per-control means of the pairwise indicator
    psi(case, control) = 1 if case > control, 1/2 if equal, else 0."""
    pos = scores[y == 1]
    neg = scores[y == 0]
    psi = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
    return psi.mean(axis=1), psi.mean(axis=0)


def sample_cov(u, v):
    return ((u - u.mean()) * (v - v.mean())).sum() / (u.size - 1)


class TestOracleProperties:
    @given(scored_labels())
    @settings(max_examples=200)
    def test_auc_equals_pairwise_count(self, data):
        (s,), y = data
        pos, neg = s[y == 1], s[y == 0]
        count = sum(1.0 if p > q else 0.5 if p == q else 0.0
                    for p in pos for q in neg)
        assert auc_mann_whitney(s, y) == count / (pos.size * neg.size)

    @given(st.lists(SCORE_POOL, min_size=0, max_size=60))
    @settings(max_examples=200)
    def test_midranks_equal_scipy_average_ranks(self, values):
        x = np.array(values, dtype=float)
        np.testing.assert_array_equal(_midranks(x), rankdata(x, method="average"))

    @given(scored_labels(n_scores=2))
    @settings(max_examples=200)
    def test_placements_match_pairwise_means(self, data):
        vecs, y = data
        stacked = _placements(np.stack(vecs), y)
        for i, s in enumerate(vecs):
            auc, v10, v01 = _placements(s, y)
            b10, b01 = brute_placements(s, y)
            np.testing.assert_allclose(v10, b10, rtol=0, atol=1e-15)
            np.testing.assert_allclose(v01, b01, rtol=0, atol=1e-15)
            assert auc == pytest.approx(b10.mean(), abs=1e-15)
            # Row i of the stacked call is the lone call, bit for bit.
            for lone, rows in zip((auc, v10, v01), stacked):
                assert rows[i].tobytes() == lone.tobytes()

    @given(scored_labels(n_scores=2))
    @settings(max_examples=200)
    def test_delong_variance_matches_brute_force(self, data):
        (a, b), y = data
        a10, a01 = brute_placements(a, y)
        b10, b01 = brute_placements(b, y)
        _, v10, v01 = _placements(np.stack([a, b]), y)
        np.testing.assert_allclose(v10, [a10, b10], rtol=0, atol=1e-15)
        np.testing.assert_allclose(v01, [a01, b01], rtol=0, atol=1e-15)
        m, n = a10.size, a01.size
        var = ((sample_cov(a10, a10) + sample_cov(b10, b10) - 2 * sample_cov(a10, b10)) / m
               + (sample_cov(a01, a01) + sample_cov(b01, b01) - 2 * sample_cov(a01, b01)) / n)
        # A zero variance with unequal AUCs is an error case of its own.
        assume(var > 1e-12)
        res = delong_compare(a, b, y)
        assert res.var_diff == pytest.approx(var, rel=1e-9)
        assert res.auc_a == pytest.approx(a10.mean(), abs=1e-15)
        assert res.auc_b == pytest.approx(b10.mean(), abs=1e-15)
