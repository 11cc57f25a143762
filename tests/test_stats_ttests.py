import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import any_float, same_bits
from femrisk.errors import DataError
from femrisk.stats import paired_one_sided_ttest, ttest_from_summary
from femrisk.stats._special import ndtr, stdtr

means = st.floats(-10.0, 10.0)
sds = st.floats(0.1, 10.0)
sizes = st.integers(2, 200)
# Degrees of freedom scipy.stats rejects (df <= 0, NaN), takes to the normal
# limit (inf), or takes as an integer.
dfs = st.one_of(any_float, st.sampled_from([-1.0, 1.0]), st.integers(-3, 10**6))


class TestStdtrIsTSf:
    """The t-tests' p-values use stdtr(df, -x), the survival function
    scipy.stats.t computes.  At every edge SciPy defines (x = 0, +-inf or
    NaN; df <= 0, NaN or inf) it gives SciPy's value, with df = inf taken to
    ndtr; elsewhere SciPy's value to 1e-12 relative (down to 1e-300) for |x|
    from 1e-3 to 40.  Nearer 0 SciPy is the less accurate: at df = 1 and
    x = 4e-9 it is off by 2.7e-9.  tests/test_special.py bounds both against
    mpmath."""

    @settings(max_examples=300)
    @given(x=any_float, df=dfs)
    def test_scalar(self, x, df):
        ours = stdtr(df, -x)
        if math.isnan(x) or not df > 0:
            assert math.isnan(ours)
        elif x == 0 or math.isinf(x):
            assert same_bits(ours, sps.t.sf(x, df))
        elif math.isinf(df):
            assert ours == ndtr(-x)
        else:
            assert 0.0 <= ours <= 1.0

    @settings(max_examples=200)
    @given(x=arrays(np.float64, 8, elements=st.floats(1e-3, 40.0)),
           signs=arrays(np.float64, 8, elements=st.sampled_from([-1.0, 1.0])),
           df=arrays(np.float64, 8, elements=st.floats(1.0, 1e6)))
    def test_array(self, x, signs, df):
        x = x * signs
        # One value per element, as the Wald and OLS p-values take them.
        ours = np.array([stdtr(d, -v) for d, v in zip(df.tolist(), x.tolist())])
        np.testing.assert_allclose(ours, sps.t.sf(x, df), rtol=1e-12, atol=1e-300)


class TestFromSummary:
    @settings(max_examples=300)
    @given(n1=sizes, mean1=means, sd1=sds, n2=sizes, mean2=means, sd2=sds)
    def test_consistent_with_raw_data(self, n1, mean1, sd1, n2, mean2, sd2):
        # The pooled two-sided test of scipy on the same summaries.
        ours = ttest_from_summary(n1, mean1, sd1, n2, mean2, sd2)
        ref = sps.ttest_ind_from_stats(mean1, sd1, n1, mean2, sd2, n2, equal_var=True)
        assert ours.tail == "two_sided"
        assert ours.t == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_group_summary_pvalues(self):
        # Published male/female weight and female lateral-ultimate summaries.
        p_mw = ttest_from_summary(92, 82.8, 14.9, 42, 78.7, 13.5).p
        p_fw = ttest_from_summary(143, 68.7, 13.7, 68, 64.2, 15.0).p
        p_flu = ttest_from_summary(143, 3256.7, 650.6, 68, 3019.9, 551.4).p
        assert p_mw == pytest.approx(0.120, abs=0.02)
        assert p_fw == pytest.approx(0.036, abs=0.01)
        assert p_flu == pytest.approx(0.007, abs=0.01)

    def test_bad_summary(self):
        with pytest.raises(DataError):
            ttest_from_summary(10, 1.0, -1.0, 10, 1.0, 1.0)


# AUC-like values on a grid of binary fractions, so that a - b is exact and
# a constant difference has an SD of exactly zero.
aucs = st.integers(0, 256).map(lambda k: k / 256)


class TestPaired:
    @settings(max_examples=300)
    @given(pairs=st.lists(st.tuples(aucs, aucs), min_size=2, max_size=60))
    def test_matches_scipy_one_sided(self, pairs):
        a, b = np.array(pairs).T
        assume((a - b).std() > 0)
        ours = paired_one_sided_ttest(a, b)
        ref = sps.ttest_rel(a, b, alternative="greater")
        assert ours.tail == "one_sided_greater"
        assert ours.t == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_identical_vectors(self):
        res = paired_one_sided_ttest([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
        assert res.p == 0.5

    @pytest.mark.parametrize("n", [3, 5, 10, 1000])
    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 1 / 3])
    def test_constant_nonzero_differences_rejected(self, value, n):
        # The mean of n copies of value can round off value and leave a tiny
        # nonzero SD; constancy is judged on the differences themselves.
        with pytest.raises(DataError, match="zero-variance nonzero differences"):
            paired_one_sided_ttest(np.full(n, value), np.zeros(n))

    @pytest.mark.parametrize("tiny", [5e-324, 1e-170])
    def test_underflowing_variance_rejected(self, tiny):
        # Differences that are not constant but whose squared deviations
        # underflow have an SD of exactly 0.
        with pytest.raises(DataError, match="zero-variance nonzero differences"):
            paired_one_sided_ttest([tiny, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            paired_one_sided_ttest([0.7, 0.8], [0.7])
