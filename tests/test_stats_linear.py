import numpy as np
import pytest
import scipy.stats as sps

from femrisk.errors import DataError, NumericalError
from femrisk.stats import fit_linear_model


class TestOls:
    def test_matches_lstsq(self, rng):
        n = 40
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = x @ [1.0, 2.0, -0.5, 0.0] + rng.normal(scale=0.3, size=n)
        fit = fit_linear_model(y, x, ("intercept", "a", "b", "c"))
        ref, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(fit.coef, ref, atol=1e-8)

    def test_pvalues_match_manual_t(self, rng):
        n = 30
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = 0.5 * x[:, 1] + rng.normal(size=n)
        fit = fit_linear_model(y, x, ("intercept", "x"))
        t = fit.coef / fit.se
        p = 2 * sps.t.sf(np.abs(t), n - 2)
        np.testing.assert_allclose(fit.p, p, atol=1e-12)

    def test_rank_deficient(self):
        x = np.ones((10, 2))
        with pytest.raises(NumericalError):
            fit_linear_model(np.arange(10.0), x, ("a", "b"))

    def test_more_columns_than_rows(self):
        with pytest.raises(DataError):
            fit_linear_model(np.arange(3.0), np.eye(3), ("a", "b", "c"))
