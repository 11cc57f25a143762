import numpy as np
import pytest
from scipy.optimize import minimize

from femrisk.errors import DataError, NumericalError
from femrisk.stats import fit_logistic
from femrisk.stats.logistic import (CONVERGED, SINGULAR, _irls, _irls_stack,
                                    fit_logistic_stack, predict_proba_stack)


def nll(beta, y, xd):
    eta = xd @ beta
    # log(1 + exp(eta)) - y*eta, numerically stable
    return np.sum(np.logaddexp(0.0, eta) - y * eta)


class TestFitLogistic:
    def test_intercept_only_equals_logit_prevalence(self):
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        fit = fit_logistic(y, np.zeros((10, 0)))
        prev = 0.3
        assert fit.intercept == pytest.approx(np.log(prev / (1 - prev)), abs=1e-10)

    def test_matches_brute_force_mle(self, rng):
        for trial in range(5):
            n = 20
            x = rng.normal(size=(n, 2))
            eta = 0.3 + 0.8 * x[:, 0] - 0.5 * x[:, 1]
            y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
            if y.min() == y.max():
                continue
            fit = fit_logistic(y, x)
            if fit.penalized:
                continue  # separated fixture: MLE does not exist
            xd = np.column_stack([np.ones(n), x])
            ref = minimize(nll, np.zeros(3), args=(y, xd), method="BFGS",
                           options={"gtol": 1e-10}).x
            np.testing.assert_allclose(fit.beta, ref, atol=1e-6)

    def test_predict_proba_range_and_monotone(self, rng):
        x = rng.normal(size=(50, 1))
        y = (x[:, 0] + rng.normal(scale=0.5, size=50) > 0).astype(int)
        fit = fit_logistic(y, x)
        grid = np.linspace(-3, 3, 20)[:, None]
        p = predict_proba_stack(fit.beta[None], grid[None])[0]
        assert np.all((p > 0) & (p < 1))
        assert np.all(np.diff(p) > 0)  # positive slope on this fixture

    def test_separation_falls_back_to_ridge(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        fit = fit_logistic(y, x)
        assert fit.penalized
        assert fit.converged
        assert np.isfinite(fit.beta).all()

    def test_wald_p_detects_signal(self, rng):
        n = 200
        x = rng.normal(size=(n, 2))
        eta = 2.0 * x[:, 0]
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        fit = fit_logistic(y, x)
        assert fit.p[1] < 0.001      # informative slope
        assert fit.p[2] > 0.05       # noise slope

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_logistic(np.ones(5, dtype=int), np.zeros((5, 1)))


def stack_of_fits(b=6, n=40, k=2, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, n, k))
    y = (rng.random((b, n)) < 1 / (1 + np.exp(-x[:, :, 0]))).astype(float)
    y[:, :2] = [0.0, 1.0]
    return y, x


class TestStackedFits:
    @pytest.mark.parametrize("ridge", [0.0, 1e-8])
    def test_separable_row_takes_the_lone_ridge_fallback(self, ridge):
        y, x = stack_of_fits()
        beta_plain = fit_logistic_stack(y, x, ridge)
        y[2] = (x[2, :, 0] > 0).astype(float)
        beta = fit_logistic_stack(y, x, ridge)
        lone = fit_logistic(y[2], x[2], ridge)
        assert lone.penalized
        assert np.array_equal(beta[2], lone.beta)
        others = np.arange(len(y)) != 2
        assert np.array_equal(beta[others], beta_plain[others])
        for i in np.flatnonzero(others):
            assert np.array_equal(beta[i], fit_logistic(y[i], x[i], ridge).beta)

    def test_singular_row_does_not_poison_the_stack(self):
        y, x = stack_of_fits()
        xd = np.concatenate([np.ones(y.shape + (1,)), x, np.zeros(y.shape + (1,))], axis=2)
        xd[:, :, 3] = x[:, :, 0] ** 2
        xd[3, :, 3] = 0.0
        beta, state, iterations = _irls_stack(y, xd, 0.0)
        assert state[3] == SINGULAR
        with pytest.raises(NumericalError, match="^singular IRLS system$"):
            _irls(y[3], xd[3], 0.0)
        for i in np.flatnonzero(np.arange(len(y)) != 3):
            lone_beta, converged, it, _ = _irls(y[i], xd[i], 0.0)
            assert converged and state[i] == CONVERGED and iterations[i] == it
            assert np.array_equal(beta[i], lone_beta)

    def test_singular_row_raises_what_fit_logistic_raises(self):
        y, x = stack_of_fits(k=3)
        x[1, :, 2] = 0.0
        with pytest.raises(NumericalError, match="^singular IRLS system$"):
            fit_logistic(y[1], x[1])
        with pytest.raises(NumericalError, match="^singular IRLS system$"):
            fit_logistic_stack(y, x, 0.0)
