import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from femrisk.errors import DataError, NumericalError
from femrisk.stats import fit_logistic, logistic
from femrisk.stats.logistic import (CONVERGED, _irls, _irls_stack, _sigmoid,
                                    fit_logistic_stack, predict_proba_stack)


def nll(beta, y, xd):
    eta = xd @ beta
    # log(1 + exp(eta)) - y*eta, numerically stable
    return np.sum(np.logaddexp(0.0, eta) - y * eta)


def masked_sigmoid(eta):
    """The logistic function computed on each sign's entries apart, gathered
    and scattered through a boolean mask: exp only of -|eta|."""
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSigmoid:
    # Signed zeros, infinities, the ends of exp's range and subnormals.
    EDGES = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 709.8, -709.8, 36.8, -36.8,
             5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308]

    @settings(max_examples=200)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    def test_bits_equal_masked_form(self, values):
        eta = np.array(values + self.EDGES)
        assert same_bits(_sigmoid(eta), masked_sigmoid(eta))

    def test_bits_equal_masked_form_on_a_stack(self, rng):
        # The (B, n) shape of a stacked fit's linear predictors.
        eta = rng.uniform(-800.0, 800.0, size=(50, 2000))
        assert same_bits(_sigmoid(eta), masked_sigmoid(eta))

    def test_nan_stays_nan(self):
        got = _sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(got[[0, 2]]).all() and got[1] == masked_sigmoid(np.array([1.0]))[0]


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

    def test_lone_run_is_a_stack_of_one(self):
        y, x = stack_of_fits()
        beta, state, iterations = _irls_stack(y, x, 0.0)
        for i in range(len(y)):
            lone_beta, lone_state, it = _irls(y[i], x[i], 0.0)
            assert lone_state == state[i] == CONVERGED and it == iterations[i]
            assert np.array_equal(beta[i], lone_beta)

    def test_singular_row_raises_what_fit_logistic_raises(self):
        y, x = stack_of_fits(k=3)
        x[1, :, 2] = 0.0
        with pytest.raises(NumericalError, match="^singular IRLS system$"):
            fit_logistic(y[1], x[1])
        with pytest.raises(NumericalError, match="^singular IRLS system$"):
            fit_logistic_stack(y, x, 0.0)
        # The stacked run raises at once; no row is solved around.
        with pytest.raises(NumericalError, match="^singular IRLS system$"):
            _irls_stack(y, x, 0.0)

    def test_flagged_rows_rerun_together(self, monkeypatch):
        y, x = stack_of_fits()
        y[[1, 4]] = (x[[1, 4], :, 0] > 0).astype(float)
        calls = []

        def stack(y, x, ridge):
            calls.append((len(y), ridge))
            return _irls_stack(y, x, ridge)

        def lone(*args, **kwargs):
            raise AssertionError("the stack ran a lone fit")

        monkeypatch.setattr(logistic, "_irls_stack", stack)
        monkeypatch.setattr(logistic, "_irls", lone)
        monkeypatch.setattr(logistic, "fit_logistic", lone)
        fit_logistic_stack(y, x, 0.0)
        assert calls == [(6, 0.0), (2, logistic.SEPARATION_RIDGE)]

    def test_unconverged_ridge_rerun_raises(self, monkeypatch):
        y, x = stack_of_fits()
        monkeypatch.setattr(logistic, "MAX_ITER", 1)
        with pytest.raises(NumericalError, match="^logistic regression failed to converge$"):
            fit_logistic_stack(y, x, 0.0)
        with pytest.raises(NumericalError, match="^logistic regression failed to converge$"):
            fit_logistic(y[0], x[0])


def test_singular_hessian_at_the_fit_raises_without_a_rerun(monkeypatch):
    y, x = stack_of_fits(b=1)
    runs = []

    def lone(y, x, ridge):
        runs.append(ridge)
        return _irls(y, x, ridge)

    def singular(a):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(logistic, "_irls", lone)
    monkeypatch.setattr(logistic.np.linalg, "inv", singular)
    with pytest.raises(NumericalError, match="^singular IRLS system$"):
        fit_logistic(y[0], x[0])
    assert runs == [0.0]


@st.composite
def stacks(draw):
    b = draw(st.integers(1, 6))
    n = draw(st.integers(8, 30))
    k = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(b, n, k))
    y = (rng.random((b, n)) < 0.5).astype(float)
    y[:, :2] = [0.0, 1.0]
    if k:
        # Split at the median of the first column: both classes, separable.
        for i in draw(st.sets(st.integers(0, b - 1))):
            y[i] = (x[i, :, 0] > np.median(x[i, :, 0])).astype(float)
    return y, x, draw(st.sampled_from([0.0, 1e-8, 1e-4]))


@settings(max_examples=60)
@given(stacks())
def test_stack_follows_the_lone_rule(case):
    y, x, ridge = case
    try:
        beta = fit_logistic_stack(y, x, ridge)
    except NumericalError:
        lone_errors = 0
        for i in range(len(y)):
            try:
                fit_logistic(y[i], x[i], ridge)
            except NumericalError:
                lone_errors += 1
        assert lone_errors
        return
    for i in range(len(y)):
        assert np.array_equal(beta[i], fit_logistic(y[i], x[i], ridge).beta)
