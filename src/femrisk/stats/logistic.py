"""Binary logistic regression by iteratively reweighted least squares.

Supports an optional ridge penalty on the slopes (never the intercept) and
falls back to a small ridge automatically when the likelihood is monotone
(perfect separation), flagging the fit as penalized.

The one IRLS loop runs a stack of fits; a lone fit is a stack of one.
fit_logistic adds the Wald inference, fit_logistic_stack fits many at once
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from ..errors import DataError, NumericalError

SCORE_TOL = 1e-8
COEF_TOL = 1e-10
MAX_ITER = 100
SEPARATION_RIDGE = 1e-4
COEF_DIVERGENCE = 1e3


@dataclass(frozen=True)
class LogisticFit:
    names: tuple[str, ...]
    intercept: float
    coef: np.ndarray            # slopes, excluding the intercept
    se: np.ndarray              # intercept first, then slopes
    p: np.ndarray               # Wald p-values, intercept first
    converged: bool
    iterations: int
    penalized: bool
    ridge: float

    @property
    def beta(self) -> np.ndarray:
        """Full coefficient vector, intercept first."""
        return np.r_[self.intercept, self.coef]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        eta = self.intercept + x @ self.coef
        return _sigmoid(eta)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Row states of a stacked IRLS run.  RUNNING after the loop means the row
# used all MAX_ITER iterations without meeting the stopping rule.
RUNNING, CONVERGED, DIVERGED, SINGULAR = 0, 1, 2, 3


def _newton_system(y, xd, beta, ridge):
    """Score and Hessian of the ridge-penalized log-likelihood of each fit
    in a stack: y (B, n), xd (B, n, k), beta (B, k)."""
    pen = np.full(xd.shape[2], ridge)
    pen[0] = 0.0
    eta = (xd @ beta[:, :, None])[:, :, 0]
    mu = _sigmoid(eta)
    w = mu * (1.0 - mu)
    xt = np.swapaxes(xd, 1, 2)
    score = (xt @ (y - mu)[:, :, None])[:, :, 0] - pen * beta
    h = xt @ (xd * w[:, :, None]) + np.diag(pen)
    return score, h


def _solve_rows(h, score):
    """Newton steps of a stack of systems, and which of them are singular.

    np.linalg.solve raises for the whole stack when one matrix is singular;
    the stack is then solved row by row so that the others still step.
    """
    try:
        return np.linalg.solve(h, score[:, :, None])[:, :, 0], np.zeros(len(h), bool)
    except np.linalg.LinAlgError:
        step = np.zeros_like(score)
        singular = np.zeros(len(h), bool)
        for i in range(len(h)):
            try:
                step[i] = np.linalg.solve(h[i], score[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _irls_stack(y, xd, ridge):
    """IRLS on a stack of fits: y (B, n) 0/1, xd (B, n, k) with the
    intercept column first; ridge penalizes every column but the intercept.

    Each row stops at the iteration where it meets the stopping rule (score
    or step below tolerance: CONVERGED), its coefficients pass
    COEF_DIVERGENCE (DIVERGED) or its Hessian is singular (SINGULAR), and
    is left out of later iterations.  So every row runs the iterations, on
    the values, that the same fit run alone would.  Returns (beta (B, k),
    state (B,), iterations (B,)); a SINGULAR row keeps its last beta.
    """
    b = xd.shape[0]
    beta = np.zeros((b, xd.shape[2]))
    # Prevalence-matched intercept start.
    beta[:, 0] = [math.log(p / (1.0 - p)) for p in y.mean(axis=1).tolist()]
    state = np.full(b, RUNNING)
    iterations = np.full(b, MAX_ITER)
    rows = np.arange(b)
    ya, xa = y, xd
    for it in range(1, MAX_ITER + 1):
        score, h = _newton_system(ya, xa, beta[rows], ridge)
        step, singular = _solve_rows(h, score)
        ok = ~singular
        beta[rows[ok]] += step[ok]
        converged = ok & ((np.abs(score).max(axis=1) < SCORE_TOL)
                          | (np.abs(step).max(axis=1) < COEF_TOL))
        diverged = ok & ~converged & (np.abs(beta[rows]).max(axis=1) > COEF_DIVERGENCE)
        state[rows[converged]] = CONVERGED
        state[rows[diverged]] = DIVERGED
        state[rows[singular]] = SINGULAR
        stop = converged | diverged | singular
        if stop.any():
            iterations[rows[stop]] = it
            rows = rows[~stop]
            if rows.size == 0:
                break
            ya, xa = y[rows], xd[rows]
    return beta, state, iterations


def _irls(y, xd, ridge):
    """One IRLS run.  xd includes the intercept column; ridge skips it.

    Returns (beta, converged, iterations, cov); cov, the inverse Hessian at
    beta, is None when the fit diverged or that Hessian is singular.
    """
    beta, state, iterations = _irls_stack(y[None], xd[None], ridge)
    beta, state, it = beta[0], state[0], int(iterations[0])
    if state == SINGULAR:
        raise NumericalError("singular IRLS system")
    if state == DIVERGED:
        return beta, False, it, None
    _, h = _newton_system(y[None], xd[None], beta[None], ridge)
    try:
        cov = np.linalg.inv(h[0])
    except np.linalg.LinAlgError:
        return beta, False, it, None
    return beta, bool(state == CONVERGED), it, cov


def fit_logistic(y, x, ridge: float = 0.0, names=None) -> LogisticFit:
    """Fit logit(Pr(y=1)) = b0 + x @ b by IRLS.

    x excludes the intercept column (it is added internally).  On detected
    separation the fit is retried with ridge = 1e-4 and flagged penalized.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != y.shape[0]:
        raise DataError("x and y must have the same number of rows")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise DataError("y must be 0/1")
    if y.min() == y.max():
        raise DataError("both classes must be present")
    if ridge < 0:
        raise DataError("ridge must be >= 0")
    k = x.shape[1]
    if names is None:
        names = ("intercept",) + tuple(f"x{i}" for i in range(k))
    xd = np.column_stack([np.ones(y.size), x])

    beta, converged, it, cov = _irls(y, xd, ridge)
    penalized = ridge > 0
    used_ridge = ridge
    if converged and cov is not None and ridge == 0.0:
        # A converged unpenalized fit whose probabilities saturate to the
        # labels means the likelihood is monotone (separation): the score
        # vanishes at any sufficiently large coefficient.
        p_hat = _sigmoid(xd @ beta)
        if np.all(np.abs(y - p_hat) < 1e-4):
            converged = False
    if not converged or cov is None:
        # Monotone likelihood (separation) or numerical trouble: small ridge.
        beta, converged, it2, cov = _irls(y, xd, max(ridge, SEPARATION_RIDGE))
        it += it2 if cov is not None else 0
        penalized = True
        used_ridge = max(ridge, SEPARATION_RIDGE)
        if not converged or cov is None:
            raise NumericalError("logistic regression failed to converge")
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, 0.0)
    p = 2.0 * sps.norm.sf(np.abs(z))
    return LogisticFit(
        names=tuple(names), intercept=float(beta[0]), coef=beta[1:],
        se=se, p=p, converged=converged, iterations=it,
        penalized=penalized, ridge=used_ridge,
    )


def predict_proba_stack(beta, x) -> np.ndarray:
    """LogisticFit.predict_proba of each fit in a stack: beta (B, k + 1)
    with the intercept first, x (B, m, k)."""
    return _sigmoid(beta[:, :1] + (x @ beta[:, 1:, None])[:, :, 0])


def fit_logistic_stack(y, x, ridge: float) -> np.ndarray:
    """Coefficients, intercept first, of one fit per row of a stack:
    y (B, n) 0/1 labels, x (B, n, k) without the intercept column.

    Row i equals fit_logistic(y[i], x[i], ridge).beta.  The rows run as one
    stacked IRLS that forms no covariance, standard error or p-value.  A
    row that does not converge there (no convergence, divergence, a
    singular Hessian or, unpenalized, separation) is refit on its own by
    fit_logistic, which falls back to the separation ridge or raises its
    error.  The one case not carried over: fit_logistic also falls back
    when the Hessian at a converged beta is exactly singular, which the
    stacked fit does not form.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    b, n, _ = x.shape
    xd = np.concatenate([np.ones((b, n, 1)), x], axis=2)
    beta, state, _ = _irls_stack(y, xd, ridge)
    redo = state != CONVERGED
    if ridge == 0.0:
        p_hat = _sigmoid((xd @ beta[:, :, None])[:, :, 0])
        redo |= np.all(np.abs(y - p_hat) < 1e-4, axis=1)
    for i in np.flatnonzero(redo):
        beta[i] = fit_logistic(y[i], x[i], ridge).beta
    return beta
