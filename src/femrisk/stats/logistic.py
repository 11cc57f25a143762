"""Binary logistic regression by iteratively reweighted least squares.

Supports an optional ridge penalty on the slopes (never the intercept).
The one IRLS loop runs a stack of fits; a lone fit is a stack of one.
fit_logistic adds the Wald inference, fit_logistic_stack fits many at once
without it.

Both apply one fallback rule, _needs_ridge: a fit that does not converge,
diverges or, unpenalized, separates the classes (its probabilities
saturate to the labels, so the maximum-likelihood estimate does not exist)
is run once more with the ridge raised to SEPARATION_RIDGE (fit_logistic
flags it penalized).  A fit that still needs it raises NumericalError, as
does a singular IRLS system; a fit already at SEPARATION_RIDGE or above
raises at once, since its rerun would repeat the same IRLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericalError, require_labels, require_one_per_label
from ._special import ndtr

SCORE_TOL = 1e-8
COEF_TOL = 1e-10
MAX_ITER = 100
SEPARATION_RIDGE = 1e-4
COEF_DIVERGENCE = 1e3


@dataclass(frozen=True)
class LogisticFit:
    intercept: float
    coef: np.ndarray            # slopes, excluding the intercept
    se: np.ndarray              # intercept first, then slopes
    p: np.ndarray               # Wald p-values, intercept first
    iterations: int
    penalized: bool
    ridge: float

    @property
    def beta(self) -> np.ndarray:
        """Full coefficient vector, intercept first."""
        return np.r_[self.intercept, self.coef]


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) without overflow: exp only of -|eta|."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Row states of a stacked IRLS run.  RUNNING after the loop means the row
# used all MAX_ITER iterations without meeting the stopping rule.
RUNNING, CONVERGED, DIVERGED = 0, 1, 2


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


def _design(x):
    """x (..., n, k) with an intercept column of ones put first."""
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


def _irls_stack(y, x, ridge):
    """IRLS on a stack of fits: y (B, n) 0/1, x (B, n, k) without the
    intercept column; ridge penalizes every column but the intercept.

    Each row stops at the iteration where it meets the stopping rule (score
    or step below tolerance: CONVERGED) or its coefficients pass
    COEF_DIVERGENCE (DIVERGED), and is left out of later iterations.  So
    every row runs the iterations, on the values, that the same fit run
    alone would.  The design stack with the intercept column is made here
    and shrinks with the running rows, so no full copy of it outlives the
    first stop.  A singular Newton system raises NumericalError.  Returns
    (beta (B, k + 1), state (B,), iterations (B,)).
    """
    b = x.shape[0]
    beta = np.zeros((b, x.shape[2] + 1))
    # Prevalence-matched intercept start.
    beta[:, 0] = [math.log(p / (1.0 - p)) for p in y.mean(axis=1).tolist()]
    state = np.full(b, RUNNING)
    iterations = np.full(b, MAX_ITER)
    rows = np.arange(b)
    ya, xa = y, _design(x)
    for it in range(1, MAX_ITER + 1):
        score, h = _newton_system(ya, xa, beta[rows], ridge)
        try:
            step = np.linalg.solve(h, score[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise NumericalError("singular IRLS system") from None
        beta[rows] += step
        converged = ((np.abs(score).max(axis=1) < SCORE_TOL)
                     | (np.abs(step).max(axis=1) < COEF_TOL))
        diverged = ~converged & (np.abs(beta[rows]).max(axis=1) > COEF_DIVERGENCE)
        state[rows[converged]] = CONVERGED
        state[rows[diverged]] = DIVERGED
        stop = converged | diverged
        if stop.any():
            iterations[rows[stop]] = it
            rows = rows[~stop]
            if rows.size == 0:
                break
            ya, xa = ya[~stop], xa[~stop]
    return beta, state, iterations


def _irls(y, x, ridge):
    """One lone IRLS run, a stack of one: y (n,), x (n, k) without the
    intercept column.  Returns (beta, state, iterations)."""
    beta, state, iterations = _irls_stack(y[None], x[None], ridge)
    return beta[0], state[0], int(iterations[0])


def _needs_ridge(y, x, beta, state, ridge):
    """Which fits take SEPARATION_RIDGE: those that did not converge or
    diverged and, when ridge is 0, those whose probabilities all lie within
    1e-4 of the labels (separation: the likelihood is monotone, so its score
    vanishes at any large enough coefficient).  Takes one fit or a stack; x
    is without the intercept column, and the design is built only at ridge
    0."""
    flag = state != CONVERGED
    if ridge == 0.0:
        p_hat = _sigmoid((_design(x) @ beta[..., None])[..., 0])
        flag = flag | np.all(np.abs(y - p_hat) < 1e-4, axis=-1)
    return flag


def fit_logistic(y, x, ridge: float = 0.0) -> LogisticFit:
    """Fit logit(Pr(y=1)) = b0 + x @ b by IRLS.

    x excludes the intercept column (it is added internally).  A fit that
    needs it (_needs_ridge) is rerun at the separation ridge and flagged
    penalized.  Raises NumericalError when that rerun still needs it, when
    ridge is already at least the separation ridge, or when the Hessian at
    the fitted coefficients is singular.
    """
    y = require_labels(y)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    require_one_per_label(y, x, "rows of x")
    if ridge < 0:
        raise DataError("ridge must be >= 0")
    xd = _design(x)

    used_ridge = ridge
    beta, state, it = _irls(y, x, ridge)
    flagged = _needs_ridge(y, x, beta, state, ridge)
    if flagged and ridge < SEPARATION_RIDGE:
        used_ridge = SEPARATION_RIDGE
        beta, state, it2 = _irls(y, x, used_ridge)
        it += it2
        flagged = _needs_ridge(y, x, beta, state, used_ridge)
    if flagged:
        raise NumericalError("logistic regression failed to converge")
    _, h = _newton_system(y[None], xd[None], beta[None], used_ridge)
    try:
        cov = np.linalg.inv(h[0])
    except np.linalg.LinAlgError:
        raise NumericalError("singular IRLS system") from None
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, 0.0)
    p = np.array([2.0 * ndtr(-abs(v)) for v in z.tolist()])
    return LogisticFit(intercept=float(beta[0]), coef=beta[1:], se=se, p=p,
                       iterations=it, penalized=used_ridge > 0, ridge=used_ridge)


def predict_proba_stack(beta, x) -> np.ndarray:
    """Pr(y = 1) at the rows x (B, m, k) of each fit in a stack: beta
    (B, k + 1) with the intercept first."""
    return _sigmoid(beta[:, :1] + (x @ beta[:, 1:, None])[:, :, 0])


def fit_logistic_stack(y, x, ridge: float) -> np.ndarray:
    """Coefficients, intercept first, of one fit per row of a stack:
    y (B, n) 0/1 labels, x (B, n, k) without the intercept column.

    Row i equals fit_logistic(y[i], x[i], ridge).beta, which fails only
    where its Hessian at that beta is singular.  The rows run as one
    stacked IRLS that forms no covariance, standard error or p-value; the
    rows that need the separation ridge (_needs_ridge) rerun together at
    it, and the stack raises NumericalError when one of them still needs it
    (at once when ridge is already at least the separation ridge).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    beta, state, _ = _irls_stack(y, x, ridge)
    redo = np.flatnonzero(_needs_ridge(y, x, beta, state, ridge))
    if redo.size and ridge < SEPARATION_RIDGE:
        beta[redo], state, _ = _irls_stack(y[redo], x[redo], SEPARATION_RIDGE)
        redo = redo[_needs_ridge(y[redo], x[redo], beta[redo], state, SEPARATION_RIDGE)]
    if redo.size:
        raise NumericalError("logistic regression failed to converge")
    return beta
