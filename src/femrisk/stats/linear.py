"""Ordinary least squares with t-test inference, for the FE parameter
regressions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericalError
from ._special import stdtr


@dataclass(frozen=True)
class LinearModelFit:
    names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    p: np.ndarray
    r_squared: float
    df_resid: int


def fit_linear_model(y, x, names) -> LinearModelFit:
    """OLS fit.  x must already include the intercept column.

    Standard errors come from sigma^2 (X'X)^-1 and p-values from the
    two-sided t distribution with n - k degrees of freedom.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n, k = x.shape
    if len(names) != k:
        raise DataError("names length must match column count")
    if n <= k:
        raise DataError(f"need more rows ({n}) than columns ({k})")
    if np.linalg.matrix_rank(x) < k:
        raise NumericalError("design matrix is rank deficient")
    xtx = x.T @ x
    coef = np.linalg.solve(xtx, x.T @ y)
    resid = y - x @ coef
    rss = float(resid @ resid)
    df = n - k
    sigma2 = rss / df
    cov = sigma2 * np.linalg.inv(xtx)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, coef / se, 0.0)
    p = np.array([2.0 * stdtr(df, -abs(v)) for v in t.tolist()])
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    r2 = min(max(r2, 0.0), 1.0)
    return LinearModelFit(names=tuple(names), coef=coef, se=se, p=p,
                          r_squared=r2, df_resid=df)
