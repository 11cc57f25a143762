"""PCA on the standardized FE parameters and the PC1 risk index.

The decomposition is an eigendecomposition of the correlation matrix
(covariance of pooled-standardized columns).  The PC1 sign is fixed so the
loading on the stance ultimate load (Su) is positive: a higher index means
a stronger femur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datamodel import FE9, StandardizationParams, standardize_apply, standardize_fit
from ..errors import DataError, malformed, require_labels
from .logistic import fit_logistic


@dataclass(frozen=True)
class PcaModel:
    standardization: StandardizationParams
    loadings: np.ndarray          # columns are component loading vectors
    eigenvalues: np.ndarray       # descending, >= 0
    variance_shares: np.ndarray
    column_names: tuple[str, ...]


def _principal_axes(z, column_names):
    """Eigenvalues (B, p) and loadings (B, p, p) of the correlation matrix
    of each standardized matrix in a stack z (B, n, p), largest first.

    Each component's largest-magnitude loading is made positive, then PC1
    is pinned to a positive Su loading: a higher index means a stronger
    femur.
    """
    corr = (np.swapaxes(z, 1, 2) @ z) / (z.shape[1] - 1)
    corr = 0.5 * (corr + np.swapaxes(corr, 1, 2))
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals, axis=1)[:, ::-1]
    eigvals = np.clip(np.take_along_axis(eigvals, order, axis=1), 0.0, None)
    eigvecs = np.take_along_axis(eigvecs, order[:, None, :], axis=2)
    pivot = np.argmax(np.abs(eigvecs), axis=1)
    flip = np.take_along_axis(eigvecs, pivot[:, None, :], axis=1) < 0
    eigvecs = np.where(flip, -eigvecs, eigvecs)
    if "Su" in column_names:
        su = list(column_names).index("Su")
        flip = eigvecs[:, su, 0] < 0
        eigvecs[flip, :, 0] = -eigvecs[flip, :, 0]
    return eigvals, eigvecs


def fit_pca(x, column_names=FE9) -> PcaModel:
    """Fit PCA to a matrix of FE parameters (rows = subjects)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("need a 2-D matrix with at least 2 rows")
    if len(column_names) != x.shape[1]:
        raise DataError("column_names length must match columns")
    params = standardize_fit(x)          # raises on non-finite and constant columns
    names = tuple(column_names)
    eigvals, eigvecs = _principal_axes(standardize_apply(params, x)[None], names)
    shares = eigvals[0] / eigvals[0].sum()
    return PcaModel(standardization=params, loadings=eigvecs[0],
                    eigenvalues=eigvals[0], variance_shares=shares,
                    column_names=names)


def fit_pca_stack(x):
    """Standardization (B, p), loadings (B, p, p) and standardized rows
    (B, n, p) of one PCA per matrix of a stack x (B, n, p) of the FE9
    parameters, each as fit_pca fits it."""
    params = standardize_fit(x)
    z = standardize_apply(params, x)
    return params, _principal_axes(z, FE9)[1], z


def pc_scores(model: PcaModel, x) -> np.ndarray:
    """Project rows onto all principal components."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != model.loadings.shape[0]:
        raise DataError("dimension mismatch with PCA model")
    z = standardize_apply(model.standardization, x)
    s = z @ model.loadings
    return s[0] if squeeze else s


def risk_index(model: PcaModel, x) -> np.ndarray:
    """PC1 projection: the global fracture risk index (higher = stronger)."""
    s = pc_scores(model, x)
    return s[..., 0] if s.ndim > 1 else s[0]


def pca_to_json(model: PcaModel) -> dict:
    return {
        "column_names": list(model.column_names),
        "mean": model.standardization.mean.tolist(),
        "sd": model.standardization.sd.tolist(),
        "loadings": model.loadings.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "variance_shares": model.variance_shares.tolist(),
    }


def pca_from_json(doc: dict) -> PcaModel:
    """The model of a pca_to_json entry; DataError when doc is not one."""
    with malformed("PCA model JSON"):
        params = StandardizationParams(mean=np.array(doc["mean"], dtype=float),
                                       sd=np.array(doc["sd"], dtype=float))
        model = PcaModel(standardization=params,
                         loadings=np.array(doc["loadings"], dtype=float),
                         eigenvalues=np.array(doc["eigenvalues"], dtype=float),
                         variance_shares=np.array(doc["variance_shares"], dtype=float),
                         column_names=tuple(doc["column_names"]))
        p = len(model.column_names)
        vectors = (params.mean, params.sd, model.eigenvalues, model.variance_shares)
        if model.loadings.shape != (p, p) or any(v.shape != (p,) for v in vectors):
            raise DataError(f"{p} column names need {p}x{p} loadings and mean, sd, "
                            f"eigenvalues and variance_shares of length {p}")
        if not all(np.all(np.isfinite(v)) for v in (model.loadings, *vectors)):
            raise DataError("non-finite values")
    return model


def select_significant_pcs(scores, labels):
    """Indices (0-based) of PCs whose univariate logistic slope has
    Wald p < 0.05."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2:
        raise DataError("scores must be (n_subjects, n_components)")
    y = require_labels(labels)
    retained = []
    pvals = []
    for j in range(s.shape[1]):
        fit = fit_logistic(y, s[:, j])
        pvals.append(float(fit.p[1]))
        if fit.p[1] < 0.05:
            retained.append(j)
    return retained, np.array(pvals)
