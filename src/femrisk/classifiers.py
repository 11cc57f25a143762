"""The trainable fracture-status classifiers behind one train/score contract.

Five kinds: logistic regression, linear and quadratic discriminant analysis
(with diagonal shrinkage), PLS discriminant analysis (NIPALS components on
the +/-1 coded label with a logistic calibration layer) and k-nearest
neighbors.  Every kind standardizes its features internally using training
data only, and every score is a probability-like value in [0, 1] with
larger meaning more likely fracture.

train and predict_scores fit and score one model; train_and_score_stack
fits and scores a stack of splits at once.  Both run the same stacked
kernels (IRLS, NIPALS, the Gaussian fit), a lone model as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import StandardizationParams, standardize_apply, standardize_fit
from .errors import DataError, NumericalError
from .stats.logistic import (LogisticFit, fit_logistic, fit_logistic_stack,
                              predict_proba_stack)

KINDS = ("logistic", "lda", "qda", "pls", "knn")


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    ridge: float = 1e-4          # logistic
    shrinkage: float = 0.1       # lda/qda gamma in [0, 1]
    components: int = 3          # pls
    neighbors: int = 5           # knn

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown classifier kind {self.kind!r}")
        if self.ridge < 0:
            raise DataError("ridge must be >= 0")
        if not 0.0 <= self.shrinkage <= 1.0:
            raise DataError("shrinkage must be in [0, 1]")
        if self.components < 1:
            raise DataError("components must be >= 1")
        if self.neighbors < 1:
            raise DataError("neighbors must be >= 1")


@dataclass(frozen=True)
class TrainedModel:
    spec: ClassifierSpec
    feature_names: tuple[str, ...]
    standardization: StandardizationParams
    params: dict = field(default_factory=dict)


def _shrunk_cov(z: np.ndarray, gamma: float) -> np.ndarray:
    """np.cov(ddof=1) of each matrix in a stack (B, n, p), shrunk toward
    its diagonal by gamma."""
    d = z - z.mean(axis=1, keepdims=True)
    # Scaled by the reciprocal, as np.cov scales, so the values are np.cov's.
    cov = (np.swapaxes(d, 1, 2) @ d) * np.true_divide(1, z.shape[1] - 1)
    diag = np.eye(z.shape[2]) * np.diagonal(cov, axis1=1, axis2=2)[:, None, :]
    return (1.0 - gamma) * cov + gamma * diag


def _fit_gaussian(z, y, gamma, pooled):
    """Class means (B, 2, p), priors (2,), inverse covariances (B, 2, p, p)
    and their log-determinants (B, 2) of a stack of fits on z (B, n, p),
    with pooled or per-class shrunk covariances.  Every row of y must hold
    the same class counts."""
    b, n, p = z.shape
    n1 = int(y[0].sum())
    n0 = n - n1
    z0 = z[y == 0].reshape(b, n0, p)
    z1 = z[y == 1].reshape(b, n1, p)
    mu = np.stack([z0.mean(axis=1), z1.mean(axis=1)], axis=1)
    priors = np.array([n0, n1], dtype=float) / n
    if pooled:
        cov = ((n0 - 1) * _shrunk_cov(z0, gamma) + (n1 - 1) * _shrunk_cov(z1, gamma)) / (
            n0 + n1 - 2)
        covs = np.stack([cov, cov], axis=1)
    else:
        covs = np.stack([_shrunk_cov(z0, gamma), _shrunk_cov(z1, gamma)], axis=1)
    sign, logdet = np.linalg.slogdet(covs)
    if np.any(sign <= 0):
        raise NumericalError("singular class covariance after shrinkage")
    return mu, priors, np.linalg.inv(covs), logdet


def _gaussian_posterior(mu, priors, inv, logdet, z):
    """P(fracture) at the standardized rows z (B, m, p) of each fit in a
    stack from _fit_gaussian."""
    logp = np.empty(z.shape[:2] + (2,))
    for c in range(2):
        d = z - mu[:, c, None, :]
        maha = np.einsum("bij,bjk,bik->bi", d, inv[:, c], d)
        logp[:, :, c] = np.log(priors[c]) - 0.5 * (maha + logdet[:, c, None])
    shift = logp.max(axis=2, keepdims=True)
    w = np.exp(logp - shift)
    return w[:, :, 1] / w.sum(axis=2)


def _nipals_pls(z, yc, n_components):
    """NIPALS PLS1 on a stack of centered features z (B, n, p) and centered
    coded responses yc (B, n).

    Returns the regression vectors b (B, p) so that z @ b approximates yc.
    A row whose deflation leaves nothing to explain stops there, and its b
    uses the components found before that.
    """
    x, y = z, yc
    w_list, p_list, q_list = [], [], []
    found = np.zeros(len(z), dtype=int)
    live = np.ones(len(z), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_components):
            w = (np.swapaxes(x, 1, 2) @ y[:, :, None])[:, :, 0]
            nw = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])
            live &= ~(nw < 1e-12)
            w = w / nw[:, None]
            t = (x @ w[:, :, None])[:, :, 0]
            tt = (t[:, None, :] @ t[:, :, None])[:, 0, 0]
            live &= ~(tt < 1e-12)
            pvec = (np.swapaxes(x, 1, 2) @ t[:, :, None])[:, :, 0] / tt[:, None]
            q = (y[:, None, :] @ t[:, :, None])[:, 0, 0] / tt
            x = x - t[:, :, None] * pvec[:, None, :]
            y = y - q[:, None] * t
            found += live
            w_list.append(w)
            p_list.append(pvec)
            q_list.append(q)
    w_mat = np.stack(w_list, axis=2)
    p_mat = np.stack(p_list, axis=2)
    q = np.stack(q_list, axis=1)
    b = np.empty((len(z), z.shape[2]))
    for c in np.unique(found):
        if c == 0:
            raise NumericalError("PLS found no usable component")
        rows = found == c
        wc = np.ascontiguousarray(w_mat[rows][:, :, :c])
        pc = np.ascontiguousarray(p_mat[rows][:, :, :c])
        # b = W (P'W)^-1 q
        b[rows] = (wc @ np.linalg.solve(np.swapaxes(pc, 1, 2) @ wc,
                                        q[rows][:, :c, None]))[:, :, 0]
    return b


def _pls_latent(z, x_mean, b, y_mean):
    """The PLS prediction of the coded label at z (B, m, p), per fit."""
    return ((z - x_mean[:, None, :]) @ b[:, :, None])[:, :, 0] + y_mean[:, None]


def _fit_pls(z, y, components):
    """Stacked PLS regression of the +/-1 coded label on z (B, n, p).

    Returns (b, x_mean, y_mean, latent): the training rows' latent values
    feed the logistic link.
    """
    x_mean = z.mean(axis=1)
    rank = np.linalg.matrix_rank(z - x_mean[:, None, :])
    bad = np.flatnonzero(components > np.maximum(rank, 1))
    if bad.size:
        raise DataError(f"components ({components}) exceeds feature rank ({rank[bad[0]]})")
    yc = np.where(y == 1, 1.0, -1.0)
    y_mean = yc.mean(axis=1)
    b = _nipals_pls(z - x_mean[:, None, :], yc - y_mean[:, None], components)
    return b, x_mean, y_mean, _pls_latent(z, x_mean, b, y_mean)


def _knn_scores(train_z, train_y, k, z):
    """Fraction of positive labels among the k nearest training points,
    with all distance ties at the k-th neighbor included."""
    d2 = ((z[:, None, :] - train_z[None, :, :]) ** 2).sum(axis=2)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    inc = d2 <= kth + 1e-12 * np.maximum(kth, 1.0)
    return (inc * train_y).sum(axis=1) / inc.sum(axis=1)


def train(spec: ClassifierSpec, x, y, feature_names=None) -> TrainedModel:
    """Fit one classifier.  x rows are subjects; y is 0/1 fracture status."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("x must be 2-D and aligned with y")
    if y.min() == y.max():
        raise DataError("both classes must be present")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(x.shape[1]))
    std = standardize_fit(x)
    z = standardize_apply(std, x)

    if spec.kind == "logistic":
        fit = fit_logistic(y, z, ridge=spec.ridge)
        params = {"fit": fit}
    elif spec.kind in ("lda", "qda"):
        mu, priors, inv, logdet = _fit_gaussian(z[None], y[None], spec.shrinkage,
                                                pooled=spec.kind == "lda")
        params = {"mu": list(mu[0]), "priors": priors, "inv": list(inv[0]),
                  "logdet": list(logdet[0])}
    elif spec.kind == "pls":
        b, x_mean, y_mean, latent = _fit_pls(z[None], y[None], spec.components)
        link = fit_logistic(y, latent[0], ridge=1e-8)
        params = {"b": b[0], "x_mean": x_mean[0], "y_mean": y_mean[0], "link": link}
    else:  # knn
        if spec.neighbors > x.shape[0]:
            raise DataError(f"k ({spec.neighbors}) exceeds training size ({x.shape[0]})")
        params = {"train_z": z, "train_y": y}
    return TrainedModel(spec=spec, feature_names=tuple(feature_names),
                        standardization=std, params=params)


def predict_scores(model: TrainedModel, x) -> np.ndarray:
    """Probability-like fracture scores in [0, 1] for rows of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != len(model.feature_names):
        raise DataError("feature count mismatch with trained model")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite values in prediction input")
    z = standardize_apply(model.standardization, x)
    kind = model.spec.kind
    p = model.params
    if kind == "logistic":
        return p["fit"].predict_proba(z)
    if kind in ("lda", "qda"):
        return _gaussian_posterior(np.array(p["mu"])[None], p["priors"],
                                   np.array(p["inv"])[None],
                                   np.array(p["logdet"])[None], z[None])[0]
    if kind == "pls":
        latent = _pls_latent(z[None], p["x_mean"][None], p["b"][None],
                             np.array([p["y_mean"]]))[0]
        return p["link"].predict_proba(latent[:, None])
    return _knn_scores(p["train_z"], p["train_y"], model.spec.neighbors, z)


def train_and_score_stack(spec: ClassifierSpec, x, y, x_test) -> np.ndarray:
    """Scores (B, m) of one fit per row of a stack of splits: row i trains
    on x[i] (n, p) with labels y[i] and scores x_test[i] (m, p).

    Row i equals predict_scores(train(spec, x[i], y[i]), x_test[i]).  The
    fits run on train's stacked kernels, except kNN, which scores one row
    at a time.  The logistic fits form no covariance or p-value, and a fit
    the stacked IRLS cannot finish is refit on its own (fit_logistic_stack).
    Every row of y must hold the same class counts, as stratified splits do.
    """
    x = np.asarray(x, dtype=float)
    x_test = np.asarray(x_test, dtype=float)
    y = np.asarray(y, dtype=int)
    n_pos = y.sum(axis=1)
    if np.any((n_pos == 0) | (n_pos == y.shape[1])):
        raise DataError("both classes must be present")
    if np.any(n_pos != n_pos[0]):
        raise DataError("every split must hold the same class counts")
    if not np.all(np.isfinite(x_test)):
        raise DataError("non-finite values in prediction input")
    std = standardize_fit(x)
    z = standardize_apply(std, x)
    z_test = standardize_apply(std, x_test)
    kind = spec.kind
    if kind == "logistic":
        return predict_proba_stack(fit_logistic_stack(y, z, spec.ridge), z_test)
    if kind in ("lda", "qda"):
        return _gaussian_posterior(*_fit_gaussian(z, y, spec.shrinkage, pooled=kind == "lda"),
                                   z_test)
    if kind == "pls":
        b, x_mean, y_mean, latent = _fit_pls(z, y, spec.components)
        link = fit_logistic_stack(y, latent[:, :, None], 1e-8)
        return predict_proba_stack(link, _pls_latent(z_test, x_mean, b, y_mean)[:, :, None])
    if spec.neighbors > x.shape[1]:
        raise DataError(f"k ({spec.neighbors}) exceeds training size ({x.shape[1]})")
    return np.stack([_knn_scores(z[i], y[i], spec.neighbors, z_test[i])
                     for i in range(len(z))])


def pls_latent(model: TrainedModel, x) -> np.ndarray:
    """Raw PLS regression prediction of the coded label (for diagnostics)."""
    if model.spec.kind != "pls":
        raise DataError("not a PLS model")
    z = standardize_apply(model.standardization, np.asarray(x, dtype=float))
    p = model.params
    return _pls_latent(z[None], p["x_mean"][None], p["b"][None], np.array([p["y_mean"]]))[0]


# ---------------------------------------------------------------------------
# JSON round trip for the CLI


def model_to_json(model: TrainedModel) -> dict:
    def arr(a):
        return np.asarray(a).tolist()

    out = {
        "kind": model.spec.kind,
        "spec": {
            "ridge": model.spec.ridge, "shrinkage": model.spec.shrinkage,
            "components": model.spec.components, "neighbors": model.spec.neighbors,
        },
        "feature_names": list(model.feature_names),
        "standardization": {"mean": arr(model.standardization.mean),
                            "sd": arr(model.standardization.sd)},
    }
    p = model.params
    kind = model.spec.kind
    if kind == "logistic":
        out["params"] = {"intercept": p["fit"].intercept, "coef": arr(p["fit"].coef)}
    elif kind in ("lda", "qda"):
        out["params"] = {
            "mu": [arr(m) for m in p["mu"]], "priors": arr(p["priors"]),
            "inv": [arr(m) for m in p["inv"]], "logdet": list(p["logdet"]),
        }
    elif kind == "pls":
        out["params"] = {
            "b": arr(p["b"]), "x_mean": arr(p["x_mean"]), "y_mean": p["y_mean"],
            "link_intercept": p["link"].intercept, "link_coef": arr(p["link"].coef),
        }
    else:
        out["params"] = {"train_z": arr(p["train_z"]), "train_y": arr(p["train_y"])}
    return out


def model_from_json(doc: dict) -> TrainedModel:
    spec = ClassifierSpec(kind=doc["kind"], **doc["spec"])
    std = StandardizationParams(np.array(doc["standardization"]["mean"]),
                                np.array(doc["standardization"]["sd"]))
    p = doc["params"]
    kind = doc["kind"]
    if kind == "logistic":
        coef = np.array(p["coef"], dtype=float)
        fit = LogisticFit(names=("intercept",) + tuple(doc["feature_names"]),
                          intercept=float(p["intercept"]), coef=coef,
                          se=np.zeros(coef.size + 1), p=np.ones(coef.size + 1),
                          converged=True, iterations=0, penalized=False, ridge=0.0)
        params = {"fit": fit}
    elif kind in ("lda", "qda"):
        params = {
            "mu": [np.array(m) for m in p["mu"]],
            "priors": np.array(p["priors"]),
            "inv": [np.array(m) for m in p["inv"]],
            "logdet": list(p["logdet"]),
        }
    elif kind == "pls":
        coef = np.array([p["link_coef"]], dtype=float).ravel()
        link = LogisticFit(names=("intercept", "latent"),
                           intercept=float(p["link_intercept"]), coef=coef,
                           se=np.zeros(2), p=np.ones(2),
                           converged=True, iterations=0, penalized=False, ridge=0.0)
        params = {"b": np.array(p["b"]), "x_mean": np.array(p["x_mean"]),
                  "y_mean": float(p["y_mean"]), "link": link}
    else:
        params = {"train_z": np.array(p["train_z"]), "train_y": np.array(p["train_y"], dtype=int)}
    return TrainedModel(spec=spec, feature_names=tuple(doc["feature_names"]),
                        standardization=std, params=params)
