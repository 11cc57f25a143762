"""The trainable fracture-status classifiers behind one train/score contract.

Five kinds: logistic regression, linear and quadratic discriminant analysis
(with diagonal shrinkage), PLS discriminant analysis (NIPALS components on
the +/-1 coded label with a logistic calibration layer) and k-nearest
neighbors.  Every kind standardizes its features internally using training
data only, and every score is a probability-like value in [0, 1] with
larger meaning more likely fracture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import StandardizationParams, standardize_apply, standardize_fit
from .errors import DataError, NumericalError
from .stats.logistic import LogisticFit, fit_logistic

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
    cov = np.cov(z, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return (1.0 - gamma) * cov + gamma * np.diag(np.diag(cov))


def _fit_gaussian(z, y, gamma, pooled):
    """Class means plus pooled or per-class shrunk covariances."""
    z0 = z[y == 0]
    z1 = z[y == 1]
    mu0 = z0.mean(axis=0)
    mu1 = z1.mean(axis=0)
    priors = np.array([z0.shape[0], z1.shape[0]], dtype=float) / z.shape[0]
    if pooled:
        n0, n1 = z0.shape[0], z1.shape[0]
        cov = ((n0 - 1) * _shrunk_cov(z0, gamma) + (n1 - 1) * _shrunk_cov(z1, gamma)) / (
            n0 + n1 - 2)
        covs = [cov, cov]
    else:
        covs = [_shrunk_cov(z0, gamma), _shrunk_cov(z1, gamma)]
    inv, logdet = [], []
    for c in covs:
        sign, ld = np.linalg.slogdet(c)
        if sign <= 0:
            raise NumericalError("singular class covariance after shrinkage")
        inv.append(np.linalg.inv(c))
        logdet.append(ld)
    return {"mu": [mu0, mu1], "priors": priors, "inv": inv, "logdet": logdet}


def _gaussian_posterior(params, z):
    logp = np.empty((z.shape[0], 2))
    for c in range(2):
        d = z - params["mu"][c]
        maha = np.einsum("ij,jk,ik->i", d, params["inv"][c], d)
        logp[:, c] = np.log(params["priors"][c]) - 0.5 * (maha + params["logdet"][c])
    shift = logp.max(axis=1, keepdims=True)
    w = np.exp(logp - shift)
    return w[:, 1] / w.sum(axis=1)


def _nipals_pls(z, yc, n_components):
    """NIPALS PLS1 on centered features and a centered coded response.

    Returns the regression vector b so that z @ b approximates yc.
    """
    x = z.copy()
    y = yc.copy().astype(float)
    n, p = x.shape
    w_list, p_list, q_list = [], [], []
    for _ in range(n_components):
        w = x.T @ y
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            break
        w /= nw
        t = x @ w
        tt = float(t @ t)
        if tt < 1e-12:
            break
        pvec = x.T @ t / tt
        q = float(y @ t) / tt
        x = x - np.outer(t, pvec)
        y = y - q * t
        w_list.append(w)
        p_list.append(pvec)
        q_list.append(q)
    if not w_list:
        raise NumericalError("PLS found no usable component")
    w_mat = np.column_stack(w_list)
    p_mat = np.column_stack(p_list)
    q = np.array(q_list)
    # b = W (P'W)^-1 q
    b = w_mat @ np.linalg.solve(p_mat.T @ w_mat, q)
    return b


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
    elif spec.kind == "lda":
        params = _fit_gaussian(z, y, spec.shrinkage, pooled=True)
    elif spec.kind == "qda":
        params = _fit_gaussian(z, y, spec.shrinkage, pooled=False)
    elif spec.kind == "pls":
        rank = np.linalg.matrix_rank(z - z.mean(axis=0))
        if spec.components > max(rank, 1):
            raise DataError(f"components ({spec.components}) exceeds feature rank ({rank})")
        yc = np.where(y == 1, 1.0, -1.0)
        zc_mean = z.mean(axis=0)
        y_mean = yc.mean()
        b = _nipals_pls(z - zc_mean, yc - y_mean, spec.components)
        latent = (z - zc_mean) @ b + y_mean
        link = fit_logistic(y, latent, ridge=1e-8)
        params = {"b": b, "x_mean": zc_mean, "y_mean": y_mean, "link": link}
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
    if kind == "logistic":
        return model.params["fit"].predict_proba(z)
    if kind in ("lda", "qda"):
        return _gaussian_posterior(model.params, z)
    if kind == "pls":
        latent = (z - model.params["x_mean"]) @ model.params["b"] + model.params["y_mean"]
        return model.params["link"].predict_proba(latent[:, None])
    # knn: fraction of positive labels among the k nearest training points,
    # with all distance ties at the k-th neighbor included.
    tz = model.params["train_z"]
    ty = model.params["train_y"]
    k = model.spec.neighbors
    d2 = ((z[:, None, :] - tz[None, :, :]) ** 2).sum(axis=2)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    inc = d2 <= kth + 1e-12 * np.maximum(kth, 1.0)
    return (inc * ty).sum(axis=1) / inc.sum(axis=1)


def pls_latent(model: TrainedModel, x) -> np.ndarray:
    """Raw PLS regression prediction of the coded label (for diagnostics)."""
    if model.spec.kind != "pls":
        raise DataError("not a PLS model")
    z = standardize_apply(model.standardization, np.asarray(x, dtype=float))
    return (z - model.params["x_mean"]) @ model.params["b"] + model.params["y_mean"]


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
