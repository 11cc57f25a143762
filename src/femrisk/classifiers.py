"""The trainable fracture-status classifiers behind one train/score contract.

Five kinds, each with fixed settings: logistic regression (ridge RIDGE on
the slopes), linear and quadratic discriminant analysis (covariances shrunk
by SHRINKAGE toward their diagonal), PLS discriminant analysis
(PLS_COMPONENTS NIPALS components on the +/-1 coded label, capped at the
feature count, with a logistic calibration layer) and k-nearest neighbors
(k = NEIGHBORS, counting every tie at the k-th distance; distances within
1e-12 relative of it count as ties, which absorbs their rounding).  A
classifier is its kind, one of the strings in KINDS.  Every kind
standardizes its features internally using training data only, and every
score is a probability-like value in [0, 1] with larger meaning more likely
fracture.

Each kind has one fit and one score, _fit and _score, which work on a stack
of splits: every array of a fit's params carries a leading split axis.
standardize_stack standardizes a block of splits once, and score_stack
runs the pair for several kinds on its rows; evaluate calls the two, so
that the raw and the standardized block are not both held while the fits
run.  train runs _fit on a stack of one and drops the axis, and
predict_scores restores it for _score.  The model file holds only the
logistic model `femrisk fit` writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import StandardizationParams, standardize_apply, standardize_fit
from .errors import DataError, NumericalError, malformed, require_labels, require_one_per_label
# fit_logistic is not called here; it stays importable because
# perfbench/tracing.py WRAPS traces femrisk.classifiers.fit_logistic.
from .stats.logistic import fit_logistic, fit_logistic_stack, predict_proba_stack  # noqa: F401

KINDS = ("logistic", "lda", "qda", "pls", "knn")
RIDGE = 1e-4            # logistic, on the slopes
SHRINKAGE = 0.1         # lda/qda, toward the diagonal
PLS_COMPONENTS = 3      # pls, capped at the feature count
NEIGHBORS = 5           # knn


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    feature_names: tuple[str, ...]
    standardization: StandardizationParams
    params: dict                  # _fit's params without the split axis


def _shrunk_cov(z: np.ndarray, gamma: float) -> np.ndarray:
    """np.cov(ddof=1) of each matrix in a stack (B, n, p), shrunk toward
    its diagonal by gamma."""
    d = z - z.mean(axis=1, keepdims=True)
    # Scaled by the reciprocal, as np.cov scales, so the values are np.cov's.
    cov = (np.swapaxes(d, 1, 2) @ d) * np.true_divide(1, z.shape[1] - 1)
    diag = np.eye(z.shape[2]) * np.diagonal(cov, axis1=1, axis2=2)[:, None, :]
    return (1.0 - gamma) * cov + gamma * diag


def _fit_gaussian(z, y, gamma, pooled):
    """Class means (B, 2, p) and priors (B, 2) of a stack of fits on z
    (B, n, p), with the inverses (B, k, p, p) and log-determinants (B, k)
    of their shrunk covariances: k = 1 for the pooled covariance, k = 2 for
    one per class.  Every row of y must hold the same class counts."""
    b, n, p = z.shape
    n1 = int(y[0].sum())
    n0 = n - n1
    z0 = z[y == 0].reshape(b, n0, p)
    z1 = z[y == 1].reshape(b, n1, p)
    mu = np.stack([z0.mean(axis=1), z1.mean(axis=1)], axis=1)
    priors = np.tile(np.array([n0, n1], dtype=float) / n, (b, 1))
    covs = np.stack([_shrunk_cov(z0, gamma), _shrunk_cov(z1, gamma)], axis=1)
    if pooled:
        covs = ((n0 - 1) * covs[:, :1] + (n1 - 1) * covs[:, 1:]) / (n0 + n1 - 2)
    # A column constant within a class leaves rounding noise, not 0, on the
    # diagonal; the bound is standardize_fit's.
    flat = np.flatnonzero(np.diagonal(covs, axis1=2, axis2=3) <= 1e-12)
    if flat.size:
        c, j = np.unravel_index(flat[0], covs.shape[:3])[1:]
        within = "each class" if pooled else f"class {c}"
        raise NumericalError(f"column at index {j} is constant within {within}")
    sign, logdet = np.linalg.slogdet(covs)
    if np.any(sign <= 0):
        raise NumericalError("singular class covariance after shrinkage")
    return mu, priors, np.linalg.inv(covs), logdet


def _gaussian_posterior(mu, priors, inv, logdet, z):
    """P(fracture) at the standardized rows z (B, m, p) of each fit in a
    stack from _fit_gaussian; a pooled fit's one covariance (k = 1)
    broadcasts across both classes."""
    d = z[:, None] - mu[:, :, None, :]
    maha = ((d @ inv) * d).sum(axis=3)
    logp = np.log(priors)[:, :, None] - 0.5 * (maha + logdet[:, :, None])
    w = np.exp(logp - logp.max(axis=1, keepdims=True))
    return w[:, 1] / w.sum(axis=1)


def _nipals_pls(z, yc, n_components):
    """NIPALS PLS1 on a stack of centered features z (B, n, p) and centered
    coded responses yc (B, n); z is deflated in place.

    Returns the regression vectors b (B, p) so that z @ b approximates yc.
    A row whose deflation leaves nothing to explain stops there, and its b
    uses the components found before that.
    """
    x, y = z, yc
    tp = np.empty_like(x)
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
            x -= np.multiply(t[:, :, None], pvec[:, None, :], out=tp)
            y = y - q[:, None] * t
            found += live
            w_list.append(w)
            p_list.append(pvec)
            q_list.append(q)
    w_mat = np.stack(w_list, axis=2)
    p_mat = np.stack(p_list, axis=2)
    q = np.stack(q_list, axis=1)
    b = np.empty((len(z), z.shape[2]))
    for c in np.flatnonzero(np.bincount(found)):
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
    zc = z - x_mean[:, None, :]
    rank = np.linalg.matrix_rank(zc)
    bad = np.flatnonzero(components > np.maximum(rank, 1))
    if bad.size:
        raise DataError(f"components ({components}) exceeds feature rank ({rank[bad[0]]})")
    yc = np.where(y == 1, 1.0, -1.0)
    y_mean = yc.mean(axis=1)
    b = _nipals_pls(zc, yc - y_mean[:, None], components)
    return b, x_mean, y_mean, _pls_latent(z, x_mean, b, y_mean)


def _sq_distances(z, train_z) -> np.ndarray:
    """Squared Euclidean distances (m, n) between the rows a of z (m, p) and
    b of train_z (n, p), in the Gram form |a|^2 + |b|^2 - 2 a.b: one matrix
    product and two vectors of row norms.

    Each distance is off the exact one by about p * eps * (|a|^2 + |b|^2),
    and two equal training rows can get a.b values that differ by about
    eps * |a.b|, because the product may sum them in different orders; a
    distance near 0 may come out slightly negative.  _knn_scores counts ties
    within 1e-12 * max(kth, 1), far wider than that rounding on
    standardized rows, so the scores are those of the exact distances.
    """
    d2 = z @ train_z.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", z, z)[:, None]
    d2 += np.einsum("ij,ij->i", train_z, train_z)
    return d2


def _knn_scores(train_z, train_y, k, z):
    """Fraction of positive labels among the k nearest training points,
    with all distance ties at the k-th neighbor included."""
    d2 = _sq_distances(z, train_z)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    inc = d2 <= kth + 1e-12 * np.maximum(kth, 1.0)
    return (inc * train_y).sum(axis=1) / inc.sum(axis=1)


def _fit(kind: str, z, y) -> dict:
    """One fit per row of a stack of standardized training rows z (B, n, p)
    with labels y (B, n); every array of the returned params carries that
    leading split axis.  Every row of y must hold the same class counts.
    A kind not in KINDS raises DataError."""
    if kind == "logistic":
        return {"beta": fit_logistic_stack(y, z, RIDGE)}
    if kind in ("lda", "qda"):
        mu, priors, inv, logdet = _fit_gaussian(z, y, SHRINKAGE, pooled=kind == "lda")
        return {"mu": mu, "priors": priors, "inv": inv, "logdet": logdet}
    if kind == "pls":
        b, x_mean, y_mean, latent = _fit_pls(z, y, min(PLS_COMPONENTS, z.shape[2]))
        return {"b": b, "x_mean": x_mean, "y_mean": y_mean,
                "link": fit_logistic_stack(y, latent[:, :, None], 1e-8)}
    if kind != "knn":
        raise DataError(f"unknown classifier kind {kind!r}")
    if NEIGHBORS > z.shape[1]:
        raise DataError(f"k ({NEIGHBORS}) exceeds training size ({z.shape[1]})")
    return {"train_z": z, "train_y": y}


def _score(kind: str, params: dict, z) -> np.ndarray:
    """Scores (B, m) of the standardized rows z (B, m, p), row i by fit i of
    params from _fit."""
    if kind == "logistic":
        return predict_proba_stack(params["beta"], z)
    if kind in ("lda", "qda"):
        return _gaussian_posterior(params["mu"], params["priors"], params["inv"],
                                   params["logdet"], z)
    if kind == "pls":
        latent = _pls_latent(z, params["x_mean"], params["b"], params["y_mean"])
        return predict_proba_stack(params["link"], latent[:, :, None])
    return np.stack([_knn_scores(tz, ty, NEIGHBORS, zi)
                     for tz, ty, zi in zip(params["train_z"], params["train_y"], z)])


def train(kind: str, x, y, feature_names=None) -> TrainedModel:
    """Fit one classifier: _fit on a stack of one, with the split axis
    dropped from its params.  x rows are subjects; y is 0/1 fracture status."""
    x = np.asarray(x, dtype=float)
    y = require_labels(y)
    if x.ndim != 2:
        raise DataError("x must be 2-D")
    require_one_per_label(y, x, "rows of x")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(x.shape[1]))
    std = standardize_fit(x)
    params = _fit(kind, standardize_apply(std, x)[None], y[None])
    return TrainedModel(kind=kind, feature_names=tuple(feature_names),
                        standardization=std,
                        params={name: v[0] for name, v in params.items()})


def predict_scores(model: TrainedModel, x) -> np.ndarray:
    """Probability-like fracture scores in [0, 1] for the rows of x (m, p):
    _score with the split axis restored."""
    x = np.asarray(x, dtype=float)
    if x.shape[1:] != (len(model.feature_names),):
        raise DataError("feature count mismatch with trained model")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite values in prediction input")
    z = standardize_apply(model.standardization, x)
    params = {name: np.asarray(v)[None] for name, v in model.params.items()}
    return _score(model.kind, params, z[None])[0]


def standardize_stack(x, x_test):
    """The training rows x (B, n, p) and the rows to score x_test (B, m, p)
    of a stack of splits, each standardized by its split's fit on x."""
    x = np.asarray(x, dtype=float)
    x_test = np.asarray(x_test, dtype=float)
    if not np.all(np.isfinite(x_test)):
        raise DataError("non-finite values in prediction input")
    std = standardize_fit(x)
    return standardize_apply(std, x), standardize_apply(std, x_test)


def score_stack(kinds, z, y, z_test) -> list[np.ndarray]:
    """Scores (B, m) of every classifier kind in kinds on the rows of
    standardize_stack: row i trains on z[i] with labels y[i] and scores
    z_test[i], and equals predict_scores(train(kind, x[i], y[i]),
    x_test[i]) on the split's raw rows, since both run _fit and _score on
    the same standardized rows.  Every row of y must hold the same class
    counts, as stratified splits do."""
    y = require_labels(y)
    n_pos = y.sum(axis=1)
    if np.any(n_pos != n_pos[0]):
        raise DataError("every split must hold the same class counts")
    return [_score(kind, _fit(kind, z, y), z_test) for kind in kinds]


# ---------------------------------------------------------------------------
# The model file entry of `femrisk fit`: a logistic model


def model_to_json(model: TrainedModel) -> dict:
    if model.kind != "logistic":
        raise DataError(f"only logistic models are saved, not {model.kind}")
    beta = model.params["beta"]
    return {
        "kind": "logistic",
        "feature_names": list(model.feature_names),
        "standardization": {"mean": model.standardization.mean.tolist(),
                            "sd": model.standardization.sd.tolist()},
        "params": {"intercept": float(beta[0]), "coef": beta[1:].tolist()},
    }


def model_from_json(doc: dict) -> TrainedModel:
    """The model of a model_to_json entry; DataError when doc is not one.

    A logistic model's scores depend only on its coefficients and
    standardization; the "spec" block of older model files is ignored.
    """
    with malformed("model JSON"):
        if doc["kind"] != "logistic":
            raise DataError(f"kind must be logistic, got {doc['kind']!r}")
        names = tuple(doc["feature_names"])
        std = StandardizationParams(np.array(doc["standardization"]["mean"], dtype=float),
                                    np.array(doc["standardization"]["sd"], dtype=float))
        beta = np.array([doc["params"]["intercept"], *doc["params"]["coef"]], dtype=float)
        if not std.mean.shape == beta[1:].shape == (len(names),):
            raise DataError(f"{len(names)} feature names, {std.mean.size} standardization "
                            f"columns and {beta.size - 1} coefficients")
        if not np.all(np.isfinite(np.r_[beta, std.mean, std.sd])):
            raise DataError("non-finite coefficients or standardization")
    return TrainedModel(kind="logistic", feature_names=names,
                        standardization=std, params={"beta": beta})
