"""ROC curves, Mann-Whitney AUC with tie handling, and DeLong's paired test
(DeLong et al. 1988), whose placement values come from midranks along the
last axis, one pass for both score vectors (Sun & Xu 2014)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericalError, require_labels, require_one_per_label
from ._special import ndtr


@dataclass(frozen=True)
class RocCurve:
    """Threshold-swept ROC curve.  Points run from (0, 0) to (1, 1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


@dataclass(frozen=True)
class DeLongResult:
    auc_a: float
    auc_b: float
    var_diff: float
    z: float
    p: float


def _finite_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    return s


def roc_curve(scores, labels) -> RocCurve:
    """ROC via a sweep over the unique score values as thresholds.

    A point (fpr, tpr) at threshold t classifies score >= t as positive.
    """
    y = require_labels(labels)
    s = _finite_scores(scores)
    require_one_per_label(y, s, "scores")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    # Cumulative counts at each distinct threshold.
    distinct = np.r_[np.diff(s_sorted) != 0, True]
    tp = np.cumsum(y_sorted)[distinct]
    fp = np.cumsum(1 - y_sorted)[distinct]
    tpr = np.r_[0.0, tp / n_pos]
    fpr = np.r_[0.0, fp / n_neg]
    thresholds = np.r_[np.inf, s_sorted[distinct]]
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def _midranks(x: np.ndarray) -> np.ndarray:
    """Midranks (1-based) along the last axis; tied values get the mean of
    their rank range.

    A run of equal sorted values spanning positions [start, end) gets the
    rank 0.5 * (start + end - 1) + 1 (Sun & Xu 2014).
    """
    order = np.argsort(x, axis=-1, kind="stable")
    z = np.take_along_axis(x, order, axis=-1)
    n = x.shape[-1]
    pos = np.arange(n)
    first = np.ones(x.shape, dtype=bool)
    first[..., 1:] = z[..., 1:] != z[..., :-1]
    last = np.ones(x.shape, dtype=bool)
    last[..., :-1] = first[..., 1:]
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    end = np.flip(np.minimum.accumulate(np.flip(np.where(last, pos + 1, n), -1), axis=-1), -1)
    out = np.empty(x.shape)
    np.put_along_axis(out, order, 0.5 * (start + end - 1) + 1.0, axis=-1)
    return out


def auc_mann_whitney(scores, labels) -> float:
    """AUC as the Mann-Whitney statistic with ties counted one half, along
    the last axis of scores and labels."""
    y = require_labels(labels)
    s = np.asarray(scores, dtype=float)
    require_one_per_label(y, s, "scores", axis=-1)
    return auc_rows(s, y)


def auc_rows(scores, labels):
    """auc_mann_whitney along the last axis: one AUC per row of a (B, m)
    score stack, against 0/1 labels of the same shape whose rows each hold
    both classes."""
    s = _finite_scores(scores)
    pos = np.asarray(labels) == 1
    n_pos = pos.sum(axis=-1)
    n_neg = pos.shape[-1] - n_pos
    # Midranks are multiples of 1/2, so these sums are exact in any order.
    rank_sum_pos = np.where(pos, _midranks(s), 0.0).sum(axis=-1)
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _placements(scores: np.ndarray, y: np.ndarray):
    """DeLong structural components (placement values) of the score vectors
    along the last axis of scores, against the 0/1 labels y.

    Returns (auc, v10 per case, v01 per control) of each vector, using
    midranks so ties count one half.
    """
    pos = scores[..., y == 1]
    neg = scores[..., y == 0]
    m = pos.shape[-1]
    n = neg.shape[-1]
    all_ranks = _midranks(np.concatenate([pos, neg], axis=-1))
    pos_ranks = _midranks(pos)
    neg_ranks = _midranks(neg)
    v10 = (all_ranks[..., :m] - pos_ranks) / n
    v01 = 1.0 - (all_ranks[..., m:] - neg_ranks) / m
    auc = v10.mean(axis=-1)
    return auc, v10, v01


def delong_compare(scores_a, scores_b, labels) -> DeLongResult:
    """Paired DeLong test for correlated ROC AUCs on the same subjects.

    p is one-sided, for AUC_a > AUC_b.  Identical scores give z = 0, p = 0.5.
    """
    y = require_labels(labels)
    a = _finite_scores(scores_a)
    b = _finite_scores(scores_b)
    require_one_per_label(y, a, "scores")
    require_one_per_label(y, b, "scores")
    (auc_a, auc_b), v10, v01 = _placements(np.stack([a, b]), y)
    m = v10.shape[1]
    n = v01.shape[1]
    s10 = np.cov(v10, ddof=1) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(v01, ddof=1) if n > 1 else np.zeros((2, 2))
    cov = s10 / m + s01 / n
    var_diff = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
    delta = auc_a - auc_b
    if var_diff <= 0:
        if abs(delta) < 1e-15:
            z = 0.0
        else:
            raise NumericalError("degenerate DeLong comparison: zero variance, nonzero AUC difference")
    else:
        z = delta / math.sqrt(var_diff)
    return DeLongResult(auc_a=auc_a, auc_b=auc_b, var_diff=max(var_diff, 0.0),
                        z=z, p=ndtr(-z))
