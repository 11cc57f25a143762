"""The shared input checks at every entry point that takes them: 0/1
fracture labels (errors.require_labels), one score or row per label
(errors.require_one_per_label) and finite training values
(datamodel.standardize_fit)."""

import dataclasses

import numpy as np
import pytest

from femrisk.classifiers import KINDS, predict_scores, score_stack, standardize_stack, train
from femrisk.datamodel import FE9
from femrisk.errors import DataError, require_labels
from femrisk.evaluate import stratified_split_block, stratified_split_indices
from femrisk.stats import (auc_mann_whitney, delong_compare, fit_logistic, fit_pca,
                           roc_curve, select_significant_pcs)
from femrisk.stats.pca import fit_pca_stack

RNG = np.random.default_rng(0)
Y = np.tile([0, 1], 10)
YS = np.stack([Y, Y[::-1]])          # a stack of two rows, equal class counts
X = RNG.normal(size=(Y.size, len(FE9)))
S = RNG.normal(size=(2, Y.size))     # two score vectors
Z, Z_TE = standardize_stack(np.stack([X, X[::-1]]), np.stack([X[:5], X[5:10]]))

# Each entry point that takes fracture labels: (its int labels, a call on
# labels shaped like them).
ENTRY_POINTS = {
    "roc_curve": (Y, lambda y: roc_curve(S[0], y)),
    "auc_mann_whitney": (YS, lambda y: auc_mann_whitney(S, y)),
    "delong_compare": (Y, lambda y: delong_compare(S[0], S[1], y)),
    "train": (Y, lambda y: predict_scores(train("lda", X, y), X)),
    "score_stack": (YS, lambda y: score_stack(["lda", "knn"], Z, y, Z_TE)),
    "fit_logistic": (Y, lambda y: fit_logistic(y, X[:, :2])),
    "select_significant_pcs": (Y, lambda y: select_significant_pcs(S.T, y)),
    "stratified_split_indices": (Y, lambda y: stratified_split_indices(y, 0.5, 1)),
    "stratified_split_block": (Y, lambda y: stratified_split_block(y, 0.5, [1, 2])),
}


def with_value(y, value):
    """The labels y as nested lists, with the fourth label of the first row
    replaced by value."""
    out = y.tolist()
    (out[0] if y.ndim == 2 else out)[3] = value
    return out


def assert_same(a, b):
    """Equal results: arrays, numbers, dataclasses and sequences of them."""
    if dataclasses.is_dataclass(a):
        a, b = list(vars(a).values()), list(vars(b).values())
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert_same(u, v)
    else:
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLabels:
    @pytest.mark.parametrize("value", [0.5, 1.7, 2, -1, np.nan, "1"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_label_other_than_0_or_1_rejected(self, entry, value):
        y, call = ENTRY_POINTS[entry]
        with pytest.raises(DataError, match="^labels must be 0/1$"):
            call(with_value(y, value))

    @pytest.mark.parametrize("dtype", [bool, float])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bool_and_float_labels_give_the_int_result(self, entry, dtype):
        y, call = ENTRY_POINTS[entry]
        assert_same(call(y.astype(dtype)), call(y))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_one_class_rejected(self, entry):
        y, call = ENTRY_POINTS[entry]
        with pytest.raises(DataError, match="^both classes must be present$"):
            call(np.zeros_like(y))

    def test_every_row_of_a_stack_holds_both_classes(self):
        with pytest.raises(DataError, match="^both classes must be present$"):
            auc_mann_whitney(S, np.stack([Y, np.ones_like(Y)]))
        assert_same(auc_mann_whitney(S, YS), [auc_mann_whitney(s, y) for s, y in zip(S, YS)])

    def test_int_labels_not_copied(self):
        assert require_labels(Y) is Y
        assert require_labels(YS) is YS


# Each entry point that takes labels with scores or rows: a call on labels
# one shorter than the scores or rows, and the error it must give.
SHORT = Y[:-1]
ONE_PER_LABEL = {
    "roc_curve": (lambda: roc_curve(S[0], SHORT), "20 scores for 19 labels"),
    "auc_mann_whitney": (lambda: auc_mann_whitney(S[0], SHORT), "20 scores for 19 labels"),
    "auc_mann_whitney_stack": (lambda: auc_mann_whitney(S, YS[:, :-1]),
                               "20 scores for 19 labels"),
    "delong_compare_a": (lambda: delong_compare(S[0, :-1], S[1, :-2], Y[:-2]),
                         "19 scores for 18 labels"),
    "delong_compare_b": (lambda: delong_compare(S[0, :-2], S[1], Y[:-2]),
                         "20 scores for 18 labels"),
    "train": (lambda: train("lda", X, SHORT), "20 rows of x for 19 labels"),
    "fit_logistic": (lambda: fit_logistic(SHORT, X[:, :2]), "20 rows of x for 19 labels"),
    "fit_logistic_1d": (lambda: fit_logistic(SHORT, X[:, 0]), "20 rows of x for 19 labels"),
    "select_significant_pcs": (lambda: select_significant_pcs(S.T, SHORT),
                               "20 rows of x for 19 labels"),
}


@pytest.mark.parametrize("entry", ONE_PER_LABEL)
def test_one_score_or_row_per_label(entry):
    call, message = ONE_PER_LABEL[entry]
    with pytest.raises(DataError, match=f"^{message}$"):
        call()


# Each fit that standardizes its training rows, on a training matrix (n, 9).
FITS = {
    **{f"train_{kind}": (lambda x, kind=kind: train(kind, x, Y)) for kind in KINDS},
    "standardize_stack": lambda x: standardize_stack(x[None], X[None, :5]),
    "fit_pca": fit_pca,
    "fit_pca_stack": lambda x: fit_pca_stack(x[None]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit", FITS)
def test_non_finite_training_value_rejected(fit, value):
    x = X.copy()
    x[7, 2] = value
    with pytest.raises(DataError, match="^non-finite values in fit input$"):
        FITS[fit](x)
