"""Evaluation protocols: stratified splits, repeated 75/25 leave-group-out
cross-validation, shared stratified resampling with paired one-sided
t-tests, and the DeLong comparison against an external FRAX score.

Every split is driven by a seed derived from (base_seed, repeat, draw)
through a 64-bit mixing function, so the whole report is a pure function
of (cohort, config, seed).  Resamples run serially: every fit is small,
GIL-bound work, so threads cannot overlap them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classifiers import ClassifierSpec, predict_scores, train
from .datamodel import FE9, Cohort, FeatureSet, build_feature_matrix
from .errors import DataError, NumericalError
from .stats.pca import PcaModel, fit_pca, risk_index
from .stats.roc import RocCurve, auc_mann_whitney, delong_compare, roc_curve
from .stats.ttests import paired_one_sided_ttest

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(base: int, *parts: int) -> int:
    """Derive an independent 64-bit stream seed via splitmix64 finalizers."""
    x = base & _MASK
    for p in parts:
        x = (x + _GOLDEN + (p & _MASK)) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        x = z ^ (z >> 31)
    return x


@dataclass(frozen=True)
class CvConfig:
    train_fraction: float = 0.75
    repeats: int = 25
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must be in (0, 1)")
        if self.repeats < 1:
            raise DataError("repeats must be >= 1")


@dataclass(frozen=True)
class ResampleConfig:
    resamples: int = 1000
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.resamples < 2:
            raise DataError("resamples must be >= 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must be in (0, 1)")


def stratified_split_indices(labels, fraction: float, seed: int):
    """Class-proportion-preserving index split (sorted within each side)."""
    y = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        if members.size < 2:
            raise DataError(f"class {cls} has fewer than 2 members")
        n_train = int(round(fraction * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        perm = rng.permutation(members)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return (np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx)))


def stratified_split(cohort: Cohort, fraction: float = 0.8, seed: int = 0):
    """Split a cohort into (train, test) preserving the fracture mix."""
    tr, te = stratified_split_indices(cohort.labels(), fraction, seed)
    return cohort.subset(tr), cohort.subset(te)


def fe9_matrix(cohort: Cohort) -> np.ndarray:
    return cohort.columns(FE9)


def fit_and_score(train_cohort: Cohort, test_cohort: Cohort,
                  feature_set: FeatureSet, spec: ClassifierSpec,
                  stratum: str = "all",
                  pca_full: Optional[PcaModel] = None):
    """Fit the full pipeline on the training cohort and score the test one.

    PCA for PC1 feature sets is fit on the training cohort only unless a
    prefit whole-sample model is supplied (paper mode).
    """
    pc1_train = pc1_test = None
    if feature_set.kind == "PC1_ABMD_COV":
        pca = pca_full if pca_full is not None else fit_pca(fe9_matrix(train_cohort))
        pc1_train = risk_index(pca, fe9_matrix(train_cohort))
        pc1_test = risk_index(pca, fe9_matrix(test_cohort))
    x_tr, y_tr, cols = build_feature_matrix(train_cohort, feature_set, stratum, pc1_train)
    x_te, y_te, _ = build_feature_matrix(test_cohort, feature_set, stratum, pc1_test)
    model = train(spec, x_tr, y_tr, cols)
    scores = predict_scores(model, x_te)
    return scores, y_te, model


def _single_class(y) -> bool:
    return np.min(y) == np.max(y)


def run_lgocv(cohort: Cohort, feature_set: FeatureSet, spec: ClassifierSpec,
              config: CvConfig, stratum: str = "all",
              pca_full: Optional[PcaModel] = None) -> np.ndarray:
    """Repeated stratified 75/25 cross-validation; one AUC per repeat."""
    sub = cohort.stratum(stratum)
    y = sub.labels()
    if min((y == 0).sum(), (y == 1).sum()) < 4:
        raise DataError("each class needs at least 4 members for LGOCV")
    aucs = np.empty(config.repeats)
    for r in range(config.repeats):
        tr, te = None, None
        for draw in (0, 1):
            seed = mix_seed(config.seed, r, draw)
            tr_i, te_i = stratified_split_indices(y, config.train_fraction, seed)
            if not _single_class(y[te_i]):
                tr, te = tr_i, te_i
                break
        if tr is None:
            raise NumericalError(f"repeat {r}: held-out part single-class after redraw")
        scores, y_te, _ = fit_and_score(sub.subset(tr), sub.subset(te),
                                        feature_set, spec, stratum, pca_full)
        aucs[r] = auc_mann_whitney(scores, y_te)
    return aucs


@dataclass(frozen=True)
class ResampleResult:
    """Paired AUC vectors per cell plus the pairwise one-sided tests."""

    cells: dict                      # cell name -> AUC vector
    comparisons: dict                # "a>b" -> TTestResult
    split_seeds: tuple


def cell_name(feature_set: FeatureSet, spec: ClassifierSpec) -> str:
    return f"{feature_set.name}|{spec.kind}"


def run_resample_comparison(cohort: Cohort, feature_sets: Sequence[FeatureSet],
                            specs: Sequence[ClassifierSpec],
                            config: ResampleConfig, stratum: str = "all",
                            pca_full: Optional[PcaModel] = None,
                            comparisons: Optional[Sequence[tuple]] = None,
                            threads: int = 1) -> ResampleResult:
    """Shared stratified resampling across every (feature set, classifier)
    cell, then paired one-sided t-tests on the AUC vectors.

    comparisons is a list of (cell_a, cell_b) names testing AUC_a > AUC_b;
    by default every ordered pair with mean(a) >= mean(b) is reported.
    threads is accepted for compatibility and ignored: resamples run
    serially.
    """
    sub = cohort.stratum(stratum)
    y = sub.labels()
    if min((y == 0).sum(), (y == 1).sum()) < 4:
        raise DataError("each class needs at least 4 members for resampling")
    pairs = [(fs, sp) for fs in feature_sets for sp in specs]
    names = [cell_name(fs, sp) for fs, sp in pairs]
    if len(set(names)) != len(names):
        raise DataError("duplicate evaluation cells")

    splits = []
    seeds = []
    for i in range(config.resamples):
        chosen = None
        for draw in (0, 1):
            seed = mix_seed(config.seed, i, draw)
            tr_i, te_i = stratified_split_indices(y, config.train_fraction, seed)
            if not _single_class(y[te_i]):
                chosen = (tr_i, te_i)
                seeds.append(seed)
                break
        if chosen is None:
            raise NumericalError(f"resample {i}: held-out part single-class after redraw")
        splits.append(chosen)

    aucs = {name: np.empty(config.resamples) for name in names}
    for i, (tr_i, te_i) in enumerate(splits):
        tr_c = sub.subset(tr_i)
        te_c = sub.subset(te_i)
        for name, (fs, sp) in zip(names, pairs):
            scores, y_te, _ = fit_and_score(tr_c, te_c, fs, sp, stratum, pca_full)
            aucs[name][i] = auc_mann_whitney(scores, y_te)

    if comparisons is None:
        comparisons = []
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                na, nb = names[a], names[b]
                if aucs[na].mean() >= aucs[nb].mean():
                    comparisons.append((na, nb))
                else:
                    comparisons.append((nb, na))
    tests = {}
    for na, nb in comparisons:
        if na not in aucs or nb not in aucs:
            raise DataError(f"comparison references unknown cell: {na} vs {nb}")
        tests[f"{na}>{nb}"] = paired_one_sided_ttest(aucs[na], aucs[nb])
    return ResampleResult(cells=aucs, comparisons=tests, split_seeds=tuple(seeds))


def compare_with_frax(cohort: Cohort, model_scores, direction: str = "a_greater"):
    """Paired DeLong comparison of pipeline scores against the FRAX column.

    Returns (DeLongResult, model ROC, FRAX ROC).
    """
    missing = cohort.missing_frax()
    if missing:
        raise DataError(f"frax_prob missing for {len(missing)} subjects (first: {missing[0]})")
    frax = cohort.columns(["frax_prob"])[:, 0]
    y = cohort.labels()
    scores = np.asarray(model_scores, dtype=float)
    if scores.shape[0] != y.shape[0]:
        raise DataError("model scores must align with the cohort")
    result = delong_compare(scores, frax, y, direction)
    return result, roc_curve(scores, y), roc_curve(frax, y)


# ---------------------------------------------------------------------------
# Report serialization


def _round6(x):
    return float(f"{float(x):.6g}")


def _jsonify(obj):
    if isinstance(obj, float):
        return _round6(obj)
    if isinstance(obj, (np.floating,)):
        return _round6(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def build_report(results: dict, configs: dict, seed: int,
                 extra: Optional[dict] = None) -> str:
    """Deterministic JSON report: sorted keys, 6 significant digits."""
    cells = {}
    for name, vec in results.get("cells", {}).items():
        v = np.asarray(vec, dtype=float)
        cells[name] = {
            "auc_mean": v.mean(),
            "auc_sd": v.std(ddof=1) if v.size > 1 else 0.0,
            "aucs": v,
        }
    comparisons = {}
    for name, t in results.get("comparisons", {}).items():
        comparisons[name] = {"t": t.t, "df": t.df, "p": t.p, "tail": t.tail}
    doc = {
        "cells": cells,
        "comparisons": comparisons,
        "configs": configs,
        "seed": seed,
    }
    if extra:
        doc.update(extra)
    return json.dumps(_jsonify(doc), sort_keys=True, indent=2) + "\n"


def write_roc_csv(curve: RocCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fpr,tpr,threshold\n")
        for f, t, th in zip(curve.fpr, curve.tpr, curve.thresholds):
            fh.write(f"{f:.10g},{t:.10g},{th:.10g}\n")
