"""Evaluation protocols: stratified splits, repeated 75/25 leave-group-out
cross-validation, shared stratified resampling with paired one-sided
t-tests, and the DeLong comparison against an external FRAX score.

LGOCV and resampling are one protocol with different train fractions: a
single loop draws the stratified splits and scores every (feature set,
classifier) cell on them, so all cells share their splits.  Every split is
driven by a seed derived from (base_seed, split, 0) through a 64-bit
mixing function, so the whole report is a pure function of (cohort,
config, seed).  The trailing 0 is the same for every split; it stays
because it fixes every split, and so every report byte.

Every command builds features with one function, build_feature_matrix: it
gathers the train and test rows of a block of splits by row index from the
cohort's columns, with PC1 on a given PCA or on a fold PCA fit on each
split's training rows.  Stratified splits of one cohort all have the same
train and test sizes and class counts, so the loop works on blocks of BLOCK
splits as (B, n, p) stacks.  One classifiers.train_and_score_stack call per
(feature set, block) standardizes the block once and trains and scores it
with every classifier in one stacked fit each, which skips the covariance,
standard errors and p-values that cross-validation discards.
fit_and_score is a one-split call of the same builder, fit and score, so
each split's AUC equals what fit_and_score and auc_mann_whitney give for
that split alone.  A block that raises is replayed split by split through
fit_and_score, so the error is the one the first failing (split, feature
set, classifier) cell raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .classifiers import predict_scores, train, train_and_score_stack
from .datamodel import FE9, Cohort, standardize_apply
from .errors import DataError, FemriskError
# fit_pca and risk_index are not called here; they stay importable because
# perfbench/tracing.py WRAPS traces them in this module.
from .stats.pca import PcaModel, fit_pca, fit_pca_stack, risk_index  # noqa: F401
from .stats.roc import (RocCurve, auc_mann_whitney, auc_rows, delong_compare,
                        roc_curve)
from .stats.ttests import paired_one_sided_ttest

# Splits fitted as one stack.  Bigger blocks run faster but hold more in
# memory: evaluate_wide_t2 peaked at 109 MiB with 32, 113 MiB with 64 and
# 143 MiB with every split in one block (106 MiB fitting split by split).
BLOCK = 32

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
    """Class-proportion-preserving index split (sorted within each side)
    with a train share of fraction, in (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {fraction}")
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


def fe9_matrix(cohort: Cohort) -> np.ndarray:
    return cohort.columns(FE9)


def fit_and_score(cohort: Cohort, tr: np.ndarray, te: np.ndarray,
                  cols: Sequence[str], kind: str,
                  pca_full: Optional[PcaModel] = None):
    """Fit the full pipeline on the feature columns cols of rows tr of
    cohort and score its rows te.

    One split of the split loop: build_feature_matrix builds that split's
    features, so PCA for PC1 feature sets is fit on the training rows only
    unless a prefit whole-sample model is supplied (paper mode).
    """
    x_tr, x_te = build_feature_matrix(cohort, cols, tr[None], te[None], pca_full)
    y = cohort.labels()
    model = train(kind, x_tr[0], y[tr], cols)
    return predict_scores(model, x_te[0]), y[te], model


def cell_name(feature_set: str, kind: str) -> str:
    return f"{feature_set}|{kind}"


def build_feature_matrix(sub: Cohort, cols: Sequence[str],
                         tr: np.ndarray, te: np.ndarray, pca: Optional[PcaModel]):
    """Train and test feature stacks (B, n, p) and (B, m, p) of the feature
    columns cols, from datamodel.feature_columns, for a block of splits with
    train rows tr (B, n) and test rows te (B, m) of sub.

    PC1 is projected on pca when one is given, else on the PCA of each
    split's training rows.
    """
    if "frax_prob" in cols:
        missing = sub.missing_frax()
        if missing:
            raise DataError(f"subject {missing[0]}: frax_prob missing but required")
    x = sub.columns([c for c in cols if c != "pc1"])
    x_tr, x_te = x[tr], x[te]
    if cols[0] == "pc1":
        fe9 = fe9_matrix(sub)
        f_tr, f_te = fe9[tr], fe9[te]
        if pca is None:
            std, loadings = fit_pca_stack(f_tr)
        else:
            std, loadings = pca.standardization, pca.loadings
        # risk_index: the first column of the projection on every component.
        pc1_tr = (standardize_apply(std, f_tr) @ loadings)[:, :, :1]
        pc1_te = (standardize_apply(std, f_te) @ loadings)[:, :, :1]
        x_tr = np.concatenate([pc1_tr, x_tr], axis=2)
        x_te = np.concatenate([pc1_te, x_te], axis=2)
    return x_tr, x_te


def _split_and_score(sub: Cohort, feature_sets: dict[str, Sequence[str]],
                     kinds: Sequence[str], n_splits: int,
                     fraction: float, seed: int,
                     pca_full: Optional[PcaModel], protocol: str):
    """Score every (feature set, classifier) cell on the same stratified
    splits of sub; feature_sets maps each feature set's name to its
    columns.  Returns {cell name: AUC vector}.

    Split i is drawn from mix_seed(seed, i, 0).  stratified_split_indices
    keeps at least one member of each class on each side, so every
    held-out side holds both classes.
    """
    y = sub.labels()
    if min((y == 0).sum(), (y == 1).sum()) < 4:
        raise DataError(f"each class needs at least 4 members for {protocol}")
    aucs = {cell_name(fs, kind): np.empty(n_splits) for fs in feature_sets for kind in kinds}
    seeds = [mix_seed(seed, i, 0) for i in range(n_splits)]
    for start in range(0, n_splits, BLOCK):
        splits = [stratified_split_indices(y, fraction, s)
                  for s in seeds[start:start + BLOCK]]
        tr, te = (np.stack(side) for side in zip(*splits))
        block = slice(start, start + len(splits))
        try:
            for fs, cols in feature_sets.items():
                x_tr, x_te = build_feature_matrix(sub, cols, tr, te, pca_full)
                stacks = train_and_score_stack(kinds, x_tr, y[tr], x_te)
                for kind, scores in zip(kinds, stacks):
                    aucs[cell_name(fs, kind)][block] = auc_rows(scores, y[te])
        except (FemriskError, np.linalg.LinAlgError):
            # Raise what the first failing (split, feature set, classifier)
            # cell raises on its own.
            for tr_i, te_i in splits:
                for cols in feature_sets.values():
                    for kind in kinds:
                        auc_mann_whitney(*fit_and_score(sub, tr_i, te_i, cols, kind,
                                                        pca_full)[:2])
            raise
    return aucs


def run_lgocv(cohort: Cohort, feature_sets: dict[str, Sequence[str]],
              kinds: Sequence[str], config: CvConfig,
              pca_full: Optional[PcaModel] = None) -> dict:
    """Repeated stratified 75/25 cross-validation of every (feature set,
    classifier) cell on shared splits of cohort; one AUC per repeat and
    cell."""
    return _split_and_score(cohort, feature_sets, kinds, config.repeats,
                            config.train_fraction, config.seed, pca_full, "LGOCV")


@dataclass(frozen=True)
class ResampleResult:
    """Paired AUC vectors per cell plus the pairwise one-sided tests."""

    cells: dict                      # cell name -> AUC vector
    comparisons: dict                # "a>b" -> TTestResult


def run_resample_comparison(cohort: Cohort, feature_sets: dict[str, Sequence[str]],
                            kinds: Sequence[str], config: ResampleConfig,
                            pca_full: Optional[PcaModel] = None) -> ResampleResult:
    """Shared stratified resampling of cohort across every (feature set,
    classifier) cell, then a paired one-sided t-test of AUC_a > AUC_b
    for every pair of cells, ordered so that mean(a) >= mean(b).
    """
    aucs = _split_and_score(cohort, feature_sets, kinds, config.resamples,
                            config.train_fraction, config.seed, pca_full, "resampling")
    tests = {}
    for na, nb in combinations(aucs, 2):
        if aucs[na].mean() < aucs[nb].mean():
            na, nb = nb, na
        tests[f"{na}>{nb}"] = paired_one_sided_ttest(aucs[na], aucs[nb])
    return ResampleResult(cells=aucs, comparisons=tests)


def compare_with_frax(cohort: Cohort, model_scores):
    """Paired DeLong comparison of pipeline scores against the FRAX column,
    one-sided for model > FRAX.

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
    result = delong_compare(scores, frax, y)
    return result, roc_curve(scores, y), roc_curve(frax, y)


# ---------------------------------------------------------------------------
# Report serialization


def _round6(x):
    return float(f"{float(x):.6g}")


def _jsonify(obj):
    if isinstance(obj, float):
        return _round6(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def auc_summary(aucs) -> dict:
    """Mean, SD (0 for a single value) and the AUCs of one report cell."""
    v = np.asarray(aucs, dtype=float)
    return {"auc_mean": v.mean(),
            "auc_sd": v.std(ddof=1) if v.size > 1 else 0.0,
            "aucs": v}


def build_report(results: dict, configs: dict, seed: int,
                 extra: Optional[dict] = None) -> str:
    """Deterministic JSON report: sorted keys, 6 significant digits."""
    cells = {name: auc_summary(vec) for name, vec in results.get("cells", {}).items()}
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


def write_roc_csvs(roc_model: RocCurve, roc_frax: RocCurve, roc_dir) -> None:
    """model_roc.csv and frax_roc.csv in roc_dir, created if missing."""
    roc_dir = Path(roc_dir)
    roc_dir.mkdir(parents=True, exist_ok=True)
    for name, curve in (("model", roc_model), ("frax", roc_frax)):
        with open(roc_dir / f"{name}_roc.csv", "w", encoding="utf-8") as fh:
            fh.write("fpr,tpr,threshold\n")
            for f, t, th in zip(curve.fpr, curve.tpr, curve.thresholds):
                fh.write(f"{f:.10g},{t:.10g},{th:.10g}\n")
