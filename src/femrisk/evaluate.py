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
train and test sizes and class counts, so the loop works on blocks of
splits as (B, n, p) stacks, drawn together by stratified_split_block.  A
block holds as many splits as BLOCK_BYTES holds of their widest feature
stack (block_size): every row of the cohort times the widest set's column
count times 8 bytes, a PC1 set counting the 9 FE9 columns its PCA reads.
Per (feature set, block), classifiers.standardize_stack standardizes the
block once and classifiers.score_stack trains and scores it with every
classifier in one stacked fit each, which skips the covariance, standard
errors and p-values that cross-validation discards.  The block size
changes no AUC: every split is fit and scored on its own rows.
fit_and_score is a one-split call of the same builder, fit and score, so
each split's AUC equals what fit_and_score and auc_mann_whitney give for
that split alone.  A block that raises is replayed split by split through
fit_and_score, so the error is the one the first failing (split, feature
set, classifier) cell raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .classifiers import predict_scores, score_stack, standardize_stack, train
from .datamodel import FE9, Cohort, standardize_apply
from .errors import DataError, FemriskError, require_labels
# fit_pca and risk_index are not called here; they stay importable because
# perfbench/tracing.py WRAPS traces them in this module.
from .stats.pca import PcaModel, fit_pca, fit_pca_stack, risk_index  # noqa: F401
from .stats.roc import auc_mann_whitney, auc_rows, delong_compare, roc_curve
from .stats.ttests import paired_one_sided_ttest

# The bytes of feature stacks one block of splits may hold (block_size).
# Bigger blocks run faster but hold more in memory: the fold PCA, the
# stacked IRLS and NIPALS each hold a few copies of a block's stack at their
# peaks, which are about equal.  Splits of 276 rows by 16 columns
# (evaluate_wide_t2) get blocks of 32 and peak at 61.8 MiB; splits of 108
# rows by 9 columns (evaluate_male) get blocks of 146 and peak at 62.1 MiB,
# against 59.7 MiB with blocks of 32 (perfbench, seed 42).
BLOCK_BYTES = 1_140_000

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


def _class_shares(y, fraction: float):
    """(members, train count) of class 0 and of class 1 in the labels y:
    a train share of fraction, in (0, 1), of each class, with at least one
    member left on each side."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {fraction}")
    shares = []
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        if members.size < 2:
            raise DataError(f"class {cls} has fewer than 2 members")
        n_train = int(round(fraction * members.size))
        shares.append((members, min(max(n_train, 1), members.size - 1)))
    return shares


def stratified_split_indices(labels, fraction: float, seed: int):
    """Class-proportion-preserving index split (sorted within each side)
    with a train share of fraction, in (0, 1)."""
    y = require_labels(labels)
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for members, n_train in _class_shares(y, fraction):
        perm = rng.permutation(members)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    return (np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx)))


def stratified_split_block(labels, fraction: float, seeds):
    """Train rows (B, n) and test rows (B, m) of one split per seed: row i
    holds the rows of stratified_split_indices(labels, fraction, seeds[i]).

    Each seed's generator takes the same two permutations; its train rows
    are marked in a (B, len(labels)) mask, which nonzero reads in ascending
    order, so no side is sorted.
    """
    y = require_labels(labels)
    shares = _class_shares(y, fraction)
    train = np.zeros((len(seeds), y.size), dtype=bool)
    for row, seed in zip(train, seeds):
        rng = np.random.default_rng(seed)
        for members, n_train in shares:
            row[rng.permutation(members)[:n_train]] = True
    n_train = sum(n for _, n in shares)
    return (np.nonzero(train)[1].reshape(len(seeds), n_train),
            np.nonzero(~train)[1].reshape(len(seeds), y.size - n_train))


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
    if cols[0] != "pc1":
        return x[tr], x[te]
    fe9 = fe9_matrix(sub)
    if pca is None:
        std, loadings, z_tr = fit_pca_stack(fe9[tr])
    else:
        std, loadings = pca.standardization, pca.loadings
        z_tr = standardize_apply(std, fe9[tr])
    # risk_index: the first column of the projection on every component.
    pc1_tr = (z_tr @ loadings)[:, :, :1]
    pc1_te = (standardize_apply(std, fe9[te]) @ loadings)[:, :, :1]
    return (np.concatenate([pc1_tr, x[tr]], axis=2),
            np.concatenate([pc1_te, x[te]], axis=2))


def require_class_sizes(y, protocol: str) -> None:
    """DataError unless each class of the labels y has at least 4 members,
    the fewest that protocol's splits are drawn from."""
    if min((y == 0).sum(), (y == 1).sum()) < 4:
        raise DataError(f"each class needs at least 4 members for {protocol}")


def split_bytes(sub: Cohort, feature_sets: dict[str, Sequence[str]]) -> int:
    """The bytes of one split's widest feature stack: every row of sub,
    train and test, times the widest feature set's column count, where a
    PC1 set counts the FE9 columns its PCA reads."""
    width = max(max(len(cols), len(FE9)) if cols[0] == "pc1" else len(cols)
                for cols in feature_sets.values())
    return len(sub) * width * 8


def block_size(sub: Cohort, feature_sets: dict[str, Sequence[str]]) -> int:
    """Splits per block: as many as BLOCK_BYTES holds, at least one."""
    return max(1, BLOCK_BYTES // split_bytes(sub, feature_sets))


def _split_and_score(sub: Cohort, feature_sets: dict[str, Sequence[str]],
                     kinds: Sequence[str], n_splits: int,
                     fraction: float, seed: int,
                     pca_full: Optional[PcaModel], protocol: str):
    """Score every (feature set, classifier) cell on the same stratified
    splits of sub; feature_sets maps each feature set's name to its
    columns.  Returns {cell name: AUC vector}.

    Split i holds the rows of stratified_split_indices at mix_seed(seed,
    i, 0), which keeps at least one member of each class on each side, so
    every held-out side holds both classes.
    """
    y = sub.labels()
    require_class_sizes(y, protocol)
    aucs = {cell_name(fs, kind): np.empty(n_splits) for fs in feature_sets for kind in kinds}
    seeds = [mix_seed(seed, i, 0) for i in range(n_splits)]
    size = block_size(sub, feature_sets)
    for start in range(0, n_splits, size):
        tr, te = stratified_split_block(y, fraction, seeds[start:start + size])
        block = slice(start, start + len(tr))
        try:
            for fs, cols in feature_sets.items():
                # The raw stacks go once standardized, before the fits, and
                # this set's stacks before the next set's are built.
                z, z_te = standardize_stack(*build_feature_matrix(sub, cols, tr, te,
                                                                  pca_full))
                stacks = score_stack(kinds, z, y[tr], z_te)
                del z, z_te
                for kind, scores in zip(kinds, stacks):
                    aucs[cell_name(fs, kind)][block] = auc_rows(scores, y[te])
        except (FemriskError, np.linalg.LinAlgError):
            # Raise what the first failing (split, feature set, classifier)
            # cell raises on its own.
            for tr_i, te_i in zip(tr, te):
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
        try:
            tests[f"{na}>{nb}"] = paired_one_sided_ttest(aucs[na], aucs[nb])
        except DataError as exc:
            raise DataError(f"comparison {na}>{nb}: {exc}") from exc
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
    result = delong_compare(model_scores, frax, y)
    return result, roc_curve(model_scores, y), roc_curve(frax, y)


# ---------------------------------------------------------------------------
# The report document


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
                 extra: Optional[dict] = None) -> dict:
    """The evaluation report document, every float rounded to 6
    significant digits; the CLI writes it with errors.write_json."""
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
    return _jsonify(doc)
