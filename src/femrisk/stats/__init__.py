"""Core statistical engine: OLS, PCA/risk index, logistic
regression, t-tests, ROC/AUC and DeLong's paired test."""

from .linear import LinearModelFit, fit_linear_model
from .logistic import LogisticFit, fit_logistic
from .pca import (PcaModel, fit_pca, pc_scores, pca_from_json, pca_to_json,
                  risk_index, select_significant_pcs)
from .roc import (DeLongResult, RocCurve, auc_mann_whitney, delong_compare,
                  roc_curve)
from .ttests import (TTestResult, paired_one_sided_ttest, ttest_from_summary,
                     two_sample_ttest)

__all__ = [
    "LinearModelFit", "fit_linear_model",
    "LogisticFit", "fit_logistic",
    "PcaModel", "fit_pca", "pc_scores", "pca_from_json", "pca_to_json",
    "risk_index", "select_significant_pcs",
    "DeLongResult", "RocCurve", "auc_mann_whitney", "delong_compare",
    "roc_curve",
    "TTestResult", "paired_one_sided_ttest", "ttest_from_summary", "two_sample_ttest",
]
