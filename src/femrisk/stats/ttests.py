"""Student's t-tests with the tails the pipeline uses: a two-sided pooled
test from group summaries, and a paired one-sided test that a > b."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ._special import stdtr


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float
    tail: str


def ttest_from_summary(n1, mean1, sd1, n2, mean2, sd2) -> TTestResult:
    """Two-sided pooled-variance Student's t-test from group summaries alone."""
    if n1 < 2 or n2 < 2:
        raise DataError("each group needs n >= 2")
    if sd1 <= 0 or sd2 <= 0:
        raise DataError("group SDs must be positive")
    df = n1 + n2 - 2
    sp2 = ((n1 - 1) * sd1**2 + (n2 - 1) * sd2**2) / df
    se = math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    if se == 0:
        if mean1 == mean2:
            t = 0.0
        else:
            raise DataError("zero pooled variance with unequal means")
    else:
        t = (mean1 - mean2) / se
    return TTestResult(t=t, df=df, p=2.0 * stdtr(df, -abs(t)), tail="two_sided")


def paired_one_sided_ttest(auc_a, auc_b) -> TTestResult:
    """Paired one-sided t-test that auc_a exceeds auc_b, on auc_a - auc_b
    over shared resample indices."""
    a = np.asarray(auc_a, dtype=float)
    b = np.asarray(auc_b, dtype=float)
    if a.shape != b.shape:
        raise DataError("AUC vectors must have equal length")
    if a.size < 2:
        raise DataError("need at least 2 paired values")
    d = a - b
    sd = d.std(ddof=1)
    df = d.size - 1
    tail = "one_sided_greater"
    # The mean of a constant d can round off d[0] and leave a tiny nonzero
    # sd, so constancy is also tested on the values themselves.
    if sd == 0 or np.all(d == d[0]):
        if np.all(d == 0):
            return TTestResult(t=0.0, df=df, p=0.5, tail=tail)
        raise DataError("zero-variance nonzero differences")
    t = d.mean() / (sd / math.sqrt(d.size))
    return TTestResult(t=t, df=df, p=stdtr(df, -t), tail=tail)
