"""The four benchmark workloads: inputs, CLI arguments and output checks.

Each workload is one `femrisk` CLI command on files generated from the
seed.  `check` validates one run's output bytes on their own; runs of one
seed must also agree with each other, and at the default seed with the
reference recorded in `reference.json`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import inputs

FE_PARAMS = ("Sy", "Su", "Senergy", "Py", "Pu", "Penergy",
             "PLy", "PLu", "PLenergy", "Ly", "Lu", "Lenergy")
# Round-off bound on FE parameters between two versions of the solver.
FE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                                   # "fe" or "evaluate"
    write_inputs: Callable[..., None]           # (femrisk, seed, workdir)
    argv: Callable[..., list]                   # (workdir, seed, threads)
    output: str                                 # output file, in workdir
    threads: int = 1
    cells: tuple = ()                           # evaluate: expected cells


def _fe_phantom_inputs(femrisk, seed, workdir):
    inputs.write_phantom(femrisk.femodel, (3, 3, 12), seed, inputs.NEWTON_PERTURB,
                         workdir / "phantom.txt")


def _fe_fine_inputs(femrisk, seed, workdir):
    inputs.write_phantom(femrisk.femodel, (10, 10, 24), seed, inputs.JITTER,
                         workdir / "phantom.txt")
    inputs.write_control(femrisk.femodel, workdir / "control.json",
                         increment=0.01, max_increments=2)


def _cohort_inputs(femrisk, seed, workdir):
    inputs.write_cohort(femrisk.cli.dispatch, seed, workdir / "cohort.csv")


def _evaluate_argv(workdir, seed, threads, *extra):
    return ["evaluate", "--cohort", str(workdir / "cohort.csv"),
            "--out", str(workdir / "report.json"), "--seed", str(seed),
            "--threads", str(threads), *extra]


WIDE_FEATURES = ("FE9_ABMD_COV", "PC1_ABMD_COV", "ABMD_COV")
WIDE_CLASSIFIERS = ("lda", "qda", "knn")

WORKLOADS = {w.name: w for w in (
    Workload(
        "fe_phantom",
        "Newton-heavy fe on a 3x3x12 shell/core phantom: plastic softening "
        "and stalled Newton attempts dominate",
        "fe", _fe_phantom_inputs,
        lambda d, seed, threads: ["fe", "--grid", str(d / "phantom.txt"),
                                  "--out", str(d / "fe_params.json")],
        "fe_params.json"),
    Workload(
        "fe_fine_elastic",
        "fe on a 10x10x24 phantom with two elastic increments: the sparse "
        "linear solve dominates and no Newton work is wasted",
        "fe", _fe_fine_inputs,
        lambda d, seed, threads: ["fe", "--grid", str(d / "phantom.txt"),
                                  "--material", str(d / "control.json"),
                                  "--yield-policy", "ultimate",
                                  "--out", str(d / "fe_params.json")],
        "fe_params.json"),
    Workload(
        "evaluate_male",
        "evaluate with the CLI defaults on the male stratum: fit-heavy, "
        "thousands of logistic fits",
        "evaluate", _cohort_inputs,
        lambda d, seed, threads: _evaluate_argv(d, seed, threads, "--stratum", "male"),
        "report.json",
        cells=tuple(f"{f}|{c}" for f in ("PC1_ABMD_COV", "ABMD_COV")
                    for c in ("logistic", "pls"))),
    Workload(
        "evaluate_wide_t2",
        "evaluate on all subjects, 3 feature sets x lda/qda/knn at 2 "
        "threads: feature assembly and the thread pool, no logistic fits",
        "evaluate", _cohort_inputs,
        lambda d, seed, threads: _evaluate_argv(
            d, seed, threads, "--stratum", "all",
            "--features", *WIDE_FEATURES, "--classifiers", *WIDE_CLASSIFIERS,
            "--resamples", "300", "--repeats", "10"),
        "report.json", threads=2,
        cells=tuple(f"{f}|{c}" for f in WIDE_FEATURES for c in WIDE_CLASSIFIERS)),
)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(workload: Workload, data: bytes) -> str:
    """Problems with one run's output, or "" when it is valid."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if workload.kind == "fe":
        if sorted(doc) != sorted(FE_PARAMS):
            return f"unexpected FE parameters: {sorted(doc)}"
        bad = [k for k, v in doc.items()
               if not isinstance(v, float) or not math.isfinite(v) or v <= 0]
        return f"non-positive or non-finite FE parameters: {bad}" if bad else ""
    cells = doc.get("cells", {})
    if sorted(cells) != sorted(workload.cells):
        return f"unexpected cells: {sorted(cells)}"
    try:
        aucs = [a for c in cells.values() for a in c["aucs"]]
        aucs += [a for c in doc["lgocv"].values() for a in c["aucs"]]
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"
    if not aucs or not all(0.0 <= a <= 1.0 for a in aucs):
        return "AUC outside [0, 1]"
    if "frax" not in doc:
        return "FRAX comparison missing"
    return ""


def check_reference(workload: Workload, reference: dict, data: bytes) -> str:
    """Problems against the recorded reference, or "" when it matches."""
    if workload.kind == "evaluate":
        got = digest(data)
        want = reference["report_sha256"]
        return "" if got == want else f"report sha256 {got} != reference {want}"
    doc = json.loads(data)
    off = [k for k, want in reference["fe_params"].items()
           if abs(doc[k] - want) > FE_RTOL * abs(want)]
    return f"FE parameters off reference by > {FE_RTOL:g}: {off}" if off else ""
