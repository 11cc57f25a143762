"""Command-line entry point for the fracture-risk pipeline.

Subcommands
-----------
synth         spec JSON -> cohort CSV
fe            voxel grid + material JSON -> FE parameter JSON + curve CSVs
fit           cohort CSV -> PCA + logistic risk-model JSON
evaluate      cohort CSV -> evaluation report JSON + ROC CSVs
compare-frax  cohort CSV + fitted model JSON -> DeLong JSON + both ROC CSVs
report        evaluation report JSON -> human-readable table

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure.  All errors print one line `error: <reason>` to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classifiers import (ClassifierSpec, model_from_json, model_to_json,
                          predict_scores, train)
from .datamodel import FE9, feature_columns, load_cohort, save_cohort
from .errors import DataError, FemriskError, NumericalError, malformed, read_json
from .evaluate import (CvConfig, ResampleConfig, auc_summary,
                       build_feature_matrix, build_report, cell_name,
                       compare_with_frax, fe9_matrix, fit_and_score, mix_seed,
                       run_lgocv, run_resample_comparison,
                       stratified_split_indices, write_roc_csvs)
from .femodel import (MaterialModel, SolveControl, compute_fe_parameters,
                      load_grid, material_from_file)
from .stats.pca import (fit_pca, pc_scores, pca_from_json, pca_to_json,
                        select_significant_pcs)
from .synth import default_spec, generate_cohort, load_spec

STRATA = ("all", "male", "female")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_COMMON = {
    "--seed": dict(type=int, default=0, help="base seed (64-bit unsigned)"),
    "--threads": dict(type=int, default=1,
                      help="accepted for compatibility and ignored: "
                           "resamples run serially"),
    "--stratum": dict(choices=STRATA, default="all"),
    "--paper-mode": dict(action="store_true",
                         help="fit PCA once on the whole sample before evaluation "
                              "(leaky; kept for comparability) instead of refitting "
                              "inside every training fold"),
}


def _add_common(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="femrisk",
                     description="Hip fracture risk pipeline: synthetic cohorts, "
                                 "FE strength surrogate, PCA risk index, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--spec", help="cohort spec JSON (default: built-in)")
    p.add_argument("--out", required=True)
    _add_common(p, "--seed")

    p = sub.add_parser("fe", help="run the FE surrogate on a voxel grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--material", help="material + solver control JSON "
                                      "(default: built-in constants)")
    p.add_argument("--out", required=True, help="FE parameter JSON path")
    p.add_argument("--curves-dir", help="write per-load-case force-displacement CSVs here")
    p.add_argument("--yield-policy", choices=("error", "ultimate"), default="error")

    p = sub.add_parser("fit", help="fit the PCA risk index and logistic model")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", help="model JSON path")
    p.add_argument("--features", default="PC1_ABMD_COV",
                   help="feature set name (default PC1_ABMD_COV)")
    _add_common(p, "--stratum")

    p = sub.add_parser("evaluate", help="cross-validated model comparison")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--roc-dir", help="write model/FRAX ROC CSVs here")
    p.add_argument("--features", nargs="+", default=["PC1_ABMD_COV", "ABMD_COV"])
    p.add_argument("--classifiers", nargs="+", default=["logistic", "pls"],
                   choices=("logistic", "lda", "qda", "pls", "knn"))
    p.add_argument("--repeats", type=int, default=25)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--cv-fraction", type=float, default=0.75)
    p.add_argument("--resample-fraction", type=float, default=0.8)
    p.add_argument("--holdout-fraction", type=float, default=0.8,
                   help="train share of the initial train/test split")
    p.add_argument("--skip-frax", action="store_true")
    _add_common(p, *_COMMON)

    p = sub.add_parser("compare-frax", help="DeLong test of a fitted model vs FRAX")
    p.add_argument("--cohort", required=True)
    p.add_argument("--model", required=True, help="model JSON from `fit`")
    p.add_argument("--out", required=True, help="DeLong result JSON path")
    p.add_argument("--roc-dir")
    _add_common(p, "--stratum")

    p = sub.add_parser("report", help="render an evaluation report as a table")
    p.add_argument("--input", required=True, help="report JSON from `evaluate`")
    return parser


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    spec = load_spec(args.spec) if args.spec else default_spec()
    cohort = generate_cohort(spec, args.seed)
    save_cohort(cohort, args.out)
    print(f"wrote {len(cohort)} subjects to {args.out}")
    return 0


def cmd_fe(args) -> int:
    grid = load_grid(args.grid)
    if args.material:
        material, control = material_from_file(args.material)
    else:
        material, control = MaterialModel(), SolveControl()
    fe, curves = compute_fe_parameters(grid, material, control, args.yield_policy)
    if args.curves_dir:
        curves_dir = Path(args.curves_dir)
        curves_dir.mkdir(parents=True, exist_ok=True)
        for name, curve in curves.items():
            with open(curves_dir / f"{name}.csv", "w", encoding="utf-8") as fh:
                fh.write("displacement_mm,force_n\n")
                for d, f in zip(curve.displacement, curve.force):
                    fh.write(f"{d:.10g},{f:.10g}\n")
    _write_json(fe, args.out)
    print(f"wrote FE parameters to {args.out}")
    return 0


def _every_row(cohort, cols, pca):
    """Features cols of every row of cohort, with PC1 projected on pca."""
    rows = np.arange(len(cohort))[None]
    return build_feature_matrix(cohort, cols, rows, rows[:, :0], pca)[0][0]


def cmd_fit(args) -> int:
    cohort = load_cohort(args.cohort).stratum(args.stratum)
    cols = feature_columns(args.features, args.stratum)
    fe9 = fe9_matrix(cohort)
    pca = fit_pca(fe9)
    scores = pc_scores(pca, fe9)
    n_check = min(4, scores.shape[1])
    y = cohort.labels()
    retained, pvals = select_significant_pcs(scores[:, :n_check], y)
    model = train(ClassifierSpec("logistic"), _every_row(cohort, cols, pca), y, cols)
    doc = {
        "stratum": args.stratum,
        "feature_set": args.features,
        "pc1_variance_share": float(pca.variance_shares[0]),
        "pc_p_values": [float(p) for p in pvals],
        "retained_pcs": [i + 1 for i in retained],
        "pca": pca_to_json(pca),
        "classifier": model_to_json(model),
    }
    if args.out:
        _write_json(doc, args.out)
    print(f"pc1_variance_share {pca.variance_shares[0]:.4f}")
    for j, p in enumerate(pvals):
        mark = " (retained)" if j in retained else ""
        print(f"pc{j + 1} p {p:.4g}{mark}")
    if args.out:
        print(f"wrote model to {args.out}")
    return 0


def _score_with_model(doc, cohort, stratum):
    with malformed("model file"):
        pca_doc, model_doc, fitted_on = doc["pca"], doc["classifier"], doc["stratum"]
        name = doc["feature_set"]
        cols = feature_columns(name, stratum)
    if fitted_on != stratum:
        raise DataError(f"model was fitted on stratum {fitted_on!r} and cannot "
                        f"score stratum {stratum!r}")
    pca = pca_from_json(pca_doc)
    if pca.column_names != FE9:
        raise DataError(f"malformed model file: PCA columns {list(pca.column_names)} "
                        f"are not the FE9 columns {list(FE9)}")
    model = model_from_json(model_doc)
    if list(model.feature_names) != cols:
        raise DataError(f"malformed model file: feature_names {list(model.feature_names)} "
                        f"are not the {name} columns {cols}")
    return predict_scores(model, _every_row(cohort, cols, pca))


def cmd_evaluate(args) -> int:
    if args.skip_frax and args.roc_dir:
        raise UsageError("--roc-dir writes the FRAX ROC curves, which --skip-frax leaves out")
    cohort = load_cohort(args.cohort).stratum(args.stratum)
    feature_sets = {name: feature_columns(name, args.stratum) for name in args.features}
    specs = [ClassifierSpec(k) for k in args.classifiers]
    if len(feature_sets) < len(args.features) or len(set(args.classifiers)) < len(specs):
        raise DataError("duplicate evaluation cells")
    missing = cohort.missing_frax()
    skip_frax = ("--skip-frax" if args.skip_frax else
                 f"frax_prob missing for {len(missing)} subjects (first: {missing[0]})"
                 if missing else None)
    if skip_frax and args.roc_dir:
        raise DataError(f"--roc-dir needs the FRAX comparison: {skip_frax}")
    mode = "paper (whole-sample PCA)" if args.paper_mode else "fold-internal PCA refit"
    print(f"mode: {mode}")

    pca_full = fit_pca(fe9_matrix(cohort)) if args.paper_mode else None
    tr, _ = stratified_split_indices(cohort.labels(), args.holdout_fraction,
                                     mix_seed(args.seed, 0, 0))
    train_c = cohort.subset(tr)
    cv_cfg = CvConfig(train_fraction=args.cv_fraction, repeats=args.repeats,
                      seed=mix_seed(args.seed, 1, 0))
    rs_cfg = ResampleConfig(resamples=args.resamples,
                            train_fraction=args.resample_fraction,
                            seed=mix_seed(args.seed, 2, 0))

    lgocv = run_lgocv(train_c, feature_sets, specs, cv_cfg, pca_full)
    resamp = run_resample_comparison(train_c, feature_sets, specs, rs_cfg, pca_full)

    extra = {
        "lgocv": {name: auc_summary(v) for name, v in lgocv.items()},
        "mode": "paper" if args.paper_mode else "fold_internal",
        "stratum": args.stratum,
    }
    if skip_frax:
        print(f"FRAX comparison skipped: {skip_frax}")
    else:
        fs0, sp0 = args.features[0], specs[0]
        scores_all, _, _ = fit_and_score(cohort, tr, np.arange(len(cohort)),
                                         feature_sets[fs0], sp0, pca_full)
        dl, roc_m, roc_f = compare_with_frax(cohort, scores_all)
        extra["frax"] = {
            "cell": cell_name(fs0, sp0),
            "auc_model": dl.auc_a, "auc_frax": dl.auc_b,
            "delta": dl.auc_a - dl.auc_b, "z": dl.z, "p": dl.p,
        }
        if args.roc_dir:
            write_roc_csvs(roc_m, roc_f, args.roc_dir)

    configs = {
        "features": args.features,
        "classifiers": [sp.kind for sp in specs],
        "cv": {"repeats": cv_cfg.repeats, "train_fraction": cv_cfg.train_fraction},
        "resample": {"resamples": rs_cfg.resamples,
                     "train_fraction": rs_cfg.train_fraction},
        "holdout_fraction": args.holdout_fraction,
    }
    text = build_report({"cells": resamp.cells, "comparisons": resamp.comparisons},
                        configs, args.seed, extra)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote report to {args.out}")
    return 0


def cmd_compare_frax(args) -> int:
    cohort = load_cohort(args.cohort).stratum(args.stratum)
    scores = _score_with_model(read_json(args.model, "model"), cohort, args.stratum)
    dl, roc_m, roc_f = compare_with_frax(cohort, scores)
    _write_json({"auc_model": dl.auc_a, "auc_frax": dl.auc_b,
                 "delta": dl.auc_a - dl.auc_b, "z": dl.z, "p": dl.p,
                 "direction": "a_greater"}, args.out)
    if args.roc_dir:
        write_roc_csvs(roc_m, roc_f, args.roc_dir)
    print(f"auc_model {dl.auc_a:.3f} auc_frax {dl.auc_b:.3f} p {dl.p:.4g}")
    return 0


def _report_lines(doc) -> list[str]:
    cells = doc.get("cells", {})
    lgocv = doc.get("lgocv", {})
    lines = [f"stratum: {doc.get('stratum', '?')}   mode: {doc.get('mode', '?')}"
             f"   seed: {doc.get('seed', '?')}"]
    width = max([len(n) for n in cells] + [10])
    lines.append(f"{'cell':<{width}}  {'resam AUC':>9}  {'SD':>6}  {'cv AUC':>7}  {'cv SD':>6}")
    for name in sorted(cells):
        c = cells[name]
        l = lgocv.get(name, {})
        cv_m = f"{l['auc_mean']:.3f}" if l else "   -  "
        cv_s = f"{l['auc_sd']:.3f}" if l else "  -  "
        lines.append(f"{name:<{width}}  {c['auc_mean']:>9.3f}  {c['auc_sd']:>6.3f}"
                     f"  {cv_m:>7}  {cv_s:>6}")
    comps = doc.get("comparisons", {})
    if comps:
        lines.append("paired one-sided tests:")
        for name in sorted(comps):
            lines.append(f"  {name}: t {comps[name]['t']:.3f}  p {comps[name]['p']:.3g}")
    frax = doc.get("frax")
    if frax:
        lines.append(f"FRAX comparison ({frax['cell']}): model AUC {frax['auc_model']:.3f}"
                     f" vs FRAX {frax['auc_frax']:.3f}, DeLong p {frax['p']:.3g}")
    return lines


def cmd_report(args) -> int:
    doc = read_json(args.input, "report")
    with malformed("report JSON"):
        lines = _report_lines(doc)
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "fe": cmd_fe,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "compare-frax": cmd_compare_frax,
    "report": cmd_report,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
            raise UsageError("--seed must be a 64-bit unsigned value")
        if getattr(args, "threads", 1) < 1:
            raise UsageError("--threads must be >= 1")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FemriskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
