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
import sys
from pathlib import Path

import numpy as np

from .classifiers import KINDS, model_from_json, model_to_json, predict_scores, train
from .datamodel import FE9, STRATA, feature_columns, load_cohort, save_cohort
from .errors import (DataError, FemriskError, NumericalError, malformed, read_json,
                     write_json)
from .evaluate import (CvConfig, ResampleConfig, auc_summary,
                       build_feature_matrix, build_report, cell_name,
                       compare_with_frax, fe9_matrix, fit_and_score, mix_seed,
                       require_class_sizes, run_lgocv, run_resample_comparison,
                       stratified_split_indices)
from .femodel import (MaterialModel, SolveControl, compute_fe_parameters,
                      load_grid, material_from_file)
from .stats.pca import (fit_pca, pc_scores, pca_from_json, pca_to_json,
                        select_significant_pcs)
from .synth import default_spec, generate_cohort, load_spec

# glibc's malloc maps each block of at least its mmap threshold (128 KiB at
# start) on its own and unmaps it when it is freed, so each large NumPy
# temporary of a command takes its page faults afresh.  Freeing a mapped
# block raises the threshold to that block's size: this 4 MiB one, never
# touched, cut the page faults of the evaluate_male benchmark command from
# about 14 000 to 1 000, for about 0.7 MiB more peak memory.
np.empty(1 << 22, dtype=np.uint8)


class UsageError(FemriskError):
    """An argument that argparse or a command refuses: exit code 1."""


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
    p.add_argument("--classifiers", nargs="+", default=["logistic", "pls"], choices=KINDS)
    p.add_argument("--repeats", type=int, default=CvConfig.repeats)
    p.add_argument("--resamples", type=int, default=ResampleConfig.resamples)
    p.add_argument("--cv-fraction", type=float, default=CvConfig.train_fraction)
    p.add_argument("--resample-fraction", type=float, default=ResampleConfig.train_fraction)
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


def _write_csv(path, header, *columns) -> None:
    """The header line, then one row of .10g values per sample of columns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def _write_roc_csvs(roc_dir, roc_model, roc_frax) -> None:
    """model_roc.csv and frax_roc.csv in roc_dir, created if missing."""
    roc_dir = Path(roc_dir)
    roc_dir.mkdir(parents=True, exist_ok=True)
    for name, roc in (("model", roc_model), ("frax", roc_frax)):
        _write_csv(roc_dir / f"{name}_roc.csv", "fpr,tpr,threshold",
                   roc.fpr, roc.tpr, roc.thresholds)


def _delong_record(dl) -> dict:
    """The fields of a DeLong comparison of the model against FRAX."""
    return {"auc_model": dl.auc_a, "auc_frax": dl.auc_b,
            "delta": dl.auc_a - dl.auc_b, "z": dl.z, "p": dl.p}


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
            _write_csv(curves_dir / f"{name}.csv", "displacement_mm,force_n",
                       curve.displacement, curve.force)
    write_json(fe, args.out)
    print(f"wrote FE parameters to {args.out}")
    return 0


def _every_row(cohort, cols, pca):
    """Features cols of every row of cohort, with PC1 projected on pca."""
    rows = np.arange(len(cohort))[None]
    return build_feature_matrix(cohort, cols, rows, rows[:, :0], pca)[0][0]


def _feature_sets(cohort, names, stratum) -> dict:
    """The columns of each named feature set under stratum.  A set holding
    sex on a cohort of one sex raises: its sex column is constant, and no
    fit can standardize it."""
    sets = {name: feature_columns(name, stratum) for name in names}
    sexes = np.sort(cohort.columns(["sex"]).ravel())
    if sexes.size and sexes[0] == sexes[-1] and any("sex" in cols for cols in sets.values()):
        sex, group = ("M", "male") if sexes[0] else ("F", "female")
        raise DataError(f"column sex is constant: every subject is {sex}; use "
                        f"--stratum {group} or a feature set without sex")
    return sets


def cmd_fit(args) -> int:
    cohort = load_cohort(args.cohort).stratum(args.stratum)
    cols = _feature_sets(cohort, [args.features], args.stratum)[args.features]
    fe9 = fe9_matrix(cohort)
    pca = fit_pca(fe9)
    scores = pc_scores(pca, fe9)
    n_check = min(4, scores.shape[1])
    y = cohort.labels()
    retained, pvals = select_significant_pcs(scores[:, :n_check], y)
    model = train("logistic", _every_row(cohort, cols, pca), y, cols)
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
        write_json(doc, args.out)
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
    feature_sets = _feature_sets(cohort, args.features, args.stratum)
    if (len(feature_sets) < len(args.features)
            or len(set(args.classifiers)) < len(args.classifiers)):
        raise DataError("duplicate evaluation cells")
    missing = cohort.missing_frax()
    skip_frax = ("--skip-frax" if args.skip_frax else
                 f"frax_prob missing for {len(missing)} subjects (first: {missing[0]})"
                 if missing else None)
    if skip_frax and args.roc_dir:
        raise DataError(f"--roc-dir needs the FRAX comparison: {skip_frax}")
    cv_cfg = CvConfig(train_fraction=args.cv_fraction, repeats=args.repeats,
                      seed=mix_seed(args.seed, 1, 0))
    rs_cfg = ResampleConfig(resamples=args.resamples,
                            train_fraction=args.resample_fraction,
                            seed=mix_seed(args.seed, 2, 0))
    y = cohort.labels()
    tr, _ = stratified_split_indices(y, args.holdout_fraction, mix_seed(args.seed, 0, 0))
    require_class_sizes(y[tr], "LGOCV")
    mode = "paper (whole-sample PCA)" if args.paper_mode else "fold-internal PCA refit"
    print(f"mode: {mode}")

    pca_full = fit_pca(fe9_matrix(cohort)) if args.paper_mode else None
    train_c = cohort.subset(tr)
    lgocv = run_lgocv(train_c, feature_sets, args.classifiers, cv_cfg, pca_full)
    resamp = run_resample_comparison(train_c, feature_sets, args.classifiers, rs_cfg,
                                     pca_full)

    extra = {
        "lgocv": {name: auc_summary(v) for name, v in lgocv.items()},
        "mode": "paper" if args.paper_mode else "fold_internal",
        "stratum": args.stratum,
    }
    if skip_frax:
        print(f"FRAX comparison skipped: {skip_frax}")
    else:
        fs0, kind0 = args.features[0], args.classifiers[0]
        scores_all, _, _ = fit_and_score(cohort, tr, np.arange(len(cohort)),
                                         feature_sets[fs0], kind0, pca_full)
        dl, roc_m, roc_f = compare_with_frax(cohort, scores_all)
        extra["frax"] = {"cell": cell_name(fs0, kind0), **_delong_record(dl)}
        if args.roc_dir:
            _write_roc_csvs(args.roc_dir, roc_m, roc_f)

    configs = {
        "features": args.features,
        "classifiers": args.classifiers,
        "cv": {"repeats": cv_cfg.repeats, "train_fraction": cv_cfg.train_fraction},
        "resample": {"resamples": rs_cfg.resamples,
                     "train_fraction": rs_cfg.train_fraction},
        "holdout_fraction": args.holdout_fraction,
    }
    write_json(build_report({"cells": resamp.cells, "comparisons": resamp.comparisons},
                            configs, args.seed, extra), args.out)
    print(f"wrote report to {args.out}")
    return 0


def cmd_compare_frax(args) -> int:
    cohort = load_cohort(args.cohort).stratum(args.stratum)
    scores = _score_with_model(read_json(args.model, "model"), cohort, args.stratum)
    dl, roc_m, roc_f = compare_with_frax(cohort, scores)
    write_json({**_delong_record(dl), "direction": "a_greater"}, args.out)
    if args.roc_dir:
        _write_roc_csvs(args.roc_dir, roc_m, roc_f)
    print(f"auc_model {dl.auc_a:.3f} auc_frax {dl.auc_b:.3f} p {dl.p:.4g}")
    return 0


def _report_lines(doc) -> list[str]:
    cells, lgocv, comps = doc["cells"], doc["lgocv"], doc["comparisons"]
    lines = [f"stratum: {doc['stratum']}   mode: {doc['mode']}   seed: {doc['seed']}"]
    width = max([len(n) for n in cells] + [10])
    lines.append(f"{'cell':<{width}}  {'resam AUC':>9}  {'SD':>6}  {'cv AUC':>7}  {'cv SD':>6}")
    for name in sorted(cells):
        c, l = cells[name], lgocv[name]
        lines.append(f"{name:<{width}}  {c['auc_mean']:>9.3f}  {c['auc_sd']:>6.3f}"
                     f"  {l['auc_mean']:>7.3f}  {l['auc_sd']:>6.3f}")
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
    except (FemriskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (1 if isinstance(exc, UsageError)
                else 3 if isinstance(exc, NumericalError) else 2)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
