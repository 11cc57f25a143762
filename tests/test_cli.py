import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import femrisk
from femrisk.cli import UsageError, _write_csv, _write_roc_csvs, build_parser, dispatch
from femrisk.datamodel import COHORT_HEADER, FE12, load_cohort
from femrisk.errors import DataError, FemriskError, NumericalError, write_json
from femrisk.evaluate import CvConfig, ResampleConfig, build_report
from femrisk.femodel import (MaterialModel, NoYieldDetected, SolveControl, material_to_file,
                             save_grid, solver, uniform_grid)
from femrisk.femodel.grid import VoxelGrid
from femrisk.stats import paired_one_sided_ttest, roc_curve
from femrisk.synth import default_spec


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict_json(path):
    """A JSON file the CLI wrote, which must hold no NaN or Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def run_python(code, cwd, **env) -> str:
    """Run code in a fresh interpreter that imports this femrisk, with the
    given environment variables set, and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(femrisk.__file__).parents[1]), **env)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# The variables OpenBLAS reads for its thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def outputs_at_blas_threads(tmp_path, monkeypatch, argv, names):
    """The bytes of the files names that dispatch(argv) writes in fresh
    interpreters with OPENBLAS_NUM_THREADS at 1, at 2 and, with no thread
    variable set, at the default of a femrisk-first import."""
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    code = f"from femrisk.cli import dispatch; assert dispatch({argv!r}) == 0"
    outs = []
    for threads in ("1", "2", None):
        run_dir = tmp_path / str(threads)
        run_dir.mkdir()
        run_python(code, run_dir, **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        outs.append([(run_dir / name).read_bytes() for name in names])
    return outs


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cohort.csv"
    assert dispatch(["synth", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        assert dispatch(["synth", "--bogus-flag"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the following arguments are required: --out"]

    def test_unknown_subcommand_exit_1(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_grid_exit_2(self, tmp_path, capsys):
        rc = dispatch(["fe", "--grid", "missing.txt",
                       "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid file not found")

    def test_every_error_class_is_a_femrisk_error(self):
        # dispatch catches FemriskError and OSError alone, and maps the
        # classes to exit codes 1, 3 and 2.
        for cls in (UsageError, DataError, NumericalError, NoYieldDetected):
            assert issubclass(cls, FemriskError)
        assert issubclass(NoYieldDetected, NumericalError)

    def test_missing_cohort_exit_2(self, tmp_path, capsys):
        assert dispatch(["fit", "--cohort", str(tmp_path / "nope.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cohort file not found: {tmp_path / 'nope.csv'}"]

    def test_constant_difference_names_its_comparison_exit_2(self, tmp_path, capsys):
        # At seed 1 the female ABMD_COV|logistic AUC beats ABMD_COV|pls by
        # 2/253 on both splits: a constant nonzero difference.
        cohort = tmp_path / "cohort.csv"
        assert dispatch(["synth", "--seed", "1", "--out", str(cohort)]) == 0
        capsys.readouterr()
        rc = dispatch(["evaluate", "--cohort", str(cohort), "--stratum", "female",
                       "--resamples", "2", "--repeats", "1",
                       "--out", str(tmp_path / "report.json")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: comparison ABMD_COV|logistic>ABMD_COV|pls: "
            "zero-variance nonzero differences"]
        assert not (tmp_path / "report.json").exists()

    def test_bad_seed_exit_1(self, tmp_path):
        assert dispatch(["synth", "--seed", "-3",
                         "--out", str(tmp_path / "c.csv")]) == 1

    @pytest.mark.parametrize("argv", [
        ["fe", "--grid", "g.txt", "--out", "o.json", "--seed", "1"],
        ["report", "--input", "r.json", "--stratum", "male"],
        ["synth", "--out", "c.csv", "--threads", "2"],
        ["fit", "--cohort", "c.csv", "--paper-mode"],
        ["compare-frax", "--cohort", "c.csv", "--model", "m.json",
         "--out", "d.json", "--seed", "1"],
    ])
    def test_option_the_command_does_not_use_exit_1(self, argv, capsys):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments")

    @pytest.mark.parametrize("case", ["fe_out", "fe_curves_dir", "evaluate_out"])
    def test_unusable_output_path_exit_2(self, tmp_path, capsys, cohort_csv, case):
        gpath = tmp_path / "g.txt"
        save_grid(uniform_grid((2, 2, 3), 0.3), gpath)
        (tmp_path / "a_file").write_text("")
        fe = ["fe", "--grid", str(gpath), "--yield-policy", "ultimate"]
        bad, argv = {
            "fe_out": ("missing", fe + ["--out", str(tmp_path / "missing" / "o.json")]),
            "fe_curves_dir": ("a_file", fe + ["--out", str(tmp_path / "o.json"),
                                              "--curves-dir", str(tmp_path / "a_file")]),
            "evaluate_out": ("missing", ["evaluate", "--cohort", str(cohort_csv),
                                         "--out", str(tmp_path / "missing" / "r.json"),
                                         "--stratum", "male", "--resamples", "10",
                                         "--repeats", "2", "--skip-frax"]),
        }[case]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and bad in err[0]


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory, cohort_csv):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert dispatch(["fit", "--cohort", str(cohort_csv), "--out", str(path)]) == 0
    return load_strict_json(path)


class TestMalformedFiles:
    # Each edit turns the model file `fit` wrote into a malformed one.
    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("classifier"),
        lambda doc: doc["classifier"].pop("params"),
        lambda doc: doc.update(classifier=[doc["classifier"]]),
        lambda doc: doc["classifier"].update(kind="lda"),
        lambda doc: doc["classifier"]["params"]["coef"].pop(),
        lambda doc: doc["classifier"]["standardization"]["sd"].append(1.0),
        lambda doc: doc["classifier"]["params"].update(intercept=None),
        lambda doc: doc.pop("pca"),
        # Same column count, other columns: pc1's coefficient would score Su.
        lambda doc: doc.update(feature_set="Su_ABMD_COV"),
        lambda doc: doc["classifier"]["feature_names"].reverse(),
        lambda doc: doc.pop("stratum"),
    ], ids=["no_classifier", "no_params", "classifier_list",
            "kind_lda", "coef_count", "sd_count", "null_intercept", "no_pca",
            "other_feature_set", "feature_names_reordered", "no_stratum"])
    def test_model_exit_2(self, tmp_path, capsys, cohort_csv, model_doc, edit):
        doc = json.loads(json.dumps(model_doc))
        edit(doc)
        self._assert_exit_2(tmp_path, capsys, cohort_csv, doc)

    def test_model_json_list_exit_2(self, tmp_path, capsys, cohort_csv, model_doc):
        self._assert_exit_2(tmp_path, capsys, cohort_csv, [model_doc])

    # Each edit breaks the model file's PCA block; the first two once
    # crashed in matmul or scored on the wrong columns.
    @pytest.mark.parametrize("edit,error", [
        (lambda pca: pca.update(loadings=[[1, 0], [0, 1]]),
         "error: malformed PCA model JSON: 9 column names need 9x9 loadings"),
        (lambda pca: pca.update(column_names=["a"]),
         "error: malformed PCA model JSON: 1 column names need 1x1 loadings"),
        (lambda pca: pca["column_names"].reverse(),
         "error: malformed model file: PCA columns ['Lu', 'Ly', "),
        (lambda pca: pca["eigenvalues"].__setitem__(0, float("nan")),
         "error: malformed PCA model JSON: non-finite values"),
    ], ids=["loadings_2x2", "one_column_name", "column_names_reversed",
            "nan_eigenvalue"])
    def test_pca_block_exit_2(self, tmp_path, capsys, cohort_csv, model_doc, edit, error):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["pca"])
        self._assert_exit_2(tmp_path, capsys, cohort_csv, doc, error)

    @staticmethod
    def _assert_exit_2(tmp_path, capsys, cohort_csv, doc, error="error: malformed model"):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert dispatch(["compare-frax", "--cohort", str(cohort_csv), "--model", str(model),
                         "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(error)
        assert not (tmp_path / "d.json").exists()

    def test_model_of_another_stratum_exit_2(self, tmp_path, capsys, cohort_csv):
        # Same columns on both single-sex strata, so only the model's own
        # stratum tells that a male model would score the women.
        model, out = tmp_path / "male.json", tmp_path / "d.json"
        assert dispatch(["fit", "--cohort", str(cohort_csv), "--stratum", "male",
                         "--out", str(model)]) == 0
        capsys.readouterr()
        base = ["compare-frax", "--cohort", str(cohort_csv), "--model", str(model),
                "--out", str(out)]
        assert dispatch(base + ["--stratum", "female"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: model was fitted on stratum 'male' and cannot score stratum 'female'"]
        assert captured.out == "" and not out.exists()
        assert dispatch(base + ["--stratum", "male"]) == 0

    @pytest.mark.parametrize("text,error", [
        ('{"groups": {"male_control": ', "error: bad spec JSON: "),
        ("[]", "error: malformed spec: "),
    ], ids=["truncated", "list"])
    def test_spec_exit_2(self, tmp_path, capsys, text, error):
        spec, out = tmp_path / "spec.json", tmp_path / "c.csv"
        spec.write_text(text)
        assert dispatch(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(error)
        assert captured.out == "" and not out.exists()

    # Each edit of the shipped spec once crashed inside generate_cohort or,
    # for the unknown loading and the negative age mean, was accepted.
    @pytest.mark.parametrize("edit,error", [
        (lambda doc: doc["groups"]["male_fx"].update(n=2.5),
         "group male_fx: n must be an integer >= 2, got 2.5"),
        (lambda doc: doc["groups"]["male_fx"]["variables"]["age"].update(mean="80"),
         "group male_fx/age mean must be a finite number, got '80'"),
        (lambda doc: doc.update(frax=[]), "frax must be an object, got []"),
        (lambda doc: doc["loadings"].update(Sz=0.5), "loading for unknown variable 'Sz'"),
        (lambda doc: doc["abmd_ct"].update(loading=1.5), "abmd_ct loading must be in [-1, 1]"),
        (lambda doc: doc["bmdmed_p"].update(fx=1.5), "bmdmed_p fx must be in [0, 1]"),
        (lambda doc: doc["groups"]["male_fx"]["variables"]["age"].update(mean=-5),
         "group male_fx/age: truncation floor 1e-06 is not below the mean -5"),
    ], ids=["fractional_n", "string_mean", "frax_list", "unknown_loading",
            "abmd_loading_above_1", "bmdmed_p_above_1", "negative_age_mean"])
    def test_spec_value_exit_2(self, tmp_path, capsys, edit, error):
        doc = json.loads(json.dumps(default_spec().doc))
        edit(doc)
        spec, out = tmp_path / "spec.json", tmp_path / "c.csv"
        spec.write_text(json.dumps(doc))
        assert dispatch(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: malformed spec: {error}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("doc", [
        [],
        {"material": {"c_E": "x"}},
        # Rejected before the solve starts, not by range() inside it.
        {"control": {"max_increments": 2.5}},
        # JSON's NaN, Infinity and true are not material or control values.
        {"material": {"c_E": float("nan")}},
        {"material": {"eps_plateau": float("inf")}},
        {"material": {"p_S": True}},
        {"control": {"increment": float("nan")}},
        {"control": {"tolerance": float("inf")}},
        {"control": {"max_increments": True}},
        # Once accepted, then failed as "curve needs at least 2 samples".
        {"control": {"max_increments": 0}},
        # Values outside each field's range, and fields that do not exist.
        {"material": {"nu": 0.5}},
        {"material": {"c_E": -1}},
        {"material": {"f_plateau": 1.5}},
        {"material": {"f_soft": 0.1}},
        {"material": {"E_min": 0}},
        {"material": {"floor_frac": 1}},
        {"material": {"density": 1.0}},
        {"control": {"steps": 10}},
        {"control": {"increment": -1}},
        {"control": {"tolerance": 0}},
        {"control": {"stop_fraction": 0}},
    ], ids=["list", "string_c_E", "fractional_max_increments", "nan_c_E",
            "inf_eps_plateau", "bool_p_S", "nan_increment", "inf_tolerance",
            "bool_max_increments", "zero_max_increments", "half_nu", "negative_c_E",
            "f_plateau_above_1", "positive_f_soft", "zero_E_min", "floor_frac_1",
            "unknown_material_field", "unknown_control_field", "negative_increment",
            "zero_tolerance", "zero_stop_fraction"])
    def test_material_exit_2(self, tmp_path, capsys, doc):
        grid, material, out = tmp_path / "g.txt", tmp_path / "m.json", tmp_path / "fe.json"
        save_grid(uniform_grid((2, 2, 3), 0.3), grid)
        material.write_text(json.dumps(doc))
        assert dispatch(["fe", "--grid", str(grid), "--material", str(material),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed material file: ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("header,error", [
        ("2 2 3 nan", "error: spacing must be finite and positive"),
        ("2 2 3 inf", "error: spacing must be finite and positive"),
        # -2 * -2 * 3 matches the 12 values, so only the dims check stops it.
        ("-2 -2 3 3.0", "error: grid dims must be positive integers"),
        ("2 2 3", "error: grid header must be 'nx ny nz spacing_mm'"),
        ("2 2 3 3.0 1", "error: grid header must be 'nx ny nz spacing_mm'"),
        ("2 2 x 3.0", "error: bad grid file: invalid literal for int() with base 10: 'x'"),
        # The text after the newline is the first density value.
        ("2 2 3 3.0\nabc", "error: bad grid file: could not convert string to float: 'abc'"),
    ], ids=["nan_spacing", "inf_spacing", "negative_dims", "three_fields", "five_fields",
            "non_integer_dims", "non_numeric_density"])
    def test_grid_header_exit_2(self, tmp_path, capsys, header, error):
        grid, out = tmp_path / "g.txt", tmp_path / "fe.json"
        grid.write_text(header + "\n" + "0.3 " * 12 + "\n")
        assert dispatch(["fe", "--grid", str(grid), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [error]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["synth", "report"])
    def test_json_nested_too_deep_exit_2(self, tmp_path, capsys, command):
        # 100 000 nested lists once ended both commands with a RecursionError
        # traceback out of read_json.
        path, out = tmp_path / "deep.json", tmp_path / "c.csv"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = {"synth": ["synth", "--spec", str(path), "--out", str(out)],
                "report": ["report", "--input", str(path)]}[command]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        what = {"synth": "spec", "report": "report"}[command]
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad {what} JSON: maximum recursion")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("doc", [
        {"cells": {"ABMD_COV|logistic": {"auc_sd": 0.1}}},
        {"cells": {"ABMD_COV|logistic": {"auc_mean": "0.7", "auc_sd": 0.1}}},
        {"cells": {}, "frax": {"cell": "ABMD_COV|logistic"}},
        [],
        # An FE parameter document, not a report.
        {"Sy": 1.0},
    ], ids=["no_auc_mean", "string_auc_mean", "frax_without_aucs", "list", "fe_params"])
    def test_report_exit_2(self, tmp_path, capsys, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert dispatch(["report", "--input", str(report)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed report JSON")
        assert captured.out == ""


# Cells that once escaped dispatch as a traceback, were truncated to an
# integer, or loaded and failed later as a numerical error.
BAD_CELLS = [
    ("frax_prob", "abc", "non-numeric value 'abc' in column frax_prob"),
    ("healstat", "nan", "non-finite value 'nan' in column healstat"),
    ("healstat", "inf", "non-finite value 'inf' in column healstat"),
    ("healstat", "2.5", "healstat must be in 1..5, got 2.5"),
    ("fx", "0.7", "fx must be 0 or 1, got 0.7"),
    ("bmdmed", "1.9", "bmdmed must be 0 or 1, got 1.9"),
    ("age", "inf", "non-finite value 'inf' in column age"),
]


def _one_sex(cohort_csv, path, sex):
    """The subjects of cohort_csv of one sex, written to path."""
    lines = cohort_csv.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + [l for l in lines[1:] if l.split(",")[1] == sex])
                    + "\n")
    return path


class TestMalformedCohort:
    @pytest.mark.parametrize("column,cell,message", BAD_CELLS,
                             ids=[f"{c}-{v}" for c, v, _ in BAD_CELLS])
    def test_bad_cell_exit_2(self, tmp_path, capsys, cohort_csv, column, cell, message):
        lines = cohort_csv.read_text().splitlines()
        fields = lines[3].split(",")
        fields[COHORT_HEADER.index(column)] = cell
        lines[3] = ",".join(fields)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        assert dispatch(["fit", "--cohort", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: line 4: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("duplicate", [False, True], ids=["empty", "duplicate"])
    def test_bad_subject_id_evaluate_exit_2(self, tmp_path, capsys, cohort_csv, duplicate):
        lines = cohort_csv.read_text().splitlines()
        first = lines[1].split(",")[0]
        subject_id = first if duplicate else ""
        lines[3] = subject_id + lines[3][lines[3].index(","):]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        assert dispatch(["evaluate", "--cohort", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        message = (f"duplicate subject id {first!r}, first on line 2" if duplicate
                   else "empty subject id")
        assert captured.err.splitlines() == [f"error: line 4: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "fit", "compare-frax"])
    def test_not_utf8_exit_2(self, tmp_path, capsys, cohort_csv, model_doc, command):
        # A Latin-1 byte in line 4 once ended each command with a traceback.
        data = cohort_csv.read_bytes().split(b"\n")
        data[3] = data[3].replace(b",", b"\xe9,", 1)
        path, out, model = tmp_path / "bad.csv", tmp_path / "out.json", tmp_path / "m.json"
        path.write_bytes(b"\n".join(data))
        model.write_text(json.dumps(model_doc))
        argv = {"evaluate": ["evaluate", "--out", str(out)],
                "fit": ["fit", "--out", str(out)],
                "compare-frax": ["compare-frax", "--model", str(model), "--out", str(out)],
                }[command] + ["--cohort", str(path)]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        offset = len(b"\n".join(data[:3])) + 1 + data[3].index(b"\xe9")
        assert captured.err.splitlines() == [
            f"error: line 4: not UTF-8 (invalid continuation byte at byte {offset})"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_not_utf8_line_counted_at_every_line_end(self, tmp_path, capsys, cohort_csv, end):
        # The csv reader breaks lines at \r\n, \r and \n, and so does the
        # line a byte that is not UTF-8 is reported on: once a file with
        # lone \r line ends reported its Latin-1 byte on line 4 as line 1.
        data = cohort_csv.read_bytes().splitlines()
        data[3] = data[3].replace(b",", b"\xe9,", 1)
        path = tmp_path / "bad.csv"
        path.write_bytes(end.join(data) + end)
        assert dispatch(["fit", "--cohort", str(path)]) == 2
        offset = len(end.join(data[:3]) + end) + data[3].index(b"\xe9")
        assert capsys.readouterr().err.splitlines() == [
            f"error: line 4: not UTF-8 (invalid continuation byte at byte {offset})"]

    @pytest.mark.parametrize("command", ["evaluate", "fit", "compare-frax"])
    def test_empty_stratum_exit_2(self, tmp_path, capsys, cohort_csv, model_doc, command):
        # An all-male cohort has no female stratum: once a fit, a split or
        # the model check failed on the empty cohort with its own message.
        path = _one_sex(cohort_csv, tmp_path / "men.csv", "M")
        out, model = tmp_path / "out.json", tmp_path / "m.json"
        model.write_text(json.dumps(model_doc))
        argv = {"evaluate": ["evaluate", "--out", str(out)],
                "fit": ["fit", "--out", str(out)],
                "compare-frax": ["compare-frax", "--model", str(model), "--out", str(out)],
                }[command] + ["--cohort", str(path), "--stratum", "female"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: stratum 'female' has no subjects"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("sex,group", [("M", "male"), ("F", "female")])
    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    def test_one_sex_cohort_with_sex_feature_exit_2(self, tmp_path, capsys, cohort_csv,
                                                   command, sex, group):
        # The whole-sample feature sets hold sex, constant on a cohort of one
        # sex: once the fit failed on "constant column at index 3 (SD = 0)",
        # after evaluate had printed its mode.
        path = _one_sex(cohort_csv, tmp_path / "one.csv", sex)
        out = tmp_path / "out.json"
        assert dispatch([command, "--cohort", str(path), "--stratum", "all",
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: column sex is constant: every subject is {sex}; "
            f"use --stratum {group} or a feature set without sex"]
        assert captured.out == "" and not out.exists()

    def test_one_sex_cohort_without_sex_feature_runs(self, tmp_path, cohort_csv, model_doc):
        path = _one_sex(cohort_csv, tmp_path / "men.csv", "M")
        model = tmp_path / "m.json"
        model.write_text(json.dumps(model_doc))
        assert dispatch(["evaluate", "--cohort", str(path), "--features", "FRAX_ONLY",
                         "--resamples", "10", "--repeats", "2",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert dispatch(["compare-frax", "--cohort", str(path), "--model", str(model),
                         "--out", str(tmp_path / "c.json")]) == 0

    @pytest.mark.parametrize("text,error", [
        ("", "empty file: no header row"),
        (",".join(COHORT_HEADER) + "\n", "empty cohort"),
    ], ids=["empty_file", "header_only"])
    def test_no_subjects_exit_2(self, tmp_path, capsys, text, error):
        path, out = tmp_path / "c.csv", tmp_path / "out.json"
        path.write_text(text)
        assert dispatch(["evaluate", "--cohort", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {error}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("bad_above", [False, True], ids=["alone", "bad_row_above"])
    def test_field_past_the_csv_limit_exit_2(self, tmp_path, capsys, cohort_csv, bad_above):
        # An id of 200 000 bytes on line 4 once ended fit with csv.Error's
        # traceback; a rule broken on line 3 is still reported first.
        lines = cohort_csv.read_text().splitlines()
        lines[3] = "x" * 200_000 + lines[3][lines[3].index(","):]
        if bad_above:
            fields = lines[2].split(",")
            fields[COHORT_HEADER.index("healstat")] = "2.5"
            lines[2] = ",".join(fields)
        path, out = tmp_path / "bad.csv", tmp_path / "m.json"
        path.write_text("\n".join(lines) + "\n")
        assert dispatch(["fit", "--cohort", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: line 3: healstat must be in 1..5, got 2.5" if bad_above
            else "error: line 4: field larger than field limit (131072)"]
        assert captured.out == "" and not out.exists()

    def test_bad_cell_above_a_non_utf8_line_reported_first(self, tmp_path, capsys,
                                                          cohort_csv):
        data = cohort_csv.read_bytes().split(b"\n")
        data[3] = data[3].replace(b",M,", b",X,").replace(b",F,", b",X,")
        data[9] = data[9].replace(b",", b"\xe9,", 1)
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(data))
        assert dispatch(["fit", "--cohort", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: line 4: sex must be M or F, got 'X'"]


class TestSynth:
    def test_row_count_and_determinism(self, tmp_path, cohort_csv):
        cohort = load_cohort(cohort_csv)
        assert len(cohort) == 345
        again = tmp_path / "again.csv"
        assert dispatch(["synth", "--seed", "7", "--out", str(again)]) == 0
        assert again.read_bytes() == cohort_csv.read_bytes()


def _curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    _write_csv(path, "displacement_mm,force_n",
               np.array([0.0, 1 / 3, 2.0]), np.array([1234.5678901234, -2.5e-12, 1e300]))
    return path, ("displacement_mm,force_n\n"
                  "0,1234.56789\n"
                  "0.3333333333,-2.5e-12\n"
                  "2,1e+300\n")


def _roc_csv(tmp_path):
    roc = roc_curve([0.1, 0.4, 0.35, 0.8, 0.6], [0, 0, 1, 1, 1])
    _write_roc_csvs(tmp_path, roc, roc)
    return tmp_path / "model_roc.csv", ("fpr,tpr,threshold\n"
                                        "0,0,inf\n"
                                        "0,0.3333333333,0.8\n"
                                        "0,0.6666666667,0.6\n"
                                        "0.5,0.6666666667,0.4\n"
                                        "0.5,1,0.35\n"
                                        "1,1,0.1\n")


def _nested_json(tmp_path):
    path = tmp_path / "nested.json"
    write_json({"b": {"y": [1, 2.5], "x": None}, "a": "s"}, path)
    return path, ('{\n  "a": "s",\n  "b": {\n    "x": null,\n    "y": [\n'
                  '      1,\n      2.5\n    ]\n  }\n}\n')


def _report_json(tmp_path):
    path = tmp_path / "report.json"
    aucs = {"a|logistic": np.array([0.71, 0.8123456789, 0.75]),
            "b|pls": np.array([0.6, 0.65, 0.7])}
    doc = build_report({"cells": aucs, "comparisons": {
        "a|logistic>b|pls": paired_one_sided_ttest(aucs["a|logistic"], aucs["b|pls"])}},
        {"resamples": 3}, 7, {"frax": {"cell": "a|logistic", "p": 1 / 3}})
    write_json(doc, path)
    # write_json gives the bytes of json.dumps with the same layout.
    return path, json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestOutputFormats:
    @pytest.mark.parametrize("write", [_curve_csv, _roc_csv, _nested_json, _report_json],
                             ids=["curve_csv", "roc_csv", "nested_json", "report_json"])
    def test_exact_text(self, tmp_path, write):
        path, expected = write(tmp_path)
        assert path.read_bytes() == expected.encode()


class TestFe:
    def test_params_and_curves(self, tmp_path):
        rng = np.random.default_rng(3)
        gpath = tmp_path / "g.txt"
        save_grid(VoxelGrid(rng.uniform(0.1, 0.5, (2, 2, 5)), 3.0), gpath)
        out = tmp_path / "fe.json"
        base = ["fe", "--grid", str(gpath), "--yield-policy", "ultimate"]
        rc = dispatch(base + ["--out", str(out),
                              "--curves-dir", str(tmp_path / "curves")])
        assert rc == 0
        doc = load_strict_json(out)
        assert list(doc) == sorted(FE12)
        for case in ("stance", "posterior", "posterolateral", "lateral"):
            lines = (tmp_path / "curves" / f"{case}.csv").read_text().splitlines()
            assert lines[0] == "displacement_mm,force_n"
            assert len(lines) > 2

        plain = tmp_path / "fe_plain.json"
        assert dispatch(base + ["--out", str(plain)]) == 0
        assert plain.read_bytes() == out.read_bytes()

    def test_blas_threads_byte_identical(self, tmp_path, monkeypatch):
        # The band solves run pinned to one BLAS thread; so the parameters
        # and curves of a plastic grid keep their bytes whatever thread
        # count the process starts with.
        rng = np.random.default_rng(3)
        save_grid(VoxelGrid(rng.uniform(0.1, 0.5, (2, 2, 5)), 3.0), tmp_path / "g.txt")
        argv = ["fe", "--grid", str(tmp_path / "g.txt"), "--yield-policy", "ultimate",
                "--curves-dir", "curves", "--out", "fe.json"]
        names = ["fe.json"] + [f"curves/{case}.csv" for case in
                               ("stance", "posterior", "posterolateral", "lateral")]
        outs = outputs_at_blas_threads(tmp_path, monkeypatch, argv, names)
        assert outs[0] == outs[1] == outs[2]

    def test_invalid_parameters_exit_2(self, tmp_path, capsys, monkeypatch):
        # The twelve parameters pass the cohort rules before they are written.
        from femrisk.femodel import loadcases
        monkeypatch.setattr(loadcases, "extract_result", lambda curve, policy: (0.0, 1.0, 1.0))
        gpath = tmp_path / "g.txt"
        save_grid(uniform_grid((2, 2, 3), 0.3), gpath)
        out = tmp_path / "fe.json"
        assert dispatch(["fe", "--grid", str(gpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: FE parameter Sy must be finite and positive, got 0.0"]
        assert not out.exists()

    @pytest.mark.parametrize("spacing, material",
                             [(1e-300, {}), (3.0, {"c_E": 1e300}), (1e300, {})],
                             ids=["tiny_spacing", "huge_c_E", "huge_spacing"])
    def test_overflowing_strains_exit_3_with_one_line(self, tmp_path, capsys, spacing,
                                                      material):
        # The solver catches the non-finite values; NumPy's overflow and
        # invalid-value warnings once printed 9-11 lines before the error.
        # A huge spacing overflows the Gauss-point volume to inf, which once
        # raised OverflowError with a traceback.
        gpath, mpath = tmp_path / "g.txt", tmp_path / "m.json"
        save_grid(uniform_grid((2, 2, 3), 0.3, spacing), gpath)
        mpath.write_text(json.dumps({"material": material}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(["fe", "--grid", str(gpath), "--material", str(mpath),
                             "--out", str(tmp_path / "fe.json")]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "error: load case stance failed: Newton failed to converge at increment 1"]

    @pytest.mark.parametrize("with_curves", [False, True])
    def test_no_yield_exit_3_and_no_curves(self, tmp_path, capsys, with_curves):
        # Two 1 um increments never grow a 15-element yielded cluster.
        gpath = tmp_path / "g.txt"
        save_grid(uniform_grid((2, 2, 4), 0.25), gpath)
        control = tmp_path / "control.json"
        material_to_file(MaterialModel(),
                         SolveControl(increment=0.001, max_increments=2), control)
        argv = ["fe", "--grid", str(gpath), "--material", str(control),
                "--out", str(tmp_path / "fe.json")]
        if with_curves:
            argv += ["--curves-dir", str(tmp_path / "curves")]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: load case stance failed:")
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "fe.json").exists()


class TestFitAndCompare:
    def test_fit_output_and_round_trip(self, tmp_path, cohort_csv, capsys):
        model = tmp_path / "model.json"
        rc = dispatch(["fit", "--cohort", str(cohort_csv), "--out", str(model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pc1_variance_share" in out
        doc = load_strict_json(model)
        assert 0.73 <= doc["pc1_variance_share"] <= 0.93
        assert 1 in doc["retained_pcs"]

        delong = tmp_path / "delong.json"
        rc = dispatch(["compare-frax", "--cohort", str(cohort_csv),
                       "--model", str(model), "--out", str(delong),
                       "--roc-dir", str(tmp_path / "roc")])
        assert rc == 0
        ddoc = load_strict_json(delong)
        assert set(ddoc) >= {"auc_model", "auc_frax", "p"}
        header = (tmp_path / "roc" / "model_roc.csv").read_text().splitlines()[0]
        assert header == "fpr,tpr,threshold"

    def test_spec_block_of_older_model_files_ignored(self, tmp_path, cohort_csv):
        # Model files once held the classifier's hyperparameters as a "spec"
        # block; the scores depend only on the coefficients and standardization.
        model, old = tmp_path / "model.json", tmp_path / "old.json"
        assert dispatch(["fit", "--cohort", str(cohort_csv), "--out", str(model)]) == 0
        doc = load_strict_json(model)
        assert "spec" not in doc["classifier"]
        doc["classifier"]["spec"] = {"ridge": 0.0001, "shrinkage": 0.1,
                                     "components": 3, "neighbors": 5}
        old.write_text(json.dumps(doc))
        outs = []
        for path in (model, old):
            out = tmp_path / f"{path.stem}_delong.json"
            assert dispatch(["compare-frax", "--cohort", str(cohort_csv),
                             "--model", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEvaluateAndReport:
    def test_protocol_defaults(self):
        # The paper's protocol: 25 repeats at a 0.75 train share, 1000
        # resamples at 0.8, and a 0.8 holdout.  The CLI reads the first four
        # from the config classes, so these values pin both.
        args = build_parser().parse_args(["evaluate", "--cohort", "c.csv", "--out", "r.json"])
        got = (args.repeats, args.cv_fraction, args.resamples, args.resample_fraction,
               args.holdout_fraction)
        assert got == (25, 0.75, 1000, 0.8, 0.8)
        assert got[:4] == (CvConfig().repeats, CvConfig().train_fraction,
                           ResampleConfig().resamples, ResampleConfig().train_fraction)

    def test_end_to_end(self, tmp_path, cohort_csv, capsys):
        report = tmp_path / "report.json"
        rc = dispatch(["evaluate", "--cohort", str(cohort_csv),
                       "--out", str(report), "--stratum", "male",
                       "--resamples", "40", "--repeats", "5", "--seed", "3"])
        assert rc == 0
        doc = load_strict_json(report)
        assert doc["seed"] == 3
        assert "PC1_ABMD_COV|logistic" in doc["cells"]
        assert "frax" in doc

        capsys.readouterr()
        assert dispatch(["report", "--input", str(report)]) == 0
        out = capsys.readouterr().out
        # 3-decimal rendering of the stored mean AUC
        mean = doc["cells"]["PC1_ABMD_COV|logistic"]["auc_mean"]
        assert f"{mean:.3f}" in out

    def test_frax_only_with_default_classifiers(self, tmp_path, cohort_csv):
        # One feature: PLS fits one component, and both classifiers rank the
        # held-out subjects by FRAX alone.
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--features", "FRAX_ONLY", "--stratum", "male",
                         "--resamples", "10", "--repeats", "2"]) == 0
        cells = load_strict_json(report)["cells"]
        assert cells["FRAX_ONLY|pls"] == cells["FRAX_ONLY|logistic"]

    def test_threads_byte_identical(self, tmp_path, cohort_csv):
        r1 = tmp_path / "r1.json"
        r8 = tmp_path / "r8.json"
        base = ["evaluate", "--cohort", str(cohort_csv), "--stratum", "male",
                "--resamples", "30", "--repeats", "3", "--seed", "11",
                "--classifiers", "logistic"]
        assert dispatch(base + ["--out", str(r1), "--threads", "1"]) == 0
        assert dispatch(base + ["--out", str(r8), "--threads", "8"]) == 0
        assert r1.read_bytes() == r8.read_bytes()
        assert set(load_strict_json(r1)["cells"]) == {"PC1_ABMD_COV|logistic",
                                                     "ABMD_COV|logistic"}

    def test_blas_threads_byte_identical(self, tmp_path, cohort_csv, monkeypatch):
        # --threads is ignored, so the comparison above cannot see a report
        # that depends on the BLAS thread count; these runs set that count,
        # and the third takes the default of a femrisk-first import.
        argv = ["evaluate", "--cohort", str(cohort_csv), "--resamples", "40",
                "--repeats", "4", "--seed", "5", "--roc-dir", "roc", "--out", "r.json"]
        outs = outputs_at_blas_threads(tmp_path, monkeypatch, argv,
                                       ("r.json", "roc/model_roc.csv", "roc/frax_roc.csv"))
        assert outs[0] == outs[1] == outs[2]

    def test_roc_dir_writes_both_curves(self, tmp_path, cohort_csv):
        roc = tmp_path / "roc"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--stratum", "male",
                         "--resamples", "10", "--repeats", "2", "--roc-dir", str(roc),
                         "--out", str(tmp_path / "r.json")]) == 0
        assert sorted(p.name for p in roc.iterdir()) == ["frax_roc.csv", "model_roc.csv"]
        for path in roc.iterdir():
            header, *rows = path.read_text().splitlines()
            assert header == "fpr,tpr,threshold"
            points = np.array([row.split(",")[:2] for row in rows], dtype=float)
            assert points[0].tolist() == [0.0, 0.0] and points[-1].tolist() == [1.0, 1.0]

    def test_single_repeat_report_is_strict_json(self, tmp_path, cohort_csv):
        # One LGOCV repeat has no sample SD; the report must still be JSON
        # without NaN or Infinity.
        report = tmp_path / "r1.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv),
                         "--out", str(report), "--stratum", "male",
                         "--resamples", "20", "--repeats", "1", "--seed", "2",
                         "--skip-frax"]) == 0
        doc = load_strict_json(report)
        assert all(c["auc_sd"] == 0.0 for c in doc["lgocv"].values())

    @pytest.mark.parametrize("fraction", ["7", "0", "1", "-0.2", "nan"])
    def test_holdout_fraction_outside_unit_interval_exit_2(self, tmp_path, cohort_csv,
                                                           capsys, fraction):
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--stratum", "male", "--resamples", "10", "--repeats", "2",
                         "--holdout-fraction", fraction]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: train fraction must be in (0, 1), got {float(fraction)}"]
        assert captured.out == "" and not report.exists()

    @pytest.mark.parametrize("option, value, error", [
        ("--repeats", "0", "repeats must be >= 1"),
        ("--resamples", "1", "resamples must be >= 2"),
        ("--cv-fraction", "1.5", "train_fraction must be in (0, 1)"),
        ("--resample-fraction", "0", "train_fraction must be in (0, 1)"),
    ])
    def test_bad_option_exit_2_before_any_output(self, tmp_path, cohort_csv, capsys,
                                                 option, value, error):
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--stratum", "male", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {error}"]
        assert captured.out == "" and not report.exists()

    @pytest.mark.parametrize("option, value, code, error", [
        ("--threads", "0", 1, "--threads must be >= 1"),
        # The 5 % holdout training rows of the 134 men hold 2 fracture cases.
        ("--holdout-fraction", "0.05", 2, "each class needs at least 4 members for LGOCV"),
    ])
    def test_bad_option_one_error_line(self, tmp_path, cohort_csv, capsys, option, value,
                                       code, error):
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--stratum", "male", option, value]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {error}"]
        assert captured.out == "" and not report.exists()

    def test_feature_constant_within_a_class_exit_3(self, tmp_path, cohort_csv, capsys):
        # bmdmed 0 for every fracture case: QDA's class-1 variance of it is
        # rounding noise, which once gave scores of exactly 0 or 1.
        lines = cohort_csv.read_text().splitlines()
        header = lines[0].split(",")
        fx, bmdmed = header.index("fx"), header.index("bmdmed")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            if row[fx] == "1":
                row[bmdmed] = "0"
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort), "--out", str(report),
                         "--stratum", "male", "--classifiers", "qda", "--skip-frax",
                         "--resamples", "20", "--repeats", "3"]) == 3
        # Column 6 of the first feature set, PC1_ABMD_COV, is bmdmed.
        assert capsys.readouterr().err.splitlines() == [
            "error: column at index 6 is constant within class 1"]
        assert not report.exists()

    def test_paper_mode_flag_reported(self, tmp_path, cohort_csv, capsys):
        report = tmp_path / "rp.json"
        rc = dispatch(["evaluate", "--cohort", str(cohort_csv),
                       "--out", str(report), "--stratum", "male",
                       "--resamples", "10", "--repeats", "2", "--seed", "1",
                       "--paper-mode", "--skip-frax"])
        assert rc == 0
        assert "whole-sample" in capsys.readouterr().out
        assert load_strict_json(report)["mode"] == "paper"


def _blank_frax(cohort_csv, path, line):
    """cohort_csv with the frax_prob cell of one line (1-based) blanked."""
    lines = cohort_csv.read_text().splitlines()
    lines[line - 1] = lines[line - 1][:lines[line - 1].rindex(",") + 1]
    path.write_text("\n".join(lines) + "\n")
    return lines[line - 1].split(",")[0]


class TestFeatureSetNames:
    QUICK = ["--stratum", "male", "--resamples", "10", "--repeats", "2"]

    def test_names_resolve_to_their_cells(self, tmp_path, cohort_csv):
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--features", "Su_ABMD_COV", "FE9_ABMD_COV", *self.QUICK]) == 0
        doc = load_strict_json(report)
        assert doc["configs"]["features"] == ["Su_ABMD_COV", "FE9_ABMD_COV"]
        assert set(doc["cells"]) == {f"{f}|{c}" for f in ("Su_ABMD_COV", "FE9_ABMD_COV")
                                     for c in ("logistic", "pls")}

    @pytest.mark.parametrize("name", ["SINGLE_FE_ABMD_COV", "Penergy_ABMD_COV", "nonsense"])
    @pytest.mark.parametrize("command", ["evaluate", "fit", "model_file"])
    def test_unknown_name_exit_2(self, tmp_path, capsys, cohort_csv, model_doc, name,
                                 command):
        out, model = tmp_path / "out.json", tmp_path / "m.json"
        model.write_text(json.dumps(dict(model_doc, feature_set=name)))
        argv, prefix = {
            "evaluate": (["evaluate", "--features", name, *self.QUICK], ""),
            "fit": (["fit", "--features", name], ""),
            "model_file": (["compare-frax", "--model", str(model)], "malformed model file: "),
        }[command]
        assert dispatch(argv + ["--cohort", str(cohort_csv), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {prefix}unknown feature set {name!r}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("option,values", [
        ("--features", ["ABMD_COV", "PC1_ABMD_COV", "ABMD_COV"]),
        ("--classifiers", ["logistic", "logistic"]),
    ], ids=["features", "classifiers"])
    def test_duplicate_cells_exit_2(self, tmp_path, capsys, cohort_csv, option, values):
        out = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(out),
                         option, *values, *self.QUICK]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: duplicate evaluation cells"]
        assert not out.exists()


class TestFraxSkipped:
    QUICK = ["--stratum", "male", "--resamples", "10", "--repeats", "2", "--seed", "4"]

    def test_skip_frax_says_so(self, tmp_path, capsys, cohort_csv):
        report = tmp_path / "r.json"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--skip-frax", *self.QUICK]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "FRAX comparison skipped: --skip-frax" in out
        assert "frax" not in load_strict_json(report)

    def test_missing_frax_says_so_and_keeps_the_cells(self, tmp_path, capsys, cohort_csv):
        # The blanked subject is male (line 2 of a synth cohort), so the male
        # stratum lacks one FRAX value; the resampled cells do not read it.
        path, report, full = tmp_path / "c.csv", tmp_path / "r.json", tmp_path / "full.json"
        subject = _blank_frax(cohort_csv, path, 2)
        assert load_cohort(path).stratum("male").missing_frax() == [subject]
        assert dispatch(["evaluate", "--cohort", str(path), "--out", str(report),
                         *self.QUICK]) == 0
        out = capsys.readouterr().out.splitlines()
        assert (f"FRAX comparison skipped: frax_prob missing for 1 subjects "
                f"(first: {subject})") in out
        doc = load_strict_json(report)
        assert "frax" not in doc
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(full),
                         *self.QUICK]) == 0
        assert doc["cells"] == load_strict_json(full)["cells"]

    def test_roc_dir_with_missing_frax_exit_2_before_any_fit(self, tmp_path, capsys,
                                                             cohort_csv, monkeypatch):
        import femrisk.cli
        monkeypatch.setattr(femrisk.cli, "run_lgocv", None)   # a fit would crash
        path, report, roc = tmp_path / "c.csv", tmp_path / "r.json", tmp_path / "roc"
        subject = _blank_frax(cohort_csv, path, 2)
        assert dispatch(["evaluate", "--cohort", str(path), "--out", str(report),
                         "--roc-dir", str(roc), *self.QUICK]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --roc-dir needs the FRAX comparison: frax_prob missing for 1 "
            f"subjects (first: {subject})"]
        assert captured.out == "" and not report.exists() and not roc.exists()

    def test_roc_dir_with_skip_frax_exit_1(self, tmp_path, capsys, cohort_csv):
        report, roc = tmp_path / "r.json", tmp_path / "roc"
        assert dispatch(["evaluate", "--cohort", str(cohort_csv), "--out", str(report),
                         "--roc-dir", str(roc), "--skip-frax", *self.QUICK]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --roc-dir writes the FRAX ROC curves, which --skip-frax leaves out"]
        assert captured.out == "" and not report.exists() and not roc.exists()


IMPORTS_PER_COMMAND = """
import contextlib, io, json, sys
from femrisk.cli import dispatch
from femrisk.femodel import save_grid, uniform_grid

def loaded():
    return {m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy", "femrisk")}

def unwanted():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])

save_grid(uniform_grid((2, 2, 3), 0.3), "grid.txt")
doc = {"unwanted": {"import": unwanted()}, "new": {}}
for argv in (["synth", "--seed", "3", "--out", "cohort.csv"],
             ["fit", "--cohort", "cohort.csv", "--stratum", "male", "--out", "model.json"],
             ["evaluate", "--cohort", "cohort.csv", "--stratum", "male",
              "--resamples", "20", "--repeats", "2", "--out", "report.json"],
             ["fe", "--grid", "grid.txt", "--yield-policy", "ultimate",
              "--curves-dir", "curves", "--out", "fe.json"],
             ["compare-frax", "--cohort", "cohort.csv", "--model", "model.json",
              "--stratum", "male", "--roc-dir", "roc", "--out", "delong.json"],
             ["report", "--input", "report.json"]):
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
    doc["new"][argv[0]] = sorted(loaded() - before)
    doc["unwanted"][argv[0]] = unwanted()
print(json.dumps(doc))
"""
COMMANDS = ["synth", "fit", "evaluate", "fe", "compare-frax", "report"]


def test_commands_import_nothing_new(tmp_path):
    # The p-values come from femrisk.stats._special, on the math module, the
    # band solves call LAPACK by ctypes in NumPy's own OpenBLAS, and the
    # yield clusters are labelled in NumPy: neither importing the CLI nor
    # any command loads a SciPy module.  No command calls np.unique or
    # np.setdiff1d, which import numpy.ma (about 12 ms) on their first call,
    # so numpy.ma stays unloaded too.  Nor may evaluate or fe import a
    # module of their own, which would move import time into the command.
    doc = json.loads(run_python(IMPORTS_PER_COMMAND, tmp_path).splitlines()[-1])
    assert doc["unwanted"] == {step: [] for step in ["import", *COMMANDS]}
    assert doc["new"]["evaluate"] == [] and doc["new"]["fe"] == []


THREADS_AT_IMPORT = """
import ctypes, json, os, pathlib
import numpy
libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
lib = ctypes.CDLL(str(sorted(libs.glob("libscipy_openblas64_*.so"))[0]))
get = lib.scipy_openblas_get_num_threads64_
after_numpy = len(os.listdir("/proc/self/task")), get()
import femrisk.cli
print(json.dumps({"new_threads": len(os.listdir("/proc/self/task")) - after_numpy[0],
                  "blas_threads": [after_numpy[1], get()],
                  "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or solver._numpy_openblas is None,
                    reason="needs /proc/self/task and NumPy's bundled OpenBLAS")
@pytest.mark.parametrize("caller", [None, "3"])
def test_import_starts_no_blas_worker(tmp_path, monkeypatch, caller):
    # The band solves run in NumPy's OpenBLAS, which import numpy has
    # loaded: importing the CLI starts no thread beyond those import numpy
    # started, leaves the library's thread count where the caller's
    # OPENBLAS_NUM_THREADS put it, and leaves the variable as it was.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    doc = json.loads(run_python(THREADS_AT_IMPORT, tmp_path, **env).splitlines()[-1])
    threads = doc.pop("blas_threads")
    assert doc == {"new_threads": 0, "env": caller}
    assert threads[0] == threads[1] >= 1


BLAS_AT_IMPORT = """
import json, os
import {first}
import femrisk.cli
from femrisk.femodel import solver
lib = solver._numpy_openblas
doc = {{"blas_threads": lib.scipy_openblas_get_num_threads64_(),
        "tasks": len(os.listdir("/proc/self/task")),
        "env": {{name: os.environ.get(name) for name in {variables!r}}}}}
lib.scipy_openblas_set_num_threads64_(2)
raised = lib.scipy_openblas_get_num_threads64_()
with solver.one_blas_thread():
    inside = lib.scipy_openblas_get_num_threads64_()
doc["raised"] = [raised, inside, lib.scipy_openblas_get_num_threads64_()]
print(json.dumps(doc))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or solver._numpy_openblas is None,
                    reason="needs /proc/self/task and NumPy's bundled OpenBLAS")
@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"}],
                         ids=["unset", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_femrisk_first_loads_numpy_on_one_blas_thread(tmp_path, monkeypatch, caller):
    # Imported before NumPy, femrisk loads NumPy's OpenBLAS under
    # OPENBLAS_NUM_THREADS=1 and unsets it again: the library starts on one
    # thread, with no worker beside the main thread, and the environment is
    # the caller's.  A caller's own thread variable keeps NumPy's behaviour
    # (OpenBLAS caps the count at the cores it sees), and the count can
    # still be raised afterwards, which one_blas_thread restores.
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)

    def run(first):
        code = BLAS_AT_IMPORT.format(first=first, variables=THREAD_VARIABLES)
        return json.loads(run_python(code, tmp_path, **caller).splitlines()[-1])

    doc = run("femrisk")
    assert doc["env"] == {name: caller.get(name) for name in THREAD_VARIABLES}
    assert doc["raised"] == [2, 1, 2]
    if not caller:
        assert (doc["blas_threads"], doc["tasks"]) == (1, 1)
    else:
        assert doc["blas_threads"] == run("numpy")["blas_threads"]
        assert doc["blas_threads"] > 1 or len(os.sched_getaffinity(0)) == 1


def test_fe_without_scipy_openblas_writes_the_same_bytes(tmp_path, monkeypatch):
    # Without NumPy's bundled OpenBLAS the band solves take their LAPACK
    # routines from scipy.linalg.cython_lapack, band LU included.
    save_grid(uniform_grid((2, 2, 4), 0.6), tmp_path / "grid.txt")

    def fe(name):
        out = tmp_path / name
        assert dispatch(["fe", "--grid", str(tmp_path / "grid.txt"), "--yield-policy",
                         "ultimate", "--curves-dir", str(out), "--out", str(out / "fe.json")]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    bundled = fe("bundled")
    monkeypatch.setattr(solver, "_numpy_openblas", None)
    events, real_lapack, real_assembler = [], solver._lapack, solver._band_assembler

    def lapack_info(name, *args):
        events.append((name, real_lapack(name, *args)))
        return events[-1][1]

    def assembler(*args):
        assemble = real_assembler(*args)
        return lambda chunks: events.append(("assemble", 0)) or assemble(chunks)

    monkeypatch.setattr(solver, "_band_assembler", assembler)
    with mock.patch.object(solver, "_lapack", wraps=lapack_info) as lapack:
        assert fe("fallback") == bundled
    assert "dgbsv" in [call.args[0] for call in lapack.call_args_list]
    assert len(bundled) == 5
    # Each failed in-place Cholesky is followed by the band's rebuild from
    # the same tangent's element matrices, then band LU, all through
    # cython_lapack.
    failed = [i for i, (name, info) in enumerate(events) if name == "dpbtrf" and info > 0]
    assert failed
    assert all([name for name, _ in events[i + 1:i + 3]] == ["assemble", "dgbsv"]
               for i in failed)
