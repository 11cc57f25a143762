import json

import numpy as np
import pytest

from femrisk.cli import dispatch
from femrisk.datamodel import load_cohort
from femrisk.femodel import (MaterialModel, SolveControl, material_to_file,
                             save_grid, uniform_grid)
from femrisk.femodel.grid import VoxelGrid


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict_json(path):
    """A JSON file the CLI wrote, which must hold no NaN or Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cohort.csv"
    assert dispatch(["synth", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        assert dispatch(["synth", "--bogus-flag"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand_exit_1(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_grid_exit_2(self, tmp_path, capsys):
        rc = dispatch(["fe", "--grid", "missing.txt",
                       "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid file not found")

    def test_missing_cohort_exit_2(self, tmp_path):
        assert dispatch(["fit", "--cohort", str(tmp_path / "nope.csv")]) == 2

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
        lambda doc: doc["classifier"]["spec"].update(depth=3),
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
    ], ids=["no_classifier", "unknown_spec_field", "no_params", "classifier_list",
            "kind_lda", "coef_count", "sd_count", "null_intercept", "no_pca",
            "other_feature_set", "feature_names_reordered"])
    def test_model_exit_2(self, tmp_path, capsys, cohort_csv, model_doc, edit):
        doc = json.loads(json.dumps(model_doc))
        edit(doc)
        self._assert_exit_2(tmp_path, capsys, cohort_csv, doc)

    def test_model_json_list_exit_2(self, tmp_path, capsys, cohort_csv, model_doc):
        self._assert_exit_2(tmp_path, capsys, cohort_csv, [model_doc])

    @staticmethod
    def _assert_exit_2(tmp_path, capsys, cohort_csv, doc):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert dispatch(["compare-frax", "--cohort", str(cohort_csv), "--model", str(model),
                         "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed model")
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("doc", [
        {"cells": {"ABMD_COV|logistic": {"auc_sd": 0.1}}},
        {"cells": {"ABMD_COV|logistic": {"auc_mean": "0.7", "auc_sd": 0.1}}},
        {"cells": {}, "frax": {"cell": "ABMD_COV|logistic"}},
        [],
    ], ids=["no_auc_mean", "string_auc_mean", "frax_without_aucs", "list"])
    def test_report_exit_2(self, tmp_path, capsys, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert dispatch(["report", "--input", str(report)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed report JSON")
        assert captured.out == ""


class TestSynth:
    def test_row_count_and_determinism(self, tmp_path, cohort_csv):
        cohort = load_cohort(cohort_csv)
        assert len(cohort) == 345
        again = tmp_path / "again.csv"
        assert dispatch(["synth", "--seed", "7", "--out", str(again)]) == 0
        assert again.read_bytes() == cohort_csv.read_bytes()


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
        assert set(doc) == {"Sy", "Su", "Senergy", "Py", "Pu", "Penergy",
                            "PLy", "PLu", "PLenergy", "Ly", "Lu", "Lenergy"}
        for case in ("stance", "posterior", "posterolateral", "lateral"):
            lines = (tmp_path / "curves" / f"{case}.csv").read_text().splitlines()
            assert lines[0] == "displacement_mm,force_n"
            assert len(lines) > 2

        plain = tmp_path / "fe_plain.json"
        assert dispatch(base + ["--out", str(plain)]) == 0
        assert plain.read_bytes() == out.read_bytes()

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


class TestEvaluateAndReport:
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
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: train fraction must be in (0, 1), got {float(fraction)}"]
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
