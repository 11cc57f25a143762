"""Golden outputs: `fe --curves-dir` on the benchmark's two phantoms, and
`evaluate --roc-dir` with the benchmark's male default arguments
(evaluate_male: the CLI defaults on the male stratum) and its wide
arguments (evaluate_wide_t2: features FE9_ABMD_COV, PC1_ABMD_COV and
ABMD_COV, classifiers lda, qda and knn, all subjects) on its cohort
(perfbench/inputs.py, perfbench/workloads.py), each at seeds 0, 7 and 42,
run through dispatch in process and compared with tests/golden.json.

The other commands are recorded on the same cohorts, at the same seeds:
`synth`, `fit --stratum male`, `compare-frax --roc-dir` with that fitted
model, and `report` on the male default `evaluate` report.  Each runs in a
fresh working directory on relative paths, after the commands that write
its inputs (COMMANDS), and its stdout is recorded with the files it writes.

Every output file (fe_params.json and the four curve CSVs; report.json and
the two ROC CSVs; a command's files and stdout) is recorded as its sha256,
its skeleton (the text with
each number replaced by "#") and its numbers.  The skeleton must match
exactly, so keys, headers, row counts and layout cannot move.  The numbers
must match at RTOL relative, the bound perfbench/workloads.py puts on FE
parameters between two versions of the solver.  The sha256 is compared only
under the Python, NumPy, SciPy and BLAS build recorded with it; elsewhere
the test warns that it compared numbers alone.

Each `fe` run also pins the solve traffic that spsolve's two-rung ladder
rests on: band LU never meets a singular tangent (dgbsv info > 0), and no
solve answers NaN.  Under the recorded environment it also counts the
linear solves and the LAPACK calls (FE_TRAFFIC), exactly, as the sha256 is
compared: a tangent factored twice, or a solve that changed rung, would
move a count.

Re-record the file, only for an intended output change (ROADMAP,
"Re-record rule"), with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import importlib
import json
import platform
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import lapack_calls
import femrisk.cli
from femrisk.femodel import solver

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
PERFBENCH = ROOT / "perfbench"
SEEDS = (0, 7, 42)
FE_RUNS = [(name, seed) for name in ("fe_phantom", "fe_fine_elastic") for seed in SEEDS]
EVALUATE_RUNS = [(name, seed) for name in ("evaluate_male", "evaluate_wide_t2")
                 for seed in SEEDS]
# The option that writes each command's extra output files into a directory.
OUTPUT_DIR = {"fe": "--curves-dir", "evaluate": "--roc-dir"}
# Each recorded command, last, after the steps that write its inputs; "{seed}"
# is the row's seed.  The report reads evaluate_male's report.
SYNTH = ["synth", "--seed", "{seed}", "--out", "cohort.csv"]
FIT = ["fit", "--cohort", "cohort.csv", "--stratum", "male", "--out", "model.json"]
EVALUATE_MALE = ["evaluate", "--cohort", "cohort.csv", "--out", "report.json",
                 "--seed", "{seed}", "--stratum", "male"]
COMMANDS = {
    "synth": [SYNTH],
    "fit": [SYNTH, FIT],
    "compare-frax": [SYNTH, FIT, ["compare-frax", "--cohort", "cohort.csv",
                                  "--model", "model.json", "--stratum", "male",
                                  "--roc-dir", "roc", "--out", "delong.json"]],
    "report": [SYNTH, EVALUATE_MALE, ["report", "--input", "report.json"]],
}
COMMAND_RUNS = [(command, seed) for command in COMMANDS for seed in SEEDS]
RTOL = 1e-9
# The linear solves of each fe golden run and its LAPACK calls, with the
# dpbtrf calls that failed (each followed by band LU), the same at seeds 0,
# 7 and 42.  The fe_phantom tangents that repeat their bytes within a solve
# are factored once: 190 solves, 182 factorizations.
FE_TRAFFIC = {
    "fe_phantom": {"spsolve": 190, "dpbtrf": 182, "dpbtrf failed": 22, "dpbtrs": 168,
                   "dgbsv": 22},
    "fe_fine_elastic": {"spsolve": 8, "dpbtrf": 4, "dpbtrf failed": 0, "dpbtrs": 8,
                        "dgbsv": 0},
}
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def environment() -> dict:
    """The versions an output's bytes may depend on: Python, NumPy, SciPy
    and the build and core of the OpenBLAS the band solves run in, NumPy's
    (None on the cython_lapack fallback, whose library SciPy's version
    names)."""
    blas = getattr(solver._numpy_openblas, "scipy_openblas_get_config64_", None)
    if blas is not None:
        blas.restype = ctypes.c_char_p
        blas = blas().decode()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


def record(data: bytes) -> dict:
    text = data.decode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "skeleton": NUMBER.sub("#", text),
            "numbers": [float(v) for v in NUMBER.findall(text)]}


def run(name: str, seed: int, workdir: Path) -> dict:
    """The record of each file that the workload name's command writes, with
    its output directory, for its inputs at seed, keyed by its path under
    workdir."""
    workload = _workloads().WORKLOADS[name]
    workload.write_inputs(femrisk, seed, workdir)
    argv = workload.argv(workdir, seed, workload.threads)
    out_dir = workdir / "curves"
    assert femrisk.cli.dispatch([*argv, OUTPUT_DIR[workload.kind], str(out_dir)]) == 0
    files = [workdir / workload.output, *sorted(out_dir.iterdir())]
    return {f.relative_to(workdir).as_posix(): record(f.read_bytes()) for f in files}


def run_command(command: str, seed: int, workdir: Path) -> dict:
    """The record of each file that command writes, and of its stdout
    (keyed "stdout"), at seed in workdir, after its input steps."""
    *inputs, argv = COMMANDS[command]
    with contextlib.chdir(workdir):
        for step in inputs:
            assert femrisk.cli.dispatch([a.format(seed=seed) for a in step]) == 0
        before = set(Path().rglob("*"))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert femrisk.cli.dispatch([a.format(seed=seed) for a in argv]) == 0
        files = sorted(f for f in set(Path().rglob("*")) - before if f.is_file())
        got = {f.as_posix(): record(f.read_bytes()) for f in files}
    return {**got, "stdout": record(stdout.getvalue().encode("utf-8"))}


def mismatches(got: dict, want: dict, same_environment: bool) -> list:
    """Every difference of the records got from the records want."""
    if sorted(got) != sorted(want):
        return [f"files {sorted(got)} != {sorted(want)}"]
    problems = []
    for path, g in got.items():
        w = want[path]
        if g["skeleton"] != w["skeleton"]:
            problems.append(f"{path}: text other than numbers differs")
            continue
        off = [i for i, (a, b) in enumerate(zip(g["numbers"], w["numbers"]))
               if not abs(a - b) <= RTOL * abs(b)]
        if off:
            i = off[0]
            problems.append(f"{path}: {len(off)} numbers off by more than {RTOL:g} "
                            f"relative, first #{i}: {g['numbers'][i]!r} != {w['numbers'][i]!r}")
        elif same_environment and g["sha256"] != w["sha256"]:
            problems.append(f"{path}: sha256 {g['sha256']} != {w['sha256']}")
    return problems


@pytest.fixture(scope="module")
def golden():
    """The recorded runs, and whether this environment is the recorded one."""
    doc = json.loads(GOLDEN.read_text())
    here = environment()
    if doc["environment"] != here:
        warnings.warn(f"golden sha256 not compared: recorded under {doc['environment']}, "
                      f"running under {here}; numbers and text compared only")
    return doc["runs"], doc["environment"] == here


@pytest.mark.parametrize("name, seed", FE_RUNS)
def test_fe_outputs_match_golden(golden, name, seed, tmp_path, monkeypatch):
    runs, same_environment = golden
    want = runs[f"{name} seed {seed}"]
    lu_infos, finite, spsolve = [], [], solver.spsolve
    traffic = dict.fromkeys(FE_TRAFFIC[name], 0)

    def lu_info(routine, args, info):
        traffic[routine] += 1
        if routine == "dpbtrf" and info > 0:
            traffic["dpbtrf failed"] += 1
        if routine == "dgbsv":
            lu_infos.append(info)

    def checked(kb, cholesky, b):
        traffic["spsolve"] += 1
        x = spsolve(kb, cholesky, b)
        finite.append(bool(np.isfinite(x).all()))
        return x

    monkeypatch.setattr(solver, "spsolve", checked)
    with lapack_calls(after=lu_info):
        got = run(name, seed, tmp_path)
    assert [info for info in lu_infos if info > 0] == []
    assert finite and all(finite)
    assert mismatches(got, want, same_environment) == []
    if same_environment:
        assert traffic == FE_TRAFFIC[name]


@pytest.mark.parametrize("name, seed", EVALUATE_RUNS)
def test_evaluate_outputs_match_golden(golden, name, seed, tmp_path):
    runs, same_environment = golden
    got = run(name, seed, tmp_path)
    assert mismatches(got, runs[f"{name} seed {seed}"], same_environment) == []


@pytest.mark.parametrize("command, seed", COMMAND_RUNS)
def test_command_outputs_match_golden(golden, command, seed, tmp_path):
    runs, same_environment = golden
    got = run_command(command, seed, tmp_path)
    assert mismatches(got, runs[f"{command} seed {seed}"], same_environment) == []


def write() -> None:
    runs = {}
    for name, seed in FE_RUNS + EVALUATE_RUNS:
        with tempfile.TemporaryDirectory() as workdir:
            runs[f"{name} seed {seed}"] = run(name, seed, Path(workdir))
    for command, seed in COMMAND_RUNS:
        with tempfile.TemporaryDirectory() as workdir:
            runs[f"{command} seed {seed}"] = run_command(command, seed, Path(workdir))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="run every golden command and re-record tests/golden.json")
    parser.parse_args()
    write()
