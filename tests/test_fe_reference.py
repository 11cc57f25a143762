"""The FE parameters of the benchmark's two phantoms at its reference seed
match perfbench/reference.json to its 1e-9 relative bound, run through
dispatch in process."""

import importlib
import json
from pathlib import Path

import pytest

import femrisk.cli
import femrisk.femodel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 42


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["fe_phantom", "fe_fine_elastic"])
def test_fe_parameters_match_the_reference(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    assert reference["seed"] == SEED
    workload.write_inputs(femrisk, SEED, tmp_path)
    assert femrisk.cli.dispatch(workload.argv(tmp_path, SEED, workload.threads)) == 0
    data = (tmp_path / workload.output).read_bytes()
    assert workloads.check(workload, data) == ""
    assert workloads.check_reference(workload, reference, data) == ""
