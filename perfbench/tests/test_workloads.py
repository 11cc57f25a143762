"""The correctness gate: output checks and the reference comparison."""

import json
from pathlib import Path

from workloads import FE_RTOL, WORKLOADS, check, check_reference, digest

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "reference.json").read_text())


def test_fe_reference_allows_round_off_only():
    workload = WORKLOADS["fe_phantom"]
    ref = REFERENCE["fe_phantom"]
    params = dict(ref["fe_params"])
    assert check(workload, json.dumps(params).encode()) == ""
    params["Sy"] *= 1 + FE_RTOL / 2
    assert check_reference(workload, ref, json.dumps(params).encode()) == ""
    params["Sy"] *= 1 + 2 * FE_RTOL
    assert "Sy" in check_reference(workload, ref, json.dumps(params).encode())


def test_fe_check_rejects_missing_or_non_positive_parameters():
    workload = WORKLOADS["fe_fine_elastic"]
    params = dict(REFERENCE["fe_fine_elastic"]["fe_params"])
    params["Lu"] = 0.0
    assert "Lu" in check(workload, json.dumps(params).encode())
    del params["Lu"]
    assert check(workload, json.dumps(params).encode())


def test_evaluate_reference_is_exact_bytes():
    workload = WORKLOADS["evaluate_male"]
    data = b'{"cells": {}}\n'
    ref = {"seed": 42, "report_sha256": digest(data)}
    assert check_reference(workload, ref, data) == ""
    assert check_reference(workload, ref, data.replace(b"\n", b" \n"))


def test_evaluate_check_rejects_malformed_reports():
    workload = WORKLOADS["evaluate_wide_t2"]
    cells = {name: {"aucs": [0.7, 0.8]} for name in workload.cells}
    good = {"cells": cells, "lgocv": {}, "frax": {}}
    assert check(workload, json.dumps(good).encode()) == ""
    assert check(workload, b"not json")
    del good["frax"]
    assert "FRAX" in check(workload, json.dumps(good).encode())
    del good["lgocv"]
    assert "malformed" in check(workload, json.dumps(good).encode())
    good["cells"] = {**cells, "extra|knn": {"aucs": [0.5]}}
    assert "cells" in check(workload, json.dumps(good).encode())
    good["cells"] = {name: {"aucs": [1.5]} for name in workload.cells}
    good["lgocv"] = {}
    assert "AUC" in check(workload, json.dumps(good).encode())
