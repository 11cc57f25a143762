"""The workload inputs are a pure function of the seed."""

from pathlib import Path

import pytest

import femrisk.cli
import femrisk.femodel
from workloads import WORKLOADS


def _write(workload, seed, workdir: Path) -> dict:
    workdir.mkdir()
    workload.write_inputs(femrisk, seed, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    first = _write(workload, 7, tmp_path / "a")
    again = _write(workload, 7, tmp_path / "b")
    other = _write(workload, 8, tmp_path / "c")
    assert first and first == again
    assert sorted(other) == sorted(first)
    assert other != first
