import json
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from femrisk.datamodel import TABLE_COLUMNS, Cohort
from femrisk.femodel import solver
from femrisk.synth import CohortSpec, default_spec, generate_cohort

# Every property test runs without a per-example deadline (their examples
# solve FE systems and fit stacks, whose times vary with the host), and a
# failure prints the blob that reproduces it.
settings.register_profile("femrisk", deadline=None, print_blob=True)
settings.load_profile("femrisk")

FE_BASE = {
    "Sy": 7000.0, "Su": 9000.0, "Senergy": 9500.0,
    "Py": 2300.0, "Pu": 3300.0, "Penergy": 4300.0,
    "PLy": 2200.0, "PLu": 3200.0, "PLenergy": 4100.0,
    "Ly": 2250.0, "Lu": 3250.0, "Lenergy": 4200.0,
}


def make_row(**values) -> np.ndarray:
    """One valid table row: a 76-year-old male control without frax_prob,
    with the named TABLE_COLUMNS values replaced."""
    row = dict(FE_BASE, abmd_ct=0.55, age=76.0, sex=1.0, height=172.0, weight=80.0,
               healstat=2.0, bmdmed=0.0, frax_prob=np.nan, fx=0.0)
    row.update(values)
    return np.array([row[name] for name in TABLE_COLUMNS])


def make_cohort(rows: dict) -> Cohort:
    """A cohort of make_row subjects: rows maps each id to its values."""
    return Cohort(np.array([make_row(**values) for values in rows.values()]), list(rows))


def sized_spec(sizes: dict, spec: CohortSpec = None) -> CohortSpec:
    """A copy of spec (default: the shipped spec) in which each group named
    in sizes has that many subjects."""
    doc = json.loads(json.dumps((spec or default_spec()).doc))
    for group, n in sizes.items():
        doc["groups"][group]["n"] = n
    return CohortSpec(doc)


# Every float64, with the special values always in the draw: +-0, +-inf, NaN.
any_float = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats())


def same_bits(a, b) -> bool:
    """Whether two float64 results are equal bit for bit, NaNs and signed
    zeros included."""
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64),
                          np.asarray(b, dtype=np.float64).view(np.int64))


@contextmanager
def lapack_calls(before=None, after=None):
    """Records the name of every LAPACK routine spsolve calls; before and
    after, when given, see each call's (name, args), and after its info."""
    names, real = [], solver._lapack

    def recording(name, *args):
        names.append(name)
        if before:
            before(name, args)
        info = real(name, *args)
        if after:
            after(name, args, info)
        return info

    with mock.patch.object(solver, "_lapack", recording):
        yield names


@pytest.fixture(scope="session")
def small_cohort() -> Cohort:
    """Synthetic cohort at reduced group sizes, for fast pipeline tests."""
    n = {"male_control": 40, "male_fx": 20, "female_control": 50, "female_fx": 25}
    return generate_cohort(sized_spec(n), seed=11)


@pytest.fixture(scope="session")
def full_cohort() -> Cohort:
    """Synthetic cohort at the default group sizes (345 subjects)."""
    return generate_cohort(default_spec(), seed=42)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
