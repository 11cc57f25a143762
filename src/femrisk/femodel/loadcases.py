"""The four loading conditions and the twelve-parameter extraction.

Stance loads the top face with the bottom fully fixed.  The three fall
cases share fall boundary conditions (bottom held vertically, transverse
motion free, corner pins) and differ by rotating the density phantom about
the long axis: posterior 0, posterolateral 45, lateral 90 degrees.
"""

from __future__ import annotations

import numpy as np

from ..datamodel import FE12, LOAD_CASE_PARAMS, invalid_row
from ..errors import DataError, NumericalError
from .curves import (ForceDisplacementCurve, NoYieldDetected, detect_yield_load,
                     energy_to_failure, ultimate_load)
from .grid import VoxelGrid, rotate_grid
from .material import MaterialModel
from .solver import SolveControl, fall_bc, one_blas_thread, solve, stance_bc

# Each case's boundary condition (a builder of the grid dims) and phantom
# rotation about the long axis in degrees, in the order of LOAD_CASE_PARAMS.
LOAD_CASES = {
    "stance": (stance_bc, 0.0),
    "posterior": (fall_bc, 0.0),
    "posterolateral": (fall_bc, 45.0),
    "lateral": (fall_bc, 90.0),
}


def extract_result(curve: ForceDisplacementCurve,
                   yield_policy: str) -> tuple[float, float, float]:
    """(yield, ultimate, energy) of a solved curve.

    yield_policy "error" raises when no yield was detected;
    "ultimate" substitutes the ultimate load.
    """
    ult = ultimate_load(curve)
    energy = energy_to_failure(curve)
    try:
        yld = detect_yield_load(curve)
    except NoYieldDetected:
        if yield_policy == "error":
            raise
        yld = ult
    return yld, ult, energy


def compute_fe_parameters(grid: VoxelGrid, material: MaterialModel,
                          control: SolveControl, yield_policy: str
                          ) -> tuple[dict[str, float], dict[str, ForceDisplacementCurve]]:
    """Run all four load cases, with NumPy's OpenBLAS (which runs the band
    solves and the element matrix products) on one thread, and assemble
    the twelve FE parameters.  NumPy's floating-point warnings are
    silenced: the solver reports non-finite strains through its residual
    bound and its reaction check.

    Each case rotates the phantom and solves it under its boundary
    condition; the four solves share one reuse record (see solver).
    Returns the parameters, keyed in FE12 order, and the
    force-displacement curves keyed by load case name.  A case that fails,
    or that never yields under yield_policy "error", raises NumericalError
    naming the case; parameters that break a cohort rule (finite and
    positive, yield at most ultimate) raise DataError.
    """
    values = {}
    curves = {}
    kept = {}
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for name, (boundary_condition, rotation_deg) in LOAD_CASES.items():
            try:
                g = rotate_grid(grid, rotation_deg)
                curve = solve(g, material, boundary_condition(g.dims), control, kept)
                values.update(zip(LOAD_CASE_PARAMS[name], extract_result(curve, yield_policy)))
            except (NumericalError, NoYieldDetected) as exc:
                raise NumericalError(f"load case {name} failed: {exc}") from exc
            curves[name] = curve
    bad = invalid_row([[values[name] for name in FE12]], FE12)
    if bad is not None:
        raise DataError(bad[1])
    return values, curves
