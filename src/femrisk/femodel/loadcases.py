"""The four loading conditions and the twelve-parameter extraction.

Stance loads the top face with the bottom fully fixed.  The three fall
cases share fall boundary conditions (bottom held vertically, transverse
motion free, corner pins) and differ by rotating the density phantom about
the long axis: posterior 0, posterolateral 45, lateral 90 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..datamodel import FE12, LOAD_CASE_PARAMS, invalid_row
from ..errors import DataError, NumericalError
from .curves import (ForceDisplacementCurve, NoYieldDetected, detect_yield_load,
                     energy_to_failure, ultimate_load)
from .grid import VoxelGrid, rotate_grid
from .material import MaterialModel
from .solver import (BoundaryCondition, SolveControl, fall_bc, one_blas_thread, solve,
                     stance_bc)


@dataclass(frozen=True)
class LoadCase:
    name: str
    boundary_condition: Callable[..., BoundaryCondition]  # of the grid dims
    rotation_deg: float  # phantom rotation about the long axis


LOAD_CASES = (
    LoadCase("stance", stance_bc, 0.0),
    LoadCase("posterior", fall_bc, 0.0),
    LoadCase("posterolateral", fall_bc, 45.0),
    LoadCase("lateral", fall_bc, 90.0),
)


@dataclass(frozen=True)
class FeResult:
    yield_load: float
    ultimate_load: float
    energy: float


def solve_load_case(grid: VoxelGrid, material: MaterialModel, case: LoadCase,
                    control: SolveControl) -> ForceDisplacementCurve:
    """Rotate the phantom per the load case and run the solver."""
    g = rotate_grid(grid, case.rotation_deg)
    bc = case.boundary_condition(g.dims)
    return solve(g, material, bc, control)


def extract_result(curve: ForceDisplacementCurve,
                   yield_policy: str = "error") -> FeResult:
    """Pull (yield, ultimate, energy) from a solved curve.

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
    yld = min(yld, ult)
    return FeResult(yield_load=yld, ultimate_load=ult, energy=energy)


def compute_fe_parameters(grid: VoxelGrid, material: MaterialModel,
                          control: SolveControl, yield_policy: str = "error"
                          ) -> tuple[dict[str, float], dict[str, ForceDisplacementCurve]]:
    """Run all four load cases, with SciPy's OpenBLAS on one thread, and
    assemble the twelve FE parameters.

    Returns the parameters, keyed in FE12 order, and the force-displacement
    curves keyed by load case name.  A case that fails, or that never yields
    under yield_policy "error", raises NumericalError naming the case;
    parameters that break a cohort rule (finite and positive, yield at most
    ultimate) raise DataError.
    """
    values = {}
    curves = {}
    with one_blas_thread():
        for case in LOAD_CASES:
            try:
                curve = solve_load_case(grid, material, case, control)
                res = extract_result(curve, yield_policy)
            except (NumericalError, NoYieldDetected) as exc:
                raise NumericalError(f"load case {case.name} failed: {exc}") from exc
            y, u, energy = LOAD_CASE_PARAMS[case.name]
            values[y] = res.yield_load
            values[u] = res.ultimate_load
            values[energy] = res.energy
            curves[case.name] = curve
    bad = invalid_row([[values[name] for name in FE12]], FE12)
    if bad is not None:
        raise DataError(bad[1])
    return values, curves
