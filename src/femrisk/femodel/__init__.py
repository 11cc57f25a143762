"""Desk-scale nonlinear voxel finite-element surrogate."""

from .curves import (ForceDisplacementCurve, NoYieldDetected, detect_yield_load,
                     energy_to_failure, ultimate_load)
from .grid import VoxelGrid, load_grid, rotate_grid, save_grid, uniform_grid
from .loadcases import LOAD_CASES, compute_fe_parameters, extract_result
from .material import (MaterialModel, ash_density, element_fields,
                       material_from_file, material_to_file)
from .solver import (BoundaryCondition, SolveControl, fall_bc, solve, stance_bc)

# Name of the radial-return implementation, recorded with benchmark results.
# There is one: the NumPy kernel in plasticity.py.
KERNEL_IMPL = "pure"

__all__ = [
    "KERNEL_IMPL",
    "ForceDisplacementCurve", "NoYieldDetected", "detect_yield_load",
    "energy_to_failure", "ultimate_load",
    "VoxelGrid", "load_grid", "rotate_grid", "save_grid", "uniform_grid",
    "LOAD_CASES", "compute_fe_parameters", "extract_result",
    "MaterialModel", "ash_density", "element_fields",
    "material_from_file", "material_to_file",
    "BoundaryCondition", "SolveControl", "fall_bc", "solve", "stance_bc",
]
