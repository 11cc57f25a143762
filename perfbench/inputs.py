"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the seed: the same seed writes
byte-identical files.  The program under test receives only these files.

Phantoms are a dense cortical shell around a porous trabecular core.  A
fixed texture (TEXTURE_SEED) jitters each voxel by up to JITTER of its
nominal density; the workload seed then scales each voxel by a factor in
[1 - amplitude, 1 + amplitude].  The elastic workload takes the full
JITTER from the seed, since its cost does not depend on the densities.
The plastic workload takes only NEWTON_PERTURB: which Newton attempts
stall is chaotic in the density field (5 % jitter drawn per seed gave
177 to 418 linear solves and 7 to 19 s; 1e-4 still moved the solve count
by 15 %), so a larger amplitude would time the draw instead of the code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CORTICAL_RHO = 0.9
TRABECULAR_RHO = 0.25
JITTER = 0.05
TEXTURE_SEED = 5
NEWTON_PERTURB = 1e-8
SPACING_MM = 3.0


def phantom_density(dims, seed: int, amplitude: float) -> np.ndarray:
    """Shell/core density field (g/cm^3), indexed [ix, iy, iz]."""
    nx, ny, _ = dims
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    shell = (ix == 0) | (iy == 0) | (ix == nx - 1) | (iy == ny - 1)
    nominal = np.where(shell, CORTICAL_RHO, TRABECULAR_RHO)[:, :, None]
    texture = np.random.default_rng(TEXTURE_SEED).uniform(-JITTER, JITTER, size=dims)
    scale = np.random.default_rng(seed).uniform(-amplitude, amplitude, size=dims)
    return nominal * (1.0 + texture) * (1.0 + scale)


def write_phantom(femodel, dims, seed: int, amplitude: float, path: Path) -> None:
    grid = femodel.VoxelGrid(phantom_density(dims, seed, amplitude), SPACING_MM)
    femodel.save_grid(grid, path)


def write_control(femodel, path: Path, **control) -> None:
    femodel.material_to_file(femodel.MaterialModel(),
                             femodel.SolveControl(**control), path)


def write_cohort(dispatch, seed: int, path: Path) -> None:
    code = dispatch(["synth", "--seed", str(seed), "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"synth exited with {code}")
