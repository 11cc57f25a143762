"""Voxel density phantoms on a uniform hexahedral lattice.

Phantom file format (text): line 1 is `nx ny nz spacing_mm`; the remaining
nx*ny*nz whitespace-separated values are calibrated QCT densities (g/cm^3)
in z-major order: x varies fastest, then y, with z the outermost index
(value index = ix + iy*nx + iz*nx*ny).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, inf, radians, sin

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class VoxelGrid:
    """Calibrated QCT density per voxel; rho indexed [ix, iy, iz]."""

    rho_cha: np.ndarray
    spacing: float = 3.0

    def __post_init__(self):
        rho = np.asarray(self.rho_cha, dtype=float)
        object.__setattr__(self, "rho_cha", rho)
        if rho.ndim != 3 or min(rho.shape) < 1:
            raise DataError("grid must be 3-D with positive dims")
        if not 0 < self.spacing < inf:
            raise DataError("spacing must be finite and positive")
        if np.any(rho < 0) or not np.all(np.isfinite(rho)):
            raise DataError("densities must be finite and non-negative")

    @property
    def dims(self):
        return self.rho_cha.shape


def uniform_grid(dims, rho: float, spacing: float = 3.0) -> VoxelGrid:
    return VoxelGrid(np.full(dims, float(rho)), spacing)


def load_grid(path) -> VoxelGrid:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise DataError("grid header must be 'nx ny nz spacing_mm'")
            nx, ny, nz = (int(v) for v in header[:3])
            if min(nx, ny, nz) < 1:
                raise DataError("grid dims must be positive integers")
            spacing = float(header[3])
            tokens = fh.read().split()
            values = np.array([float(t) for t in tokens], dtype=float)
    except FileNotFoundError:
        raise DataError(f"grid file not found: {path}")
    except ValueError as exc:
        raise DataError(f"bad grid file: {exc}")
    if values.size != nx * ny * nz:
        raise DataError(f"expected {nx * ny * nz} density values, got {values.size}")
    rho = values.reshape(nz, ny, nx).transpose(2, 1, 0)
    return VoxelGrid(rho, spacing)


def save_grid(grid: VoxelGrid, path) -> None:
    nx, ny, nz = grid.dims
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{nx} {ny} {nz} {float(grid.spacing)!r}\n")
        flat = grid.rho_cha.transpose(2, 1, 0).ravel()
        fh.write("\n".join(repr(float(v)) for v in flat))
        fh.write("\n")


def rotate_grid(grid: VoxelGrid, angle_deg: float) -> VoxelGrid:
    """Rotate the density field about the z (long) axis.

    Nearest-neighbor resampling about the xy center into the same dims;
    points that map outside the source get zero density.  Multiples of 90
    degrees are exact permutations for square cross-sections.
    """
    if angle_deg % 360 == 0:
        return grid
    nx, ny, nz = grid.dims
    a = radians(angle_deg)
    c, s = cos(a), sin(a)
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    # Inverse rotation of target coordinates into the source frame.
    dx = ix - cx
    dy = iy - cy
    sx = np.rint(c * dx + s * dy + cx).astype(int)
    sy = np.rint(-s * dx + c * dy + cy).astype(int)
    inside = (sx >= 0) & (sx < nx) & (sy >= 0) & (sy < ny)
    out = np.zeros_like(grid.rho_cha)
    out[inside] = grid.rho_cha[sx[inside], sy[inside], :]
    return VoxelGrid(out, grid.spacing)
