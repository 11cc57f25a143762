"""Density-dependent material: ash-density conversion, the power-law
modulus / yield-stress maps, evaluated per voxel element, and the solve
control: the two blocks of the material file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from ..errors import DataError, malformed, read_json, require_finite, write_json

ASH_INTERCEPT = 0.0633
ASH_SLOPE = 0.887


def ash_density(rho_cha):
    """Ash density (g/cm^3) from calibrated QCT density."""
    rho = np.asarray(rho_cha, dtype=float)
    if np.any(rho < 0):
        raise DataError("rho_cha must be non-negative")
    out = ASH_INTERCEPT + ASH_SLOPE * rho
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MaterialModel:
    """Power-law modulus and yield maps plus post-yield shape.

    E(rho_ash) = c_E * rho_ash^p_E (MPa), clamped at E_min;
    sigma_y(rho_ash) = c_S * rho_ash^p_S (MPa).  Post yield: a plateau at
    f_plateau * sigma_y up to eps_plateau equivalent plastic strain, then
    linear softening with slope f_soft * E down to a floor.
    """

    c_E: float = 14900.0
    p_E: float = 1.86
    c_S: float = 102.0
    p_S: float = 1.8
    nu: float = 0.3
    f_plateau: float = 1.0
    f_soft: float = -0.05
    E_min: float = 0.01
    eps_plateau: float = 0.01
    floor_frac: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            require_finite(getattr(self, f.name), f.name)
        if min(self.c_E, self.p_E, self.c_S, self.p_S) <= 0:
            raise DataError("power-law constants must be positive")
        if not 0.0 < self.nu < 0.5:
            raise DataError("nu must be in (0, 0.5)")
        if not 0.0 < self.f_plateau <= 1.0:
            raise DataError("f_plateau must be in (0, 1]")
        if self.f_soft > 0:
            raise DataError("f_soft must be <= 0")
        if self.E_min <= 0:
            raise DataError("E_min must be positive")
        if self.eps_plateau <= 0 or not 0.0 <= self.floor_frac < 1.0:
            raise DataError("bad post-yield parameters")

    def modulus(self, rho_ash):
        e = self.c_E * np.power(np.asarray(rho_ash, dtype=float), self.p_E)
        return np.maximum(e, self.E_min)

    def yield_stress(self, rho_ash):
        return self.c_S * np.power(np.asarray(rho_ash, dtype=float), self.p_S)


@dataclass(frozen=True)
class SolveControl:
    increment: float = 0.1        # mm per displacement step
    max_increments: int = 200
    tolerance: float = 1e-8       # relative residual tolerance
    stop_fraction: float = 0.8    # stop when force < fraction * peak, post-peak

    def __post_init__(self):
        for name in ("increment", "tolerance", "stop_fraction"):
            require_finite(getattr(self, name), name)
        if self.increment <= 0:
            raise DataError("increment must be positive")
        n = self.max_increments
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise DataError("max_increments must be an integer >= 1")
        if self.tolerance <= 0 or not 0.0 < self.stop_fraction <= 1.0:
            raise DataError("bad solve control")


def _from_fields(cls, doc: dict, what: str):
    """cls(**doc), refusing a key that names none of cls's fields."""
    bad = set(doc) - {f.name for f in fields(cls)}
    if bad:
        raise DataError(f"unknown {what} fields: {sorted(bad)}")
    return cls(**doc)


def material_to_file(material: MaterialModel, control: SolveControl, path) -> None:
    write_json({"material": asdict(material), "control": asdict(control)}, path)


def material_from_file(path):
    doc = read_json(path, "material")
    with malformed("material file"):
        return (_from_fields(MaterialModel, doc.get("material", {}), "material"),
                _from_fields(SolveControl, doc.get("control", {}), "control"))
