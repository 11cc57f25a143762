"""Density-dependent material: ash-density conversion and the power-law
modulus / yield-stress maps, evaluated per voxel element.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..errors import DataError, malformed, read_json, require_finite

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


def _from_fields(cls, doc: dict, what: str):
    """cls(**doc), refusing a key that names none of cls's fields."""
    bad = set(doc) - {f.name for f in fields(cls)}
    if bad:
        raise DataError(f"unknown {what} fields: {sorted(bad)}")
    return cls(**doc)


def material_to_file(material: MaterialModel, control, path) -> None:
    doc = {"material": asdict(material), "control": asdict(control)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def material_from_file(path):
    from .solver import SolveControl
    doc = read_json(path, "material")
    with malformed("material file"):
        return (_from_fields(MaterialModel, doc.get("material", {}), "material"),
                _from_fields(SolveControl, doc.get("control", {}), "control"))
