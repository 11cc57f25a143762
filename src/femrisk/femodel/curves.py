"""Force-displacement curves and the three parameter extractors:
yield load (15 face-contiguous yielded elements), ultimate load (peak
force, earliest on ties) and energy-to-failure (trapezoid to the peak).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericalError

YIELD_CLUSTER_SIZE = 15


@dataclass(frozen=True)
class ForceDisplacementCurve:
    """Solver output for one load case.

    Per sample: the applied displacement, the reaction force and the size
    of the largest face-connected cluster of yielded elements, starting at
    (0, 0, 0).
    """

    displacement: np.ndarray
    force: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.displacement, dtype=float)
        f = np.asarray(self.force, dtype=float)
        object.__setattr__(self, "displacement", d)
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "cluster_sizes", np.asarray(self.cluster_sizes, dtype=int))
        if d.size != f.size or d.size != self.cluster_sizes.size:
            raise DataError("curve arrays must have equal length")
        if d.size == 0 or d[0] != 0.0 or f[0] != 0.0:
            raise DataError("curve must start at (0, 0)")
        if np.any(np.diff(d) <= 0):
            raise DataError("displacement must be strictly increasing")
        if not np.all(np.isfinite(f)):
            raise DataError("forces must be finite")


class NoYieldDetected(NumericalError):
    """The yielded cluster never reached the threshold size."""


def detect_yield_load(curve: ForceDisplacementCurve) -> float:
    """Force at the first increment whose largest face-connected yielded
    cluster reaches YIELD_CLUSTER_SIZE elements (no interpolation)."""
    hits = np.flatnonzero(curve.cluster_sizes >= YIELD_CLUSTER_SIZE)
    if hits.size == 0:
        raise NoYieldDetected(f"yielded cluster never reached {YIELD_CLUSTER_SIZE} elements")
    return float(curve.force[hits[0]])


def _peak_index(curve: ForceDisplacementCurve) -> int:
    """Index of the peak force; ties keep the earliest."""
    if curve.force.size < 2:
        raise DataError("curve needs at least 2 samples")
    return int(np.argmax(curve.force))   # argmax is first-on-ties


def ultimate_load(curve: ForceDisplacementCurve) -> float:
    """Peak force."""
    return float(curve.force[_peak_index(curve)])


def energy_to_failure(curve: ForceDisplacementCurve) -> float:
    """Trapezoidal integral of force over displacement up to the peak."""
    idx = _peak_index(curve)
    d = curve.displacement[: idx + 1]
    f = curve.force[: idx + 1]
    return float(np.trapezoid(f, d))
