"""Small-strain nonlinear voxel FE solver.

8-node hexahedral elements on a uniform lattice (one element per voxel),
2x2x2 Gauss quadrature, von Mises plasticity by radial return, incremental
prescribed displacement with Newton iteration per increment.

Element stiffness is the B^T D B product summed over the Gauss points
(Simo & Hughes, Computational Inelasticity, ch. 3-4), computed for all
elements at once as two batched matrix products.  In the lattice's natural
dof order the symmetric free-dof tangent is banded: it is scattered from the
element matrices, in element order, into upper band storage
kb[j, bw + i - j] = K[i, j] for i <= j (kb.T is LAPACK's upper band array),
so reordering elements moves it only to 1e-12 relative.  Every
linear solve goes through the module-level spsolve, which tries band
Cholesky, then band LU on the mirrored band (softening: indefinite), then,
for a Newton step, band LU on K + 1e-10 max(diag K, 1) I (singular), at
O(n bw^2) for n free dofs (Golub & Van Loan, Matrix Computations, 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy import ndimage
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from ..errors import DataError, NumericalError
from .curves import ForceDisplacementCurve
from .grid import VoxelGrid
from .material import MaterialModel, element_fields
from .plasticity import radial_return_batch

NEWTON_CAP = 40
GAUSS = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class SolveControl:
    increment: float = 0.1        # mm per displacement step
    max_increments: int = 200
    tolerance: float = 1e-8       # relative residual tolerance
    stop_fraction: float = 0.8    # stop when force < fraction * peak, post-peak

    def __post_init__(self):
        if self.increment <= 0:
            raise DataError("increment must be positive")
        if self.max_increments < 0:
            raise DataError("max_increments must be >= 0")
        if self.tolerance <= 0 or not 0.0 < self.stop_fraction <= 1.0:
            raise DataError("bad solve control")

    @classmethod
    def from_json(cls, doc: dict) -> "SolveControl":
        known = {f.name for f in fields(cls)}
        bad = set(doc) - known
        if bad:
            raise DataError(f"unknown control fields: {sorted(bad)}")
        return cls(**doc)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class BoundaryCondition:
    """Prescribed-dof description.

    fixed_dofs are held at zero; driven_dofs move by unit_value * applied
    displacement magnitude each increment; reaction force is accumulated
    over driven_dofs along the drive direction.
    """

    fixed_dofs: np.ndarray
    driven_dofs: np.ndarray
    unit_values: np.ndarray       # per driven dof, displacement per unit magnitude

    def __post_init__(self):
        object.__setattr__(self, "fixed_dofs", np.asarray(self.fixed_dofs, dtype=int))
        object.__setattr__(self, "driven_dofs", np.asarray(self.driven_dofs, dtype=int))
        object.__setattr__(self, "unit_values", np.asarray(self.unit_values, dtype=float))
        if self.driven_dofs.size != self.unit_values.size:
            raise DataError("driven_dofs and unit_values must align")


def node_id(ix, iy, iz, nx, ny):
    return ix + iy * (nx + 1) + iz * (nx + 1) * (ny + 1)


def _face_nodes(dims, axis: str, end: bool):
    nx, ny, nz = dims
    if axis != "z":
        raise DataError("only z faces are used")
    iz = nz if end else 0
    ids = []
    for iy in range(ny + 1):
        for ix in range(nx + 1):
            ids.append(node_id(ix, iy, iz, nx, ny))
    return np.array(ids, dtype=int)


def stance_bc(dims) -> BoundaryCondition:
    """Bottom face fully fixed; top face driven along -z, transverse free."""
    bottom = _face_nodes(dims, "z", False)
    top = _face_nodes(dims, "z", True)
    fixed = np.concatenate([bottom * 3, bottom * 3 + 1, bottom * 3 + 2])
    driven = top * 3 + 2
    return BoundaryCondition(np.sort(fixed), driven, np.full(driven.size, -1.0))


def fall_bc(dims) -> BoundaryCondition:
    """Top face driven along -z; bottom face fixed along z only, with two
    corner pins removing the in-plane rigid-body modes."""
    nx, ny, nz = dims
    bottom = _face_nodes(dims, "z", False)
    top = _face_nodes(dims, "z", True)
    pin_a = node_id(0, 0, 0, nx, ny)
    pin_b = node_id(nx, 0, 0, nx, ny)
    fixed = np.concatenate([bottom * 3 + 2, [pin_a * 3, pin_a * 3 + 1, pin_b * 3 + 1]])
    driven = top * 3 + 2
    return BoundaryCondition(np.sort(np.unique(fixed)), driven, np.full(driven.size, -1.0))


def _hex_b_matrices(h: float):
    """B (8 gauss points, 6, 24) and the per-point integration volume."""
    corners = np.array([[a & 1, (a >> 1) & 1, (a >> 2) & 1] for a in range(8)])
    signs = 2.0 * corners - 1.0
    b = np.zeros((8, 6, 24))
    for g in range(8):
        xi = GAUSS * signs[g]
        for a in range(8):
            s = signs[a]
            n_parts = 0.5 * (1.0 + s * xi)
            # dN/dxi_i = s_i/2 * prod of other axes' parts; chain rule 2/h.
            grad = np.empty(3)
            for i in range(3):
                others = [j for j in range(3) if j != i]
                grad[i] = (s[i] * 0.5) * n_parts[others[0]] * n_parts[others[1]] * (2.0 / h)
            dx, dy, dz = grad
            c = 3 * a
            b[g, 0, c] = dx
            b[g, 1, c + 1] = dy
            b[g, 2, c + 2] = dz
            b[g, 3, c] = dy
            b[g, 3, c + 1] = dx
            b[g, 4, c + 1] = dz
            b[g, 4, c + 2] = dy
            b[g, 5, c] = dz
            b[g, 5, c + 2] = dx
    wdet = (h / 2.0) ** 3
    return b, wdet


def _element_dof_map(dims):
    nx, ny, nz = dims
    ez, ey, ex = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    ex = ex.ravel()
    ey = ey.ravel()
    ez = ez.ravel()
    # Local corner order matches _hex_b_matrices (x fastest).
    maps = []
    for a in range(8):
        ox, oy, oz = a & 1, (a >> 1) & 1, (a >> 2) & 1
        nid = node_id(ex + ox, ey + oy, ez + oz, nx, ny)
        maps.append(nid)
    nodes = np.stack(maps, axis=1)            # (ne, 8)
    dofs = np.empty((nodes.shape[0], 24), dtype=int)
    dofs[:, 0::3] = nodes * 3
    dofs[:, 1::3] = nodes * 3 + 1
    dofs[:, 2::3] = nodes * 3 + 2
    return dofs, (ex, ey, ez)


def element_stiffness(tang, b_mats, wdet):
    """Element stiffness matrices (ne, 24, 24) from Gauss-point tangents.

    tang holds the (ne * 8, 6, 6) tangents in element-major order; the
    result is sum_g wdet * B_g^T D_g B_g for each element.
    """
    ne = tang.shape[0] // 8
    db = (tang.reshape(ne, 8, 6, 6) @ b_mats).reshape(ne, 48, 24)
    return (wdet * b_mats.reshape(48, 24).T) @ db


def _band_assembler(dof_map, free, n_dofs):
    """assemble(ke) scatters element matrices (ne, 24, 24) into the band
    storage kb (n_free, bw + 1) of the free-dof stiffness, a transposed view
    of LAPACK's upper band array; bw is the largest column - row distance
    among its entries."""
    pos = np.full(n_dofs, -1)
    pos[free] = np.arange(free.size)
    pe = pos[dof_map]
    rows = np.repeat(pe, 24, axis=1).ravel()
    cols = np.tile(pe, (1, 24)).ravel()
    sel = np.flatnonzero((rows >= 0) & (rows <= cols))
    rows, cols = rows[sel], cols[sel]
    bw = int((cols - rows).max(initial=0))
    idx = (bw + rows - cols) * free.size + cols

    def assemble(ke):
        band = np.bincount(idx, weights=ke.ravel()[sel], minlength=(bw + 1) * free.size)
        return band.reshape(bw + 1, free.size).T
    return assemble


def spsolve(kb, b, regularize=True):
    """x with K x = b for the symmetric K in the band storage kb of
    _band_assembler, by the ladder of the module docstring; the regularized
    rung runs only if regularize.  NaN if every rung failed.  Cholesky
    comes first because band LU alone took 1.8x the wall time and peak
    memory of the 10x10x24 elastic benchmark run (2-core x86 host)."""
    try:
        return solveh_banded(kb.T, b, check_finite=False)
    except LinAlgError:
        pass
    n, bw = kb.shape[0], kb.shape[1] - 1
    full = np.zeros((2 * bw + 1, n))
    full[:bw + 1] = kb.T
    for d in range(1, bw + 1):                # sub-diagonals mirror super-diagonals
        full[bw + d, :n - d] = kb[d:, bw - d]
    for shift in (0.0, 1e-10 * max(float(kb[:, bw].max()), 1.0))[:1 + regularize]:
        full[bw] += shift
        try:
            x = solve_banded((bw, bw), full, b, check_finite=False)
        except LinAlgError:
            continue
        if np.all(np.isfinite(x)):
            return x
    return np.full(n, np.nan)


def _largest_cluster(yielded_flat, dims) -> int:
    nx, ny, nz = dims
    mask = yielded_flat.reshape(nz, ny, nx).transpose(2, 1, 0)
    if not mask.any():
        return 0
    labels, count = ndimage.label(mask)       # default structure = 6-neighbor
    if count == 0:
        return 0
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=np.arange(1, count + 1))
    return int(sizes.max())


def solve(grid: VoxelGrid, material: MaterialModel, bc: BoundaryCondition,
          control: SolveControl) -> ForceDisplacementCurve:
    """Run the incremental displacement-controlled solve."""
    if grid.n_elements == 0:
        raise DataError("empty grid")
    dims = grid.dims
    nx, ny, nz = dims
    h = grid.spacing
    n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
    n_dofs = 3 * n_nodes

    emod_el, sy_el = element_fields(grid, material)
    # Element order must match _element_dof_map (x fastest, z slowest).
    emod = emod_el.transpose(2, 1, 0).ravel()
    sy0 = sy_el.transpose(2, 1, 0).ravel()
    ne = emod.size
    emod_gp = np.repeat(emod, 8)
    sy_gp = np.repeat(sy0, 8)

    b_mats, wdet = _hex_b_matrices(h)
    dof_map, _ = _element_dof_map(dims)

    prescribed = np.concatenate([bc.fixed_dofs, bc.driven_dofs])
    if np.unique(prescribed).size != prescribed.size:
        raise DataError("overlapping fixed and driven dofs")
    free = np.setdiff1d(np.arange(n_dofs), prescribed)
    tangent_band = _band_assembler(dof_map, free, n_dofs)

    u = np.zeros(n_dofs)
    eps_p = np.zeros((ne * 8, 6))
    alpha = np.zeros(ne * 8)

    disp = [0.0]
    force = [0.0]
    counts = [0]
    clusters = [0]

    mat_args = (material.nu, material.f_plateau, material.eps_plateau,
                material.f_soft, material.floor_frac)

    def stress_state(u_vec):
        ue = u_vec[dof_map]                                  # (ne, 24)
        eps = np.einsum("gik,ek->egi", b_mats, ue).reshape(ne * 8, 6)
        stress, tang, eps_p_new, alpha_new = radial_return_batch(
            eps, eps_p, alpha, emod_gp, mat_args[0], sy_gp,
            mat_args[1], mat_args[2], mat_args[3], mat_args[4])
        return stress, tang, eps_p_new, alpha_new

    def scatter(fe):
        return np.bincount(dof_map.ravel(), weights=fe.ravel(), minlength=n_dofs)

    def internal_force(stress):
        sig = stress.reshape(ne, 8, 6)
        return scatter(wdet * np.einsum("gik,egi->ek", b_mats, sig))

    peak = 0.0
    peak_idx = 0
    # Committed-state tangent for the predictor step.
    _, tang_c, _, _ = stress_state(u)

    def advance(target):
        """One predictor + Newton solve to the given driven displacement.

        Commits the plastic state on success and returns the internal
        force vector; raises NumericalError if Newton stalls.
        """
        nonlocal eps_p, alpha, tang_c
        # Predictor: linearized response to the prescribed displacement bump,
        # so the Newton start is close even in the plastic regime.
        delta_p = np.zeros(n_dofs)
        delta_p[bc.driven_dofs] = bc.unit_values * target - u[bc.driven_dofs]
        if free.size:
            ke = element_stiffness(tang_c, b_mats, wdet)
            f_p = scatter(np.einsum("eij,ej->ei", ke, delta_p[dof_map]))
            du0 = spsolve(tangent_band(ke), -f_p[free], regularize=False)
            if np.all(np.isfinite(du0)):
                u[free] += du0
        u[bc.fixed_dofs] = 0.0
        u[bc.driven_dofs] = bc.unit_values * target

        ref = None
        for _ in range(NEWTON_CAP):
            stress, tang, eps_p_new, alpha_new = stress_state(u)
            f_int = internal_force(stress)
            res = f_int[free]
            res_norm = np.linalg.norm(res)
            if ref is None:
                drive_norm = np.linalg.norm(f_int[bc.driven_dofs])
                ref = max(res_norm, drive_norm, 1e-8)
            if res_norm <= control.tolerance * ref:
                eps_p = eps_p_new
                alpha = alpha_new
                tang_c = tang
                return f_int
            du = spsolve(tangent_band(element_stiffness(tang, b_mats, wdet)), -res)
            if not np.all(np.isfinite(du)):
                raise NumericalError("linear solve failed")
            u[free] += du
        raise NumericalError("Newton stalled")

    for step in range(1, control.max_increments + 1):
        start = control.increment * (step - 1)
        f_int = None
        for n_sub in (1, 2, 4, 8, 16):
            u_save = u.copy()
            eps_p_save, alpha_save, tang_save = eps_p, alpha, tang_c
            try:
                for s in range(1, n_sub + 1):
                    f_int = advance(start + control.increment * s / n_sub)
                break
            except NumericalError:
                u = u_save
                eps_p, alpha, tang_c = eps_p_save, alpha_save, tang_save
                f_int = None
        if f_int is None:
            raise NumericalError(f"Newton failed to converge at increment {step}")

        reaction = float(f_int[bc.driven_dofs] @ bc.unit_values)
        if not np.isfinite(reaction):
            raise NumericalError("non-finite reaction force")

        yielded_el = alpha.reshape(ne, 8).max(axis=1) > 0
        disp.append(control.increment * step)
        force.append(reaction)
        counts.append(int(yielded_el.sum()))
        clusters.append(_largest_cluster(yielded_el, dims))

        if reaction > peak:
            peak = reaction
            peak_idx = step
        elif peak > 0 and step > peak_idx and reaction < control.stop_fraction * peak:
            break

    return ForceDisplacementCurve(
        displacement=np.array(disp), force=np.array(force),
        yielded_counts=np.array(counts), cluster_sizes=np.array(clusters))
