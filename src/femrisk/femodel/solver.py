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

One solve call keeps the last tangent it assembled: its Gauss-point
tangents, its band and, once band Cholesky succeeded, the factor.  When the
next tangent has the same bytes (an elastic increment after an elastic one:
4 of the 8 solves of the two-increment 10x10x24 elastic benchmark input),
the band and factor are reused and spsolve only back-substitutes, which
gives the bytes a fresh factorization would.  Any other tangent drops the
kept band and factor before its own band is assembled.  The LU rungs are
never kept.

The committed state is (u, eps_p, alpha, tang_c): displacements, plastic
strains, equivalent plastic strains and the Gauss-point tangents they give.
An attempt advances a copy of it by a predictor and at most NEWTON_CAP
Newton iterations per substep; an attempt whose residual passes
NEWTON_DIVERGE times its reference (or is not finite) is given up at once,
before that iteration's solve.  A failed attempt is dropped, so the next
one starts from the last committed state, and the increment is retried in
2, 4, 8, then 16 substeps.  The bound never changes what an attempt
commits; it could move a curve only by cutting an attempt that would still
converge, and no converged attempt on the checked shell/core phantoms rose
past 1.66x its reference.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import ndimage
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solve_banded

from ..errors import DataError, NumericalError, require_finite
from .curves import ForceDisplacementCurve
from .grid import VoxelGrid
from .material import MaterialModel, ash_density
from .plasticity import radial_return_batch

NEWTON_CAP = 40
NEWTON_DIVERGE = 10.0
GAUSS = 1.0 / np.sqrt(3.0)


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


@dataclass(frozen=True)
class BoundaryCondition:
    """Prescribed-dof description.

    fixed_dofs are held at zero; driven_dofs move along -z by the applied
    displacement.  The reaction force is minus the sum of the driven dofs'
    internal forces, positive in compression.
    """

    fixed_dofs: np.ndarray
    driven_dofs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fixed_dofs", np.asarray(self.fixed_dofs, dtype=int))
        object.__setattr__(self, "driven_dofs", np.asarray(self.driven_dofs, dtype=int))


# The corner offsets (x, y, z) of a hexahedron, x fastest: the local node
# order of _hex_b_matrices and _element_dof_map.
_CORNERS = np.array([[a & 1, (a >> 1) & 1, (a >> 2) & 1] for a in range(8)])

# The nonzero entries of a corner's B block, (strain row, displacement
# component, gradient axis): normal strains xx, yy, zz, then engineering
# shears xy, yz, zx.
_STRAINS = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (3, 1, 0),
            (4, 1, 2), (4, 2, 1), (5, 0, 2), (5, 2, 0))


def node_id(ix, iy, iz, nx, ny):
    return ix + iy * (nx + 1) + iz * (nx + 1) * (ny + 1)


def _nodes(dims):
    """Node ids indexed [ix, iy, iz], numbered x fastest and z slowest:
    node_id at every index.  A face raveled in order "F" runs x fastest,
    the order in which solve sums the driven dofs' reaction."""
    nx, ny, nz = dims
    n = (nx + 1) * (ny + 1) * (nz + 1)
    return np.arange(n).reshape((nx + 1, ny + 1, nz + 1), order="F")


def stance_bc(dims) -> BoundaryCondition:
    """Bottom face fully fixed; top face driven along -z, transverse free."""
    nodes = _nodes(dims)
    bottom = nodes[:, :, 0].ravel(order="F")
    fixed = np.concatenate([bottom * 3, bottom * 3 + 1, bottom * 3 + 2])
    return BoundaryCondition(np.sort(fixed), nodes[:, :, -1].ravel(order="F") * 3 + 2)


def fall_bc(dims) -> BoundaryCondition:
    """Top face driven along -z; bottom face fixed along z only, with two
    corner pins removing the in-plane rigid-body modes."""
    nodes = _nodes(dims)
    pin_a, pin_b = nodes[0, 0, 0], nodes[-1, 0, 0]
    fixed = np.concatenate([nodes[:, :, 0].ravel(order="F") * 3 + 2,
                            [pin_a * 3, pin_a * 3 + 1, pin_b * 3 + 1]])
    return BoundaryCondition(np.unique(fixed), nodes[:, :, -1].ravel(order="F") * 3 + 2)


def _hex_b_matrices(h: float):
    """B (8 gauss points, 6, 24) and the per-point integration volume."""
    signs = 2.0 * _CORNERS - 1.0
    # Shape-function factors (gauss point, corner, axis) at xi = GAUSS * sign.
    parts = 0.5 * (1.0 + signs * (GAUSS * signs)[:, None])
    # dN/dxi_i = s_i/2 * prod of other axes' parts; chain rule 2/h.
    grad = (signs * 0.5) * parts[..., [1, 0, 0]] * parts[..., [2, 2, 1]] * (2.0 / h)
    b = np.zeros((8, 6, 8, 3))
    for row, component, axis in _STRAINS:
        b[:, row, :, component] = grad[:, :, axis]
    wdet = (h / 2.0) ** 3
    return b.reshape(8, 6, 24), wdet


def _element_dof_map(dims):
    """Global dofs (ne, 24) of each element, elements x fastest and z
    slowest, corners in _CORNERS order."""
    nx, ny, nz = dims
    nodes = _nodes(dims)
    corners = np.stack([nodes[x:x + nx, y:y + ny, z:z + nz].ravel(order="F")
                        for x, y, z in _CORNERS], axis=1)
    return (corners[:, :, None] * 3 + np.arange(3)).reshape(-1, 24)


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


def spsolve(kb, b, regularize=True, factor=None):
    """x with K x = b for the symmetric K in the band storage kb of
    _band_assembler, by the ladder of the module docstring; the regularized
    rung runs only if regularize.  NaN if every rung failed.  Cholesky
    comes first because band LU alone took 1.8x the wall time and peak
    memory of the 10x10x24 elastic benchmark run (2-core x86 host).

    factor, a dict owned by the caller, carries the Cholesky factor of kb
    from one call to the next under "cb": it is used when present, and a
    factor computed here is stored there.
    """
    if factor is None:
        factor = {}
    if "cb" not in factor:
        try:
            factor["cb"] = cholesky_banded(kb.T, check_finite=False)
        except LinAlgError:
            pass
    if "cb" in factor:
        return cho_solve_banded((factor["cb"], False), b, check_finite=False)
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


def _scipy_openblas():
    """SciPy's bundled OpenBLAS (the library its LAPACK calls run in), or
    None when this SciPy build ships none."""
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so"))
    return ctypes.CDLL(str(found[0])) if found else None


@contextmanager
def one_blas_thread():
    """Run the body with SciPy's OpenBLAS on one thread, then restore the
    previous count.  On a 2-core host the second thread only spun (1.9x the
    CPU time at the same wall time), and above about 16x16x40 voxels the band
    factor's bytes depend on the thread count.  Without the library or its
    thread calls this does nothing."""
    lib = _scipy_openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads", None)
    if get is None or set_ is None:
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _same_bits(a, b) -> bool:
    """Whether the float64 arrays a and b hold the same bytes and no NaN:
    -0.0 is not 0.0, and a NaN is not even itself."""
    return np.array_equal(a.view(np.int64), b.view(np.int64)) and not np.isnan(a).any()


def _largest_cluster(yielded_flat, dims) -> int:
    """Voxel count of the largest 6-connected cluster of yielded elements
    (yielded_flat in element order); the axis order does not matter."""
    nx, ny, nz = dims
    mask = yielded_flat.reshape(nz, ny, nx)
    if not mask.any():
        return 0
    labels, count = ndimage.label(mask)       # default structure = 6-neighbor
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=np.arange(1, count + 1))
    return int(sizes.max())


def solve(grid: VoxelGrid, material: MaterialModel, bc: BoundaryCondition,
          control: SolveControl) -> ForceDisplacementCurve:
    """Run the incremental displacement-controlled solve."""
    dims = grid.dims
    nx, ny, nz = dims
    n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
    fixed, driven = bc.fixed_dofs, bc.driven_dofs

    # One element per voxel, in the order of _element_dof_map (x fastest).
    rho_ash = ash_density(grid.rho_cha)
    emod_gp = np.repeat(material.modulus(rho_ash).ravel(order="F"), 8)
    sy_gp = np.repeat(material.yield_stress(rho_ash).ravel(order="F"), 8)
    ne = emod_gp.size // 8

    b_mats, wdet = _hex_b_matrices(grid.spacing)
    dof_map = _element_dof_map(dims)

    prescribed = np.concatenate([fixed, driven])
    if np.unique(prescribed).size != prescribed.size:
        raise DataError("overlapping fixed and driven dofs")
    free = np.setdiff1d(np.arange(n_dofs), prescribed)
    tangent_band = _band_assembler(dof_map, free, n_dofs)
    ones = np.ones(driven.size)

    def stress_state(u, eps_p, alpha):
        eps = np.einsum("gik,ek->egi", b_mats, u[dof_map]).reshape(ne * 8, 6)
        return radial_return_batch(eps, eps_p, alpha, emod_gp, material.nu, sy_gp,
                                   material.f_plateau, material.eps_plateau,
                                   material.f_soft, material.floor_frac)

    def scatter(fe):
        return np.bincount(dof_map.ravel(), weights=fe.ravel(), minlength=n_dofs)

    def internal_force(stress):
        sig = stress.reshape(ne, 8, 6)
        return scatter(wdet * np.einsum("gik,egi->ek", b_mats, sig))

    factor = {}

    def tangent_solve(tang, rhs, regularize, ke=None):
        """spsolve on the tangent of the Gauss-point tangents tang (whose
        element matrices are ke, when given), reusing the kept band and
        factor while tang has the bytes of the last one assembled."""
        kept = factor.get("tang")
        if kept is None or not _same_bits(kept, tang):
            factor.clear()
            if ke is None:
                ke = element_stiffness(tang, b_mats, wdet)
            factor["band"] = tangent_band(ke)
            factor["tang"] = tang
        return spsolve(factor["band"], rhs, regularize, factor=factor)

    def advance(state, target):
        """One predictor + Newton solve from the committed state to the
        driven dofs at -target.

        Returns the converged state and its internal force vector; raises
        NumericalError if Newton stalls or diverges.  The given state is
        left as it was.
        """
        u, eps_p, alpha, tang_c = state
        u = u.copy()
        # Predictor: linearized response to the prescribed displacement bump,
        # so the Newton start is close even in the plastic regime.
        delta_p = np.zeros(n_dofs)
        delta_p[driven] = -target - u[driven]
        if free.size:
            ke = element_stiffness(tang_c, b_mats, wdet)
            f_p = scatter(np.einsum("eij,ej->ei", ke, delta_p[dof_map]))
            du0 = tangent_solve(tang_c, -f_p[free], False, ke)
            if np.all(np.isfinite(du0)):
                u[free] += du0
        u[fixed] = 0.0
        u[driven] = -target

        ref = None
        for _ in range(NEWTON_CAP):
            stress, tang, eps_p_new, alpha_new = stress_state(u, eps_p, alpha)
            f_int = internal_force(stress)
            res = f_int[free]
            res_norm = np.linalg.norm(res)
            if ref is None:
                ref = max(res_norm, np.linalg.norm(f_int[driven]), 1e-8)
            if res_norm <= control.tolerance * ref:
                return (u, eps_p_new, alpha_new, tang), f_int
            if not res_norm <= NEWTON_DIVERGE * ref:
                raise NumericalError("Newton diverged")
            du = tangent_solve(tang, -res, True)
            if not np.all(np.isfinite(du)):
                raise NumericalError("linear solve failed")
            u[free] += du
        raise NumericalError("Newton stalled")

    u0, eps_p0, alpha0 = np.zeros(n_dofs), np.zeros((ne * 8, 6)), np.zeros(ne * 8)
    state = (u0, eps_p0, alpha0, stress_state(u0, eps_p0, alpha0)[1])
    disp = [0.0]
    force = [0.0]
    clusters = [0]
    peak = 0.0
    peak_idx = 0
    for step in range(1, control.max_increments + 1):
        start = control.increment * (step - 1)
        for n_sub in (1, 2, 4, 8, 16):
            try:
                new = state
                for s in range(1, n_sub + 1):
                    new, f_int = advance(new, start + control.increment * s / n_sub)
            except NumericalError:
                continue
            state = new
            break
        else:
            raise NumericalError(f"Newton failed to converge at increment {step}")

        reaction = -float(f_int[driven] @ ones)
        if not np.isfinite(reaction):
            raise NumericalError("non-finite reaction force")

        disp.append(control.increment * step)
        force.append(reaction)
        clusters.append(_largest_cluster(state[2].reshape(ne, 8).max(axis=1) > 0, dims))

        if reaction > peak:
            peak = reaction
            peak_idx = step
        elif peak > 0 and step > peak_idx and reaction < control.stop_fraction * peak:
            break

    return ForceDisplacementCurve(displacement=np.array(disp), force=np.array(force),
                                  cluster_sizes=np.array(clusters))
