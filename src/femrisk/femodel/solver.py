"""Small-strain nonlinear voxel FE solver.

8-node hexahedral elements on a uniform lattice (one element per voxel),
2x2x2 Gauss quadrature, von Mises plasticity by radial return, incremental
prescribed displacement with Newton iteration per increment.

Element stiffness is the B^T D B product summed over the Gauss points
(Simo & Hughes, Computational Inelasticity, ch. 3-4), computed CHUNK
consecutive elements at a time as two batched matrix products, so that no
whole-mesh stack of element matrices exists.  In the lattice's natural
dof order the symmetric free-dof tangent is banded: element matrices are
scattered whole, chunk by chunk in element order, into upper band storage
kb[j, bw + i - j] = K[i, j] for i <= j, a C-ordered (n, bw + 1) array whose
memory is LAPACK's column-major upper band array (leading dimension bw + 1),
and their other entries ahead of it; reordering elements moves the band
only to 1e-12 relative.  solve factors each new tangent once (factor_band:
band Cholesky, or band LU when softening leaves it indefinite), and every
linear solve goes through the module-level spsolve, at O(n bw^2) for n
free dofs (Golub & Van Loan, Matrix Computations, 4.3).  It returns NaN
when dgbsv finds the matrix singular: the predictor is then skipped, and a
Newton step raises "linear solve failed", failing the attempt like a stall.
The LAPACK routines are called by ctypes, with 64-bit integers, in NumPy's
bundled OpenBLAS, which import numpy has loaded already, so no solve
imports SciPy; on a NumPy build that ships no such library they come from
scipy.linalg.cython_lapack instead, with its C ints.

Work that repeats a value is done once.  A solve computes the elastic
Gauss-point tangent of its moduli once: it is the initial committed
tangent, and radial return copies its rows for the points that stay
elastic, or returns it itself when no point yields; the return map and its
tangent run only at the points that yield.  A solve keeps its last tangent
with its factor, and reuses the factor while the next tangent has the same
bytes (4 of the 8 solves of the two-increment 10x10x24 elastic benchmark
input), which gives the bytes a fresh factorization would; any other
tangent drops both first.  The band LU fallback streams the same element
matrices again.  Each predictor builds the element matrices of the
elements that hold a driven dof, the only ones its force needs.
The band's scatter index depends on the grid dims and the free set alone:
compute_fe_parameters hands its four solves one record, a dict of that key
and the index, which a solve under another key clears before it allocates
anything per element, so a run builds two: stance's and the falls'.

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
import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import DataError, NumericalError, require_finite
from .curves import ForceDisplacementCurve
from .grid import VoxelGrid
from .material import MaterialModel, ash_density
from .plasticity import elastic_tangent, radial_return_batch

NEWTON_CAP = 40
NEWTON_DIVERGE = 10.0
CHUNK = 256                     # elements per batch of element matrices
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
    corner pins removing the in-plane rigid-body modes (x and y dofs, so
    no dof is fixed twice)."""
    nodes = _nodes(dims)
    pin_a, pin_b = nodes[0, 0, 0], nodes[-1, 0, 0]
    fixed = np.concatenate([nodes[:, :, 0].ravel(order="F") * 3 + 2,
                            [pin_a * 3, pin_a * 3 + 1, pin_b * 3 + 1]])
    return BoundaryCondition(np.sort(fixed), nodes[:, :, -1].ravel(order="F") * 3 + 2)


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
    wdet = (np.float64(h) / 2.0) ** 3       # NumPy: a huge h gives inf, not OverflowError
    return b.reshape(8, 6, 24), wdet


def _element_dof_map(dims):
    """Global dofs (ne, 24) of each element, elements x fastest and z
    slowest, corners in _CORNERS order."""
    nx, ny, nz = dims
    nodes = _nodes(dims)
    corners = np.stack([nodes[x:x + nx, y:y + ny, z:z + nz].ravel(order="F")
                        for x, y, z in _CORNERS], axis=1)
    return (corners[:, :, None] * 3 + np.arange(3)).reshape(-1, 24)


def _driven_elements(dof_map, driven, n_dofs):
    """The elements, ascending, that hold a driven dof: the only ones whose
    terms in the predictor's force can be other than zero."""
    is_driven = np.zeros(n_dofs, dtype=bool)
    is_driven[driven] = True
    return np.flatnonzero(is_driven[dof_map].any(axis=1))


def _predictor_force(ke, dofs, delta_p):
    """The force sum_e K_e delta_p[dofs_e] of element matrices ke (m, 24,
    24) on their dofs (m, 24), scattered in element order over the dofs of
    delta_p.  An element whose dofs delta_p holds at +0.0 adds zeros only,
    and a sum that starts from +0.0 is never -0.0, so adding a zero never
    moves its bits: the driven elements give the bytes of all of them
    wherever the element matrices are finite.  A non-finite one elsewhere
    makes the band factor non-finite, and the predictor's solve with it."""
    forces = np.einsum("eij,ej->ei", ke, delta_p[dofs])
    return np.bincount(dofs.ravel(), weights=forces.ravel(), minlength=delta_p.size)


def element_stiffness(tang, b_mats, wdet):
    """Element stiffness matrices (ne, 24, 24) from Gauss-point tangents.

    tang holds the (ne * 8, 6, 6) tangents in element-major order; the
    result is sum_g wdet * B_g^T D_g B_g for each element.
    """
    ne = tang.shape[0] // 8
    db = (tang.reshape(ne, 8, 6, 6) @ b_mats).reshape(ne, 48, 24)
    return (wdet * b_mats.reshape(48, 24).T) @ db


def _band_slots(n_free, bw) -> int:
    """The length of _band_assembler's array, 576 spill slots and the band
    (n_free, bw + 1), which its int32 scatter index addresses; DataError
    past 2**31 - 1 slots, a band of 16 GiB."""
    slots = 576 + n_free * (bw + 1)
    if slots > np.iinfo(np.int32).max:
        raise DataError(f"a band of {n_free} x {bw + 1} is too large for an int32 index")
    return slots


def _band_assembler(dof_map, free, n_dofs):
    """assemble(chunks) scatters element matrices, given as consecutive
    chunks (m, 24, 24) in element order, into the band storage kb
    (n_free, bw + 1) of the free-dof stiffness, C-ordered, so that its
    memory is LAPACK's upper band array; bw is the largest column - row
    distance among its entries.

    The int32 index covers all 576 entries of each element matrix: a free
    entry with row <= column goes to its band slot, any other to the spill
    slot of its matrix position, before the band.  An element adds at most
    one term to a band slot, and np.add.at adds a chunk's terms in index
    order to a zeroed array, as np.bincount would, so each slot sums its
    terms in element order whatever the chunk sizes.
    """
    pos = np.full(n_dofs, -1)
    pos[free] = np.arange(free.size)
    pe = pos[dof_map]
    # An element's widest free pair spans its highest and lowest free position.
    bw = int(np.max(pe.max(axis=1) - np.where(pe < 0, free.size, pe).min(axis=1), initial=0))
    slots = _band_slots(free.size, bw)
    pe = pe.astype(np.int32)
    rows, cols = pe[:, :, None], pe[:, None, :]
    idx = cols - rows
    spill = (rows < 0) | (idx < 0)
    # Formed in place: freeing a temporary this size raised fe_fine_elastic's peak RSS 6 MiB
    # (glibc's mmap threshold).  Adding to one slot is serial: one spill slot took 1.6x.
    np.subtract(cols * (bw + 1) + bw + 576, idx, out=idx)       # 576 + cols * bw + rows + bw
    np.copyto(idx, np.arange(576, dtype=np.int32).reshape(24, 24), where=spill)

    def assemble(chunks):
        band, start = np.zeros(slots), 0
        for ke in chunks:
            np.add.at(band, idx[start:start + len(ke)].ravel(), ke.ravel())
            start += len(ke)
        return band[576:].reshape(free.size, bw + 1)
    return assemble


class BandFactor(NamedTuple):
    """A band of _band_assembler's storage, shape (n, bw + 1): dpbtrf's
    upper Cholesky factor of K when cholesky is true, else K, for band LU."""

    band: np.ndarray
    cholesky: bool
    shape = property(lambda self: self.band.shape)     # what wrappers of spsolve size it by


def factor_band(fresh_band) -> BandFactor:
    """The band fresh_band() returns, factored for spsolve: band Cholesky
    (dpbtrf) in place, or, when that fails and leaves it half factored, a
    second fresh_band(), with the same bytes, for band LU.  Cholesky comes
    first because band LU alone took 1.8x the wall time and peak memory of
    the 10x10x24 elastic benchmark run (2-core x86 host)."""
    band = fresh_band()
    n, width = band.shape
    cholesky = _lapack("dpbtrf", b"U", n, width - 1, band, width) == 0
    return BandFactor(band if cholesky else fresh_band(), cholesky)


def spsolve(factor: BandFactor, b):
    """x with K x = b from the factor_band factor of the symmetric K: by
    back-substitution on its Cholesky factor (dpbtrs), or else by band LU
    (dgbsv) on K's mirrored band, NaN when dgbsv reports K singular, and
    the caller decides what follows.  factor is only read.

    Each rung, in either library, gives the bits of the SciPy function
    that calls its routines: cholesky_banded and cho_solve_banded, and
    solve_banded for bw >= 2, where it calls dgbsv on the same (3 bw + 1, n)
    array.  For bw <= 1 or n == 1, solve_banded would take dgtsv or one
    division instead.  Neither occurs under stance_bc or fall_bc: every
    grid has an element whose four top nodes keep their eight x and y dofs
    free, so n >= 8 and bw >= 7.  Only a hand-built boundary condition can
    reach them, and there dgbsv solves the same system.
    """
    kb = factor.band
    n, bw = kb.shape[0], kb.shape[1] - 1
    if np.shape(b) != (n,):                   # LAPACK would run past b's end
        raise ValueError(f"right-hand side of shape {np.shape(b)} for {n} unknowns")
    x = np.array(b, dtype=float)
    if factor.cholesky:
        _lapack("dpbtrs", b"U", n, bw, 1, kb, bw + 1, x, n)
        return x
    # dgbsv's band (2 kl + ku + 1, n) at kl = ku = bw, C-ordered as
    # (n, 3 bw + 1): bw entries of fill-in room, then K's column j from row
    # j - bw to row j + bw.  dgbsv overwrites it with its LU factor.
    full = np.zeros((n, 3 * bw + 1))
    full[:, bw:2 * bw + 1] = kb
    for d in range(1, bw + 1):                # sub-diagonals mirror super-diagonals
        full[:n - d, 2 * bw + d] = kb[d:, bw - d]
    pivots = np.empty(n, dtype=_lapack_int())
    if _lapack("dgbsv", n, bw, bw, 1, full, 3 * bw + 1, pivots, x, n) == 0:
        return x
    return np.full(n, np.nan)


# The Fortran arguments before info of each LAPACK routine the solves call:
# "u" the uplo letter, "i" an integer, "d" a float64 array, "p" the integer
# pivots.
_ROUTINES = {"dpbtrf": "uiidi", "dpbtrs": "uiiididi", "dgbsv": "iiiidipdi"}


def _argtypes(name, integer):
    """ctypes argument types of LAPACK's routine name for a library whose
    integers are the NumPy type integer: its arguments, info, then the
    length of each character argument, which gfortran passes after all the
    others (cython_lapack's wrappers take none and ignore them)."""
    c_integer = ctypes.POINTER(np.ctypeslib.as_ctypes_type(integer))
    types = {"u": ctypes.c_char_p, "i": c_integer,
             "d": np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
             "p": np.ctypeslib.ndpointer(integer, flags="C_CONTIGUOUS")}
    codes = _ROUTINES[name]
    return [types[c] for c in codes] + [c_integer] + [ctypes.c_size_t] * codes.count("u")


def _bundled(package, pattern):
    """The library matching pattern in the package.libs folder that the
    package's wheels install, found without importing the package, or None."""
    spec = importlib.util.find_spec(package)
    found = sorted(Path(spec.origin).parents[1].glob(f"{package}.libs/{pattern}")) if spec else []
    return ctypes.CDLL(str(found[0])) if found else None


def _load_numpy_openblas():
    """NumPy's bundled OpenBLAS, built with 64-bit integers (its symbols end
    in 64_), with the routines of _ROUTINES typed, or None when this NumPy
    build ships none with them.  import numpy has loaded it already, so
    this load maps nothing new and starts no thread."""
    lib = _bundled("numpy", "libscipy_openblas64_*.so")
    if lib is None or not all(hasattr(lib, f"scipy_{name}_64_") for name in _ROUTINES):
        return None
    for name in _ROUTINES:
        routine = getattr(lib, f"scipy_{name}_64_")
        routine.argtypes, routine.restype = _argtypes(name, np.int64), None
    return lib


_numpy_openblas = _load_numpy_openblas()


def _lapack_int():
    """The integer type of the library the routines run in: int64 in
    NumPy's OpenBLAS, C int in cython_lapack's."""
    return np.int64 if _numpy_openblas is not None else np.intc


def _cython_lapack(name):
    """LAPACK's routine name from scipy.linalg.cython_lapack (which imports
    scipy.linalg), as a ctypes function."""
    from scipy.linalg import cython_lapack
    capsule = cython_lapack.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *_argtypes(name, np.intc))(pointer(capsule, name_of(capsule)))


def _lapack(name, *args) -> int:
    """Call LAPACK's routine name with the arguments of _ROUTINES (Python
    ints, which LAPACK gets by reference, and pivots of _lapack_int) and
    return its info; ctypes checks each array's dtype and contiguity, and
    an illegal argument (info < 0) raises ValueError.  The routine is
    _numpy_openblas's, whose symbols ctypes resolves once, or else
    _cython_lapack's."""
    if _numpy_openblas is not None:
        routine = getattr(_numpy_openblas, f"scipy_{name}_64_")
    else:
        routine = _cython_lapack(name)
    integer = np.ctypeslib.as_ctypes_type(_lapack_int())
    codes = _ROUTINES[name]
    info = integer()
    routine(*[ctypes.byref(integer(a)) if c == "i" else a for c, a in zip(codes, args)],
            ctypes.byref(info), *[1] * codes.count("u"))
    if info.value < 0:
        raise ValueError(f"{name}: argument {-info.value} has an illegal value")
    return info.value


@contextmanager
def one_blas_thread():
    """Run the body with the band solves' OpenBLAS on one thread, then
    restore its count: NumPy's, or on the cython_lapack fallback the one
    SciPy's wheels bundle.  On a 2-core host the second thread only spun
    (1.9x the CPU time at the same wall time), and above about 16x16x40
    voxels the band factor's bytes depend on the thread count.  Without
    that library (a fallback SciPy on another BLAS) this does nothing, and
    the bytes follow that BLAS's thread count."""
    lib, suffix = _numpy_openblas, "64_"
    if lib is None:
        lib, suffix = _bundled("scipy", "libscipy_openblas-*.so"), ""
    get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
    set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
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
    (yielded_flat in element order); the axis order does not matter.

    Every voxel starts as its own label.  Each round hooks the larger label
    of every face pair of yielded voxels onto the smaller, then points each
    voxel at its label's label until nothing moves (pointer jumping), and
    the rounds end when both voxels of every pair share a label.  A label
    is always a voxel of the same cluster and never above the voxel itself,
    so each round lowers some label, and a cluster ends with one label."""
    nx, ny, nz = dims
    mask = yielded_flat.reshape(nz, ny, nx)
    if not mask.any():
        return 0
    ids = np.arange(mask.size).reshape(mask.shape)
    a, b = [], []
    for axis in range(3):
        i, m = np.moveaxis(ids, axis, 0), np.moveaxis(mask, axis, 0)
        both = m[:-1] & m[1:]
        a.append(i[:-1][both])
        b.append(i[1:][both])
    a, b = np.concatenate(a), np.concatenate(b)
    label = np.arange(mask.size)
    while not np.array_equal(label[a], label[b]):
        la, lb = label[a], label[b]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(label[label], label):
            label = label[label]
    return int(np.bincount(label[mask.ravel()]).max())


def solve(grid: VoxelGrid, material: MaterialModel, bc: BoundaryCondition,
          control: SolveControl, kept=None) -> ForceDisplacementCurve:
    """Run the incremental displacement-controlled solve; kept is the band
    index record of the module docstring (None: a fresh one).  A prescribed
    dof outside the lattice, or prescribed twice, raises DataError."""
    kept = {} if kept is None else kept
    dims = grid.dims
    nx, ny, nz = dims
    n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
    fixed, driven = bc.fixed_dofs, bc.driven_dofs

    prescribed = np.concatenate([fixed, driven])
    outside = prescribed[(prescribed < 0) | (prescribed >= n_dofs)]
    if outside.size:
        raise DataError(f"prescribed dof {outside[0]} outside the {n_dofs} dofs of the lattice")
    times = np.bincount(prescribed, minlength=n_dofs)
    if times.max(initial=0) > 1:
        raise DataError("overlapping fixed and driven dofs")
    free = np.flatnonzero(times == 0)
    key = (dims, free.tobytes())
    if kept.get("key") != key:
        kept.clear()
    dof_map = _element_dof_map(dims)
    if not kept:
        kept.update(key=key, assemble=_band_assembler(dof_map, free, n_dofs))

    # One element per voxel, in the order of _element_dof_map (x fastest).
    rho_ash = ash_density(grid.rho_cha)
    emod_gp = np.repeat(material.modulus(rho_ash).ravel(order="F"), 8)
    sy_gp = np.repeat(material.yield_stress(rho_ash).ravel(order="F"), 8)
    tang_el = elastic_tangent(emod_gp, material.nu)
    ne = emod_gp.size // 8
    b_mats, wdet = _hex_b_matrices(grid.spacing)
    ones = np.ones(driven.size)
    driven_el = _driven_elements(dof_map, driven, n_dofs)

    def stress_state(u, eps_p, alpha):
        eps = np.einsum("gik,ek->egi", b_mats, u[dof_map]).reshape(ne * 8, 6)
        return radial_return_batch(eps, eps_p, alpha, emod_gp, material.nu, sy_gp,
                                   material.f_plateau, material.eps_plateau,
                                   material.f_soft, material.floor_frac, tang_el)

    def internal_force(stress):
        fe = wdet * np.einsum("gik,egi->ek", b_mats, stress.reshape(ne, 8, 6))
        return np.bincount(dof_map.ravel(), weights=fe.ravel(), minlength=n_dofs)

    def element_matrices(tang):
        """tang's element matrices, CHUNK consecutive elements at a time."""
        for start in range(0, 8 * ne, 8 * CHUNK):
            yield element_stiffness(tang[start:start + 8 * CHUNK], b_mats, wdet)

    last = None                     # the kept tangent and its factor

    def keep(tang):
        """tang's band factor, reused while tangents keep its bytes."""
        nonlocal last
        if last is None or not _same_bits(last[0], tang):
            last = None
            last = tang, factor_band(lambda: kept["assemble"](element_matrices(tang)))
        return last[1]

    def advance(state, target):
        """One predictor + Newton solve from the committed state to the
        driven dofs at -target.

        Returns the converged state and its internal force vector; raises
        NumericalError if Newton stalls or diverges, or a linear solve
        fails.  The given state is left as it was.
        """
        u, eps_p, alpha, tang_c = state
        u = u.copy()
        # Predictor: linearized response to the prescribed displacement bump,
        # so the Newton start is close even in the plastic regime.
        delta_p = np.zeros(n_dofs)
        delta_p[driven] = -target - u[driven]
        if free.size:
            ke = element_stiffness(tang_c.reshape(ne, 8, 6, 6)[driven_el].reshape(-1, 6, 6),
                                   b_mats, wdet)
            f_p = _predictor_force(ke, dof_map[driven_el], delta_p)
            du0 = spsolve(keep(tang_c), -f_p[free])
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
            du = spsolve(keep(tang), -res)
            if not np.all(np.isfinite(du)):
                raise NumericalError("linear solve failed")
            u[free] += du
        raise NumericalError("Newton stalled")

    u0, eps_p0, alpha0 = np.zeros(n_dofs), np.zeros((ne * 8, 6)), np.zeros(ne * 8)
    state = (u0, eps_p0, alpha0, tang_el)
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
