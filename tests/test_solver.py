import ctypes
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage
from scipy.linalg import solve_banded

from femrisk.datamodel import FE12
from femrisk.errors import NumericalError
from femrisk.femodel import (LOAD_CASES, MaterialModel, SolveControl,
                             ash_density, compute_fe_parameters, fall_bc,
                             solve, stance_bc, uniform_grid)
from femrisk.femodel.curves import energy_to_failure
from femrisk.femodel.grid import VoxelGrid
from femrisk.femodel.plasticity import radial_return_batch
from femrisk.femodel import loadcases, solver
from femrisk.femodel.solver import (GAUSS, _band_assembler, _element_dof_map,
                                    _hex_b_matrices, _largest_cluster,
                                    element_stiffness, node_id, spsolve)

RHO = 0.25
ASH = ash_density(RHO)


def elastic_material():
    # Effectively elastic: yield pushed far beyond reachable stress.
    return MaterialModel(c_S=1e6, f_soft=0.0, eps_plateau=10.0)


class TestElastic:
    def test_single_element_confined_stiffness(self):
        # All lateral displacement blocked, top face driven in z: the
        # response is the confined modulus E(1-nu)/((1+nu)(1-2nu)).
        from femrisk.femodel.solver import BoundaryCondition, node_id
        g = uniform_grid((1, 1, 1), RHO, spacing=3.0)
        m = elastic_material()
        c = SolveControl(increment=0.003, max_increments=1)
        fixed = []
        driven = []
        for iz in (0, 1):
            for iy in (0, 1):
                for ix in (0, 1):
                    node = node_id(ix, iy, iz, 1, 1)
                    fixed += [3 * node, 3 * node + 1]
                    if iz == 0:
                        fixed.append(3 * node + 2)
                    else:
                        driven.append(3 * node + 2)
        bc = BoundaryCondition(fixed_dofs=np.array(fixed), driven_dofs=np.array(driven))
        curve = solve(g, m, bc, c)
        e = m.modulus(ASH)
        nu = m.nu
        e_conf = e * (1 - nu) / ((1 + nu) * (1 - 2 * nu))
        k_expected = e_conf * 9.0 / 3.0  # A/L for one 3 mm voxel
        k_measured = curve.force[1] / curve.displacement[1]
        assert k_measured == pytest.approx(k_expected, rel=0.005)

    def test_column_free_lateral_stiffness(self):
        # A long slender column under the fall BC (bottom held in z only)
        # approaches uniaxial stress: k = EA/L.
        g = uniform_grid((1, 1, 20), RHO, spacing=3.0)
        m = elastic_material()
        c = SolveControl(increment=0.01, max_increments=1)
        curve = solve(g, m, fall_bc(g.dims), c)
        e = m.modulus(ASH)
        k_expected = e * 9.0 / 60.0
        k_measured = curve.force[1] / curve.displacement[1]
        assert k_measured == pytest.approx(k_expected, rel=0.02)

    def test_elastic_energy_is_half_fd(self):
        g = uniform_grid((2, 2, 6), RHO)
        c = SolveControl(increment=0.02, max_increments=8)
        curve = solve(g, elastic_material(), stance_bc(g.dims), c)
        energy = energy_to_failure(curve)
        half_fd = 0.5 * curve.force[-1] * curve.displacement[-1]
        assert energy == pytest.approx(half_fd, rel=1e-6)

    def test_force_scales_linearly(self):
        g = uniform_grid((2, 2, 4), RHO)
        c = SolveControl(increment=0.005, max_increments=4)
        curve = solve(g, elastic_material(), stance_bc(g.dims), c)
        ratio = curve.force[1:] / curve.displacement[1:]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


class TestPlastic:
    def test_column_plateau_force(self):
        # Perfectly plastic column: plateau force = A * sigma_y within 1%.
        g = uniform_grid((1, 1, 15), RHO, spacing=3.0)
        m = MaterialModel(f_soft=0.0, eps_plateau=10.0)
        c = SolveControl(increment=0.02, max_increments=40, stop_fraction=0.01)
        curve = solve(g, m, stance_bc(g.dims), c)
        plateau = curve.force[-1]
        expected = 9.0 * m.yield_stress(ASH)
        assert plateau == pytest.approx(expected, rel=0.01)

    def test_softening_produces_post_peak_drop(self):
        g = uniform_grid((2, 2, 8), RHO)
        m = MaterialModel()  # default softening
        c = SolveControl(increment=0.05, max_increments=60, stop_fraction=0.6)
        curve = solve(g, m, stance_bc(g.dims), c)
        peak = curve.force.max()
        assert curve.force[-1] < peak

    def test_cluster_bookkeeping_monotone(self):
        g = uniform_grid((2, 2, 8), RHO)
        c = SolveControl(increment=0.05, max_increments=25)
        curve = solve(g, MaterialModel(), stance_bc(g.dims), c)
        assert np.all(np.diff(curve.cluster_sizes) >= 0)
        assert curve.cluster_sizes.max() <= g.rho_cha.size


class TestDeterminismAndCases:
    def test_repeat_solve_identical(self):
        g = uniform_grid((2, 2, 5), RHO)
        c = SolveControl(increment=0.05, max_increments=10)
        c1 = solve(g, MaterialModel(), stance_bc(g.dims), c)
        c2 = solve(g, MaterialModel(), stance_bc(g.dims), c)
        np.testing.assert_array_equal(c1.force, c2.force)

    def test_stance_and_lateral_differ_on_asymmetric_phantom(self):
        rng = np.random.default_rng(8)
        g = VoxelGrid(rng.uniform(0.1, 0.5, size=(3, 3, 6)), 3.0)
        control = SolveControl(increment=0.05, max_increments=40,
                               stop_fraction=0.7)
        fe, _ = compute_fe_parameters(g, MaterialModel(), control,
                                      yield_policy="ultimate")
        assert list(fe) == list(FE12)
        assert fe["Su"] != fe["Lu"]

    def test_monotone_in_density(self):
        control = SolveControl(increment=0.05, max_increments=20)
        m = MaterialModel()
        weak = solve(uniform_grid((2, 2, 5), 0.2), m,
                     stance_bc((2, 2, 5)), control)
        strong = solve(uniform_grid((2, 2, 5), 0.3), m,
                       stance_bc((2, 2, 5)), control)
        assert strong.force.max() > weak.force.max()


def _random_symmetric_tangents(rng, n):
    a = rng.normal(size=(n, 6, 6))
    return a + a.transpose(0, 2, 1)


def _kernel_inputs(rng, n, overstress):
    """Deviatoric strains whose trial von Mises stress is a factor drawn
    from `overstress` (lo, hi) times the initial yield stress sy."""
    m = MaterialModel()
    emod = rng.uniform(2000.0, 10000.0, n)
    sy = rng.uniform(20.0, 40.0, n)
    g = emod / (2.0 * (1.0 + m.nu))
    strain = rng.normal(size=(n, 6))
    strain[:, :3] -= strain[:, :3].mean(axis=1, keepdims=True)
    q = np.sqrt(1.5 * ((2.0 * g[:, None] * strain[:, :3]) ** 2).sum(axis=1)
                + 3.0 * ((g[:, None] * strain[:, 3:]) ** 2).sum(axis=1))
    strain *= (rng.uniform(*overstress, n) * sy / q)[:, None]
    return m, strain, emod, sy


def _radial_return(m, strain, eps_p, alpha, emod, sy):
    return radial_return_batch(strain, eps_p, alpha, emod, m.nu, sy,
                               m.f_plateau, m.eps_plateau, m.f_soft, m.floor_frac)


def _branch_alpha(m, n, branch):
    return np.full(n, 0.0 if branch == "plateau" else 2.0 * m.eps_plateau)


def _kernel_tangents(rng, n, branch):
    """Gauss-point tangents from radial return, all in one yield branch.

    Deviatoric strains overstress the plateau by 5-50 %: starting from
    alpha = 0 the return stays on the plateau, starting past eps_plateau
    it follows the softening line.
    """
    m, strain, emod, sy = _kernel_inputs(rng, n, (1.05, 1.5))
    alpha = _branch_alpha(m, n, branch)
    _, tang, _, alpha_new = _radial_return(m, strain, np.zeros((n, 6)), alpha,
                                           emod, sy)
    if branch == "plateau":
        assert np.all((alpha_new > 0.0) & (alpha_new <= m.eps_plateau))
    else:
        assert np.all(alpha_new > alpha)
    return tang


def _elastic_matrix(emod, nu):
    """Isotropic C (n, 6, 6): engineering shear strain, tensor shear stress."""
    g = emod / (2.0 * (1.0 + nu))
    lam = emod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    c = np.zeros((emod.size, 6, 6))
    c[:, :3, :3] = lam[:, None, None]
    c[:, [0, 1, 2], [0, 1, 2]] += 2.0 * g[:, None]
    c[:, [3, 4, 5], [3, 4, 5]] = g[:, None]
    return c


def _yield_stress(m, sy, emod, alpha):
    """Plateau, then softening at slope f_soft * E, floored."""
    plateau = m.f_plateau * sy
    soft = plateau + m.f_soft * emod * (alpha - m.eps_plateau)
    return np.maximum(np.where(alpha <= m.eps_plateau, plateau, soft),
                      m.floor_frac * plateau)


def _von_mises(stress):
    s = stress[:, :3] - stress[:, :3].mean(axis=1, keepdims=True)
    return np.sqrt(1.5 * (s ** 2).sum(axis=1)
                   + 3.0 * (stress[:, 3:] ** 2).sum(axis=1))


def _plastic_history(rng, m, n, alpha0):
    """A deviatoric plastic strain and alpha0 as the point's history."""
    eps_p = rng.normal(scale=0.005, size=(n, 6))
    eps_p[:, :3] -= eps_p[:, :3].mean(axis=1, keepdims=True)
    return eps_p, np.full(n, alpha0 * m.eps_plateau)


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestKernelOracles:
    """Radial return (Simo & Hughes 1998, ch. 3-4) against its defining
    properties: elastic inside the yield surface, on the surface after a
    plastic step, and a tangent that is the derivative of the stress."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           alpha0=st.sampled_from([0.0, 0.5, 2.0, 100.0]))
    def test_below_yield_is_exactly_elastic(self, seed, n, alpha0):
        # Stress and tangent are C:(eps - eps_p) and C to round-off (the
        # kernel splits off and adds back the mean stress); eps_p and alpha
        # come back bit-unchanged.
        rng = np.random.default_rng(seed)
        m, ee, emod, sy = _kernel_inputs(rng, n, (0.0, 0.99))
        eps_p, alpha = _plastic_history(rng, m, n, alpha0)
        ee *= (_yield_stress(m, sy, emod, alpha) / sy)[:, None]  # below current yield
        ee[:, :3] += rng.normal(scale=1e-3, size=(n, 1))   # volumetric part
        strain = ee + eps_p
        stress, tang, eps_p_new, alpha_new = _radial_return(
            m, strain, eps_p, alpha, emod, sy)
        c = _elastic_matrix(emod, m.nu)
        want = np.einsum("nij,nj->ni", c, strain - eps_p)
        assert _max_rel(stress, want) <= 1e-12
        assert _max_rel(tang, c) <= 1e-12
        np.testing.assert_array_equal(eps_p_new, eps_p)
        np.testing.assert_array_equal(alpha_new, alpha)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           alpha0=st.sampled_from([0.0, 0.5, 2.0, 100.0]))
    def test_plastic_points_land_on_yield_surface(self, seed, n, alpha0):
        # alpha0 in units of eps_plateau: on the plateau, crossing into
        # softening, on the softening line, and on the floor.
        rng = np.random.default_rng(seed)
        m, ee, emod, sy = _kernel_inputs(rng, n, (1.05, 3.0))
        eps_p, alpha = _plastic_history(rng, m, n, alpha0)
        stress, _, _, alpha_new = _radial_return(m, ee + eps_p, eps_p, alpha,
                                                 emod, sy)
        assert np.all(alpha_new > alpha)
        sy_new = _yield_stress(m, sy, emod, alpha_new)
        np.testing.assert_allclose(_von_mises(stress), sy_new, rtol=1e-12, atol=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20),
           branch=st.sampled_from(["plateau", "softening"]))
    def test_tangent_matches_central_differences(self, seed, n, branch):
        rng = np.random.default_rng(seed)
        m, strain, emod, sy = _kernel_inputs(rng, n, (1.05, 1.5))
        eps_p = np.zeros((n, 6))
        alpha = _branch_alpha(m, n, branch)
        _, tang, _, _ = _radial_return(m, strain, eps_p, alpha, emod, sy)
        h = 1e-6 * np.abs(strain).max(axis=1)
        fd = np.empty_like(tang)
        for j in range(6):
            step = np.zeros((n, 6))
            step[:, j] = h
            up = _radial_return(m, strain + step, eps_p, alpha, emod, sy)[0]
            down = _radial_return(m, strain - step, eps_p, alpha, emod, sy)[0]
            fd[:, :, j] = (up - down) / (2.0 * h[:, None])
        err = np.abs(tang - fd).max(axis=(1, 2)) / np.abs(tang).max(axis=(1, 2))
        assert err.max() <= 1e-6


def _loop_stiffness(tang, b_mats, wdet):
    ne = tang.shape[0] // 8
    ke = np.zeros((ne, 24, 24))
    for e in range(ne):
        for g in range(8):
            ke[e] += wdet * b_mats[g].T @ tang[8 * e + g] @ b_mats[g]
    return ke


def _tangents(rng, n, source):
    if source == "symmetric":
        return _random_symmetric_tangents(rng, n)
    return _kernel_tangents(rng, n, source)


class TestStiffnessProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ne=st.integers(1, 5),
           h=st.floats(0.5, 5.0),
           source=st.sampled_from(["symmetric", "plateau", "softening"]))
    def test_element_stiffness_matches_gauss_loop(self, seed, ne, h, source):
        rng = np.random.default_rng(seed)
        if source == "symmetric":
            tang = _random_symmetric_tangents(rng, 8 * ne)
        else:
            tang = _kernel_tangents(rng, 8 * ne, source)
        b_mats, wdet = _hex_b_matrices(h)
        ke = element_stiffness(tang, b_mats, wdet)
        assert ke.shape == (ne, 24, 24)
        assert _max_rel(ke, _loop_stiffness(tang, b_mats, wdet)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           plastic=st.booleans())
    def test_global_stiffness_symmetric_and_order_free(self, seed, dims, plastic):
        # The band keeps only the upper triangle: assembling the transposed
        # element matrices (the dropped lower triangle) must give the same
        # band, and so must the elements in any order.
        rng = np.random.default_rng(seed)
        nx, ny, nz = dims
        ne = nx * ny * nz
        n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
        tang = _tangents(rng, 8 * ne, "softening" if plastic else "symmetric")
        b_mats, wdet = _hex_b_matrices(3.0)
        dof_map = _element_dof_map(dims)
        free = np.arange(n_dofs)
        ke = element_stiffness(tang, b_mats, wdet)
        assemble = _band_assembler(dof_map, free, n_dofs)
        kb = assemble(ke)
        assert _max_rel(assemble(ke.transpose(0, 2, 1).copy()), kb) <= 1e-12

        perm = rng.permutation(ne)
        tang_perm = tang.reshape(ne, 8, 6, 6)[perm].reshape(8 * ne, 6, 6)
        assemble_p = _band_assembler(dof_map[perm], free, n_dofs)
        kb_perm = assemble_p(element_stiffness(tang_perm, b_mats, wdet))
        assert kb_perm.shape == kb.shape
        assert _max_rel(kb_perm, kb) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           source=st.sampled_from(["symmetric", "softening"]),
           bc=st.sampled_from([stance_bc, fall_bc]))
    def test_band_matches_dense_free_block(self, seed, dims, source, bc):
        rng = np.random.default_rng(seed)
        nx, ny, nz = dims
        ne = nx * ny * nz
        n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
        tang = _tangents(rng, 8 * ne, source)
        b_mats, wdet = _hex_b_matrices(2.0)
        dof_map = _element_dof_map(dims)
        cond = bc(dims)
        free = np.setdiff1d(np.arange(n_dofs),
                            np.concatenate([cond.fixed_dofs, cond.driven_dofs]))

        k = np.zeros((n_dofs, n_dofs))
        coupled = np.zeros((n_dofs, n_dofs), dtype=bool)
        for e, ke_e in enumerate(_loop_stiffness(tang, b_mats, wdet)):
            k[np.ix_(dof_map[e], dof_map[e])] += ke_e
            coupled[np.ix_(dof_map[e], dof_map[e])] = True
        k_ff = k[np.ix_(free, free)]
        i, j = np.nonzero(coupled[np.ix_(free, free)])

        kb = _band_assembler(dof_map, free, n_dofs)(element_stiffness(tang, b_mats, wdet))
        assert kb.shape == (free.size, np.abs(i - j).max() + 1)
        assert _max_rel(_band_to_dense(kb), k_ff) <= 1e-12


def _loop_b_matrices(h):
    """B (8, 6, 24) and wdet of one hexahedron, corner by corner and axis by
    axis: the oracle for _hex_b_matrices."""
    corners = np.array([[a & 1, (a >> 1) & 1, (a >> 2) & 1] for a in range(8)])
    signs = 2.0 * corners - 1.0
    b = np.zeros((8, 6, 24))
    for g in range(8):
        xi = GAUSS * signs[g]
        for a in range(8):
            s = signs[a]
            n_parts = 0.5 * (1.0 + s * xi)
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
    return b, (h / 2.0) ** 3


def _loop_lattice(dims):
    """Element dofs, driven dofs and the stance and fall fixed dofs of a
    lattice, from node_id loops: elements and face nodes x fastest, corners
    x fastest."""
    nx, ny, nz = dims
    elements = []
    for ez in range(nz):
        for ey in range(ny):
            for ex in range(nx):
                nodes = [node_id(ex + ox, ey + oy, ez + oz, nx, ny)
                         for oz in (0, 1) for oy in (0, 1) for ox in (0, 1)]
                elements.append([3 * n + k for n in nodes for k in range(3)])
    bottom = [node_id(ix, iy, 0, nx, ny) for iy in range(ny + 1) for ix in range(nx + 1)]
    top = [node_id(ix, iy, nz, nx, ny) for iy in range(ny + 1) for ix in range(nx + 1)]
    pin_a, pin_b = node_id(0, 0, 0, nx, ny), node_id(nx, 0, 0, nx, ny)
    stance = sorted(3 * n + k for n in bottom for k in range(3))
    fall = sorted({3 * n + 2 for n in bottom} | {3 * pin_a, 3 * pin_a + 1, 3 * pin_b + 1})
    return elements, [3 * n + 2 for n in top], stance, fall


class TestLattice:
    """The lattice numbering against loops over node_id."""

    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    @example(dims=(4, 2, 3))
    @example(dims=(1, 3, 2))
    def test_dofs_match_node_id_loops(self, dims):
        elements, driven, stance, fall = _loop_lattice(dims)
        assert _element_dof_map(dims).tolist() == elements
        for bc, fixed in ((stance_bc, stance), (fall_bc, fall)):
            cond = bc(dims)
            assert cond.fixed_dofs.tolist() == fixed
            # In order: the reaction sums the driven dofs' forces x fastest.
            assert cond.driven_dofs.tolist() == driven

    @settings(max_examples=50, deadline=None)
    @given(h=st.floats(1e-3, 1e3))
    @example(h=3.0)
    def test_b_matrices_bit_equal_to_loop(self, h):
        b, wdet = _hex_b_matrices(h)
        b_loop, wdet_loop = _loop_b_matrices(h)
        assert b.shape == b_loop.shape
        assert np.array_equal(b.view(np.int64), b_loop.view(np.int64))
        assert wdet == wdet_loop

    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1))
    def test_largest_cluster_ignores_axis_order(self, dims, seed):
        # The mask comes in element order, x fastest; label it [ix, iy, iz].
        mask = np.random.default_rng(seed).random(np.prod(dims)) < 0.5
        labels, _ = ndimage.label(mask.reshape(dims, order="F"))
        expected = np.bincount(labels.ravel())[1:].max(initial=0)
        assert _largest_cluster(mask, dims) == expected


def _band_to_dense(kb):
    """Symmetric dense matrix of the column-by-column upper band storage
    kb[j, bw + i - j] = K[i, j]; entries above the first row must be zero."""
    n, bw = kb.shape[0], kb.shape[1] - 1
    k = np.zeros((n, n))
    for d in range(bw + 1):
        assert not kb[:d, bw - d].any()
        k[np.arange(n - d), np.arange(d, n)] = kb[d:, bw - d]
        k[np.arange(d, n), np.arange(n - d)] = kb[d:, bw - d]
    return k


def _dense_to_band(k, bw):
    n = k.shape[0]
    kb = np.zeros((n, bw + 1))
    for d in range(bw + 1):
        kb[d:, bw - d] = np.diagonal(k, d)
    return kb


def _dominant_band(rng, n, bw, signs):
    """Symmetric band matrix, strictly diagonally dominant with the given
    diagonal signs: nonsingular, positive definite iff every sign is +1."""
    k = np.triu(np.tril(rng.normal(size=(n, n)), bw), -bw)
    k = np.triu(k, 1)
    k = k + k.T
    k[np.diag_indices(n)] = signs * (np.abs(k).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return k


class TestSolveLadder:
    """spsolve takes band Cholesky, band LU or the regularized band LU,
    each agreeing with a dense solve of the same matrix."""

    @staticmethod
    def _solve(kb, b, **kwargs):
        lu_diagonals = []

        def lu(l_and_u, full, rhs, **kw):
            lu_diagonals.append(full[l_and_u[1]].copy())
            return solve_banded(l_and_u, full, rhs, **kw)

        with mock.patch.object(solver, "cholesky_banded", wraps=solver.cholesky_banded) as ch, \
                mock.patch.object(solver, "solve_banded", side_effect=lu):
            x = spsolve(kb, b, **kwargs)
        assert ch.call_count == 1
        return x, lu_diagonals

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), bw=st.integers(1, 6))
    def test_positive_definite_takes_cholesky(self, seed, n, bw):
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        k = _dominant_band(rng, n, bw, np.ones(n))
        b = rng.normal(size=n)
        x, lu = self._solve(_dense_to_band(k, bw), b)
        assert lu == []
        assert _max_rel(x, np.linalg.solve(k, b)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), bw=st.integers(1, 6))
    def test_indefinite_takes_lu(self, seed, n, bw):
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[rng.integers(n)] = -1.0
        k = _dominant_band(rng, n, bw, signs)
        b = rng.normal(size=n)
        x, lu = self._solve(_dense_to_band(k, bw), b)
        assert len(lu) == 1
        np.testing.assert_array_equal(lu[0], np.diagonal(k))
        assert _max_rel(x, np.linalg.solve(k, b)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), bw=st.integers(1, 6))
    def test_singular_takes_regularized_lu(self, seed, n, bw):
        # A dof coupled to nothing: zero row and column, zero load there.
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        k = _dominant_band(rng, n, bw, np.ones(n))
        dead = rng.integers(n)
        k[dead, :] = 0.0
        k[:, dead] = 0.0
        b = rng.normal(size=n)
        b[dead] = 0.0
        x, lu = self._solve(_dense_to_band(k, bw), b)
        assert len(lu) == 2
        shift = 1e-10 * max(np.diagonal(k).max(), 1.0)
        np.testing.assert_array_equal(lu[1], np.diagonal(k) + shift)
        assert _max_rel(x, np.linalg.lstsq(k, b, rcond=None)[0]) <= 1e-8

        # Without the regularized rung (the predictor), the answer is NaN.
        x, lu = self._solve(_dense_to_band(k, bw), b, regularize=False)
        assert len(lu) == 1
        assert np.isnan(x).all()

    def test_softening_tangent_takes_lu(self):
        # Past the peak of a softening column the free-dof tangent is
        # indefinite: Cholesky fails and band LU solves those systems.
        calls = []

        def lu(l_and_u, full, b, **kwargs):
            x = solve_banded(l_and_u, full, b, **kwargs)
            calls.append((full, b, x))
            return x

        g = uniform_grid((2, 2, 8), RHO)
        c = SolveControl(increment=0.05, max_increments=60, stop_fraction=0.6)
        with mock.patch.object(solver, "solve_banded", side_effect=lu):
            solve(g, MaterialModel(), stance_bc(g.dims), c)
        assert calls
        full, b, x = calls[0]
        bw, n = (full.shape[0] - 1) // 2, full.shape[1]
        k = np.zeros((n, n))
        for r in range(2 * bw + 1):
            d = bw - r      # column minus row
            cols = np.arange(max(d, 0), min(n, n + d))
            k[cols - d, cols] = full[r, cols]
        assert np.linalg.eigvalsh(k).min() < 0.0
        assert _max_rel(x, np.linalg.solve(k, b)) <= 1e-10


def _shell_core_phantom():
    """3x3x12 voxels at 3 mm: a 0.9 g/cm^3 shell around a 0.25 core, each
    voxel jittered by up to 5 % with default_rng(5)."""
    dims = (3, 3, 12)
    ix, iy = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    shell = (ix == 0) | (iy == 0) | (ix == 2) | (iy == 2)
    nominal = np.where(shell, 0.9, 0.25)[:, :, None]
    texture = np.random.default_rng(5).uniform(-0.05, 0.05, size=dims)
    return VoxelGrid(nominal * (1.0 + texture), 3.0)


@pytest.fixture
def solve_log(monkeypatch):
    """Records (regularize, |rhs|) for every spsolve call of the solver:
    regularize is False for a predictor and True for a Newton step."""
    log = []

    def counting(kb, b, regularize=True, **kwargs):
        log.append((regularize, float(np.linalg.norm(b))))
        return spsolve(kb, b, regularize, **kwargs)

    monkeypatch.setattr(solver, "spsolve", counting)
    return log


class TestNewtonDivergence:
    """advance gives up once the residual passes NEWTON_DIVERGE times its
    reference, which saves solves without moving a committed state as long
    as only attempts that would fail pass it."""

    def test_bound_changes_no_curve_and_saves_solves(self, monkeypatch, solve_log):
        grid, m, c = _shell_core_phantom(), MaterialModel(), SolveControl()

        def run():
            del solve_log[:]
            curves = compute_fe_parameters(grid, m, c, "ultimate")[1]
            return list(curves.values()), len(solve_log)

        bounded, n_bounded = run()
        monkeypatch.setattr(solver, "NEWTON_DIVERGE", np.inf)
        unbounded, n_unbounded = run()
        for a, b in zip(bounded, unbounded):
            for name in ("displacement", "force", "cluster_sizes"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        # Same curves, fewer solves: the bound fired and cut only failures.
        assert n_bounded <= 200 < 300 < n_unbounded

    def test_exhausted_ladder_raises(self, solve_log):
        # Elastic and 1e-300 relative: only an exactly zero residual would
        # converge, so every attempt of the ladder runs to NEWTON_CAP.
        g = uniform_grid((1, 1, 2), RHO)
        c = SolveControl(increment=0.01, max_increments=3, tolerance=1e-300)
        with pytest.raises(NumericalError, match="Newton failed to converge at increment 1"):
            solve(g, elastic_material(), stance_bc(g.dims), c)
        newton = [norm for regularize, norm in solve_log if regularize]
        assert newton and min(newton) > 0.0
        assert len(solve_log) <= 31 * (solver.NEWTON_CAP + 1)

    def test_non_finite_residual_skips_newton_solves(self, monkeypatch, solve_log):
        def nan_stress(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            return np.full_like(stress, np.nan), tang, eps_p, alpha

        monkeypatch.setattr(solver, "radial_return_batch", nan_stress)
        g = uniform_grid((1, 1, 2), RHO)
        with pytest.raises(NumericalError, match="Newton failed to converge at increment 1"):
            solve(g, elastic_material(), stance_bc(g.dims), SolveControl(increment=0.01))
        # One predictor per attempt of the five-rung substep ladder.
        assert [regularize for regularize, _ in solve_log] == [False] * 5


def _curve_bytes(curve):
    return [getattr(curve, name).tobytes()
            for name in ("displacement", "force", "cluster_sizes")]


class TestFailedAttempt:
    """A failed attempt leaves nothing behind: the retry starts from the last
    committed state, however far the failed attempt got."""

    @staticmethod
    def _solve(monkeypatch, fail_at=None):
        """Solve a 2x2x6 column that yields from its third increment.  With
        fail_at = (k, n), the n-th Newton solve after the k-th predictor
        returns NaN once, which fails that attempt.  Returns the curve, the
        number of Newton solves after each predictor, and how often the
        fault fired."""
        log, fired = [], []

        def faulty(kb, b, regularize=True, **kwargs):
            log.append(regularize)
            since_predictor = log[::-1].index(False)
            if not fired and fail_at == (log.count(False), since_predictor):
                fired.append(len(log))
                return np.full(kb.shape[0], np.nan)
            return spsolve(kb, b, regularize, **kwargs)

        monkeypatch.setattr(solver, "spsolve", faulty)
        g = uniform_grid((2, 2, 6), RHO)
        c = SolveControl(increment=0.05, max_increments=12)
        curve = solve(g, MaterialModel(), stance_bc(g.dims), c)
        runs = []
        for regularize in log:
            if regularize:
                runs[-1] += 1
            else:
                runs.append(0)
        return curve, runs, len(fired)

    def test_retry_ignores_how_far_the_attempt_got(self, monkeypatch):
        plain, runs, _ = self._solve(monkeypatch)
        # The first attempt with at least 3 Newton solves, made to fail on
        # its 1st or on its 3rd: both retries must commit the same curve.
        k = 1 + next(i for i, n in enumerate(runs) if n >= 3)
        first, _, fired_first = self._solve(monkeypatch, (k, 1))
        third, _, fired_third = self._solve(monkeypatch, (k, 3))
        assert fired_first == fired_third == 1
        assert first.force.size == third.force.size == plain.force.size
        assert _curve_bytes(first) == _curve_bytes(third)


class TestFactorReuse:
    """One solve call factors a tangent once while its Gauss-point tangents
    keep their bytes, and every solve still goes through spsolve."""

    @staticmethod
    def _elastic_solve(radial_return=radial_return_batch):
        g = uniform_grid((2, 2, 4), RHO)
        c = SolveControl(increment=0.01, max_increments=2)
        with mock.patch.object(solver, "cholesky_banded",
                               wraps=solver.cholesky_banded) as ch, \
                mock.patch.object(solver, "radial_return_batch", radial_return):
            curve = solve(g, elastic_material(), stance_bc(g.dims), c)
        return curve, ch.call_count

    def test_equal_tangent_factored_once(self, monkeypatch, solve_log):
        # Two elastic increments: one predictor solve each, on the same tangent.
        reused, n_factored = self._elastic_solve()
        assert n_factored == 1
        assert len(solve_log) == 2

        def fresh(kb, b, regularize=True, factor=None):
            return spsolve(kb, b, regularize)

        monkeypatch.setattr(solver, "spsolve", fresh)
        refactored, n_refactored = self._elastic_solve()
        assert n_refactored == 2
        assert _curve_bytes(reused) == _curve_bytes(refactored)

    @pytest.mark.parametrize("edit", ["ulp", "negative_zero"])
    def test_tangent_differing_in_one_element_factored_again(self, solve_log, edit):
        # From the second radial return on, one tangent entry changes its
        # bytes but not the stress: the second increment's predictor sees a
        # tangent that differs from the first in that one element.
        calls = []

        def edited(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            calls.append(None)
            if len(calls) > 1:
                if edit == "ulp":
                    tang[0, 0, 0] = np.nextafter(tang[0, 0, 0], np.inf)
                else:
                    assert tang[0, 0, 3] == 0.0
                    tang[0, 0, 3] = -0.0
            return stress, tang, eps_p, alpha

        _, n_factored = self._elastic_solve(edited)
        assert len(solve_log) == 2
        assert n_factored == 2

    def test_nan_tangent_never_reused(self, solve_log):
        # A tangent holding a NaN is factored again even when its bytes
        # repeat; every solve then fails and the increment is given up.
        def nan_tangent(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            tang[0, 0, 3] = np.nan
            return stress, tang, eps_p, alpha

        with pytest.raises(NumericalError, match="Newton failed to converge at increment 1"), \
                mock.patch.object(solver, "cholesky_banded",
                                  wraps=solver.cholesky_banded) as ch:
            g = uniform_grid((1, 1, 2), RHO)
            with mock.patch.object(solver, "radial_return_batch", nan_tangent):
                solve(g, elastic_material(), stance_bc(g.dims), SolveControl(increment=0.01))
        assert len(solve_log) > 1
        assert ch.call_count == len(solve_log)


def _openblas_threads():
    lib = solver._scipy_openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads"):
        pytest.skip("SciPy ships no OpenBLAS with thread calls")
    get = lib.scipy_openblas_get_num_threads
    get.argtypes, get.restype = [], ctypes.c_int
    return get


class TestOneBlasThread:
    """compute_fe_parameters runs its load cases on one OpenBLAS thread."""

    @pytest.mark.parametrize("fail", [False, True])
    def test_one_thread_inside_previous_after(self, monkeypatch, fail):
        threads = _openblas_threads()
        previous = threads()
        seen = []

        def solve_recording(*args):
            seen.append(threads())
            if fail:
                raise NumericalError("Newton stalled")
            return solve(*args)

        monkeypatch.setattr(loadcases, "solve", solve_recording)
        g = uniform_grid((2, 2, 3), RHO)
        control = SolveControl(increment=0.01, max_increments=2)
        if fail:
            with pytest.raises(NumericalError, match="load case stance failed"):
                compute_fe_parameters(g, elastic_material(), control, "ultimate")
        else:
            compute_fe_parameters(g, elastic_material(), control, "ultimate")
        assert seen == [1] * (1 if fail else len(LOAD_CASES))
        assert threads() == previous

    @pytest.mark.parametrize("lib", [None, object()], ids=["no_library", "no_symbols"])
    def test_missing_library_or_symbol_is_a_no_op(self, monkeypatch, lib):
        threads = _openblas_threads()
        previous = threads()
        monkeypatch.setattr(solver, "_scipy_openblas", lambda: lib)
        with solver.one_blas_thread():
            assert threads() == previous
        assert threads() == previous
