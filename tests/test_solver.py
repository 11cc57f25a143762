from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from femrisk.femodel import (MaterialModel, SolveControl,
                             ash_density, compute_fe_parameters, fall_bc,
                             solve, stance_bc, uniform_grid)
from femrisk.femodel.curves import energy_to_failure
from femrisk.femodel.grid import VoxelGrid
from femrisk.femodel.plasticity import radial_return_batch
from femrisk.femodel import solver
from femrisk.femodel.solver import (_band_assembler, _element_dof_map,
                                    _hex_b_matrices, element_stiffness,
                                    spsolve)

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
        bc = BoundaryCondition(fixed_dofs=np.array(fixed),
                               driven_dofs=np.array(driven),
                               unit_values=-np.ones(len(driven)))
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
        assert np.all(np.diff(curve.yielded_counts) >= 0)
        assert curve.cluster_sizes.max() <= g.n_elements


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
        assert fe.Su != fe.Lu

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
        dof_map, _ = _element_dof_map(dims)
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
        dof_map, _ = _element_dof_map(dims)
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

        with mock.patch.object(solver, "solveh_banded", wraps=solver.solveh_banded) as ch, \
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
