import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femrisk.femodel import (MaterialModel, SolveControl,
                             ash_density, compute_fe_parameters, fall_bc,
                             solve, stance_bc, uniform_grid)
from femrisk.femodel._kernel import KERNEL_IMPL, radial_return_batch
from femrisk.femodel._kernel._pure import radial_return_batch as pure_batch
from femrisk.femodel.curves import energy_to_failure
from femrisk.femodel.grid import VoxelGrid
from femrisk.femodel.solver import (_element_dof_map, _hex_b_matrices,
                                    assemble_stiffness, element_stiffness)

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
        fe = compute_fe_parameters(g, MaterialModel(), control,
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


class TestKernelParity:
    @pytest.mark.skipif(KERNEL_IMPL == "pure",
                        reason="compiled kernel not available")
    def test_pure_matches_compiled(self, rng):
        n = 500
        strain = rng.normal(scale=0.02, size=(n, 6))
        eps_p = rng.normal(scale=0.005, size=(n, 6))
        eps_p[:, :3] -= eps_p[:, :3].mean(axis=1, keepdims=True)  # deviatoric
        alpha = np.abs(rng.normal(scale=0.01, size=n))
        emod = rng.uniform(100.0, 10000.0, size=n)
        sy = rng.uniform(5.0, 80.0, size=n)
        args = (strain, eps_p, alpha, emod, 0.3, sy, 1.0, 0.01, -0.05, 0.05)
        out_c = radial_return_batch(*args)
        out_p = pure_batch(*args)
        for a, b in zip(out_c, out_p):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)

    def test_env_override_selects_pure(self):
        import os
        import subprocess
        import sys
        code = ("import femrisk.femodel._kernel as k; print(k.KERNEL_IMPL)")
        env = dict(os.environ, FEMRISK_PURE_KERNEL="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "pure"


def _random_symmetric_tangents(rng, n):
    a = rng.normal(size=(n, 6, 6))
    return a + a.transpose(0, 2, 1)


def _kernel_tangents(rng, n, branch):
    """Gauss-point tangents from radial return, all in one yield branch.

    Deviatoric strains overstress the plateau by 5-50 %: starting from
    alpha = 0 the return stays on the plateau, starting past eps_plateau
    it follows the softening line.
    """
    m = MaterialModel()
    emod = rng.uniform(2000.0, 10000.0, n)
    sy = rng.uniform(20.0, 40.0, n)
    g = emod / (2.0 * (1.0 + m.nu))
    strain = rng.normal(size=(n, 6))
    strain[:, :3] -= strain[:, :3].mean(axis=1, keepdims=True)
    q = np.sqrt(1.5 * ((2.0 * g[:, None] * strain[:, :3]) ** 2).sum(axis=1)
                + 3.0 * ((g[:, None] * strain[:, 3:]) ** 2).sum(axis=1))
    strain *= (rng.uniform(1.05, 1.5, n) * sy / q)[:, None]
    alpha = np.full(n, 0.0 if branch == "plateau" else 2.0 * m.eps_plateau)
    _, tang, _, alpha_new = radial_return_batch(
        strain, np.zeros((n, 6)), alpha, emod, m.nu, sy,
        m.f_plateau, m.eps_plateau, m.f_soft, m.floor_frac)
    if branch == "plateau":
        assert np.all((alpha_new > 0.0) & (alpha_new <= m.eps_plateau))
    else:
        assert np.all(alpha_new > alpha)
    return tang


def _loop_stiffness(tang, b_mats, wdet):
    ne = tang.shape[0] // 8
    ke = np.zeros((ne, 24, 24))
    for e in range(ne):
        for g in range(8):
            ke[e] += wdet * b_mats[g].T @ tang[8 * e + g] @ b_mats[g]
    return ke


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


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
        rng = np.random.default_rng(seed)
        nx, ny, nz = dims
        ne = nx * ny * nz
        n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
        if plastic:
            tang = _kernel_tangents(rng, 8 * ne, "softening")
        else:
            tang = _random_symmetric_tangents(rng, 8 * ne)
        b_mats, wdet = _hex_b_matrices(3.0)
        dof_map, _ = _element_dof_map(dims)
        k = assemble_stiffness(element_stiffness(tang, b_mats, wdet),
                               dof_map, n_dofs).toarray()
        assert _max_rel(k.T, k) <= 1e-12

        perm = rng.permutation(ne)
        tang_perm = tang.reshape(ne, 8, 6, 6)[perm].reshape(8 * ne, 6, 6)
        k_perm = assemble_stiffness(element_stiffness(tang_perm, b_mats, wdet),
                                    dof_map[perm], n_dofs).toarray()
        assert _max_rel(k_perm, k) <= 1e-12
