import ctypes
import importlib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage
from scipy.linalg import (LinAlgError, cho_solve_banded, cholesky_banded, lapack,
                          solve_banded)

from conftest import lapack_calls, same_bits
from femrisk.datamodel import FE12, LOAD_CASE_PARAMS
from femrisk.errors import DataError, NumericalError
from femrisk.femodel import (LOAD_CASES, MaterialModel, SolveControl,
                             ash_density, compute_fe_parameters, fall_bc,
                             solve, stance_bc, uniform_grid)
from femrisk.femodel.curves import energy_to_failure
from femrisk.femodel.grid import VoxelGrid
from femrisk.femodel.plasticity import elastic_tangent, radial_return_batch
from femrisk.femodel import loadcases, solver
from femrisk.femodel.solver import (GAUSS, _band_assembler, _element_dof_map,
                                    _hex_b_matrices, _largest_cluster,
                                    element_stiffness, factor_band, node_id, spsolve)

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

    def test_bending_against_timoshenko_cantilever(self):
        # A 9 x 9 x 36 mm column, bottom fixed, top face's x dofs driven (the
        # stance condition turned from z to x): a cantilever under a tip
        # shear load whose end may rotate, with Timoshenko's stiffness
        # 1 / (L^3 / 3EI + L / (kappa G A)).  The fully integrated
        # hexahedron locks in shear, so the FE column is too stiff, by
        # 1.578, 1.176, 1.091, 1.060 and 1.037 at 1, 2, 3, 4 and 6 elements
        # across; the bounds state that locking and that it falls with the
        # mesh.  The elastic energy is F d / 2 in bending too.
        m = elastic_material()
        e, nu = m.modulus(ASH), m.nu
        kappa = 10 * (1 + nu) / (12 + 11 * nu)
        shear, area, inertia, length = e / (2 * (1 + nu)), 81.0, 9.0 ** 4 / 12, 36.0
        k_beam = 1 / (length ** 3 / (3 * e * inertia) + length / (kappa * shear * area))
        control = SolveControl(increment=0.01, max_increments=4)
        ratios = {}
        for n in (1, 2, 3, 4, 6):
            g = uniform_grid((n, n, 4 * n), RHO, spacing=9.0 / n)
            stance = stance_bc(g.dims)
            curve = solve(g, m, solver.BoundaryCondition(stance.fixed_dofs,
                                                         stance.driven_dofs - 2), control)
            ratios[n] = curve.force[1] / curve.displacement[1] / k_beam
            half_fd = 0.5 * curve.force[-1] * curve.displacement[-1]
            assert energy_to_failure(curve) == pytest.approx(half_fd, rel=1e-12)
        assert list(ratios.values()) == sorted(ratios.values(), reverse=True)
        assert 1.0 < ratios[6] <= 1.04 and ratios[3] <= 1.10
        assert ratios[1] == pytest.approx(1.578, abs=5e-4)

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

    def test_posterior_equals_lateral_under_axial_drive(self):
        # The drive is axial, so the lateral case's quarter turn of the
        # density moves only the corner pins relative to the posterior case:
        # on the shell/core phantom the two agree in yield, ultimate and
        # energy to rounding (8e-16 relative here).  A drive tilted off the
        # long axis has to break this on a density gradient across x.
        fe, _ = compute_fe_parameters(_shell_core_phantom(), MaterialModel(),
                                      SolveControl(), yield_policy="ultimate")
        for posterior, lateral in zip(LOAD_CASE_PARAMS["posterior"],
                                      LOAD_CASE_PARAMS["lateral"]):
            assert fe[lateral] == pytest.approx(fe[posterior], rel=1e-14, abs=0)

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
                               m.f_plateau, m.eps_plateau, m.f_soft, m.floor_frac,
                               elastic_tangent(emod, m.nu))


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


def _chunks(ke, size):
    """ke's element matrices as consecutive chunks of size elements."""
    return [ke[start:start + size] for start in range(0, len(ke), size)]


def _free_dofs(cond, n_dofs):
    return np.setdiff1d(np.arange(n_dofs), np.concatenate([cond.fixed_dofs, cond.driven_dofs]))


class TestKernelOracles:
    """Radial return (Simo & Hughes 1998, ch. 3-4) against its defining
    properties: elastic inside the yield surface, on the surface after a
    plastic step, and a tangent that is the derivative of the stress."""

    @settings(max_examples=30)
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

    @settings(max_examples=30)
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

    @settings(max_examples=20)
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


def _full_tangent_kernel(strain, eps_p, alpha, emod, nu, sigma_y0,
                         plateau_frac, eps_plateau, soft_frac, floor_frac):
    """Radial return that evaluates the consistent tangent at every point,
    elastic or not: the oracle for the kernel that copies the elastic rows
    from elastic_tangent and evaluates the formula only where points yield."""
    strain = np.asarray(strain, dtype=float)
    eps_p = np.asarray(eps_p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    emod = np.asarray(emod, dtype=float)
    sigma_y0 = np.asarray(sigma_y0, dtype=float)
    n = strain.shape[0]

    g = emod / (2.0 * (1.0 + nu))
    lam = emod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    kb = lam + 2.0 * g / 3.0

    ee = strain - eps_p
    tr = ee[:, 0] + ee[:, 1] + ee[:, 2]
    stress = np.empty_like(strain)
    stress[:, :3] = (lam * tr)[:, None] + 2.0 * g[:, None] * ee[:, :3]
    stress[:, 3:] = g[:, None] * ee[:, 3:]

    p_mean = stress[:, :3].mean(axis=1)
    s = stress.copy()
    s[:, :3] -= p_mean[:, None]
    q = np.sqrt(1.5 * (s[:, :3] ** 2).sum(axis=1) + 3.0 * (s[:, 3:] ** 2).sum(axis=1))

    def yield_stress(a):
        sy = np.where(a <= eps_plateau, plateau, plateau + h_soft * (a - eps_plateau))
        return np.maximum(sy, floor)

    plateau = plateau_frac * sigma_y0
    h_soft = soft_frac * emod
    floor = floor_frac * plateau
    f = q - yield_stress(alpha)
    plastic = f > 0.0

    dgamma = np.zeros(n)
    h_used = np.zeros(n)
    if np.any(plastic):
        three_g = 3.0 * g
        dg_plat = np.where(plastic, f / three_g, 0.0)
        on_plateau = plastic & (alpha < eps_plateau)
        stays = on_plateau & (alpha + dg_plat <= eps_plateau)
        dgamma[stays] = dg_plat[stays]
        soft = plastic & ~stays
        if np.any(soft):
            dg_soft = (q - plateau - h_soft * (alpha - eps_plateau)) / (three_g + h_soft)
            dg_soft = np.where(soft, dg_soft, 0.0)
            sy_new = yield_stress(alpha + dg_soft)
            hit_floor = soft & (sy_new <= floor + 1e-300)
            reg = soft & ~hit_floor
            dgamma[reg] = dg_soft[reg]
            h_used[reg] = h_soft[reg]
            dgamma[hit_floor] = ((q - floor) / three_g)[hit_floor]

    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(q > 0, 1.0 - (3.0 * g * dgamma) / np.where(q > 0, q, 1.0), 1.0)
    s_new = s * scale[:, None]
    stress_new = s_new.copy()
    stress_new[:, :3] += p_mean[:, None]

    with np.errstate(invalid="ignore", divide="ignore"):
        flow = np.where(q[:, None] > 0, 1.5 * s / np.where(q[:, None] > 0, q[:, None], 1.0), 0.0)
    flow[:, 3:] *= 2.0
    eps_p_new = eps_p + dgamma[:, None] * flow
    alpha_new = alpha + dgamma

    tangent = np.zeros((n, 6, 6))
    eye3 = np.zeros((6, 6))
    eye3[:3, :3] = 1.0
    idev = np.zeros((6, 6))
    idev[:3, :3] = -1.0 / 3.0
    idev[0, 0] = idev[1, 1] = idev[2, 2] = 2.0 / 3.0
    idev[3, 3] = idev[4, 4] = idev[5, 5] = 0.5

    theta = np.where(plastic, scale, 1.0)
    tangent += kb[:, None, None] * eye3
    tangent += (2.0 * g * theta)[:, None, None] * idev

    if np.any(plastic):
        s_norm = np.sqrt((s[:, :3] ** 2).sum(axis=1) + 2.0 * (s[:, 3:] ** 2).sum(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            m = np.where(s_norm[:, None] > 0, s / np.where(s_norm[:, None] > 0, s_norm[:, None], 1.0), 0.0)
        c_n = 6.0 * g**2 * (dgamma / np.where(q > 0, q, 1.0) - 1.0 / (3.0 * g + h_used))
        c_n = np.where(plastic, c_n, 0.0)
        tangent += c_n[:, None, None] * (m[:, :, None] * m[:, None, :])

    return stress_new, tangent, eps_p_new, alpha_new


class TestElasticTangentShortcut:
    """radial_return_batch copies the rows of elastic_tangent for the points
    that stay elastic, and gives the bits of the kernel that evaluates the
    consistent tangent everywhere."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           share=st.sampled_from([0.0, 0.5, 1.0]),
           alpha0=st.sampled_from([0.0, 0.5, 2.0, 100.0]), n_nan=st.integers(0, 3))
    def test_bit_equal_to_full_tangent_kernel(self, seed, n, share, alpha0, n_nan):
        # Each point's trial stress is 0-0.99 (elastic) or 1.05-3 (plastic)
        # times its current yield stress; n_nan rows get a NaN strain.
        rng = np.random.default_rng(seed)
        m, ee, emod, sy = _kernel_inputs(rng, n, (1.0, 1.0))
        eps_p, alpha = _plastic_history(rng, m, n, alpha0)
        plastic = rng.permutation(n) < round(share * n)
        factor = np.where(plastic, rng.uniform(1.05, 3.0, n), rng.uniform(0.0, 0.99, n))
        ee *= (factor * _yield_stress(m, sy, emod, alpha) / sy)[:, None]
        ee[:, :3] += rng.normal(scale=1e-3, size=(n, 1))
        strain = ee + eps_p
        nan_rows = rng.permutation(n)[:n_nan]
        strain[nan_rows, rng.integers(6, size=nan_rows.size)] = np.nan
        plastic[nan_rows] = False

        args = (strain, eps_p, alpha, emod, m.nu, sy,
                m.f_plateau, m.eps_plateau, m.f_soft, m.floor_frac)
        with np.errstate(invalid="ignore"):
            got = radial_return_batch(*args, elastic_tangent(emod, m.nu))
            want = _full_tangent_kernel(*args)
        np.testing.assert_array_equal(got[3] > alpha, plastic)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_elastic_tangent_is_read_only(self):
        tangent = elastic_tangent(np.array([100.0, 200.0]), 0.3)
        with pytest.raises(ValueError, match="read-only"):
            tangent[0, 0, 0] = 1.0

    def test_no_yielding_point_returns_the_elastic_tangent(self):
        # Ten points below yield, the first at zero strain: the tangent is
        # elastic itself, and eps_p and alpha are copies.
        rng = np.random.default_rng(1)
        m, ee, emod, sy = _kernel_inputs(rng, 10, (0.0, 0.9))
        eps_p, alpha = _plastic_history(rng, m, 10, 0.0)
        ee[0] = 0.0
        elastic = elastic_tangent(emod, m.nu)
        out = radial_return_batch(ee + eps_p, eps_p, alpha, emod, m.nu, sy, m.f_plateau,
                                  m.eps_plateau, m.f_soft, m.floor_frac, elastic)
        assert out[1] is elastic
        assert out[2] is not eps_p and out[3] is not alpha
        assert same_bits(out[2], eps_p) and same_bits(out[3], alpha)

    def test_elastic_rows_are_copies(self):
        # The kernel never writes into its inputs: two rows each that stay
        # elastic (the first at zero stress), stay on the plateau, soften,
        # reach the floor, or have a NaN strain.
        rng = np.random.default_rng(0)
        m, ee, emod, sy = _kernel_inputs(rng, 10, (1.0, 1.0))
        eps_p, _ = _plastic_history(rng, m, 10, 0.0)
        alpha = np.repeat([0.0, 0.0, 2.0, 100.0, 0.0], 2) * m.eps_plateau
        factor = np.repeat([0.5, 1.01, 1.2, 1.5, 0.5], 2)
        factor[0] = 0.0
        ee *= (factor * _yield_stress(m, sy, emod, alpha) / sy)[:, None]
        strain = ee + eps_p
        strain[8:, 0] = np.nan
        elastic = elastic_tangent(emod, m.nu)
        inputs = (strain, eps_p, alpha, elastic)
        before = [a.tobytes() for a in inputs]
        with np.errstate(invalid="ignore"):
            out = radial_return_batch(strain, eps_p, alpha, emod, m.nu, sy, m.f_plateau,
                                      m.eps_plateau, m.f_soft, m.floor_frac, elastic)
        assert [a.tobytes() for a in inputs] == before
        assert all(o is not i for o, i in zip(out[1:], (elastic, eps_p, alpha)))
        assert all(np.isfinite(o[:8]).all() for o in out)
        sy_new = _yield_stress(m, sy, emod, out[3])
        np.testing.assert_array_equal(out[3] > alpha, np.repeat([0, 1, 1, 1, 0], 2) == 1)
        assert np.all(out[3][2:4] <= m.eps_plateau)
        assert np.all(sy_new[4:6] > m.floor_frac * m.f_plateau * sy[4:6])
        np.testing.assert_array_equal(sy_new[6:8], m.floor_frac * m.f_plateau * sy[6:8])


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
    @settings(max_examples=30)
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

    @settings(max_examples=25)
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
        kb = assemble([ke])
        assert _max_rel(assemble([ke.transpose(0, 2, 1)]), kb) <= 1e-12

        perm = rng.permutation(ne)
        tang_perm = tang.reshape(ne, 8, 6, 6)[perm].reshape(8 * ne, 6, 6)
        assemble_p = _band_assembler(dof_map[perm], free, n_dofs)
        kb_perm = assemble_p([element_stiffness(tang_perm, b_mats, wdet)])
        assert kb_perm.shape == kb.shape
        assert _max_rel(kb_perm, kb) <= 1e-12

    @pytest.mark.parametrize("bc", [stance_bc, fall_bc])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 3), (1, 3, 2), (4, 2, 5),
                                      (3, 3, 12), (10, 10, 24)])
    def test_band_index_gives_the_bytes_of_the_full_index(self, dims, bc):
        # The oracle gathers the free entries with row <= column from all
        # 576 positions of each element matrix and adds them by one
        # bincount.  The second input is NaN in every entry with a fixed row
        # or column, so a spilled entry that reaches the band shows.  Both
        # are assembled in chunks of 3 elements and of solver.CHUNK.
        rng = np.random.default_rng(sum(dims))
        nx, ny, nz = dims
        n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
        dof_map = _element_dof_map(dims)
        free = _free_dofs(bc(dims), n_dofs)
        b_mats, wdet = _hex_b_matrices(2.0)
        ke = element_stiffness(_random_symmetric_tangents(rng, 8 * nx * ny * nz),
                               b_mats, wdet)

        pos = np.full(n_dofs, -1)
        pos[free] = np.arange(free.size)
        pe = pos[dof_map]
        rows = np.repeat(pe, 24, axis=1).ravel()
        cols = np.tile(pe, (1, 24)).ravel()
        sel = np.flatnonzero((rows >= 0) & (rows <= cols))
        poisoned = ke.copy()
        poisoned[(pe[:, :, None] < 0) | (pe[:, None, :] < 0)] = np.nan
        rows, cols = rows[sel], cols[sel]
        bw = int((cols - rows).max(initial=0))
        assemble = _band_assembler(dof_map, free, n_dofs)
        for k in (ke, poisoned):
            want = np.bincount(cols * (bw + 1) + bw + rows - cols, weights=k.ravel()[sel],
                               minlength=(bw + 1) * free.size).reshape(free.size, bw + 1)
            for size in (3, solver.CHUNK):
                kb = assemble(_chunks(k, size))
                assert kb.shape == want.shape and kb.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bc", [stance_bc, fall_bc])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 3), (3, 3, 12)])
    def test_band_ignores_the_local_corner_order(self, dims, bc):
        # Renumbering the corners of every element, in the dof map and in
        # the rows and columns of its matrix, leaves the band's bytes.
        rng = np.random.default_rng(sum(dims))
        nx, ny, nz = dims
        ne, n_dofs = nx * ny * nz, 3 * (nx + 1) * (ny + 1) * (nz + 1)
        dof_map = _element_dof_map(dims)
        free = _free_dofs(bc(dims), n_dofs)
        b_mats, wdet = _hex_b_matrices(2.0)
        ke = element_stiffness(_random_symmetric_tangents(rng, 8 * ne), b_mats, wdet)
        kb = _band_assembler(dof_map, free, n_dofs)([ke])
        for corners in (np.arange(8)[::-1], rng.permutation(8)):
            perm = (corners[:, None] * 3 + np.arange(3)).ravel()
            kb_perm = _band_assembler(dof_map[:, perm], free, n_dofs)([ke[:, perm][:, :, perm]])
            assert kb_perm.shape == kb.shape and kb_perm.tobytes() == kb.tobytes()

    @settings(max_examples=25)
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
        free = _free_dofs(bc(dims), n_dofs)

        k = np.zeros((n_dofs, n_dofs))
        coupled = np.zeros((n_dofs, n_dofs), dtype=bool)
        for e, ke_e in enumerate(_loop_stiffness(tang, b_mats, wdet)):
            k[np.ix_(dof_map[e], dof_map[e])] += ke_e
            coupled[np.ix_(dof_map[e], dof_map[e])] = True
        k_ff = k[np.ix_(free, free)]
        i, j = np.nonzero(coupled[np.ix_(free, free)])

        kb = _band_assembler(dof_map, free, n_dofs)([element_stiffness(tang, b_mats, wdet)])
        assert kb.shape == (free.size, np.abs(i - j).max() + 1)
        assert _max_rel(_band_to_dense(kb), k_ff) <= 1e-12

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4)),
           bc=st.sampled_from([stance_bc, fall_bc]), data=st.data())
    def test_chunk_sizes_give_the_bytes_of_one_chunk(self, seed, dims, bc, data):
        # Chunks of 1 element, of a size that does not divide ne (when one
        # exists) and of more than ne elements give the band of a single
        # chunk, bit for bit, with signed zeros among the entries.
        rng = np.random.default_rng(seed)
        nx, ny, nz = dims
        ne, n_dofs = nx * ny * nz, 3 * (nx + 1) * (ny + 1) * (nz + 1)
        b_mats, wdet = _hex_b_matrices(2.0)
        ke = element_stiffness(_tangents(rng, 8 * ne, "softening"), b_mats, wdet)
        ke[rng.random(ke.shape) < 0.2] = -0.0
        ke[rng.random(ke.shape) < 0.1] = 0.0
        assemble = _band_assembler(_element_dof_map(dims), _free_dofs(bc(dims), n_dofs), n_dofs)
        whole = assemble([ke])
        sizes = [1, ne + data.draw(st.integers(1, 300), label="past ne")]
        non_divisors = [k for k in range(2, ne) if ne % k]
        if non_divisors:
            sizes.append(data.draw(st.sampled_from(non_divisors), label="non-divisor"))
        for size in sizes:
            kb = assemble(_chunks(ke, size))
            assert kb.shape == whole.shape and kb.tobytes() == whole.tobytes()

    def test_int32_index_bounds_the_band(self):
        # The 576 spill slots and the band must stay below 2**31 slots, the
        # int32 index's reach; plain sizes, nothing allocated.
        top = 2**31 - 1
        assert solver._band_slots(4, 2) == 576 + 12
        assert solver._band_slots(top - 576, 0) == top
        assert solver._band_slots((top - 576) // 301, 300) <= top
        for n_free, bw in ((top - 575, 0), ((top - 576) // 301 + 1, 300), (10**7, 400)):
            with pytest.raises(DataError, match="too large for an int32 index"):
                solver._band_slots(n_free, bw)


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

    @settings(max_examples=40)
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

    @settings(max_examples=50)
    @given(h=st.floats(1e-3, 1e3))
    @example(h=3.0)
    def test_b_matrices_bit_equal_to_loop(self, h):
        b, wdet = _hex_b_matrices(h)
        b_loop, wdet_loop = _loop_b_matrices(h)
        assert b.shape == b_loop.shape
        assert np.array_equal(b.view(np.int64), b_loop.view(np.int64))
        assert wdet == wdet_loop

    @settings(max_examples=60)
    @given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 12)),
           seed=st.integers(0, 2**32 - 1),
           fill=st.sampled_from(["empty", "single", "full", 0.2, 0.5, 0.7]))
    @example(dims=(1, 1, 1), seed=0, fill="single")
    @example(dims=(3, 3, 12), seed=0, fill="full")
    @example(dims=(4, 1, 7), seed=3, fill="empty")
    @example(dims=(10, 10, 24), seed=42, fill=0.5)
    def test_largest_cluster_ignores_axis_order(self, dims, seed, fill):
        # Against ndimage.label's largest cluster (6-connected by default).
        # The mask comes in element order, x fastest; label it [ix, iy, iz].
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        if isinstance(fill, float):
            mask = rng.random(n) < fill
        else:
            mask = np.full(n, fill == "full")
            if fill == "single":
                mask[rng.integers(n)] = True
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
    """factor_band takes band Cholesky, or else leaves the band to band LU,
    which spsolve runs once; each agrees with a dense solve of the same
    matrix, and a singular matrix gives NaN."""

    @staticmethod
    def _solve(kb, b):
        lu_diagonals = []

        def diagonal(name, args):
            if name == "dgbsv":
                bw = args[1]
                lu_diagonals.append(args[4][:, 2 * bw].copy())

        with lapack_calls(before=diagonal) as names:
            x = spsolve(*factor_band(kb.copy), b)
        assert names.count("dpbtrf") == 1
        return x, lu_diagonals

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), bw=st.integers(1, 6))
    def test_positive_definite_takes_cholesky(self, seed, n, bw):
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        k = _dominant_band(rng, n, bw, np.ones(n))
        b = rng.normal(size=n)
        x, lu = self._solve(_dense_to_band(k, bw), b)
        assert lu == []
        assert _max_rel(x, np.linalg.solve(k, b)) <= 1e-10

    @settings(max_examples=25)
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

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), bw=st.integers(1, 6))
    def test_singular_takes_one_lu_and_gives_nan(self, seed, n, bw):
        # A dof coupled to nothing: zero row and column, zero load there.
        # Cholesky fails, dgbsv reports the zero pivot, and nothing retries.
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        k = _dominant_band(rng, n, bw, np.ones(n))
        dead = rng.integers(n)
        k[dead, :] = 0.0
        k[:, dead] = 0.0
        b = rng.normal(size=n)
        b[dead] = 0.0
        infos = []

        def info_of(name, args, info):
            infos.append(info)

        with lapack_calls(after=info_of) as names:
            x = spsolve(*factor_band(_dense_to_band(k, bw).copy), b)
        assert names == ["dpbtrf", "dgbsv"]
        assert infos[1] == dead + 1
        assert np.isnan(x).all()

    def test_softening_tangent_takes_lu(self):
        # Past the peak of a softening column the free-dof tangent is
        # indefinite: Cholesky fails and band LU solves those systems.
        calls = []

        def inputs(name, args):
            if name == "dgbsv":
                calls.append((args[1], args[4].copy(), args[7].copy(), args[7]))

        g = uniform_grid((2, 2, 8), RHO)
        c = SolveControl(increment=0.05, max_increments=60, stop_fraction=0.6)
        with lapack_calls(before=inputs):
            solve(g, MaterialModel(), stance_bc(g.dims), c)
        assert calls
        bw, band, b, x = calls[0]
        k = _gbsv_to_dense(band, bw)
        assert np.linalg.eigvalsh(k).min() < 0.0
        assert _max_rel(x, np.linalg.solve(k, b)) <= 1e-10

    @pytest.mark.parametrize("held", ["bottom_z", "nothing"])
    def test_free_rigid_body_modes_never_fail_lu(self, held, solve_log):
        # The top face's z dofs driven and at most the bottom face's z dofs
        # fixed: the x and y rigid-body modes stay free, so the tangent is
        # rank deficient, yet band LU with pivoting solves every system it
        # gets.  Held at the bottom the column converges; held nowhere,
        # Newton gives up without a failed solve.
        g = uniform_grid((1, 1, 2), RHO)
        nodes = solver._nodes(g.dims)
        fixed = nodes[:, :, 0].ravel(order="F") * 3 + 2 if held == "bottom_z" else []
        bc = solver.BoundaryCondition(fixed, nodes[:, :, -1].ravel(order="F") * 3 + 2)
        control = SolveControl(increment=0.05, max_increments=5)
        infos = []

        def info_of(name, args, info):
            if name == "dgbsv":
                infos.append(info)

        with lapack_calls(after=info_of):
            if held == "bottom_z":
                force = solve(g, MaterialModel(), bc, control).force
                assert np.isfinite(force).all() and force[-1] > 0.0
            else:
                with pytest.raises(NumericalError,
                                   match="Newton failed to converge at increment 1"):
                    solve(g, MaterialModel(), bc, control)
        assert set(infos) == {0}
        assert len(solve_log) <= 31 * (solver.NEWTON_CAP + 1)


def _gbsv_to_dense(band, bw):
    """Dense matrix of dgbsv's band (n, 3 bw + 1): band[j, 2 bw + i - j] =
    K[i, j] for |i - j| <= bw; the first bw columns are fill-in room."""
    n = band.shape[0]
    k = np.zeros((n, n))
    for j in range(n):
        i = np.arange(max(j - bw, 0), min(j + bw + 1, n))
        k[i, j] = band[j, 2 * bw + i - j]
    return k


def _scipy_lu_band(kb):
    """solve_banded's (2 bw + 1, n) band of the symmetric K in kb."""
    n, bw = kb.shape[0], kb.shape[1] - 1
    full = np.zeros((2 * bw + 1, n))
    full[:bw + 1] = kb.T
    for d in range(1, bw + 1):
        full[bw + d, :n - d] = kb[d:, bw - d]
    return full


# The random band systems of LapackRungs' two properties.
BAND_SYSTEMS = given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), bw=st.integers(2, 12))


class LapackRungs:
    """Each ctypes rung of spsolve gives the factor and the solution of the
    SciPy function it replaces, bit for bit (bw >= 2, see spsolve).  A
    subclass runs them in one library; it wraps the two properties in its
    own given, since Hypothesis keeps one example database per function."""

    def positive_definite_factor_and_solution(self, seed, n, bw):
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        kb = _dense_to_band(_dominant_band(rng, n, bw, np.ones(n)), bw)
        b = rng.normal(size=n)
        band, cholesky = factor_band(kb.copy)
        x = spsolve(band, cholesky, b)
        cb = cholesky_banded(kb.T, check_finite=False)
        assert cholesky and same_bits(band, cb.T)
        assert same_bits(x, cho_solve_banded((cb, False), b, check_finite=False))
        assert same_bits(spsolve(band, cholesky, b), x)

    def indefinite_lu_factor_and_solution(self, seed, n, bw):
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[rng.integers(n)] = -1.0
        kb = _dense_to_band(_dominant_band(rng, n, bw, signs), bw)
        b = rng.normal(size=n)
        with pytest.raises(LinAlgError):
            cholesky_banded(kb.T, check_finite=False)
        factors = []

        def lu_factor(name, args, info):
            if name == "dgbsv":
                factors.append((args[4].copy(), args[6].copy()))

        with lapack_calls(after=lu_factor) as names:
            band, cholesky = factor_band(kb.copy)
            x = spsolve(band, cholesky, b)
        assert names == ["dpbtrf", "dgbsv"]
        assert not cholesky and same_bits(band, kb)
        full = _scipy_lu_band(kb)
        assert same_bits(x, solve_banded((bw, bw), full, b, check_finite=False))
        # solve_banded's own dgbsv call, for its factor and pivots.
        a2 = np.zeros((3 * bw + 1, n))
        a2[bw:] = full
        lu, piv, x_lapack, info = lapack.dgbsv(bw, bw, a2, b)
        assert info == 0 and same_bits(x_lapack, x)
        assert same_bits(factors[0][0], lu.T)
        assert np.array_equal(factors[0][1] - 1, piv)      # f2py counts from 0

    def test_phantom_lu_systems(self, tmp_path):
        # Every band LU system of the fe_phantom benchmark command at seed
        # 42, solved again by solve_banded on the band it was given.
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
            workload = importlib.import_module("workloads").WORKLOADS["fe_phantom"]
        import femrisk.cli
        workload.write_inputs(femrisk, 42, tmp_path)
        systems, infos = [], []

        def inputs(name, args):
            if name == "dgbsv":
                bw = args[1]
                systems.append((bw, args[4][:, bw:].T.copy(), args[7].copy(), args[7]))

        def info_of(name, args, info):
            if name == "dgbsv":
                infos.append(info)

        with lapack_calls(before=inputs, after=info_of):
            assert femrisk.cli.dispatch(workload.argv(tmp_path, 42, 1)) == 0
        assert len(systems) == 22 and infos == [0] * 22
        for bw, full, b, x in systems:
            assert bw >= 2
            assert same_bits(x, solve_banded((bw, bw), full, b, check_finite=False))

    def test_arrays_checked_before_lapack_sees_them(self):
        # A right-hand side of another length, a strided band or integer
        # pivots of the other library's width never reach LAPACK.
        kb = _dense_to_band(np.eye(4) * 2.0, 2)
        with pytest.raises(ValueError, match=r"right-hand side of shape \(3,\) for 4 unknowns"):
            spsolve(*factor_band(kb.copy), np.ones(3))
        with pytest.raises(ctypes.ArgumentError):
            solver._lapack("dpbtrf", b"U", 4, 1, np.ones((4, 4))[:, ::2], 2)
        other = np.intc if solver._lapack_int() == np.int64 else np.int64
        with pytest.raises(ctypes.ArgumentError):
            solver._lapack("dgbsv", 1, 0, 0, 1, np.ones((1, 1)), 1,
                           np.zeros(1, dtype=other), np.ones(1), 1)


class TestLapackRungsMatchScipy(LapackRungs):
    """The rungs in the library spsolve finds: NumPy's OpenBLAS, where this
    NumPy build ships it."""

    @settings(max_examples=30)
    @BAND_SYSTEMS
    def test_positive_definite_factor_and_solution(self, seed, n, bw):
        self.positive_definite_factor_and_solution(seed, n, bw)

    @settings(max_examples=30)
    @BAND_SYSTEMS
    def test_indefinite_lu_factor_and_solution(self, seed, n, bw):
        self.indefinite_lu_factor_and_solution(seed, n, bw)

    @pytest.mark.parametrize("library", ["openblas", "cython_lapack"])
    def test_illegal_argument_raises(self, monkeypatch, library):
        # info < 0 (here kd = -1) raises; it never turns into a NaN answer.
        if library == "cython_lapack":
            monkeypatch.setattr(solver, "_numpy_openblas", None)
        elif solver._numpy_openblas is None:
            pytest.skip("NumPy ships no OpenBLAS")
        with pytest.raises(ValueError, match="dpbtrf: argument 3 has an illegal value"):
            factor_band(np.ones((3, 0)).copy)
        with pytest.raises(ValueError, match="dgbsv: argument 1 has an illegal value"):
            solver._lapack("dgbsv", -1, 0, 0, 1, np.ones((1, 1)), 1,
                           np.zeros(1, dtype=solver._lapack_int()), np.ones(1), 1)

    @settings(max_examples=20)
    @given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           bc=st.sampled_from([stance_bc, fall_bc]))
    def test_lattice_bands_are_wider_than_tridiagonal(self, dims, bc):
        # solve_banded takes dgtsv for bw == 1 and divides for n == 1; the
        # boundary conditions of fe never give either.
        nx, ny, nz = dims
        n_dofs = 3 * (nx + 1) * (ny + 1) * (nz + 1)
        free = _free_dofs(bc(dims), n_dofs)
        kb = _band_assembler(_element_dof_map(dims), free, n_dofs)([np.ones((nx * ny * nz, 24, 24))])
        assert kb.shape[0] >= 8 and kb.shape[1] - 1 >= 7


class TestLapackRungsMatchScipyOnCythonLapack(LapackRungs):
    """The rungs in the fallback of a NumPy build without its OpenBLAS:
    scipy.linalg.cython_lapack, with C int integers and pivots."""

    def setup_method(self):
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(solver, "_numpy_openblas", None)

    def teardown_method(self):
        self.patch.undo()

    @settings(max_examples=30)
    @BAND_SYSTEMS
    def test_positive_definite_factor_and_solution(self, seed, n, bw):
        self.positive_definite_factor_and_solution(seed, n, bw)

    @settings(max_examples=30)
    @BAND_SYSTEMS
    def test_indefinite_lu_factor_and_solution(self, seed, n, bw):
        self.indefinite_lu_factor_and_solution(seed, n, bw)

    def test_each_routine_bound_once(self):
        # Building the ctypes bindings took longer than a call through them.
        solver._cython_lapack.cache_clear()
        kb = _dense_to_band(np.eye(4) * 2.0, 2)
        for _ in range(2):
            spsolve(*factor_band(kb.copy), np.ones(4))
        assert solver._cython_lapack.cache_info()[:2] == (2, 2)      # hits, misses
        assert solver._cython_lapack("dpbtrf") is solver._cython_lapack("dpbtrf")


@pytest.mark.parametrize("bc", [stance_bc, fall_bc])
def test_spsolve_gets_the_band_first(monkeypatch, bc):
    # perfbench's tracer wraps spsolve and records args[0].shape[0] as the
    # free-dof count of each solve.
    bands, real = [], solver.spsolve

    def traced(*args, **kwargs):
        bands.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "spsolve", traced)
    g = uniform_grid((2, 2, 3), RHO)
    b = bc(g.dims)
    solve(g, elastic_material(), b, SolveControl(increment=0.01, max_increments=2))
    n_free = 3 * 3 * 3 * 4 - b.fixed_dofs.size - b.driven_dofs.size
    assert bands and all(isinstance(kb, np.ndarray) and kb.shape[0] == n_free for kb in bands)


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
    """Records |rhs| for every spsolve call of the solver, predictor and
    Newton step alike."""
    log = []

    def counting(kb, cholesky, b):
        log.append(float(np.linalg.norm(b)))
        return spsolve(kb, cholesky, b)

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
        # A predictor solves K times the displacement bump, a Newton step
        # the residual: neither right-hand side is zero.
        assert solve_log and min(solve_log) > 0.0
        assert len(solve_log) <= 31 * (solver.NEWTON_CAP + 1)

    def test_non_finite_residual_skips_newton_solves(self, monkeypatch, solve_log):
        def nan_stress(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            return np.full_like(stress, np.nan), tang, eps_p, alpha

        monkeypatch.setattr(solver, "radial_return_batch", nan_stress)
        g = uniform_grid((1, 1, 2), RHO)
        with pytest.raises(NumericalError, match="Newton failed to converge at increment 1"):
            solve(g, elastic_material(), stance_bc(g.dims), SolveControl(increment=0.01))
        # One predictor per attempt of the five-rung substep ladder, and no
        # Newton solve.
        assert len(solve_log) == 5


def _curve_bytes(curve):
    return [getattr(curve, name).tobytes()
            for name in ("displacement", "force", "cluster_sizes")]


class TestFailedAttempt:
    """A failed attempt leaves nothing behind: the retry starts from the last
    committed state, however far the failed attempt got."""

    @staticmethod
    def _solve(monkeypatch, fail_at=None):
        """Solve a 2x2x6 column that yields from its third increment.  Every
        stress evaluation of one attempt gets its committed eps_p array, so
        consecutive evaluations on the same array are one attempt.  With
        fail_at = (k, n), the n-th evaluation of the k-th attempt gives NaN
        stress once, which fails that attempt.  Returns the curve, the
        number of evaluations of each attempt, and how often the fault
        fired."""
        committed, runs, fired = [], [], []

        def faulty(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            if not committed or args[1] is not committed[-1]:
                committed.append(args[1])       # held, so no id is reused
                runs.append(0)
            runs[-1] += 1
            if not fired and fail_at == (len(runs), runs[-1]):
                fired.append(len(runs))
                stress = np.full_like(stress, np.nan)
            return stress, tang, eps_p, alpha

        monkeypatch.setattr(solver, "radial_return_batch", faulty)
        g = uniform_grid((2, 2, 6), RHO)
        c = SolveControl(increment=0.05, max_increments=12)
        curve = solve(g, MaterialModel(), stance_bc(g.dims), c)
        return curve, runs, len(fired)

    def test_retry_ignores_how_far_the_attempt_got(self, monkeypatch):
        plain, runs, _ = self._solve(monkeypatch)
        # The first attempt with at least 4 evaluations, made to fail at
        # its 2nd or at its 4th: both retries must commit the same curve.
        k = 1 + next(i for i, n in enumerate(runs) if n >= 4)
        second, _, fired_second = self._solve(monkeypatch, (k, 2))
        fourth, _, fired_fourth = self._solve(monkeypatch, (k, 4))
        assert fired_second == fired_fourth == 1
        assert second.force.size == fourth.force.size == plain.force.size
        assert _curve_bytes(second) == _curve_bytes(fourth)


class TestFactorReuse:
    """One solve call factors a tangent once while its Gauss-point tangents
    keep their bytes, and every solve still goes through spsolve.  The
    record the load cases share holds the band index alone."""

    @staticmethod
    def _elastic_solve(radial_return=radial_return_batch):
        g = uniform_grid((2, 2, 4), RHO)
        c = SolveControl(increment=0.01, max_increments=2)
        with lapack_calls() as names, \
                mock.patch.object(solver, "radial_return_batch", radial_return):
            curve = solve(g, elastic_material(), stance_bc(g.dims), c)
        return curve, names.count("dpbtrf")

    def test_equal_tangent_factored_once(self, monkeypatch, solve_log):
        # Two elastic increments: one predictor solve each, on the same tangent.
        reused, n_factored = self._elastic_solve()
        assert n_factored == 1
        assert len(solve_log) == 2
        monkeypatch.setattr(solver, "_same_bits", lambda a, b: False)
        refactored, n_refactored = self._elastic_solve()
        assert n_refactored == 2
        assert _curve_bytes(reused) == _curve_bytes(refactored)

    @pytest.mark.parametrize("edit", ["ulp", "negative_zero"])
    def test_tangent_differing_in_one_element_factored_again(self, solve_log, edit):
        # Every radial return changes one tangent entry's bytes but not the
        # stress: the second increment's predictor sees a tangent that
        # differs in that one element from the first increment's, which is
        # the elastic tangent that solve computes itself.  No point yields,
        # so radial return gives that read-only tangent back: edit a copy.
        def edited(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            tang = tang.copy()
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
        # The first increment starts from the elastic tangent, which radial
        # return does not give, so it converges and commits the NaN tangent
        # that the second increment fails on.
        def nan_tangent(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            tang = tang.copy()
            tang[0, 0, 3] = np.nan
            return stress, tang, eps_p, alpha

        with pytest.raises(NumericalError, match="Newton failed to converge at increment 2"), \
                lapack_calls() as names:
            g = uniform_grid((1, 1, 2), RHO)
            with mock.patch.object(solver, "radial_return_batch", nan_tangent):
                solve(g, elastic_material(), stance_bc(g.dims), SolveControl(increment=0.01))
        assert len(solve_log) > 1
        assert names.count("dpbtrf") == len(solve_log)


    @pytest.mark.parametrize("case", ["elastic", "plastic_phantom"])
    def test_reuse_gives_the_bytes_of_no_reuse(self, monkeypatch, case):
        # Kept element matrices and factor against recomputing both for
        # every tangent, and against factoring a copy of each assembled
        # band, which leaves the assembled band as it was.
        def curves():
            if case == "elastic":
                return [self._elastic_solve()[0]]
            grid, m, c = _shell_core_phantom(), MaterialModel(), SolveControl()
            return list(compute_fe_parameters(grid, m, c, "ultimate")[1].values())

        same_bits, hits = solver._same_bits, []
        monkeypatch.setattr(solver, "_same_bits",
                            lambda a, b: hits.append(same_bits(a, b)) or hits[-1])
        reused = curves()
        assert any(hits)
        monkeypatch.setattr(solver, "_same_bits", lambda a, b: False)
        fresh = curves()
        monkeypatch.setattr(solver, "_same_bits", same_bits)
        monkeypatch.setattr(solver, "factor_band",
                            lambda fresh_band: factor_band(lambda: fresh_band().copy()))
        copied = curves()
        assert [_curve_bytes(c) for c in reused] == [_curve_bytes(c) for c in fresh] \
            == [_curve_bytes(c) for c in copied]

    def test_cholesky_factors_the_record_band_in_place(self, monkeypatch):
        # One band-sized array per kept tangent: dpbtrf gets a band that
        # the record's assembler returned, not a copy of it, and dpbtrs
        # back-substitutes on that same array.
        bands, factored, solved = [], [], []

        def assembler(*args):
            assemble = _band_assembler(*args)
            return lambda chunks: bands.append(assemble(chunks)) or bands[-1]

        def before(name, args):
            if name == "dpbtrf":
                factored.append(args[3])
            elif name == "dpbtrs":
                solved.append(args[4])

        monkeypatch.setattr(solver, "_band_assembler", assembler)
        g = uniform_grid((2, 2, 4), RHO)
        with lapack_calls(before=before):
            solve(g, elastic_material(), stance_bc(g.dims),
                  SolveControl(increment=0.01, max_increments=2))
        assert factored
        assert all(any(np.shares_memory(cb, band) for band in bands) for cb in factored)
        assert solved and all(any(cb is band for band in factored) for cb in solved)

    def test_failed_cholesky_rebuilds_the_record_band(self, monkeypatch):
        # On the softening column of test_softening_tangent_takes_lu, a
        # failed dpbtrf leaves the assembled band half factored: the factor
        # spsolve gets then holds the band assembled again from the same
        # tangent's element matrices, built and streamed chunk by chunk
        # again, bit for bit, and no Cholesky factor, and band LU reads
        # that band.
        assembled, fallbacks = [], []

        def assembler(*args):
            assemble = _band_assembler(*args)

            def recording(chunks):
                band = assemble(chunks)
                assembled.append((band, band.copy()))
                return band
            return recording

        def checked(kb, cholesky, b):
            lu_inputs = []

            def before(name, args):
                if name == "dgbsv":
                    bw = args[1]
                    lu_inputs.append(args[4][:, bw:2 * bw + 1].copy())

            with lapack_calls(before=before):
                x = spsolve(kb, cholesky, b)
            if lu_inputs:
                (_, first), (again, _) = assembled[-2:]
                fallbacks.append(
                    kb is again and same_bits(again, first)
                    and not cholesky
                    and np.array_equal(lu_inputs[0], kb))
            return x

        monkeypatch.setattr(solver, "_band_assembler", assembler)
        monkeypatch.setattr(solver, "spsolve", checked)
        g = uniform_grid((2, 2, 8), RHO)
        c = SolveControl(increment=0.05, max_increments=60, stop_fraction=0.6)
        solve(g, MaterialModel(), stance_bc(g.dims), c)
        assert fallbacks and all(fallbacks)

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 3)])
    def test_band_index_built_once_per_boundary_condition(self, dims):
        # The three fall cases keep the dims and share one boundary
        # condition: one band index for stance, one for the fall cases.
        # Each run starts from its own record, so two runs build 4.
        control = SolveControl(increment=0.01, max_increments=2)
        with mock.patch.object(solver, "_band_assembler",
                               wraps=solver._band_assembler) as build:
            for _ in range(2):
                compute_fe_parameters(uniform_grid(dims, RHO), elastic_material(), control,
                                      "ultimate")
        assert build.call_count == 4

    def test_shared_record_holds_only_the_band_index(self):
        # Elastic solves of one uniform grid under fall_bc share a record:
        # after the first, a solve builds no band index, at another spacing
        # too, but factors its own tangent, and each curve has the bytes of
        # a solve with a fresh record.  Another free set (stance_bc) builds
        # the index again.  The record holds its key and the index alone.
        control = SolveControl(increment=0.01, max_increments=2)

        def run(grid, kept=None, bc=fall_bc):
            with lapack_calls() as names, \
                    mock.patch.object(solver, "_band_assembler",
                                      wraps=solver._band_assembler) as build:
                curve = solve(grid, elastic_material(), bc(grid.dims), control, kept)
            return _curve_bytes(curve), names.count("dpbtrf"), build.call_count

        grid = uniform_grid((2, 2, 3), RHO)
        kept = {}
        assert run(grid, kept)[1:] == (1, 1)
        for g in (grid, uniform_grid((2, 2, 3), RHO, spacing=2.0)):
            shared, n_factored, n_built = run(g, kept)
            assert (n_factored, n_built) == (1, 0)
            assert shared == run(g)[0]
        assert sorted(kept) == ["assemble", "key"]
        assert run(grid, kept, stance_bc)[1:] == (1, 1)


class TestDrivenElementPredictor:
    """The predictor's force from the element matrices of the elements that
    hold a driven dof has the bytes of the whole-mesh force on the free
    dofs, and a non-finite tangent elsewhere gives the whole-mesh outcome."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
           bc=st.sampled_from([stance_bc, fall_bc]),
           zeros=st.sampled_from([0.0, 0.3, 1.0]), negative=st.booleans())
    def test_driven_elements_give_the_whole_mesh_bytes(self, seed, dims, bc, zeros, negative):
        # A share zeros of the entries is -0.0, and of the driven dofs'
        # displacements too; with negative, every other element's entries
        # are negative, so each of its products with +0.0 is -0.0.
        rng = np.random.default_rng(seed)
        nx, ny, nz = dims
        ne, n_dofs = nx * ny * nz, 3 * (nx + 1) * (ny + 1) * (nz + 1)
        cond = bc(dims)
        dof_map = _element_dof_map(dims)
        b_mats, wdet = _hex_b_matrices(2.0)
        ke = element_stiffness(_tangents(rng, 8 * ne, "softening"), b_mats, wdet)
        ke[rng.random(ke.shape) < zeros] = -0.0
        driven_el = solver._driven_elements(dof_map, cond.driven_dofs, n_dofs)
        np.testing.assert_array_equal(driven_el, np.arange(ne - nx * ny, ne))
        if negative:
            others = np.ones(ne, dtype=bool)
            others[driven_el] = False
            ke[others] = -np.abs(ke[others])
        delta_p = np.zeros(n_dofs)
        delta_p[cond.driven_dofs] = np.where(rng.random(cond.driven_dofs.size) < zeros, -0.0,
                                             rng.normal(scale=1e-2, size=cond.driven_dofs.size))
        free = _free_dofs(cond, n_dofs)
        whole = solver._predictor_force(ke, dof_map, delta_p)
        driven = solver._predictor_force(ke[driven_el], dof_map[driven_el], delta_p)
        assert same_bits(driven[free], whole[free])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("returns", [1, None])
    @pytest.mark.parametrize("material", ["elastic", "plastic"])
    def test_non_finite_tangent_off_the_driven_face(self, monkeypatch, value, returns, material):
        # One Gauss-point tangent entry of element 0, in the bottom layer,
        # turns non-finite at the first radial return of the solve, or at
        # every one: the curve, or the NumericalError, is the one the
        # predictor over every element gives.
        calls = []

        def poisoned(*args):
            stress, tang, eps_p, alpha = radial_return_batch(*args)
            calls.append(None)
            if returns is None or len(calls) <= returns:
                tang = tang.copy()
                tang[0, 0, 0] = value
            return stress, tang, eps_p, alpha

        def outcome():
            calls.clear()
            g = uniform_grid((2, 2, 4), RHO)
            m = elastic_material() if material == "elastic" else MaterialModel()
            try:
                with np.errstate(all="ignore"):
                    curve = solve(g, m, stance_bc(g.dims),
                                  SolveControl(increment=0.05, max_increments=4))
            except NumericalError as error:
                return str(error)
            return _curve_bytes(curve)

        monkeypatch.setattr(solver, "radial_return_batch", poisoned)
        driven = outcome()
        monkeypatch.setattr(solver, "_driven_elements",
                            lambda dof_map, driven, n_dofs: np.arange(len(dof_map)))
        assert outcome() == driven


class TestMemoryBudget:
    @pytest.mark.parametrize("bc", [stance_bc, fall_bc])
    def test_elastic_solve_holds_no_whole_mesh_element_matrices(self, bc):
        # Two elastic increments on 8x8x20 voxels: at its peak a solve
        # holds its band, the int32 scatter index, at most two Gauss-point
        # tangent stacks, and within 6 MiB one chunk's B products and
        # element matrices (3.4 MiB at 256 elements) and the per-point
        # arrays.  tracemalloc counts NumPy's buffers, whatever the
        # allocator does.
        dims = (8, 8, 20)
        ne, n_dofs = 8 * 8 * 20, 3 * 9 * 9 * 21
        free = _free_dofs(bc(dims), n_dofs)
        kb = _band_assembler(_element_dof_map(dims), free, n_dofs)([np.zeros((ne, 24, 24))])
        budget = kb.nbytes + 576 * 8 + ne * 576 * 4 + 2 * ne * 8 * 36 * 8 + 6 * 2**20
        del kb
        grid = uniform_grid(dims, RHO)
        tracemalloc.start()
        try:
            solve(grid, elastic_material(), bc(dims), SolveControl(increment=0.01, max_increments=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget


class TestPrescribedDofs:
    """solve takes a boundary condition only when every prescribed dof is a
    dof of the lattice, prescribed once."""

    GRID = uniform_grid((1, 1, 2), RHO)          # 3 * 12 = 36 dofs
    CONTROL = SolveControl(increment=0.01, max_increments=1)

    def run(self, extra_fixed):
        bc = stance_bc(self.GRID.dims)
        return solve(self.GRID, elastic_material(),
                     solver.BoundaryCondition(np.append(bc.fixed_dofs, extra_fixed),
                                              bc.driven_dofs), self.CONTROL)

    @pytest.mark.parametrize("dof", [-1, 36])
    def test_dof_outside_the_lattice_raises(self, dof):
        # Dof -1 would wrap to the last dof (a driven one), and dof 36 would
        # index past the displacement vector.
        with pytest.raises(DataError,
                           match=f"^prescribed dof {dof} outside the 36 dofs of the lattice$"):
            self.run(dof)

    @pytest.mark.parametrize("which", ["driven", "fixed"])
    def test_dof_prescribed_twice_raises(self, which):
        bc = stance_bc(self.GRID.dims)
        dof = (bc.driven_dofs if which == "driven" else bc.fixed_dofs)[0]
        with pytest.raises(DataError, match="^overlapping fixed and driven dofs$"):
            self.run(dof)


def _openblas_threads():
    lib = solver._numpy_openblas
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("NumPy ships no OpenBLAS with thread calls")
    get = lib.scipy_openblas_get_num_threads64_
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
        # No library: neither NumPy's OpenBLAS nor a SciPy to find SciPy's.
        threads = _openblas_threads()
        previous = threads()
        monkeypatch.setattr(solver, "_numpy_openblas", lib)
        monkeypatch.setattr(solver.importlib.util, "find_spec", lambda name: None)
        with solver.one_blas_thread():
            assert threads() == previous
        assert threads() == previous

    def test_fallback_pins_scipy_openblas(self, monkeypatch):
        # On the cython_lapack fallback the band solves run in SciPy's
        # bundled OpenBLAS: the load cases run with that library on one
        # thread, and its count is restored after them.
        found = sorted(Path(scipy.__file__).parents[1].glob("scipy.libs/libscipy_openblas-*.so"))
        if not found:
            pytest.skip("SciPy bundles no OpenBLAS")
        lib = ctypes.CDLL(str(found[0]))
        get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        seen, previous = [], get()

        def solve_recording(*args):
            seen.append(get())
            return solve(*args)

        monkeypatch.setattr(solver, "_numpy_openblas", None)
        monkeypatch.setattr(loadcases, "solve", solve_recording)
        set_(2)                         # a count the pin must change and restore
        try:
            compute_fe_parameters(uniform_grid((2, 2, 3), RHO), elastic_material(),
                                  SolveControl(increment=0.01, max_increments=2), "ultimate")
            assert seen == [1] * len(LOAD_CASES)
            assert get() == 2
        finally:
            set_(previous)
