import numpy as np
import pytest

from femrisk.datamodel import FE12, LOAD_CASE_PARAMS
from femrisk.errors import DataError
from femrisk.femodel import (LOAD_CASES, MaterialModel, SolveControl, ash_density,
                             load_grid, material_from_file, material_to_file,
                             rotate_grid, save_grid, uniform_grid)
from femrisk.femodel.curves import (YIELD_CLUSTER_SIZE, ForceDisplacementCurve,
                                    NoYieldDetected, detect_yield_load,
                                    energy_to_failure, ultimate_load)
from femrisk.femodel.grid import VoxelGrid


class TestAshDensity:
    def test_anchor_values(self):
        assert ash_density(0.0) == pytest.approx(0.0633, abs=1e-12)
        assert ash_density(1.0) == pytest.approx(0.9503, abs=1e-12)

    def test_linear(self):
        assert ash_density(0.5) == pytest.approx(
            (ash_density(0.0) + ash_density(1.0)) / 2, abs=1e-12)


class TestMaterialModel:
    def test_power_laws(self):
        m = MaterialModel()
        rho_ash = 0.4
        assert m.modulus(rho_ash) == pytest.approx(14900 * 0.4 ** 1.86)
        assert m.yield_stress(rho_ash) == pytest.approx(102 * 0.4 ** 1.8)

    def test_modulus_floor(self):
        m = MaterialModel()
        assert m.modulus(0.0) == m.E_min

    def test_file_round_trip(self, tmp_path):
        m = MaterialModel(c_E=12000.0, nu=0.25)
        c = SolveControl(increment=0.05)
        p = tmp_path / "mat.json"
        material_to_file(m, c, p)
        m2, c2 = material_from_file(p)
        assert m2 == m and c2 == c

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            material_from_file("/nonexistent/mat.json")


class TestGridIo:
    def test_round_trip(self, tmp_path, rng):
        g = VoxelGrid(rng.uniform(0.05, 0.6, size=(3, 4, 5)), spacing=2.5)
        p = tmp_path / "g.txt"
        save_grid(g, p)
        back = load_grid(p)
        np.testing.assert_array_equal(back.rho_cha, g.rho_cha)
        assert back.spacing == g.spacing

    def test_missing_file(self):
        with pytest.raises(DataError, match="grid file not found"):
            load_grid("/nonexistent/g.txt")

    def test_wrong_count(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 2 2 3.0\n0.1 0.2 0.3\n")
        with pytest.raises(DataError, match="expected 8"):
            load_grid(p)

    def test_negative_density_rejected(self):
        with pytest.raises(DataError):
            VoxelGrid(np.full((2, 2, 2), -0.1), 3.0)


class TestRotation:
    def test_zero_is_identity(self, rng):
        g = VoxelGrid(rng.uniform(0, 1, size=(4, 4, 3)), 3.0)
        np.testing.assert_array_equal(rotate_grid(g, 0.0).rho_cha, g.rho_cha)

    def test_quarter_turns_compose(self, rng):
        g = VoxelGrid(rng.uniform(0, 1, size=(5, 5, 2)), 3.0)
        twice = rotate_grid(rotate_grid(g, 90.0), 90.0)
        once = rotate_grid(g, 180.0)
        np.testing.assert_array_equal(twice.rho_cha, once.rho_cha)

    def test_quarter_turn_permutes_square_slice(self, rng):
        g = VoxelGrid(rng.uniform(0, 1, size=(5, 5, 1)), 3.0)
        r = rotate_grid(g, 90.0)
        # A 90-degree z-rotation of a square slice is an exact permutation.
        assert sorted(r.rho_cha.ravel()) == pytest.approx(
            sorted(g.rho_cha.ravel()))

    def test_mass_conserved_under_quarter_turn(self, rng):
        g = VoxelGrid(rng.uniform(0, 1, size=(6, 6, 4)), 3.0)
        r = rotate_grid(g, 90.0)
        assert r.rho_cha.sum() == pytest.approx(g.rho_cha.sum())

    @pytest.mark.parametrize("n, kept", [(4, 0.75), (8, 0.8125), (16, 0.84375)])
    def test_oblique_turn_clips_corners(self, n, kept):
        # The rotated section keeps the source dims, so at 45 degrees the
        # corners of a square section fall outside it and their mass is lost
        # (a model limitation the README states).
        g = uniform_grid((n, n, 2), 0.3)
        assert rotate_grid(g, 45.0).rho_cha.sum() / g.rho_cha.sum() == pytest.approx(kept)


def test_load_cases_follow_the_parameter_table():
    # The solver's cases and the cohort's parameter triplets are two tables
    # of the same four cases; fe writes its parameters through both.
    assert list(LOAD_CASES) == list(LOAD_CASE_PARAMS)
    assert [p for case in LOAD_CASES for p in LOAD_CASE_PARAMS[case]] == list(FE12)


def curve(forces, clusters=None, disp=None):
    n = len(forces)
    forces = np.asarray(forces, dtype=float)
    disp = np.asarray(disp if disp is not None else np.arange(n) * 0.1)
    clusters = np.asarray(clusters if clusters is not None else [0] * n)
    return ForceDisplacementCurve(
        displacement=disp, force=forces, cluster_sizes=clusters)


class TestCurves:
    def test_yield_fires_at_threshold(self):
        c = curve([0, 100, 200, 300], clusters=[0, 3, YIELD_CLUSTER_SIZE, 40])
        assert detect_yield_load(c) == 200.0

    def test_yield_not_fired_below_threshold(self):
        c = curve([0, 100, 200, 300],
                  clusters=[0, 3, YIELD_CLUSTER_SIZE - 1, YIELD_CLUSTER_SIZE - 1])
        with pytest.raises(NoYieldDetected):
            detect_yield_load(c)

    def test_ultimate_is_peak_earliest_on_ties(self):
        assert ultimate_load(curve([0, 100, 250, 180])) == 250.0
        assert ultimate_load(curve([0, 100, 250, 260])) == 260.0
        # A tied peak ends the energy at its first sample: 0.1*(0 + 100)/2
        # + 0.1*(100 + 250)/2, not one more 0.1*250.
        assert energy_to_failure(curve([0, 100, 250, 250, 180])) == pytest.approx(22.5)

    def test_energy_is_area_to_peak(self):
        c = curve([0, 100, 200, 150])
        # trapezoid of the rising ramp only: 0.1*(50 + 150) = 20
        assert energy_to_failure(c) == pytest.approx(20.0)

    def test_monotone_displacement_required(self):
        with pytest.raises(DataError):
            curve([0, 10, 20], disp=[0.0, 0.2, 0.1])

    def test_must_start_at_origin(self):
        with pytest.raises(DataError):
            ForceDisplacementCurve(displacement=np.array([0.1, 0.2]),
                                   force=np.array([5.0, 10.0]),
                                   cluster_sizes=np.zeros(2, int))
