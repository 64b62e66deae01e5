import numpy as np
import pytest

from homlim.analysis import (
    QuadratureConfig,
    _tube_integral,
    boundary_identity_check,
    cauchy_table,
    fd_jacobian,
    jacobian_survey,
    make_rng,
)
from homlim.composite import build_stage
from homlim.geometry import tower_slots
from homlim.tentacles import SqueezeStage, solve_parameters, tentacle_seminorm_bound


class _Identity:
    def forward(self, x):
        return np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.eye(len(x))


class TestSeminorm:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(resolution=3)

    def test_straight_squeeze_matches_semianalytic_bound(self):
        # the tube grid of the Cauchy tables, run on |Dh_1|^2 over one
        # level-1 tube, agrees with the exact-axial reduction (the level-1
        # shift is the identity, so h_1 is the straight squeeze there)
        sched = solve_parameters(3, 4.0, "demo", "squeeze", 1)
        stage = SqueezeStage(sched, 1)

        def energy(x):
            return float(np.linalg.norm(stage.derivative(x), "fro") ** 2)

        word, cfg = [tower_slots(3)[0]], QuadratureConfig()
        coarse = _tube_integral(sched, 1, word, energy, cfg)
        fine = _tube_integral(sched, 1, word, energy, cfg, res_mult=2)
        assert fine == pytest.approx(tentacle_seminorm_bound(sched, 1), rel=0.01)
        assert abs(fine - coarse) / fine < 0.05


class TestFdJacobian:
    def test_linear_map(self):
        a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [1.0, 0.0, -1.0]])
        x = np.array([0.3, -0.2, 0.5])
        assert np.allclose(fd_jacobian(lambda p: a @ p, x, 1e-6), a, atol=1e-8)

    def test_matches_the_loop_reference(self):
        # one column per pair of calls, as fd_jacobian computed it before it
        # became a one-row batch of the survey stencil
        def reference(f, x, h):
            jac = np.empty((3, 3))
            for d in range(3):
                e = np.zeros(3)
                e[d] = h
                jac[:, d] = (f(x + e) - f(x - e)) / (2 * h)
            return jac

        stage = build_stage("T1", 2)
        for x in make_rng(4).uniform(-0.9, 0.9, (20, 3)):
            assert np.array_equal(fd_jacobian(stage.forward, x, 1e-7),
                                  reference(stage.forward, x, 1e-7))


class TestJacobianSurvey:
    def test_identity(self):
        rep = jacobian_survey(_Identity(), 200, QuadratureConfig(seed=1), step=1e-6)
        assert rep.fraction_positive == 1.0
        assert rep.min_det == pytest.approx(1.0)

    def test_orientation_reversing(self):
        class Refl:
            def forward(self, x):
                y = np.asarray(x, dtype=float).copy()
                y[0] = -y[0]
                return y

        rep = jacobian_survey(Refl(), 100, QuadratureConfig(seed=2), step=1e-6)
        assert rep.fraction_positive == 0.0

    def test_t1_stage(self):
        rep = jacobian_survey(build_stage("T1", 2), 400, QuadratureConfig(seed=3))
        assert rep.fraction_positive >= 0.999
        assert not rep.hard_failures


class TestBoundary:
    def test_t1_exact(self):
        passed, dev = boundary_identity_check(build_stage("T1", 2), 3, 60)
        assert passed and dev == 0.0

    def test_translation_fails(self):
        class Shift:
            def forward(self, x):
                return np.asarray(x, dtype=float) + 0.1

        passed, dev = boundary_identity_check(Shift(), 3, 30)
        assert not passed
        assert dev == pytest.approx(0.1)


class TestCauchyTable:
    def test_rows_positive_and_fitted_envelope(self):
        cfg = QuadratureConfig(resolution=4, axial_resolution=10,
                               transverse_resolution=2, transverse_levels=4,
                               cells_cap=4, seed=0)
        table = cauchy_table("T1", 2, 3, cfg)
        assert [r.k for r in table.rows] == [2, 3]
        assert all(r.integral > 0 for r in table.rows)
        assert all(r.passed for r in table.rows)
        assert table.fitted_c > 0

    def test_deterministic_under_seed(self):
        cfg = QuadratureConfig(resolution=4, axial_resolution=8,
                               transverse_resolution=2, transverse_levels=3,
                               cells_cap=2, seed=9)
        t1 = cauchy_table("T1", 2, 3, cfg)
        t2 = cauchy_table("T1", 2, 3, cfg)
        assert [r.integral for r in t1.rows] == [r.integral for r in t2.rows]


class TestDeterminism:
    def test_philox_streams_replay(self):
        a = make_rng(123).random(8)
        b = make_rng(123).random(8)
        assert np.array_equal(a, b)
