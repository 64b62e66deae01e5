import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlim.cantor_map import CantorHomeomorphism
from homlim.geometry import ParameterSchedule, cell_center, descend_set

A = ParameterSchedule(n=3, beta=4.0, kind="A")
B = ParameterSchedule(n=3, beta=4.0, kind="B")


def make(stage):
    return CantorHomeomorphism(A, B, stage)


class TestForwardInverse:
    def test_inner_cube_boundary(self):
        g = make(1)
        assert np.allclose(g.forward((0.765625, 0.5, 0.5)), (0.53125, 0.5, 0.5))

    def test_frame_point(self):
        # frame offset 0.3, profile slope (0.5 - 1/32)/(0.5 - 17/64) = 2
        g = make(1)
        assert np.allclose(g.forward((0.8, 0.5, 0.5)), (0.6, 0.5, 0.5))

    def test_inverse_frame_example(self):
        g = make(1)
        assert np.allclose(g.inverse((0.9, 0.9, 0.9)), (0.95, 0.95, 0.95))

    def test_exact_roundtrip_point(self):
        g = make(1)
        x = np.array([0.3, -0.7, 0.1])
        assert np.max(np.abs(g.inverse(g.forward(x)) - x)) < 1e-14

    @given(st.lists(st.floats(-0.999, 0.999), min_size=3, max_size=3),
           st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, coords, stage):
        g = make(stage)
        x = np.asarray(coords)
        assert np.max(np.abs(g.inverse(g.forward(x)) - x)) < 1e-10
        assert np.max(np.abs(g.forward(g.inverse(x)) - x)) < 1e-10

    def test_boundary_identity_exact(self):
        g = make(3)
        rng = np.random.default_rng(0)
        for axis in range(3):
            for side in (-1.0, 1.0):
                pts = rng.uniform(-1, 1, (50, 3))
                pts[:, axis] = side
                for x in pts:
                    assert np.array_equal(g.forward(x), x)

    def test_batch_matches_pointwise(self):
        g = make(3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (64, 3))
        batch = g.forward_many(pts)
        for x, y in zip(pts, batch):
            assert np.array_equal(g.forward(x), y)

    def test_stage_agreement_outside_deep_cells(self):
        # g_k and g_{k+1} agree off the level-k inner cubes
        g2, g3 = make(2), make(3)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (300, 3))
        level = descend_set(pts, A.radii(2)[0], 2)[0]
        for x in pts[level > 0]:
            assert np.allclose(g2.forward(x), g3.forward(x), atol=1e-15)


class TestDerivative:
    def test_core_scaling(self):
        g = make(2)
        x = cell_center(A, ((1, 1, 1), (-1, 1, -1)))
        d = g.derivative(x)
        assert np.allclose(d, (B.r(2) / A.r(2)) * np.eye(3))

    def test_matches_finite_differences(self):
        g = make(3)
        rng = np.random.default_rng(3)
        h = 1e-7
        checked = 0
        for x in rng.uniform(-0.98, 0.98, (60, 3)):
            da = g.derivative(x)
            df = np.empty((3, 3))
            for d_ in range(3):
                e = np.zeros(3)
                e[d_] = h
                df[:, d_] = (g.forward(x + e) - g.forward(x - e)) / (2 * h)
            if np.max(np.abs(da - df)) / max(1.0, np.abs(da).max()) < 1e-5:
                checked += 1
        assert checked >= 50  # a few samples may straddle interfaces

    def test_orientation_positive(self):
        g = make(4)
        rng = np.random.default_rng(4)
        for x in rng.uniform(-1, 1, (400, 3)):
            assert np.linalg.det(g.derivative(x)) > 0

    def test_bound_examples(self):
        g = make(2)
        assert g.derivative_bound(1) == pytest.approx(2.0)
        assert CantorHomeomorphism(B, A, 2).derivative_bound(1) == pytest.approx(8.5)

    def test_core_ratio_is_bound(self):
        g = make(3)
        assert g.derivative_bound(3) >= B.r(3) / A.r(3)

    def test_sampled_norm_within_envelope(self):
        # the sampled sup of |Dg| on each frame is within a factor 2n of
        # the closed-form bound, uniformly over stages k <= 8
        rng = np.random.default_rng(5)
        for stage in range(1, 9):
            g = make(stage)
            for level in range(1, stage + 1):
                bound = g.derivative_bound(level)
                z = np.zeros(3)
                for j in range(level):
                    z = z + 0.5 * A.r(j) * np.ones(3)
                r_in, r_out = A.r(level), A.r_outer(level)
                norms = []
                for frac in np.linspace(0.02, 0.98, 15):
                    ti = r_in + frac * (r_out - r_in)
                    u = rng.uniform(-0.9, 0.9, 3)
                    u[0] = 1.0  # max coordinate unique
                    x = z + ti * u
                    norms.append(np.linalg.norm(g.derivative(x), 2))
                assert max(norms) <= 2 * 3 * bound
                assert max(norms) >= bound / (2 * 3)
