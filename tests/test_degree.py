import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homlim
from homlim.composite import build_stage
from homlim.degree import (
    IndeterminateDegreeError,
    SphereProbe,
    degree,
    degree_stability,
    disjointness_probe,
    inv_check,
    nesting_probe,
    octasphere,
    signed_preimage_count,
)

UNIT = SphereProbe((0.0, 0.0, 0.0), 1.0, 2)
BOX3 = ((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2))


def identity(x):
    return np.asarray(x, dtype=float)


def antipodal(x):
    return -np.asarray(x, dtype=float)


def doubling(x):
    return 2.0 * np.asarray(x, dtype=float)


def reflection(x):
    x = np.asarray(x, dtype=float)
    return np.array([x[0] + 0.05, x[1], -x[2]])


def planar_square(x):
    return np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]])


class TestMesh:
    def test_octasphere_counts(self):
        verts, faces = octasphere(2)
        assert len(faces) == 8 * 4**2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)

    def test_outward_orientation(self):
        verts, faces = octasphere(1)
        for a, b, c in faces:
            assert np.linalg.det(np.stack([verts[a], verts[b], verts[c]])) > 0


class TestFixtures:
    def test_identity_center(self):
        assert degree(identity, UNIT, (0, 0, 0)).degree == 1

    def test_identity_outside(self):
        assert degree(identity, UNIT, (2, 0, 0)).degree == 0

    @pytest.mark.parametrize(
        "fixture,y",
        [
            (identity, (0.0, 0.0, 0.0)),
            (antipodal, (0.0, 0.0, 0.0)),
            (doubling, (0.1, 0.0, 0.0)),
            (reflection, (0.05, 0.0, 0.0)),
        ],
    )
    def test_solid_angle_equals_preimage_oracle(self, fixture, y):
        got = degree(fixture, UNIT, y).degree
        oracle = signed_preimage_count(fixture, y, BOX3, grid=7)
        assert got == oracle

    def test_planar_winding_degree_two(self):
        probe = SphereProbe((0.0, 0.0), 0.8, 2)
        got = degree(planar_square, probe, (0.1, 0.05)).degree
        oracle = signed_preimage_count(planar_square, (0.1, 0.05), ((-1, -1), (1, 1)), grid=15)
        assert got == oracle == 2

    def test_refinement_stability(self):
        rep = degree(identity, UNIT, (0.3, 0.1, -0.2))
        raws = [raw for _, raw, _ in rep.history[-2:]]
        assert abs(raws[-1] - raws[-2]) < 0.05

    def test_indeterminate_when_target_on_mesh(self):
        with pytest.raises(IndeterminateDegreeError):
            degree(identity, UNIT, (1.0, 0.0, 0.0), max_refine=3)


class TestStages:
    # a probe ball that provably avoids every tentacle tube and every
    # relocation corridor, so the stage maps reduce to the tame
    # nested-cube factor there (and never change with the stage)
    CENTER = (0.55, 0.09, 0.25)

    def test_probe_ball_is_stage_independent(self):
        (h, _), (L, _), _ = build_stage("T1", 3).chain
        rng = np.random.default_rng(0)
        pts = np.asarray(self.CENTER) + 0.05 * rng.uniform(-1, 1, (100, 3))
        for p in pts:
            assert np.array_equal(h.forward(p), p)
            assert np.array_equal(L.inverse(p), p)

    def test_stage_degree_one_and_stable(self):
        stages = [build_stage("T1", k) for k in (1, 2, 3, 4)]
        probe = SphereProbe(self.CENTER, 0.05, 3)
        y = stages[0].forward(np.asarray(self.CENTER))
        assert degree_stability(stages, probe, y) == [1, 1, 1, 1]

    def test_wild_sphere_still_certifies(self):
        # the image of this sphere has corridor folds; the two-tier
        # certificate must still converge to the homeomorphism degree
        st = build_stage("T1", 2)
        x = np.array([0.514, 0.532, 0.548])
        rep = degree(st, SphereProbe((0.55, 0.55, 0.55), 0.1, 3), st.forward(x),
                     max_refine=8)
        assert rep.degree == 1

    def test_inv_check_identity(self):
        class Id:
            forward = staticmethod(identity)

        rep = inv_check(Id(), (0.0, 0.0, 0.0), 0.5, 8, 8)
        assert rep.passed

    def test_inv_check_rejects_a_ball_with_no_room_outside(self):
        # exterior samples lie 1.1 to 2.1 radii out; past the far corner
        # none fits in the cube.  Run apart with a timeout, so that a
        # sampler looping for ever fails instead of hanging the suite.
        code = (
            "import numpy as np, pytest\n"
            "from homlim.degree import inv_check\n"
            "ident = lambda x: np.asarray(x, float)\n"
            "with pytest.raises(ValueError):\n"
            "    inv_check(ident, (0, 0, 0), 2.0, 2, 2)\n"
            "with pytest.raises(ValueError):\n"
            "    inv_check(ident, (0.5, 0, 0), 1.9, 2, 2)\n"
            "assert inv_check(ident, (0, 0, 0), 1.0, 2, 2).passed\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(homlim.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)

    def test_inv_check_stage(self):
        rep = inv_check(build_stage("T1", 2), self.CENTER, 0.05, 6, 6, refinement=3)
        assert rep.passed

    def test_nesting_no_violations(self):
        st = build_stage("T1", 2)
        rng = np.random.default_rng(2)
        ys = st.forward_many(
            np.array([np.asarray(self.CENTER) + 0.04 * rng.uniform(-1, 1, 3)
                      for _ in range(20)])
        )
        assert nesting_probe(st, self.CENTER, 0.1, 0.3, ys) == 0

    def test_disjoint_no_violations(self):
        st = build_stage("T1", 2)
        rng = np.random.default_rng(3)
        ys = st.forward_many(
            np.array([np.asarray(self.CENTER) + 0.04 * rng.uniform(-1, 1, 3)
                      for _ in range(12)])
        )
        assert disjointness_probe(st, self.CENTER, 0.1,
                                  (-0.55, -0.09, -0.25), 0.1, ys) == 0
