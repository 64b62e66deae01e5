import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import homlim
import reference_maps as ref
from homlim import degree as degree_mod
from homlim.analysis import forward_rows
from homlim.composite import build_stage
from homlim.degree import (
    DegreeReport,
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

    @pytest.mark.parametrize("level", range(7))
    def test_octasphere_equals_the_loop_subdivision(self, level):
        verts, faces = octasphere(level)
        want_verts, want_faces = ref.octasphere(level)
        assert np.array_equal(verts, want_verts)
        assert np.array_equal(faces, want_faces)


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
        # the raw value is a crossing count, certified when it repeats
        rep = degree(identity, UNIT, (0.3, 0.1, -0.2))
        raws = [raw for _, raw, _ in rep.history[-2:]]
        assert raws[-1] == raws[-2] == rep.raw == 1.0

    def test_indeterminate_when_target_on_mesh(self):
        with pytest.raises(IndeterminateDegreeError):
            degree(identity, UNIT, (1.0, 0.0, 0.0), max_refine=3)

    @pytest.mark.parametrize("y", [(np.inf, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, -np.inf)])
    def test_non_finite_target_is_rejected(self, y):
        with pytest.raises(ValueError, match="finite"):
            degree(identity, UNIT, y)

    @pytest.mark.parametrize("probe,y", [
        (UNIT, (1e308, 1e308, 1e308)),
        (UNIT, (1e154, 1e154, 1e154)),
        (SphereProbe((0.0, 0.0), 0.8, 2), (1e308, -1e308)),
        # projects into the projected image: far along the first ray
        (UNIT, 1e300 * np.array((1.0, *degree_mod.RAY_SLOPES[3][0]))),
        (SphereProbe((0.0, 0.0), 0.8, 2), 1e300 * np.array((1.0, *degree_mod.RAY_SLOPES[2][0]))),
    ], ids=["sphere-1e308", "sphere-1e154", "circle-1e308", "sphere-on-ray", "circle-on-ray"])
    def test_overflowing_target_has_degree_zero(self, probe, y):
        # the squared offsets overflow; y projects outside the projected
        # image, where the ray crosses no facet, and no overflow warning
        # escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = degree(identity, probe, y)
        assert rep.degree == 0 and rep.raw == 0.0

    @pytest.mark.parametrize("y", [(1e100, 1e100, 1e100), (1e200, 0.0, 0.0)])
    def test_far_target_has_degree_zero(self, y):
        with np.errstate(over="ignore"):
            assert degree(identity, UNIT, y).degree == 0


def report_hex(rep: DegreeReport):
    return (rep.degree, rep.raw.hex(), rep.distance.hex(), rep.refinements,
            [(level, raw.hex(), dist.hex()) for level, raw, dist in rep.history])


class _FromScratch(degree_mod._ImageCache):
    """Oracle cache: maps every level whole, and builds the geometry of
    each level with ``np.linalg.norm`` over the corner rows."""

    def images(self, level):
        if level not in self._images:
            c = np.asarray(self.probe.center, dtype=float)
            verts = octasphere(level)[0]
            self._images[level] = np.array(self.map_rows(c + self.probe.radius * verts)).T
        return self._images[level]

    def mesh(self, level):
        rows = self.images(level).T
        corners = rows[octasphere(level)[1]]
        cents = corners.sum(axis=1) / 3
        sides = np.linalg.norm(corners - np.roll(corners, -1, axis=1), axis=2)
        return cents, sides.max(axis=1)

    def locally_resolved(self, y, level, dist):
        cents, diams = self.mesh(level)
        hazard = np.linalg.norm(cents - y, axis=1) - 0.7 * diams < 2.0 * dist
        return not hazard.any() or float(diams[hazard].max()) < 0.5 * dist


class TestImageCache:
    """A probe maps each sphere-mesh vertex once: a level is a prefix of
    the next, so it is sliced from a finer level or extended from a
    coarser one, and the images are those of a fresh batch."""

    CENTER = (0.55, 0.09, 0.25)
    RADIUS = 0.05

    @pytest.mark.parametrize("level", range(7))
    def test_octasphere_level_is_a_prefix_of_the_next(self, level):
        verts = octasphere(level)[0]
        assert np.array_equal(verts, octasphere(level + 1)[0][:len(verts)])

    @pytest.mark.parametrize("variant", ["T1", "T2", "W"])
    @pytest.mark.parametrize("order", [(4, 3), (3, 5), (5, 4)])
    def test_images_equal_a_fresh_batch(self, variant, order):
        stage = build_stage(variant, 3)
        probe = SphereProbe((0.5, 0.5, 0.5), 0.3, 3)
        cache = degree_mod._ImageCache(stage.forward_many, probe)
        for level in order:
            got = cache.images(level)
            want = stage.forward_many(np.asarray(probe.center) + probe.radius * octasphere(level)[0])
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want.T).tobytes()

    def counted_degree(self, y, refinement=3, max_refine=degree_mod.MAX_REFINE):
        stage = build_stage("T1", 2)
        calls = []

        def map_rows(points):
            calls.append(len(points))
            return stage.forward_many(points)

        cache = degree_mod._ImageCache(map_rows, SphereProbe(self.CENTER, self.RADIUS, refinement))
        try:
            rep = degree_mod._cached_degree(cache, y, max_refine)
        except IndeterminateDegreeError:
            rep = None
        return rep, calls

    def target(self, t):
        # the image of a point t radii from the center along x_1
        x = np.asarray(self.CENTER) + self.RADIUS * t * np.array([1.0, 0.0, 0.0])
        return build_stage("T1", 2).forward(x)

    def test_level_four_certification_maps_one_batch(self):
        rep, calls = self.counted_degree(self.target(0.0))
        assert rep.refinements == 4
        assert calls == [len(octasphere(4)[0])] == [1026]

    def test_level_five_certification_maps_each_vertex_once(self):
        rep, calls = self.counted_degree(self.target(0.9))
        assert rep.refinements == 5
        assert len(calls) == 2 and sum(calls) == len(octasphere(5)[0]) == 4098

    def test_no_level_to_read_maps_nothing(self):
        rep, calls = self.counted_degree(self.target(0.0), refinement=5, max_refine=4)
        assert rep is None and calls == []

    def test_degree_matches_the_from_scratch_oracle(self):
        stage = build_stage("T1", 2)
        for t in (0.0, 0.5, 0.9, 1.05, 2.0):
            y = self.target(t)
            got = degree(stage, SphereProbe(self.CENTER, self.RADIUS, 3), y)
            cache = _FromScratch(forward_rows(stage), SphereProbe(self.CENTER, self.RADIUS, 3))
            assert report_hex(got) == report_hex(degree_mod._cached_degree(cache, y))

    def test_multi_target_probes_match_the_from_scratch_oracle(self, monkeypatch):
        stage = build_stage("T1", 3)
        rng = np.random.default_rng(4)
        ys = stage.forward_many(np.asarray(self.CENTER) + 0.04 * rng.uniform(-1, 1, (12, 3)))
        runs = []
        for cache in (degree_mod._ImageCache, _FromScratch):
            reports = []
            cached = degree_mod._cached_degree

            def recorded(c, y, max_refine=degree_mod.MAX_REFINE):
                rep = cached(c, y, max_refine)
                reports.append(report_hex(rep))
                return rep

            with monkeypatch.context() as m:
                m.setattr(degree_mod, "_ImageCache", cache)
                m.setattr(degree_mod, "_cached_degree", recorded)
                inv = inv_check(stage, self.CENTER, self.RADIUS, 10, 10, seed=5)
                bad = nesting_probe(stage, self.CENTER, self.RADIUS, 1.6 * self.RADIUS, ys)
            runs.append((inv, bad, reports))
        assert runs[0] == runs[1]
        assert runs[0][0].passed and runs[0][1] == 0 and len(runs[0][2]) > 20


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
        assert rep.passed and (rep.decided, rep.skipped) == (12, 0)

    def test_constant_map_does_not_pass_inv_check(self):
        # every image is the sphere image's one point, so every target is
        # skipped; a probe that decides nothing does not pass
        rep = inv_check(lambda x: np.zeros(3), self.CENTER, 0.05, 12, 12)
        assert rep == degree_mod.InvReport(12, 0, 12, 0, 0, 24)
        assert not rep.passed

    def test_probes_that_skip_their_targets_do_not_pass(self):
        # targets on the small sphere's image have no certified degree
        st = build_stage("T1", 2)
        ys = st.forward_many(np.asarray(self.CENTER) + 0.1 * octasphere(3)[0][:20])
        nest = nesting_probe(st, self.CENTER, 0.1, 0.3, ys)
        disj = disjointness_probe(st, self.CENTER, 0.1, (-0.55, -0.09, -0.25), 0.1, ys)
        for rep in (nest, disj):
            assert rep == 0 and (rep.decided, rep.skipped) == (0, 20) and not rep.passed

    def test_nesting_no_violations(self):
        st = build_stage("T1", 2)
        rng = np.random.default_rng(2)
        ys = st.forward_many(
            np.array([np.asarray(self.CENTER) + 0.04 * rng.uniform(-1, 1, 3)
                      for _ in range(20)])
        )
        rep = nesting_probe(st, self.CENTER, 0.1, 0.3, ys)
        assert rep == 0 and rep.passed and (rep.decided, rep.skipped) == (20, 0)

    def test_disjoint_no_violations(self):
        st = build_stage("T1", 2)
        rng = np.random.default_rng(3)
        ys = st.forward_many(
            np.array([np.asarray(self.CENTER) + 0.04 * rng.uniform(-1, 1, 3)
                      for _ in range(12)])
        )
        rep = disjointness_probe(st, self.CENTER, 0.1, (-0.55, -0.09, -0.25), 0.1, ys)
        assert rep == 0 and rep.passed and (rep.decided, rep.skipped) == (12, 0)
