import json
import math
import os
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homlim
import reference_maps as ref
from homlim import _kernels, cli
from homlim import degree as degree_mod
from homlim.analysis import forward_rows
from homlim.composite import build_stage
from homlim.degree import (
    DegreeReport,
    IndeterminateDegreeError,
    SphereProbe,
    UnsupportedDimensionError,
    _octamesh,
    degree,
    disjointness_probe,
    inv_check,
    nesting_probe,
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
        verts, faces, _, _ = _octamesh(2)
        assert len(faces) == 8 * 4**2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)

    def test_outward_orientation(self):
        # the subdivision keeps the octahedron's orientation, with no flip
        for level in range(6):
            verts, faces, _, _ = _octamesh(level)
            assert (np.linalg.det(verts[faces]) > 0).all()

    @pytest.mark.parametrize("level", range(7))
    def test_octasphere_equals_the_loop_subdivision(self, level):
        verts, faces, _, _ = _octamesh(level)
        want_verts, want_faces = ref.octasphere(level)
        assert np.array_equal(verts, want_verts)
        assert np.array_equal(faces, want_faces)

    def test_circle_points_lie_at_their_angles(self):
        # in angular order, which the segments run in, the points of a level
        # of M points are exactly those at the angles 2 pi k / M
        for level in range(8):
            verts, segments, _, _ = degree_mod.MESHES[2](level)
            th = 2 * np.pi * np.arange(len(verts)) / len(verts)
            assert np.array_equal(verts[segments[:, 0]], np.stack([np.cos(th), np.sin(th)], axis=1))
            assert np.array_equal(segments[:, 1], np.roll(segments[:, 0], -1))

    def test_n4_is_rejected_through_the_mesh_table(self, tmp_path, capsys):
        with pytest.raises(UnsupportedDimensionError, match=r"n in \[2, 3\]"):
            SphereProbe((0.1,) * 4, 0.1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "beta": 5.0, "variant": "FL", "max_stage": 1}))
        assert cli.run("degree", str(cfg), str(tmp_path)) == cli.EXIT_CONFIG
        assert "degree probes support n in [2, 3]" in capsys.readouterr().err


    @pytest.mark.parametrize("refinement", [-1, 2.5, 8, True, "3", None])
    def test_refinement_outside_the_mesh_levels_is_rejected(self, refinement):
        # -1 and 2.5 used to recurse without end in _octamesh, and 8 gave
        # an indeterminate degree without reading a level
        with pytest.raises(ValueError, match="refinement"):
            SphereProbe((0.0, 0.0, 0.0), 0.5, refinement)
        with pytest.raises(ValueError, match="refinement"):
            inv_check(identity, (0.0, 0.0, 0.0), 0.5, refinement=refinement)

    @pytest.mark.parametrize("refinement", [0, np.int64(3)])
    def test_integer_refinements_are_accepted(self, refinement):
        probe = SphereProbe((0.0, 0.0, 0.0), 0.5, refinement)
        assert degree(identity, probe, (0.1, 0.0, 0.0)).degree == 1

    @pytest.mark.parametrize("center", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_center_is_rejected(self, center):
        # a NaN center used to map mesh levels 3 to 7 of NaN images before
        # the degree came out indeterminate
        with pytest.raises(ValueError, match="center"):
            SphereProbe(center, 0.1)
        with pytest.raises(ValueError, match="center"):
            inv_check(identity, center, 0.1)


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
        # the raw value is a crossing count, certified when it repeats; a
        # target 1e-4 inside the sphere lies within reach of the gaps of
        # levels 2 and 3, so the streak rule certifies it
        rep = degree(identity, UNIT, (0.9999, 0.0, 0.0))
        raws = [raw for _, raw, _ in rep.history]
        assert raws == [1.0, 1.0, 1.0] == [rep.degree] * 3
        assert (rep.rule, rep.gap, rep.tail, rep.margin) == ("streak", None, None, None)

    def test_tame_target_certifies_by_its_gap_at_the_first_level(self):
        rep = degree(identity, UNIT, (0.3, 0.1, -0.2))
        assert (rep.degree, rep.refinements, rep.rule) == (1, 2, "gap")
        assert rep.history == [(2, 1.0, rep.distance)]
        # the margin is a lower bound on the distance to the image surface
        # over the tail; the surface lies within the sphere
        assert 0 < rep.gap < rep.tail < rep.margin * rep.tail <= rep.distance

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
        assert rep.degree == 0 and rep.history[-1][1] == 0.0

    @pytest.mark.parametrize("y", [(1e100, 1e100, 1e100), (1e200, 0.0, 0.0)])
    def test_far_target_has_degree_zero(self, y):
        with np.errstate(over="ignore"):
            assert degree(identity, UNIT, y).degree == 0


def report_hex(rep: DegreeReport):
    return (rep.degree, rep.distance.hex(), rep.refinements,
            [(level, raw.hex(), dist.hex()) for level, raw, dist in rep.history],
            rep.rule, [None if v is None else v.hex() for v in (rep.gap, rep.tail, rep.margin)])


class _FromScratch(degree_mod._ImageCache):
    """Oracle cache: maps every level whole."""

    def images(self, level):
        if level not in self._images:
            c = np.asarray(self.probe.center, dtype=float)
            verts = self.mesh(level)[0]
            self._images[level] = np.array(self.map_rows(c + self.probe.radius * verts)).T
        return self._images[level]


def oracle_hex(cache, y, max_refine=degree_mod.MAX_REFINE):
    """``report_hex`` of the pointwise oracle's report, or its error."""
    try:
        return report_hex(ref.certify(cache, y, max_refine))
    except IndeterminateDegreeError as err:
        return str(err)


def mesh_levels(count):
    """``(n, level)`` over the sphere's and the circle's first ``count``
    levels, the sphere's with the level as their id."""
    return ([pytest.param(3, level, id=str(level)) for level in range(count)]
            + [pytest.param(2, level, id=f"circle-{level}") for level in range(count)])


class TestImageCache:
    """A probe maps each sphere-mesh vertex once: a level is a prefix of
    the next, so it is sliced from a finer level or extended from a
    coarser one, and the images are those of a fresh batch."""

    CENTER = (0.55, 0.09, 0.25)
    RADIUS = 0.05

    @pytest.mark.parametrize("n,level", mesh_levels(7))
    def test_octasphere_level_is_a_prefix_of_the_next(self, n, level):
        verts = degree_mod.MESHES[n](level)[0]
        assert np.array_equal(verts, degree_mod.MESHES[n](level + 1)[0][:len(verts)])

    @pytest.mark.parametrize("variant", ["T1", "T2", "W", "FL"])
    @pytest.mark.parametrize("order", [(4, 3), (3, 5), (5, 4)])
    def test_images_equal_a_fresh_batch(self, variant, order):
        # FL on the plane, the others in space
        stage = build_stage(variant, 3, 2, 3.5) if variant == "FL" else build_stage(variant, 3)
        probe = SphereProbe((0.5, 0.5, 0.5)[:stage.n], 0.3, 3)
        cache = degree_mod._ImageCache(stage.forward_many, probe)
        for level in order:
            verts = cache.mesh(level)[0]
            want = stage.forward_many(np.asarray(probe.center) + probe.radius * verts)
            got = cache.images(level)
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
        # the image of the center certifies at level 3 by its gap, which
        # reads level 4: the one batch that the first two levels map
        rep, calls = self.counted_degree(self.target(0.0))
        assert (rep.refinements, rep.rule) == (3, "gap")
        assert calls == [len(_octamesh(4)[0])] == [1026]

    def test_level_five_certification_maps_each_vertex_once(self):
        # a target near the sphere image, within reach of the gaps of
        # levels 3 and 4, certifies by the streak rule at level 5; the gap
        # of level 4 reads level 5, which the streak maps in any case
        rep, calls = self.counted_degree(self.target(0.997))
        assert (rep.refinements, rep.rule) == (5, "streak")
        assert len(calls) == 2 and sum(calls) == len(_octamesh(5)[0]) == 4098

    def test_circle_certification_maps_one_batch(self):
        # a circle level is a prefix of the next too: the level-2 gap
        # certificate reads level 3, whose 512 points hold level 2's 256
        calls = []

        def map_rows(points):
            calls.append(len(points))
            return square_rows(points)

        cache = degree_mod._ImageCache(map_rows, DISK)
        rep = degree_mod._cached_degree(cache, np.array([0.1, 0.05]))
        assert (rep.degree, rep.refinements, rep.rule) == (2, 2, "gap")
        assert calls == [512]

    def test_no_level_to_read_maps_nothing(self):
        rep, calls = self.counted_degree(self.target(0.0), refinement=5, max_refine=4)
        assert rep is None and calls == []

    def test_degree_matches_the_from_scratch_oracle(self):
        stage = build_stage("T1", 2)
        cases = [(stage, SphereProbe(self.CENTER, self.RADIUS, 3), self.target(t))
                 for t in (0.0, 0.5, 0.9, 1.05, 2.0)]
        # on the plane: the disk under z^2, and an FL stage
        cases += [(_Rows(square_rows), DISK, np.array(y))
                  for y in ((0.1, 0.05), (0.6, 0.1), (0.64, 0.0), (2.0, 0.3))]
        fl = build_stage("FL", 2, 2, 3.5)
        c, r = np.array(FL_PROBE.center), FL_PROBE.radius
        cases += [(fl, FL_PROBE, fl.forward(c + r * np.array(t)))
                  for t in ((0.0, 0.0), (0.5, -0.3), (0.9, 0.3), (1.5, 0.0))]
        for map_like, probe, y in cases:
            try:
                got = report_hex(degree(map_like, probe, y))
            except IndeterminateDegreeError as err:
                got = str(err)
            assert got == oracle_hex(_FromScratch(forward_rows(map_like), probe), y)

    def test_multi_target_probes_match_the_from_scratch_oracle(self, monkeypatch):
        # the probes certify their targets in batches; every report of a
        # batch equals the pointwise oracle's on a cache that maps each
        # level whole
        stage = build_stage("T1", 3)
        rng = np.random.default_rng(4)
        ys = stage.forward_many(np.asarray(self.CENTER) + 0.04 * rng.uniform(-1, 1, (12, 3)))
        batches = []
        certify = degree_mod._certify

        def recorded(cache, targets, max_refine=degree_mod.MAX_REFINE):
            reports = certify(cache, targets, max_refine)
            batches.append((cache.probe, targets.copy(), reports))
            return reports

        monkeypatch.setattr(degree_mod, "_certify", recorded)
        inv = inv_check(stage, self.CENTER, self.RADIUS, 10, 10, seed=5)
        bad = nesting_probe(stage, self.CENTER, self.RADIUS, 1.6 * self.RADIUS, ys)
        # on the plane, an FL stage
        fl = build_stage("FL", 2, 2, 3.5)
        c, r = np.array(FL_PROBE.center), FL_PROBE.radius
        fl_ys = fl.forward_many(c + 0.8 * r * rng.uniform(-1, 1, (12, 2)))
        fl_inv = inv_check(fl, FL_PROBE.center, r, 10, 10, seed=5)
        fl_bad = nesting_probe(fl, FL_PROBE.center, r, 1.6 * r, fl_ys)
        got, want = [], []
        for probe, targets, reports in batches:
            oracle = _FromScratch(forward_rows(stage if len(probe.center) == 3 else fl), probe)
            got += [report_hex(rep) if isinstance(rep, DegreeReport) else str(rep)
                    for rep in reports]
            want += [oracle_hex(oracle, y) for y in targets]
        assert got == want
        assert inv.passed and bad == 0 and fl_inv.passed and fl_bad == 0 and len(got) > 40


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
        assert [degree(s, probe, y).degree for s in stages] == [1, 1, 1, 1]

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
        ys = st.forward_many(np.asarray(self.CENTER) + 0.1 * _octamesh(3)[0][:20])
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


def octahedral_rows(rows):
    """The sphere onto the octahedron |x|_1 = 1, row by row."""
    return rows / np.abs(rows).sum(axis=1, keepdims=True)


def flat_rows(rows):
    """The sphere onto the disk x_3 = 0: every facet's plane holds a target
    with x_3 = 0 exactly."""
    return rows * np.array([1.0, 1.0, 0.0])


def square_rows(rows):
    """z -> z^2 on the plane, row by row."""
    x, y = rows.T
    return np.stack([x * x - y * y, 2 * x * y], axis=1)


def graze_target(map_rows, probe):
    """A target whose ray along the first direction passes through the
    first mesh vertex's image at every level: its first coordinate is 0,
    so it projects to exactly that vertex's projection."""
    cache = degree_mod._ImageCache(map_rows, probe)
    images = cache.images(probe.refinement)
    proj = images[1:, 0] - np.array(degree_mod.RAY_SLOPES[len(images)][0]) * images[0, 0]
    return np.array([0.0, *proj])


UNIT0 = SphereProbe((0.0, 0.0, 0.0), 1.0, 3)
DISK = SphereProbe((0.0, 0.0), 0.8, 2)
FL_PROBE = SphereProbe((0.3, 0.2), 0.1, 1)
# per fixture: (rows map, probe, max_refine, targets that reach the
# branches of a certification)
BATCH_FIXTURES = {
    "octahedral": (octahedral_rows, UNIT0, 5, [
        graze_target(octahedral_rows, UNIT0),                   # retried along d_2
        *(v + 1e-11 for v in np.eye(3)[[0, 1, 2]]),             # near a vertex
        -np.eye(3)[0] + 1e-11,
        1e300 * np.array([1.0, *degree_mod.RAY_SLOPES[3][0]]),  # overflows: 0.0 outside
        0.99 * np.array([0.2, 0.3, 0.5]),                       # near the surface
    ]),
    "flat": (flat_rows, UNIT0, 5, [np.array([0.1, 0.2, 0.0])]),  # on facet planes
    "square": (square_rows, DISK, 5, [
        graze_target(square_rows, DISK),
        np.array([0.64, 0.0]) + 1e-11,                          # near a vertex
        np.array([0.1, 0.05]),                                  # degree 2
    ]),
}


def one_row(map_rows, probe, y, max_refine):
    """A one-target certification on a fresh cache, and the cache."""
    cache = degree_mod._ImageCache(map_rows, probe)
    try:
        return report_hex(degree_mod._cached_degree(cache, y, max_refine)), cache
    except IndeterminateDegreeError as err:
        return str(err), cache


class TestBatchCertification:
    """``_certify`` certifies a batch of targets one mesh level at a time;
    each target gets what a one-row call gives it."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(BATCH_FIXTURES)), st.data())
    def test_batch_equals_one_row_calls(self, name, data):
        map_rows, probe, max_refine, special = BATCH_FIXTURES[name]
        n = len(probe.center)
        seed = data.draw(st.integers(0, 2**32 - 1))
        count = data.draw(st.integers(16, 40))
        rng = np.random.default_rng(seed)
        scale = np.max(np.abs(map_rows(np.asarray(probe.center) + probe.radius * np.eye(n))))
        ys = np.vstack([1.3 * scale * rng.uniform(-1, 1, (count, n)), special])
        ys = ys[data.draw(st.permutations(range(len(ys))))]
        cache = degree_mod._ImageCache(map_rows, probe)
        got = [report_hex(rep) if isinstance(rep, DegreeReport) else str(rep)
               for rep in degree_mod._certify(cache, ys, max_refine)]
        for y, batch in zip(ys, got):
            want, single = one_row(map_rows, probe, y, max_refine)
            assert batch == want
            # a grid queried by one target scans and never builds its index
            assert all(grid is None or grid.start is None for grid in single._grids.values())
        # the batch queried each first-direction grid with every target
        # still open there, inside the projected box of the image
        assert any(grid is not None and grid.start is not None
                   for grid in cache._grids.values())

    def test_special_targets_reach_every_branch(self):
        reached = set()
        for name, (map_rows, probe, max_refine, special) in BATCH_FIXTURES.items():
            n = len(probe.center)
            at_five = 0
            for y in special:
                cache = degree_mod._ImageCache(map_rows, probe)
                levels = []
                raw = cache.raw

                def recorded(ys, level):
                    counts, dists = raw(ys, level)
                    levels.append((level, counts[0], dists[0]))
                    return counts, dists

                cache.raw = recorded
                try:
                    degree_mod._cached_degree(cache, y, max_refine)
                except IndeterminateDegreeError:
                    reached.add("indeterminate at max_refine")
                if any(direction == 1 for _, direction in cache._grids):
                    reached.add(f"retry n={n}")
                at_five += levels[-1][0] >= 5
                for level, count, dist in levels:
                    if dist < degree_mod.MIN_DISTANCE:
                        reached.add("near a vertex")
                    elif math.isnan(count):
                        reached.add("on a facet")
                    if level >= 5:
                        reached.add("level 5")
                    first, _ = _kernels.crossing_count(cache.grid(level, 0), y[None])
                    if count == 0.0 and math.isnan(first[0]):
                        reached.add("0.0 outside the bounding box")
            if name == "octahedral":
                # more targets reach level 5 than one distance block holds
                assert at_five > degree_mod.BLOCK // len(_octamesh(5)[0])
        assert reached == {"retry n=2", "retry n=3", "indeterminate at max_refine",
                           "near a vertex", "on a facet", "level 5",
                           "0.0 outside the bounding box"}


def smooth_rows(rows):
    """A smooth map near the identity: its sphere images are tame."""
    x, y, z = rows.T
    return np.stack([x + 0.2 * np.sin(2 * y), y + 0.1 * z * z, z - 0.3 * x * y], axis=1)


class _Rows:
    """A map given by its rows function, counting the points it maps."""

    def __init__(self, rows):
        self.rows, self.points = rows, 0

    def forward_many(self, pts):
        self.points += len(pts)
        return self.rows(pts)


E1 = np.array([1.0, 0.0, 0.0])


def fold_rows(rows):
    """The unit sphere's cap around e_1 pushed in along -e_1, past the
    center: a narrow fold that the coarse meshes do not resolve."""
    bump = np.exp(-((rows - E1) ** 2).sum(axis=1) / 0.15**2)
    return rows - 1.5 * bump[:, None] * E1


@lru_cache(maxsize=None)
def lemma_probe(name):
    """``(rows map, probe)`` of the gap lemma's fixtures."""
    if name == "sphere-smooth":
        return smooth_rows, SphereProbe((0.1, -0.2, 0.05), 0.7, 1)
    if name == "sphere-T1":
        # the wild sphere of ``TestStages``, whose gaps do not decay
        return build_stage("T1", 2).forward_many, SphereProbe((0.55, 0.55, 0.55), 0.1, 1)
    if name == "circle-smooth":
        return square_rows, DISK
    return build_stage("FL", 2, 2, 3.5).forward_many, FL_PROBE


class TestGapCertificate:
    """A target certifies at level l by the homotopy gap when a lower bound
    on its distance to the level's image surface P_l exceeds the tail of
    the gaps; a target that the gap does not clear goes on under the
    streak rule."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.sampled_from(["sphere-smooth", "sphere-T1", "circle-smooth", "circle-FL"]),
           st.integers(0, 4), st.integers(0, 2**31 - 1),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_consecutive_surfaces_lie_within_the_gap(self, name, level, pick, weights):
        # |P_{l+1}(p) - P_l(p)| <= delta_l at a parameter point p of a
        # level-l facet: P_l interpolates the facet's corners, P_{l+1} the
        # child of the facet that holds p, whose corners are the facet's
        # and its sides' midpoints, found here by position
        rows, probe = lemma_probe(name)
        cache = degree_mod._ImageCache(rows, probe)
        coarse, fine = cache.images(level), cache.images(level + 1)
        gap = degree_mod._midpoint_gap(fine, level)
        verts, facets, finer = cache.mesh(level)[0], cache.facets(level), cache.mesh(level + 1)[0]

        def midpoint(i, j):
            m = verts[i] + verts[j]
            return int(np.argmin(np.linalg.norm(finer - m / np.linalg.norm(m), axis=1)))

        if len(coarse) == 2:
            i, j = facets[pick % len(facets)]
            t = weights[0]
            here = (1 - t) * coarse[:, i] + t * coarse[:, j]
            a, mid, b = fine[:, i], fine[:, midpoint(i, j)], fine[:, j]
            there = (1 - 2 * t) * a + 2 * t * mid if t < 0.5 else (2 - 2 * t) * mid + (2 * t - 1) * b
        else:
            a, b, c = facets[pick % len(facets)]
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            lam = np.array(weights) + 1e-3
            la, lb, lc = lam / lam.sum()
            here = la * coarse[:, a] + lb * coarse[:, b] + lc * coarse[:, c]
            if la >= 0.5:
                corners, mu = (a, ab, ca), (2 * la - 1, 2 * lb, 2 * lc)
            elif lb >= 0.5:
                corners, mu = (ab, b, bc), (2 * la, 2 * lb - 1, 2 * lc)
            elif lc >= 0.5:
                corners, mu = (ca, bc, c), (2 * la, 2 * lb, 2 * lc - 1)
            else:
                corners, mu = (ab, bc, ca), (1 - 2 * lc, 1 - 2 * la, 1 - 2 * lb)
            there = sum(w * fine[:, v] for w, v in zip(mu, corners))
        assert np.linalg.norm(there - here) <= gap * (1 + 1e-9) + 1e-15

    @pytest.mark.parametrize("n,level", mesh_levels(6))
    def test_added_vertices_are_the_midpoints_of_the_edges(self, n, level):
        # the gap pairs each vertex that level + 1 adds with the ends of
        # the level edge it splits: the level's edges, in order
        verts, _, edges, _ = degree_mod.MESHES[n](level)
        added = degree_mod.MESHES[n](level + 1)[0][len(verts):]
        mid = verts[edges[:, 0]] + verts[edges[:, 1]]
        assert np.allclose(added, mid / np.linalg.norm(mid, axis=1)[:, None], rtol=0, atol=1e-15)

    def test_a_fold_within_the_gap_is_left_to_the_streak_rule(self):
        # the counts of this target run 0, 1, 0 over levels 2 to 4: the
        # coarse surfaces miss the fold; its gap exceeds the target's
        # distance, so no level certifies it by the gap
        y = np.array([0.7, 0.1, 0.1])
        probe = SphereProbe((0.0, 0.0, 0.0), 1.0, 2)
        rep = degree(_Rows(fold_rows), probe, y)
        assert [raw for _, raw, _ in rep.history[:3]] == [0.0, 1.0, 0.0]
        assert (rep.degree, rep.rule) == (0, "streak")
        cache = degree_mod._ImageCache(fold_rows, probe)
        for level, _, dist in rep.history[:-1]:
            _, tail = cache.gap(level)
            assert tail > dist and np.isnan(cache.gap_margins(y[None], level)).all()

    @pytest.mark.parametrize("case", ["tame", "wild", "fold", "circle", "inv_check", "nesting"])
    def test_no_probe_maps_more_than_the_streak_rule_alone(self, case, monkeypatch):
        # with the gap's margins cleared, certification is the streak rule
        # alone; the gap certificate maps no point that the streak rule
        # does not, and every degree it gives is the streak rule's
        def run():
            tame = SphereProbe(TestImageCache.CENTER, TestImageCache.RADIUS, 3)
            if case == "inv_check":
                rows = _Rows(build_stage("T1", 3).forward_many)
                rep = inv_check(rows, TestImageCache.CENTER, 0.05, 10, 10, seed=3)
                return rows.points, (rep.inside_violations, rep.outside_violations, rep.decided)
            if case == "nesting":
                stage = build_stage("T1", 3)
                rows = _Rows(stage.forward_many)
                ys = stage.forward_many(np.asarray(TestImageCache.CENTER)
                                        + 0.04 * np.random.default_rng(4).uniform(-1, 1, (12, 3)))
                rep = nesting_probe(rows, TestImageCache.CENTER, 0.05, 0.08, ys)
                return rows.points, (int(rep), rep.decided, rep.skipped)
            probes = {
                "tame": (build_stage("T1", 2).forward_many, tame,
                         [TestImageCache().target(t) for t in (0.0, 0.9, 0.997, 1.5)], 7),
                "wild": (build_stage("T1", 2).forward_many, SphereProbe((0.55, 0.55, 0.55), 0.1, 3),
                         [build_stage("T1", 2).forward(np.array([0.514, 0.532, 0.548]))], 8),
                "fold": (fold_rows, SphereProbe((0.0, 0.0, 0.0), 1.0, 2),
                         [np.array([0.7, 0.1, 0.1]), np.array([0.3, 0.0, 0.0])], 7),
                "circle": (square_rows, DISK, [np.array([0.1, 0.05]), np.array([0.6, 0.1])], 7),
            }
            map_rows, probe, ys, max_refine = probes[case]
            points, degrees = 0, []
            for y in ys:
                rows = _Rows(map_rows)
                degrees.append(degree(rows, probe, y, max_refine).degree)
                points += rows.points
            return points, degrees

        with_gap = run()
        monkeypatch.setattr(degree_mod._ImageCache, "gap_margins",
                            lambda self, ys, level: np.full(len(ys), np.nan))
        streak_only = run()
        assert with_gap[0] <= streak_only[0] and with_gap[1] == streak_only[1]

    def test_refinement_zero_has_no_gap(self, monkeypatch):
        read = []
        gap = degree_mod._ImageCache.gap

        def recorded(self, level):
            read.append(level)
            return gap(self, level)

        monkeypatch.setattr(degree_mod._ImageCache, "gap", recorded)
        rep = degree(identity, SphereProbe((0.0, 0.0, 0.0), 1.0, 0), (0.3, 0.1, -0.2))
        assert [level for level, _, _ in rep.history] == [0, 1]
        assert (rep.degree, rep.refinements, rep.rule) == (1, 1, "gap") and set(read) == {1}
        # with no level after it, level 0 is left to the streak rule alone
        read.clear()
        with pytest.raises(IndeterminateDegreeError):
            degree(identity, SphereProbe((0.0, 0.0, 0.0), 1.0, 0), (0.3, 0.1, -0.2), max_refine=0)
        assert read == []

    @pytest.mark.parametrize("probe", [UNIT, DISK], ids=["sphere", "circle"])
    def test_a_non_finite_image_has_a_nan_gap(self, probe):
        def rows(pts):
            out = pts.copy()
            out[pts[:, 0] > 0.9 * probe.radius] = np.inf
            return out

        cache = degree_mod._ImageCache(rows, probe)
        ys = np.zeros((2, len(probe.center)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap, tail = cache.gap(probe.refinement)
            margins = cache.gap_margins(ys, probe.refinement)
        assert math.isnan(gap) and math.isnan(tail) and np.isnan(margins).all()

    @pytest.mark.parametrize("probe", [UNIT, DISK], ids=["sphere", "circle"])
    def test_far_targets_clear_without_warnings(self, probe):
        n = len(probe.center)
        cache = degree_mod._ImageCache(doubling if n == 3 else square_rows, probe)
        # far out, overflowing, and on a vertex image
        vertex = cache.images(probe.refinement)[:, 0]
        ys = np.array([[1e308] * n, [-1e308] + [0.0] * (n - 1), [5.0] * n, vertex])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            margins = cache.gap_margins(ys, probe.refinement)
        _, tail = cache.gap(probe.refinement)
        # beyond the padded box of every facet, the bound is a box distance
        assert (margins[:3] * tail > 1.0).all() and np.isnan(margins[3])

    def test_refinement_seven_maps_level_seven_only(self):
        # the one level has no repeat and no gap; level 8 would map more
        # than 2^18 points
        rows = _Rows(lambda pts: pts)
        with pytest.raises(IndeterminateDegreeError):
            degree(rows, SphereProbe((0.0, 0.0, 0.0), 1.0, 7), (0.3, 0.1, -0.2))
        assert rows.points == len(_octamesh(7)[0]) <= 2**18 < 4 * 4**8 + 2
