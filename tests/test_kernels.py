import math

import numpy as np
import pytest

import reference_maps as ref
from homlim import _kernels
from homlim.degree import RAY_SLOPES, _octamesh


def solid_angle(level, images, y):
    _, faces, edges, face_edges = _octamesh(level)
    # the kernel reads the vertices component by component
    return _kernels.solid_angle_sum(faces, edges, face_edges, images.T, np.asarray(y, float))


def perturbed(verts, rng, amount=0.3):
    """A closed mesh star-shaped about the origin: each vertex moved
    radially by up to ``amount`` of its radius."""
    return verts * (1.0 + amount * rng.uniform(-1, 1, (len(verts), 1)))


def test_closed_surface_full_angle():
    # any closed outward surface subtends 4 pi from an interior point
    verts = _octamesh(2)[0]
    total, _ = solid_angle(2, verts, [0.1, 0.0, -0.2])
    assert total == pytest.approx(4 * math.pi, rel=1e-12)


@pytest.mark.parametrize("level", range(6))
def test_solid_angle_sum_equals_the_corner_sum(level):
    # the shared-vertex sum is the per-triangle sum, float for float,
    # and its distance is the least vertex norm
    rng = np.random.default_rng(level)
    verts, faces, _, _ = _octamesh(level)
    for trial in range(6):
        images = perturbed(verts, rng) @ (np.eye(3) + 0.2 * rng.normal(size=(3, 3)))
        images += 0.1 * rng.normal(size=3)
        tris = np.ascontiguousarray(images[faces])
        vertex = images[rng.integers(len(images))]
        targets = (
            0.2 * rng.normal(size=3),                      # inside
            3.0 * rng.normal(size=3) + 2.5,                # outside
            vertex + 1e-7 * rng.normal(size=3),            # near a vertex
            vertex,                                        # on a vertex
        )
        for y in targets:
            total, dist = solid_angle(level, images, y)
            assert total.hex() == ref.solid_angle_corners(tris, y).hex()
            assert dist.hex() == float(np.min(np.linalg.norm(images - y, axis=1))).hex()


class TestTopology:
    @pytest.mark.parametrize("level", range(6))
    def test_closed_oriented_surface(self, level):
        verts, faces, edges, face_edges = _octamesh(level)
        assert len(verts) - len(edges) + len(faces) == 2
        # every edge lies in exactly two faces, which run along it once
        # each way
        assert np.array_equal(np.bincount(face_edges.ravel()), np.full(len(edges), 2))
        sides = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2)
        ends = edges[face_edges]
        along = (sides == ends).all(axis=2)
        against = (sides == ends[..., ::-1]).all(axis=2)
        assert (along ^ against).all()
        assert np.array_equal(np.bincount(face_edges[along], minlength=len(edges)),
                              np.ones(len(edges)))

    @pytest.mark.parametrize("level", range(5))
    def test_perturbed_mesh_encloses_its_inside_only(self, level):
        rng = np.random.default_rng(10 + level)
        images = perturbed(_octamesh(level)[0], rng)
        inside, _ = solid_angle(level, images, 0.1 * rng.uniform(-1, 1, 3))
        outside, _ = solid_angle(level, images, [1.5, -0.4, 0.9])
        assert inside == pytest.approx(4 * math.pi, rel=1e-12)
        assert outside == pytest.approx(0.0, abs=1e-12)


def one_target(grid, y):
    """The grid's crossing count of one target, None when its direction is
    ambiguous."""
    (count,), (retry,) = _kernels.crossing_count(grid, np.asarray(y, float)[None])
    return None if retry else count


def crossings(images, facets, y, indexed=False):
    """The crossing count as a degree probe takes it: along the first ray
    direction that is not ambiguous, NaN when none is.  ``images`` is
    (V, n); ``indexed`` reads the bucket index instead of the one-query
    scan."""
    for slopes in RAY_SLOPES[images.shape[1]]:
        grid = _kernels.FacetGrid(np.ascontiguousarray(images.T), facets, slopes)
        if indexed:
            grid.build()
        count = one_target(grid, y)
        if count is not None:
            return count
    return math.nan


class TestCrossingCount:
    @pytest.mark.parametrize("level", range(6))
    def test_equals_the_rounded_solid_angle(self, level):
        # on the perturbed meshes, scanned and indexed alike
        rng = np.random.default_rng(level)
        verts, faces, _, _ = _octamesh(level)
        for trial in range(6):
            images = perturbed(verts, rng) @ (np.eye(3) + 0.2 * rng.normal(size=(3, 3)))
            images += 0.1 * rng.normal(size=3)
            tris = np.ascontiguousarray(images[faces])
            vertex = images[rng.integers(len(images))]
            targets = (
                0.2 * rng.normal(size=3),                  # inside
                3.0 * rng.normal(size=3) + 2.5,            # outside
                vertex + 1e-7 * rng.normal(size=3),        # near a vertex
            )
            for y in targets:
                want = ref.solid_angle_corners(tris, y) / (4 * math.pi)
                assert abs(want - round(want)) < 1e-6
                for indexed in (False, True):
                    assert crossings(images, faces, y, indexed) == round(want)

    @pytest.mark.parametrize("level", range(1, 6))
    def test_index_lists_every_facet_whose_box_holds_the_target(self, level):
        # a scan over all facets finds the facets whose projected boxes hold
        # the projected target; the bucket of the target lists each of them,
        # and the indexed count equals the one-query scan's, target by
        # target or all in one batch
        rng = np.random.default_rng(20 + level)
        verts, faces, _, _ = _octamesh(level)
        images = np.ascontiguousarray((perturbed(verts, rng, 0.5) + 0.3 * rng.normal(size=3)).T)
        grid = _kernels.FacetGrid(images, faces, RAY_SLOPES[3][0])
        grid.build()
        corners = grid.proj[:, faces]                      # (2, F, 3)
        lo, hi = corners.min(axis=2), corners.max(axis=2)
        targets = np.vstack([1.5 * rng.uniform(-1, 1, (40, 3)), images.T[:5]])
        counts = []
        for y in targets:
            p = y[1:] - np.array(RAY_SLOPES[3][0]) * y[0]
            holds = set(np.flatnonzero(((lo <= p[:, None]) & (p[:, None] <= hi)).all(axis=0)))
            assert holds <= set(grid.candidates(p[None])[1].tolist())
            fresh = _kernels.FacetGrid(images, faces, RAY_SLOPES[3][0])
            assert holds <= set(fresh.candidates(p[None])[1].tolist()) and fresh.start is None
            scan = one_target(_kernels.FacetGrid(images, faces, RAY_SLOPES[3][0]), y)
            counts.append((one_target(grid, y), scan))
        batch = _kernels.FacetGrid(images, faces, RAY_SLOPES[3][0])
        batch_counts, retry = _kernels.crossing_count(batch, targets)
        assert batch.start is not None
        counts += [(None if r else c, want)
                   for c, r, (_, want) in zip(batch_counts.tolist(), retry.tolist(), counts)]
        assert all(got == want or got is want is None or (math.isnan(got) and math.isnan(want))
                   for got, want in counts)
        assert {want for _, want in counts if want == want} >= {0.0, 1.0}

    @pytest.mark.parametrize("scale,shift", [(1.0, 0.0), (2.0, 0.0), (0.5, 0.25), (4.0, -1.5)])
    def test_target_on_a_vertex_edge_or_face_is_not_counted(self, scale, shift):
        # the octahedron with dyadic corners holds its vertices, edge
        # midpoints and the face point (1/4, 1/4, 1/2) exactly: y lies on
        # the surface, where no count is right
        verts, faces, edges, _ = _octamesh(0)
        images = scale * verts + shift
        on_faces = [scale * (np.array([-1.0, 1.0])[list(s)] * (0.25, 0.25, 0.5)) + shift
                    for s in np.ndindex(2, 2, 2)]
        targets = list(images) + [0.5 * (images[a] + images[b]) for a, b in edges] + on_faces
        for y in targets:
            for indexed in (False, True):
                assert math.isnan(crossings(images, faces, y, indexed)), y
        assert crossings(images, faces, np.full(3, shift)) == 1.0

    @pytest.mark.parametrize("level", range(1, 5))
    def test_target_on_a_perturbed_vertex_is_not_counted(self, level):
        rng = np.random.default_rng(40 + level)
        verts, faces, _, _ = _octamesh(level)
        images = perturbed(verts, rng)
        for y in images[rng.choice(len(images), 10, replace=False)]:
            assert math.isnan(crossings(images, faces, y))


def test_circle_winds_once():
    rng = np.random.default_rng(2)
    th = np.sort(rng.uniform(0, 2 * np.pi, 64))
    loop = np.stack([np.cos(th), np.sin(th)], axis=1)
    segments = np.stack([np.arange(64), np.roll(np.arange(64), -1)], axis=1)
    y = np.array([0.1, 0.2])
    assert ref.winding_sum(loop.T, y) == pytest.approx(1.0, abs=1e-9)
    assert crossings(loop, segments, y) == crossings(loop, segments, y, indexed=True) == 1.0


class TestLoopCrossings:
    @staticmethod
    def loop(rng, m=64, turns=1):
        th = np.sort(rng.uniform(0, 2 * np.pi * turns, m))
        r = 1.0 + 0.3 * rng.uniform(-1, 1, m)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    @staticmethod
    def segments(m):
        ends = np.arange(m)
        return np.stack([ends, np.roll(ends, -1)], axis=1)

    @pytest.mark.parametrize("turns,reverse", [(1, False), (1, True), (2, False)])
    def test_equals_the_rounded_winding_number(self, turns, reverse):
        rng = np.random.default_rng(turns + 2 * reverse)
        loop = self.loop(rng, 64 * turns, turns)
        if reverse:
            loop = loop[::-1].copy()
        segments = self.segments(len(loop))
        targets = np.vstack([0.3 * rng.uniform(-1, 1, (20, 2)), 3.0 * rng.normal(size=(10, 2)),
                             loop[:5] + 1e-7 * rng.normal(size=(5, 2))])
        for y in targets:
            want = ref.winding_sum(loop.T, y)
            assert abs(want - round(want)) < 1e-9
            for indexed in (False, True):
                assert crossings(loop, segments, y, indexed) == round(want)
        assert round(ref.winding_sum(loop.T, np.array([0.1, 0.2]))) == (-1 if reverse else turns)

    def test_target_on_the_loop_is_not_counted(self):
        # a square with dyadic corners: its corners and side midpoints lie
        # on the loop exactly
        square = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        segments = self.segments(4)
        on_loop = list(square) + [0.5 * (square[i] + square[(i + 1) % 4]) for i in range(4)]
        for y in on_loop:
            for indexed in (False, True):
                assert math.isnan(crossings(square, segments, y, indexed)), y
        assert crossings(square, segments, [0.5, 0.25]) == 1.0
        assert crossings(square, segments, [1.5, 0.0]) == 0.0


class TestFacetDistances:
    """``facet_distances`` is exact up to rounding: no farther than the
    nearest of a dense set of points of the facet, and no nearer than that
    less the set's spacing; and a pointwise loop gives the same floats."""

    SAMPLES = 48

    def sampled(self, corners, y):
        """The least distance from y to the points of a barycentric grid of
        spacing 1 / SAMPLES on the facet, and that spacing in length."""
        m = self.SAMPLES
        if len(corners) == 2:
            t = np.linspace(0, 1, m + 1)[:, None]
            pts = (1 - t) * corners[0] + t * corners[1]
        else:
            i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
            keep = i + j <= m
            u, v = i[keep][:, None] / m, j[keep][:, None] / m
            pts = (1 - u - v) * corners[0] + u * corners[1] + v * corners[2]
        diam = max(np.linalg.norm(p - q) for p in corners for q in corners)
        return float(np.min(np.linalg.norm(pts - y, axis=1))), diam / m

    @pytest.mark.parametrize("n", [2, 3])
    def test_distance_is_within_the_sampled_distance(self, n):
        rng = np.random.default_rng(n)
        corners = rng.uniform(-1, 1, (200, n, n))
        # slivers and points on the facet's plane and sides too
        corners[:20, 2 % n] = corners[:20, 0] + 1e-3 * (corners[:20, 1] - corners[:20, 0])
        ys = rng.uniform(-1.5, 1.5, (200, n))
        ys[20:40] = corners[20:40].mean(axis=1)
        ys[40:60] = 0.5 * (corners[40:60, 0] + corners[40:60, 1])
        got = _kernels.facet_distances(corners.transpose(2, 1, 0), ys.T)
        for d, facet, y in zip(got.tolist(), corners, ys):
            want, spacing = self.sampled(facet, y)
            assert want - spacing - 1e-12 <= d <= want + 1e-12
            assert d.hex() == ref.facet_distance(facet.tolist(), y.tolist()).hex()

    def test_degenerate_facets(self):
        # a triangle with two equal corners, a segment of zero length
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0]])
        seg = np.array([[0.5, 0.5], [0.5, 0.5]])
        with np.errstate(all="raise"):
            d3 = _kernels.facet_distances(tri.T[:, :, None], np.array([[0.5], [1.0], [0.0]]))
            d2 = _kernels.facet_distances(seg.T[:, :, None], np.array([[0.5], [1.5]]))
        assert d3.tolist() == [1.0] and d2.tolist() == [1.0]
