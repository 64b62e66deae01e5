import math

import numpy as np
import pytest

import reference_maps as ref
from homlim import _kernels
from homlim.degree import _octamesh


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


def test_circle_winds_once():
    rng = np.random.default_rng(2)
    th = np.sort(rng.uniform(0, 2 * np.pi, 64))
    loop = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert _kernels.winding_sum(loop.T, np.array([0.1, 0.2])) == pytest.approx(1.0, abs=1e-9)
