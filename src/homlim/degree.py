"""Topological degree on sphere probes, and degree-based invertibility checks.

For n = 3 the degree of f over S(a, r) around y is the sum of signed
solid angles of the image triangles of a subdivided-octahedron mesh,
divided by 4 pi; for n = 2 it is the winding number of the image loop.
The raw sum is snapped to an integer only when it is both close to one
and stable under one mesh refinement.  A brute-force signed-preimage
count over a grid with Newton polishing serves as the independent oracle
on smooth fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .analysis import fd_jacobian, forward_rows
from .errors import IndeterminateDegreeError, UnsupportedDimensionError

__all__ = [
    "SphereProbe",
    "DegreeReport",
    "octasphere",
    "degree",
    "signed_preimage_count",
    "InvReport",
    "inv_check",
    "degree_stability",
    "nesting_probe",
    "disjointness_probe",
]


@dataclass(frozen=True)
class SphereProbe:
    """A sphere S(center, radius) with a mesh refinement level."""

    center: tuple[float, ...]
    radius: float
    refinement: int = 3

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if len(self.center) not in (2, 3):
            raise UnsupportedDimensionError("degree probes support n in {2, 3}")


@dataclass
class DegreeReport:
    degree: int
    raw: float
    distance: float
    refinements: int
    history: list = field(default_factory=list)


def octasphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit sphere mesh: octahedron subdivided ``level`` times, radially
    projected; triangles oriented outward."""
    return _octamesh(level)[:2]


@lru_cache(maxsize=None)
def _octamesh(level: int):
    """``octasphere(level)`` with its topology: ``(verts, faces, edges,
    face_edges)``, as ``_edge_table`` numbers the edges.  The index arrays
    are column-major, so the solid-angle kernel gathers by contiguous
    columns."""
    verts = np.array([
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ], dtype=float)
    faces = np.array([
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ], dtype=np.int64)
    for _ in range(level):
        # each edge gets its midpoint, numbered by first use, and each
        # face (a, b, c) four children
        edges, face_edges = _edge_table(faces)
        mid = verts[edges[:, 0]] + verts[edges[:, 1]]
        mid /= np.sqrt(np.vecdot(mid, mid))[:, None]
        ab, bc, ca = (len(verts) + face_edges).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                         axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, mid])
    # enforce outward orientation
    a, b, c = (verts[corner] for corner in faces.T)
    inward = np.vecdot(a, np.cross(b, c)) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    edges, face_edges = _edge_table(faces)
    return verts, np.asfortranarray(faces), np.asfortranarray(edges), np.asfortranarray(face_edges)


def _edge_table(faces):
    """``(edges, face_edges)`` of a triangle list: its undirected edges,
    numbered by first use as the faces are read in order, each side (a, b),
    (b, c), (c, a) of a face in turn and kept in that direction; and per
    face, the numbers of those three sides."""
    sides = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
    key = sides.min(axis=1) * (int(faces.max()) + 1) + sides.max(axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return sides[first[order]], number[inverse].reshape(-1, 3)


def _circle(center, radius, level):
    m = 64 * 2**level
    th = 2 * np.pi * np.arange(m) / m
    return np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
    )


class _ImageCache:
    """Per-probe cache of the image vertices of each mesh level, and of
    the centroid and diameter of each image element, all held component
    by component: (n, V) arrays, one contiguous row per coordinate.

    ``map_rows`` evaluates the map on an (N, n) array of points (see
    ``analysis.forward_rows``), and a row's image does not depend on the
    other rows of its batch: ``forward_rows`` calls a plain callable row
    by row, and ``tests/test_batch.py::TestRowIndependence`` checks it
    for the stage maps.  On the sphere (n = 3) an octasphere level's
    vertices are the first vertices of the next level, so ``images``
    slices a level out of a finer one already mapped, or maps only the
    vertices it adds to the finest coarser one: a probe maps each vertex
    it reads once.  Circle levels (n = 2) interleave, so each is mapped
    whole.  Centroids and diameters are built at a level only when
    ``locally_resolved`` first reads them there."""

    def __init__(self, map_rows, probe: SphereProbe):
        self.map_rows = map_rows
        self.probe = probe
        self._images: dict[int, np.ndarray] = {}
        self._mesh: dict[int, tuple] = {}

    def images(self, level: int) -> np.ndarray:
        """The (n, V) image vertices of a mesh level."""
        if level not in self._images:
            c = np.asarray(self.probe.center, dtype=float)
            if len(c) == 2:
                images = self.map_rows(_circle(c, self.probe.radius, level)).T.copy()
            else:
                verts = _octamesh(level)[0]
                finer = [k for k in self._images if k > level]
                coarser = [k for k in self._images if k < level]
                if finer:
                    images = self._images[min(finer)][:, :len(verts)]
                else:
                    done = self._images[max(coarser)] if coarser else np.empty((3, 0))
                    new = self.map_rows(c + self.probe.radius * verts[done.shape[1]:])
                    images = np.concatenate([done, new.T], axis=1)
            self._images[level] = images
        return self._images[level]

    def mesh(self, level: int):
        """``(centroids, diameters)`` of the image elements of a level."""
        if level not in self._mesh:
            images = self.images(level)
            if len(images) == 3:
                _, faces, edges, face_edges = _octamesh(level)
                fa, fb, fc = faces.T
                cents = (images[:, fa] + images[:, fb] + images[:, fc]) / 3
                sides = _norms(images[:, edges[:, 0]] - images[:, edges[:, 1]])
                ab, bc, ca = face_edges.T
                diams = np.maximum(np.maximum(sides[ab], sides[bc]), sides[ca])
            else:
                nxt = np.roll(images, -1, axis=1)
                cents = 0.5 * (images + nxt)
                diams = _norms(images - nxt)
            self._mesh[level] = (cents, diams)
        return self._mesh[level]

    def raw(self, y: np.ndarray, level: int):
        """``(raw degree, distance from y to the image vertices)``.

        A sum that overflows (y beyond about the square root of the
        largest float) is 0.0 when y lies outside the bounding box of the
        image vertices: a closed surface or loop does not wind around a
        point outside its bounding box."""
        images = self.images(level)
        with np.errstate(over="ignore", invalid="ignore"):
            if len(images) == 3:
                _, faces, edges, face_edges = _octamesh(level)
                total, dist = _kernels.solid_angle_sum(faces, edges, face_edges, images, y)
                raw = total / (4 * math.pi)
            else:
                raw = _kernels.winding_sum(images, y)
                dist = float(np.min(_norms(images - y[:, None])))
        if not math.isfinite(raw) and (
                (y < images.min(axis=1)) | (y > images.max(axis=1))).any():
            raw = 0.0
        return raw, dist

    def locally_resolved(self, y: np.ndarray, level: int, dist: float) -> bool:
        """True when no mesh element can both reach the vicinity of y and
        be large against dist; such an element could hide a fold of the
        image surface around y.  An element stays within 0.7 diam of its
        centroid, so only elements with |cent - y| - 0.7 diam < 2 dist
        matter."""
        cents, diams = self.mesh(level)
        with np.errstate(over="ignore", invalid="ignore"):
            hazard = _norms(cents - y[:, None]) - 0.7 * diams < 2.0 * dist
        if not hazard.any():
            return True
        return float(diams[hazard].max()) < 0.5 * dist


def _norms(cols: np.ndarray) -> np.ndarray:
    """The length of each column of an (n, N) array, summed one coordinate
    at a time in ``np.linalg.norm``'s order, ``(x^2 + y^2) + z^2``: the
    same floats, without its reduction over a short axis."""
    sq = cols[0] * cols[0]
    for col in cols[1:]:
        sq += col * col
    return np.sqrt(sq)


# the finest mesh level a degree certification tries by default
MAX_REFINE = 7
# a raw sum certifies when within SNAP_TOL of an integer and moved less
# than STABILITY_TOL since the previous mesh level; a level at which y
# lies within MIN_DISTANCE of the image mesh is skipped
SNAP_TOL = 0.2
STABILITY_TOL = 0.05
MIN_DISTANCE = 1e-9
# image points this close to the sphere image are not probed
BOUNDARY_TOL = 1e-6
# Newton oracle of signed_preimage_count: iterations per seed, residual
# of a root, and the distance under which two roots are one
NEWTON_STEPS = 30
NEWTON_TOL = 1e-10
ROOT_DEDUPE = 1e-6


def _cached_degree(cache: _ImageCache, y, max_refine=MAX_REFINE) -> DegreeReport:
    y = np.asarray(y, dtype=float)
    history = []
    prev_raw = None
    streak = 0
    first = cache.probe.refinement
    # a certification reads its first two levels: map both in one batch
    if first < max_refine:
        cache.images(first + 1)
    for level in range(first, max_refine + 1):
        raw, dist = cache.raw(y, level)
        history.append((level, raw, dist))
        # a sum that overflows inside the bounding box of the image leaves
        # the level as unresolved as a near target
        if dist < MIN_DISTANCE or not math.isfinite(raw):
            prev_raw, streak = None, 0
            continue
        near = round(raw)
        snapped = abs(raw - near) < SNAP_TOL
        if snapped and prev_raw is not None and abs(raw - prev_raw) < STABILITY_TOL:
            streak += 1
        else:
            streak = 0
        prev_raw = raw
        if not (snapped and streak >= 1):
            continue
        # one stable refinement suffices when the mesh is provably fine
        # around y; otherwise an unresolved fold can mimic stability for
        # one step, so demand a second consecutive stable refinement
        if streak >= 2 or cache.locally_resolved(y, level, dist):
            return DegreeReport(int(near), raw, dist, level, history)
    raise IndeterminateDegreeError(
        f"degree not certified after refinement {max_refine}: history={history}"
    )


def degree(map_forward, probe: SphereProbe, y, max_refine: int = MAX_REFINE) -> DegreeReport:
    """Degree deg(f, S(a,r), y), certified by snap and refinement stability.

    Refines the mesh until the raw sum is within ``SNAP_TOL`` of an
    integer and moved less than ``STABILITY_TOL`` since the previous
    level; raises when y stays too close to the image mesh, and
    ``ValueError`` when y is not finite.
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"degree target y must be finite, got {y}")
    cache = _ImageCache(forward_rows(map_forward), probe)
    return _cached_degree(cache, y, max_refine)


def signed_preimage_count(map_forward, y, box, grid: int = 13) -> int:
    """Brute-force oracle: sum of Jacobian signs over preimages of y.

    Seeds Newton iterations from every grid cell, keeps converged roots
    inside the box, deduplicates, and sums finite-difference Jacobian
    determinant signs.  Intended for smooth fixtures.
    """
    if callable(getattr(map_forward, "forward", None)):
        map_forward = map_forward.forward
    y = np.asarray(y, dtype=float)
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    n = len(lo)
    axes = [np.linspace(lo[d], hi[d], grid) for d in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=1)
    h = 1e-6 * float(np.max(hi - lo))
    roots = []
    for x in seeds:
        x = x.copy()
        ok = False
        for _ in range(NEWTON_STEPS):
            r = np.asarray(map_forward(x)) - y
            if np.linalg.norm(r) < NEWTON_TOL:
                ok = True
                break
            try:
                step = np.linalg.solve(fd_jacobian(map_forward, x, h), r)
            except np.linalg.LinAlgError:
                break
            x = x - step
            if np.max(np.abs(x - np.clip(x, lo - 0.5, hi + 0.5))) > 0:
                break
        if not ok or np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
            continue
        if any(np.linalg.norm(x - r0) < ROOT_DEDUPE for r0 in roots):
            continue
        roots.append(x)
    return sum(int(math.copysign(1.0, np.linalg.det(fd_jacobian(map_forward, x, h))))
               for x in roots)


@dataclass
class InvReport:
    inside_checked: int
    inside_violations: int
    outside_checked: int
    outside_violations: int

    @property
    def passed(self) -> bool:
        return self.inside_violations == 0 and self.outside_violations == 0


def inv_check(map_like, center, radius: float, n_inside: int = 20,
              n_outside: int = 20, seed: int = 0, refinement: int = 3) -> InvReport:
    """Degree-based invertibility probe on one ball.

    Sampled interior points must map to points of nonzero degree (or to
    the sphere image within tolerance); sampled exterior points, drawn
    1.1 to 2.1 radii from the center inside the cube, must map to degree
    zero (or near the sphere image).  Raises ``ValueError`` when 1.1 radii
    reach the far corner of the cube, where no exterior point fits.
    """
    c = np.asarray(center, dtype=float)
    if 1.1 * radius >= np.linalg.norm(1.0 + np.abs(c)):
        raise ValueError("no exterior sample fits in the cube: 1.1 radius reaches its far corner")
    map_rows = forward_rows(map_like)
    rng = np.random.Generator(np.random.Philox(seed))
    n = len(c)
    probe = SphereProbe(tuple(c), radius, refinement)
    cache = _ImageCache(map_rows, probe)
    sphere_images = cache.images(refinement)

    def near_boundary(y):
        return float(np.min(_norms(sphere_images - y[:, None]))) < BOUNDARY_TOL

    inside = _ball_points(rng, c, radius, n_inside, n, inside=True)
    outside = _ball_points(rng, c, radius, n_outside, n, inside=False)
    violations = []
    # interior points must land on nonzero degree, exterior ones on zero
    for pts, expect_nonzero in ((inside, True), (outside, False)):
        bad = 0
        for y in map_rows(pts):
            if near_boundary(y):
                continue
            try:
                if (_cached_degree(cache, y).degree != 0) != expect_nonzero:
                    bad += 1
            except IndeterminateDegreeError:
                continue
        violations.append(bad)
    return InvReport(len(inside), violations[0], len(outside), violations[1])


def _ball_points(rng, c, radius, count, n, inside: bool):
    pts = []
    while len(pts) < count:
        u = rng.uniform(-1, 1, n)
        r = np.linalg.norm(u)
        if r == 0:
            continue
        if inside:
            x = c + radius * 0.9 * u / r * rng.random() ** (1 / n)
        else:
            x = c + radius * (1.1 + rng.random()) * u / r
            if np.max(np.abs(x)) >= 1:
                continue
        pts.append(x)
    return np.reshape(pts, (count, n))


def degree_stability(stages, probe: SphereProbe, y) -> list[int]:
    """Degrees of a family of maps over one probe (expected constant
    when every stage change happens away from the sphere)."""
    return [degree(s, probe, y).degree for s in stages]


def nesting_probe(map_like, center, r_small: float, r_big: float,
                  y_grid, refinement: int = 3) -> int:
    """Violations of E(f, B(a,r)) within E(f, B(a,s)) on a y-grid."""
    map_rows = forward_rows(map_like)
    small = _ImageCache(map_rows, SphereProbe(tuple(center), r_small, refinement))
    big = _ImageCache(map_rows, SphereProbe(tuple(center), r_big, refinement))
    big_images = big.images(refinement)
    bad = 0
    for y in np.asarray(y_grid, dtype=float):
        try:
            d_small = _cached_degree(small, y).degree
        except IndeterminateDegreeError:
            continue
        if d_small == 0:
            continue
        if float(np.min(_norms(big_images - y[:, None]))) < BOUNDARY_TOL:
            continue
        try:
            if _cached_degree(big, y).degree == 0:
                bad += 1
        except IndeterminateDegreeError:
            bad += 1
    return bad


def disjointness_probe(map_like, center_a, r_a: float, center_b, r_b: float,
                       y_grid, refinement: int = 3) -> int:
    """Violations of disjoint topological images over disjoint balls."""
    map_rows = forward_rows(map_like)
    ca = _ImageCache(map_rows, SphereProbe(tuple(center_a), r_a, refinement))
    cb = _ImageCache(map_rows, SphereProbe(tuple(center_b), r_b, refinement))
    bad = 0
    for y in y_grid:
        try:
            da = _cached_degree(ca, y).degree
            db = _cached_degree(cb, y).degree
        except IndeterminateDegreeError:
            continue
        if da != 0 and db != 0:
            bad += 1
    return bad
