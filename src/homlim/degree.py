"""Topological degree on sphere probes, and degree-based invertibility checks.

The degree of f over S(a, r) around y is the signed number of facets of
the image mesh that a ray from y crosses: the image triangles of a
subdivided octahedron for n = 3, the image segments of a polygon for
n = 2 (``_kernels.crossing_count``).  Each mesh level keeps a bucket index
of its facets per ray direction, so a target reads only the facets near
its ray.  The count is certified when it repeats under mesh refinement.
A brute-force signed-preimage count over a grid with Newton polishing
serves as the independent oracle on smooth fixtures.
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
    "ProbeViolations",
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
    are column-major, so the facet grid and the mesh geometry gather by
    contiguous columns."""
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
        self._grids: dict[tuple[int, int], _kernels.FacetGrid | None] = {}

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

    def facets(self, level: int) -> np.ndarray:
        """The (F, n) facets of a mesh level, outward: the octasphere's
        triangles, or the circle's segments (i, i + 1)."""
        if len(self.probe.center) == 3:
            return _octamesh(level)[1]
        ends = np.arange(64 * 2**level)
        return np.stack([ends, np.roll(ends, -1)], axis=1)

    def grid(self, level: int, direction: int):
        """The facet grid of a level along ``RAY_SLOPES[n][direction]``,
        made on first use; None when an image vertex is not finite."""
        key = (level, direction)
        if key not in self._grids:
            images = self.images(level)
            self._grids[key] = (_kernels.FacetGrid(images, self.facets(level),
                                                   RAY_SLOPES[len(images)][direction])
                                if np.isfinite(images).all() else None)
        return self._grids[key]

    def raw(self, y: np.ndarray, level: int):
        """``(degree count, distance from y to the image vertices)``.

        The count is the signed number of image facets crossed by a ray
        from y, along the first of ``RAY_SLOPES`` that passes no edge or
        vertex within rounding.  It is NaN when both directions are
        ambiguous, when y lies on a facet or so far out that its offsets
        overflow, or when an image vertex is not finite; but 0.0 when y lies
        outside the bounding box of the image vertices, as a closed surface
        or loop does not wind around such a point."""
        images = self.images(level)
        with np.errstate(over="ignore", invalid="ignore"):
            dist = float(np.min(_norms(images - y[:, None])))
        raw = math.nan
        for direction in range(len(RAY_SLOPES[len(images)])):
            grid = self.grid(level, direction)
            count = math.nan if grid is None else _kernels.crossing_count(grid, y)
            if count is not None:
                raw = count
                break
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
# a count certifies when it equals the previous mesh level's; a level at
# which y lies within MIN_DISTANCE of the image vertices is skipped
MIN_DISTANCE = 1e-9
# ray directions (1, s) of the crossing counts per dimension, tried in
# turn: oblique, because the probe targets f(center) see mesh vertices
# along the axes, where a ray along e_1 meets vertices and edges
RAY_SLOPES = {
    2: ((1 / math.pi,), (-0.5772156649015329,)),
    3: ((1 / math.pi, 0.5772156649015329), (-0.5772156649015329, 1 / math.e)),
}
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
        # a count that is ambiguous in both directions, or NaN inside the
        # bounding box of the image, leaves the level as unresolved as a
        # near target
        if dist < MIN_DISTANCE or not math.isfinite(raw):
            prev_raw, streak = None, 0
            continue
        streak = streak + 1 if raw == prev_raw else 0
        prev_raw = raw
        # one stable refinement suffices when the mesh is provably fine
        # around y; otherwise an unresolved fold can mimic stability for
        # one step, so demand a second consecutive stable refinement
        if streak >= 2 or (streak == 1 and cache.locally_resolved(y, level, dist)):
            return DegreeReport(int(raw), raw, dist, level, history)
    raise IndeterminateDegreeError(
        f"degree not certified after refinement {max_refine}: history={history}"
    )


def degree(map_forward, probe: SphereProbe, y, max_refine: int = MAX_REFINE) -> DegreeReport:
    """Degree deg(f, S(a,r), y), certified by refinement stability.

    Refines the mesh until the crossing count equals the previous level's
    (twice in a row, unless the mesh is locally resolved around y); raises
    when y stays too close to the image mesh, and ``ValueError`` when y is
    not finite.
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


# a multi-target probe passes only when it decides at least this share of
# its targets; it skips a target that lies near a sphere image or whose
# degree is indeterminate, and a probe that skipped them all would pass
MIN_DECIDED = 0.9


def _enough(decided: int, skipped: int) -> bool:
    return decided >= MIN_DECIDED * (decided + skipped)


@dataclass
class InvReport:
    """``inv_check``'s samples drawn inside and outside the ball, the
    violations among them, and how many of all its targets it decided and
    skipped."""

    inside_checked: int
    inside_violations: int
    outside_checked: int
    outside_violations: int
    decided: int
    skipped: int

    @property
    def passed(self) -> bool:
        return (self.inside_violations == 0 and self.outside_violations == 0
                and _enough(self.decided, self.skipped))


class ProbeViolations(int):
    """The violations found by ``nesting_probe`` or ``disjointness_probe``:
    an int, so callers that compare the count with 0 keep working, that
    also carries how many targets the probe decided and skipped.  ``passed``
    also asks that the probe decided ``MIN_DECIDED`` of its targets."""

    def __new__(cls, violations: int, decided: int, skipped: int):
        self = super().__new__(cls, violations)
        self.decided, self.skipped = decided, skipped
        return self

    @property
    def passed(self) -> bool:
        return self == 0 and _enough(self.decided, self.skipped)

    def __repr__(self):
        return (f"ProbeViolations({int(self)}, decided={self.decided}, "
                f"skipped={self.skipped})")


def inv_check(map_like, center, radius: float, n_inside: int = 20,
              n_outside: int = 20, seed: int = 0, refinement: int = 3) -> InvReport:
    """Degree-based invertibility probe on one ball.

    Sampled interior points must map to points of nonzero degree, and
    sampled exterior points, drawn 1.1 to 2.1 radii from the center inside
    the cube, to degree zero.  An image within ``BOUNDARY_TOL`` of the
    sphere image, or of indeterminate degree, is skipped; the report
    passes only when no decided target is a violation and at least
    ``MIN_DECIDED`` of the targets were decided.  Raises ``ValueError``
    when 1.1 radii reach the far corner of the cube, where no exterior
    point fits.
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
    violations, decided = [], 0
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
            decided += 1
        violations.append(bad)
    skipped = len(inside) + len(outside) - decided
    return InvReport(len(inside), violations[0], len(outside), violations[1], decided, skipped)


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
                  y_grid, refinement: int = 3) -> ProbeViolations:
    """Violations of E(f, B(a,r)) within E(f, B(a,s)) on a y-grid.

    A target of nonzero degree over the small sphere must have nonzero
    degree over the big one; an indeterminate big degree counts as a
    violation.  A target of indeterminate small degree, or near the big
    sphere image, is skipped."""
    map_rows = forward_rows(map_like)
    small = _ImageCache(map_rows, SphereProbe(tuple(center), r_small, refinement))
    big = _ImageCache(map_rows, SphereProbe(tuple(center), r_big, refinement))
    big_images = big.images(refinement)
    bad = skipped = 0
    targets = np.asarray(y_grid, dtype=float)
    for y in targets:
        try:
            d_small = _cached_degree(small, y).degree
        except IndeterminateDegreeError:
            skipped += 1
            continue
        if d_small == 0:
            continue
        if float(np.min(_norms(big_images - y[:, None]))) < BOUNDARY_TOL:
            skipped += 1
            continue
        try:
            if _cached_degree(big, y).degree == 0:
                bad += 1
        except IndeterminateDegreeError:
            bad += 1
    return ProbeViolations(bad, len(targets) - skipped, skipped)


def disjointness_probe(map_like, center_a, r_a: float, center_b, r_b: float,
                       y_grid, refinement: int = 3) -> ProbeViolations:
    """Violations of disjoint topological images over disjoint balls: a
    target of nonzero degree over both spheres.  A target of indeterminate
    degree over either is skipped."""
    map_rows = forward_rows(map_like)
    ca = _ImageCache(map_rows, SphereProbe(tuple(center_a), r_a, refinement))
    cb = _ImageCache(map_rows, SphereProbe(tuple(center_b), r_b, refinement))
    bad = skipped = 0
    for y in y_grid:
        try:
            da = _cached_degree(ca, y).degree
            db = _cached_degree(cb, y).degree
        except IndeterminateDegreeError:
            skipped += 1
            continue
        if da != 0 and db != 0:
            bad += 1
    return ProbeViolations(bad, len(y_grid) - skipped, skipped)
