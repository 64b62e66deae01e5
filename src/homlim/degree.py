"""Topological degree on sphere probes, and degree-based invertibility checks.

The degree of f over S(a, r) around y is the signed number of facets of
the image mesh that a ray from y crosses (``_kernels.crossing_count``):
a subdivided octahedron for n = 3, a polygon for n = 2, whose levels
nest, each level's vertices the first vertices of the next (``MESHES``).
The count at mesh level l is the degree of P_l, the piecewise-linear
image surface of that level, and it is certified in one of two ways:

- **the homotopy gap.**  The gap δ_l bounds |P_{l+1} - P_l| over the
  sphere (``_midpoint_gap``).  When dist(y, P_l) > δ_l, the straight-line
  homotopy from P_l to P_{l+1} avoids y, so the two degrees are equal; when
  dist(y, P_l) exceeds the sum of the gaps from level l on, the count is
  the degree of every finer level, and of f as their uniform limit
  (Stenger, Numer. Math. 25, 1975; Franek & Ratschan, Math. Comp. 84,
  2015).  That sum is estimated a posteriori as a geometric series with
  the ratio of the last two gaps, and the distance is bounded from below
  by exact point-to-facet distances near y (``_ImageCache.gap_margins``).
  On tame spheres the gaps fall about fourfold per level, and a target
  certifies at the probe's first level.
- **the streak rule**, for targets that the gap does not clear: the count
  repeats at consecutive levels, twice, or once where the mesh is locally
  resolved around y.  Near folds of a wild sphere the gaps do not decay,
  and only this rule certifies.

A probe certifies all its targets in one batch, one pass per mesh level
over the targets still open (``_certify``; one target is a one-row batch),
and maps a level only when a target still open reads it.  A level's facet
grid queried by more than one target builds a bucket index of its facets
per ray direction, so a target reads only the facets near its ray; a grid
queried by one target scans.  A brute-force signed-preimage count over a
grid with Newton polishing serves as the independent oracle on smooth
fixtures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .analysis import fd_jacobian, forward_rows
from .errors import IndeterminateDegreeError, UnsupportedDimensionError
from .geometry import row_max

__all__ = [
    "SphereProbe",
    "DegreeReport",
    "degree",
    "signed_preimage_count",
    "InvReport",
    "ProbeViolations",
    "inv_check",
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
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be finite, got {self.center}")
        level = self.refinement
        if (not isinstance(level, numbers.Integral) or isinstance(level, bool)
                or not 0 <= level <= MAX_REFINE):
            raise ValueError(f"refinement must be an integer in 0..{MAX_REFINE}")
        if len(self.center) not in MESHES:
            raise UnsupportedDimensionError(f"degree probes support n in {sorted(MESHES)}")


@dataclass
class DegreeReport:
    """A certified degree: ``degree``, the crossing count at the certifying
    mesh level ``refinements``; ``distance``, from y to that level's image
    vertices; ``history``, (level, count, distance) per level read.
    ``rule`` names the test that certified it, ``"gap"`` or ``"streak"``.
    A gap certificate carries the level's gap, its a-posteriori tail and
    its margin, a lower bound on the distance from y to the level's image
    surface over the tail; a streak has none of them."""

    degree: int
    distance: float
    refinements: int
    history: list = field(default_factory=list)
    rule: str = "streak"
    gap: float | None = None
    tail: float | None = None
    margin: float | None = None


@lru_cache(maxsize=None)
def _octamesh(level: int):
    """The unit sphere's mesh: the octahedron subdivided ``level`` times and
    radially projected, with its topology: ``(verts, faces, edges,
    face_edges)``, as ``_edge_table`` numbers the edges.  Each level
    subdivides the one before: every edge gets its midpoint, numbered by
    first use after the vertices there were, and every face (a, b, c) four
    children that run their corners as it does, so the octahedron's outward
    orientation carries over.  The vertices that level + 1 adds are thus
    the midpoints of this level's ``edges``, in order.  The index arrays
    are column-major, so the facet grid and the mesh geometry gather by
    contiguous columns."""
    if level == 0:
        verts = np.array([
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ], dtype=float)
        faces = np.array([
            (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
            (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
        ], dtype=np.int64)
    else:
        verts, faces, edges, face_edges = _octamesh(level - 1)
        mid = verts[edges[:, 0]] + verts[edges[:, 1]]
        mid /= np.sqrt(np.vecdot(mid, mid))[:, None]
        ab, bc, ca = (len(verts) + face_edges).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                         axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, mid])
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


@lru_cache(maxsize=None)
def _circlemesh(level: int):
    """The unit circle's polygon of 64·2^level points, in ``_octamesh``'s
    form, each segment its own edge.  Each level splits every segment
    (a, b) of the one before into (a, m) and (m, b) at a point m numbered
    after the old points, in segment order, so the segments run counter-
    clockwise in angular order.  The point k steps of 2π/M round from
    (1, 0) of M points lies at the angle 2π·k/M, the same float at every
    level, as k and M both double."""
    if level == 0:
        ends = np.arange(64)
        verts = np.empty((0, 2))
        segments = np.stack([ends, np.roll(ends, -1)], axis=1)
        th = 2 * np.pi * ends / 64
    else:
        verts, segments, _, _ = _circlemesh(level - 1)
        count = 2 * len(segments)
        th = 2 * np.pi * np.arange(1, count, 2) / count
        a, b = segments.T
        mid = len(verts) + np.arange(len(segments))
        segments = np.stack([a, mid, mid, b], axis=1).reshape(-1, 2)
    verts = np.concatenate([verts, np.stack([np.cos(th), np.sin(th)], axis=1)])
    segments = np.asfortranarray(segments)
    return verts, segments, segments, np.arange(len(segments))[:, None]


# the sphere mesh of each supported n, by level: (verts, facets, edges,
# face_edges), the vertices that level + 1 adds the midpoints of the edges
MESHES = {2: _circlemesh, 3: _octamesh}


class _ImageCache:
    """Per-probe cache of the image vertices of each mesh level, held
    component by component (an (n, V) array, one contiguous row per
    coordinate), and of what certification reads of them: the facet
    grids, the gaps, the facets' bounding boxes and the diameters.

    ``map_rows`` evaluates the map on an (N, n) array of points (see
    ``analysis.forward_rows``), and a row's image does not depend on the
    other rows of its batch: ``forward_rows`` calls a plain callable row
    by row, and ``tests/test_batch.py::TestRowIndependence`` checks it
    for the stage maps.  A mesh level's vertices are the first vertices of
    the next (``MESHES``), so ``images`` slices a level out of a finer one
    already mapped, or maps only the vertices it adds to the finest coarser
    one: a probe maps each vertex it reads once.  Diameters are built at a
    level only when ``locally_resolved`` first reads them there, and
    centroids only when it first finds an element large against a target's
    distance."""

    def __init__(self, map_rows, probe: SphereProbe):
        self.map_rows = map_rows
        self.probe = probe
        self.mesh = MESHES[len(probe.center)]
        self._images: dict[int, np.ndarray] = {}
        self._diameters: dict[int, np.ndarray] = {}
        self._centroids: dict[int, np.ndarray] = {}
        self._gaps: dict[int, tuple[float, float]] = {}
        self._boxes: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        self._grids: dict[tuple[int, int], _kernels.FacetGrid | None] = {}

    def images(self, level: int) -> np.ndarray:
        """The (n, V) image vertices of a mesh level."""
        if level not in self._images:
            c = np.asarray(self.probe.center, dtype=float)
            verts = self.mesh(level)[0]
            finer = [k for k in self._images if k > level]
            coarser = [k for k in self._images if k < level]
            if finer:
                images = self._images[min(finer)][:, :len(verts)]
            else:
                done = self._images[max(coarser)] if coarser else np.empty((len(c), 0))
                new = self.map_rows(c + self.probe.radius * verts[done.shape[1]:])
                images = np.concatenate([done, new.T], axis=1)
            self._images[level] = images
        return self._images[level]

    def diameters(self, level: int) -> np.ndarray:
        """The diameter of each image element of a level: its longest
        side."""
        if level not in self._diameters:
            images = self.images(level)
            _, _, edges, face_edges = self.mesh(level)
            sides = _norms(images[:, edges[:, 0]] - images[:, edges[:, 1]])
            self._diameters[level] = row_max(sides[face_edges])
        return self._diameters[level]

    def centroids(self, level: int) -> np.ndarray:
        """The (n, F) centroids of the image elements of a level."""
        if level not in self._centroids:
            images = self.images(level)
            corners = self.facets(level).T
            total = images[:, corners[0]]
            for corner in corners[1:]:
                total = total + images[:, corner]
            self._centroids[level] = total / len(corners)
        return self._centroids[level]

    def facets(self, level: int) -> np.ndarray:
        """The (F, n) facets of a mesh level, outward."""
        return self.mesh(level)[1]

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

    def raw(self, ys: np.ndarray, level: int):
        """``(degree counts, distances from each target to the image
        vertices)`` of the (T, n) targets ``ys``.

        A count is the signed number of image facets crossed by a ray from
        y, along the first of ``RAY_SLOPES`` that passes no edge or vertex
        within rounding.  It is NaN when both directions are ambiguous,
        when y lies on a facet or so far out that its offsets overflow, or
        when an image vertex is not finite; but 0.0 when y lies outside the
        bounding box of the image vertices, as a closed surface or loop
        does not wind around such a point."""
        images = self.images(level)
        dist = _min_distance(images, ys)
        raw = np.full(len(ys), math.nan)
        todo = np.arange(len(ys))
        for direction in range(len(RAY_SLOPES[len(images)])):
            grid = self.grid(level, direction) if len(todo) else None
            if grid is None:
                break
            raw[todo], retry = _kernels.crossing_count(grid, ys[todo])
            todo = todo[retry]
        unset = np.flatnonzero(~np.isfinite(raw))
        if len(unset):
            y = ys[unset]
            raw[unset[((y < images.min(axis=1)) | (y > images.max(axis=1))).any(axis=1)]] = 0.0
        return raw, dist

    def gap(self, level: int) -> tuple[float, float]:
        """``(gap, tail)`` of a level l >= 1, from the images of level
        l + 1.  The gap δ_l bounds |P_{l+1} - P_l| over the sphere, P_l
        being the level-l image surface (``_midpoint_gap``).  The tail
        δ_l / (1 - q), with q = δ_l / δ_{l-1}, sums the gaps from level l
        on as a geometric series: an a-posteriori estimate, NaN unless
        q < 1, and NaN when an image is not finite."""
        if level not in self._gaps:
            gap = _midpoint_gap(self.images(level + 1), level)
            below = _midpoint_gap(self.images(level), level - 1)
            ratio = gap / below if below > 0 else math.nan
            self._gaps[level] = gap, gap / (1.0 - ratio) if ratio < 1 else math.nan
        return self._gaps[level]

    def boxes(self, level: int) -> tuple[np.ndarray, np.ndarray, float]:
        """``(lo, hi, extent)``: the (n, F) least and greatest coordinates
        of each image facet of a level, and the largest |coordinate| of its
        image vertices."""
        if level not in self._boxes:
            images = self.images(level)
            corners = self.facets(level).T
            lo = images[:, corners[0]]
            hi = lo.copy()
            for corner in corners[1:]:
                np.minimum(lo, images[:, corner], out=lo)
                np.maximum(hi, images[:, corner], out=hi)
            self._boxes[level] = lo, hi, float(np.max(np.abs(images)))
        return self._boxes[level]

    def gap_margins(self, ys: np.ndarray, level: int) -> np.ndarray:
        """Per target of the (T, n) ``ys``, the margin of the level's gap
        certificate, NaN where it does not hold.  It holds when a lower
        bound on dist(y, P_l) exceeds the tail (``gap``) by ``GAP_ROUNDING``
        of the scale of the coordinates, the larger of |y| and the image's
        extent; the margin is the bound over the tail.  The bound is the
        exact distance to each facet whose bounding box, padded by that
        much, contains y, and the sup-norm distance to the box of every
        other facet."""
        margins = np.full(len(ys), math.nan)
        _, tail = self.gap(level)
        if not math.isfinite(tail):
            return margins
        images, facets = self.images(level), self.facets(level)
        lo, hi, extent = self.boxes(level)
        bound = np.empty(len(ys))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pad = tail + GAP_ROUNDING * np.maximum(row_max(np.abs(ys)), extent)
            for block in _blocks(len(ys), lo.shape[1]):
                y = ys[block].T[:, :, None]
                out = np.maximum(lo[0] - y[0], y[0] - hi[0])
                for c in range(1, len(y)):
                    out = np.maximum(out, np.maximum(lo[c] - y[c], y[c] - hi[c]))
                rows, ids = np.nonzero(~(out > pad[block, None]))
                out[rows, ids] = math.inf
                best = out.min(axis=1)
                if len(rows):
                    np.minimum.at(best, rows, _kernels.facet_distances(
                        images[:, facets[ids].T], y[:, rows, 0]))
                bound[block] = best
            clear = bound > pad
            margins[clear] = bound[clear] / tail
        return margins

    def locally_resolved(self, ys: np.ndarray, level: int, dists: np.ndarray) -> np.ndarray:
        """Per target, True when no mesh element can both reach the
        vicinity of y and be large against its distance; such an element
        could hide a fold of the image surface around y.  An element stays
        within 0.7 diam of its centroid, so only elements with
        |cent - y| - 0.7 diam < 2 dist and diam >= 0.5 dist matter."""
        diams = self.diameters(level)
        resolved = np.ones(len(ys), dtype=bool)
        for block in _blocks(len(ys), len(diams)):
            # the large elements first (a NaN diameter is not small), then
            # which of them reach y
            rows, ids = np.nonzero(~(diams < 0.5 * dists[block, None]))
            if not len(rows):
                continue
            rows += block.start
            with np.errstate(over="ignore", invalid="ignore"):
                reach = (_norms(self.centroids(level)[:, ids] - ys[rows].T) - 0.7 * diams[ids]
                         < 2.0 * dists[rows])
            resolved[rows[reach]] = False
        return resolved


def _midpoint_gap(images: np.ndarray, level: int) -> float:
    """δ_level, from the (n, V) image vertices of level + 1: the largest
    |f(v) - (f(a) + f(b)) / 2| over the vertices v that level + 1 adds,
    each at the midpoint of a level edge (a, b).  The level-(l+1) mesh
    subdivides the level-l one at those midpoints, on which P_l, the
    level-l image surface, interpolates (f(a) + f(b)) / 2; P_{l+1} - P_l
    is linear on each facet of the finer mesh, so |P_{l+1} - P_l| <= δ_l
    everywhere.  The edges are the level's ``edges``, whose midpoints
    follow its vertices in order (``MESHES``).  NaN when an image is not
    finite."""
    verts, _, edges, _ = MESHES[len(images)](level)
    added = images[:, len(verts):]
    ends = images[:, edges[:, 0]], images[:, edges[:, 1]]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(_norms(added - 0.5 * (ends[0] + ends[1]))))


def _norms(cols: np.ndarray) -> np.ndarray:
    """The length of each column of an (n, ...) array, summed one
    coordinate at a time in ``np.linalg.norm``'s order, ``(x^2 + y^2) +
    z^2``: the same floats, without its reduction over a short axis."""
    sq = cols[0] * cols[0]
    for col in cols[1:]:
        sq += col * col
    return np.sqrt(sq)


# the (target, vertex or element) pairs that a batch compares at once
BLOCK = 2**14


def _blocks(count: int, width: int):
    """Slices of ``count`` targets, each holding at most ``BLOCK`` pairs of
    a target and one of ``width`` vertices or elements (one target at
    least)."""
    step = max(1, BLOCK // max(1, width))
    return (slice(start, start + step) for start in range(0, count, step))


def _min_distance(cols: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The distance from each of the (T, n) targets to the nearest column
    of the (n, V) array ``cols``."""
    dist = np.empty(len(ys))
    for block in _blocks(len(ys), cols.shape[1]):
        with np.errstate(over="ignore", invalid="ignore"):
            dist[block] = _norms(cols[:, None, :] - ys[block].T[:, :, None]).min(axis=1)
    return dist


# the finest mesh level a degree certification tries by default
MAX_REFINE = 7
# a count certifies when it equals the previous mesh level's; a level at
# which y lies within MIN_DISTANCE of the image vertices is skipped
MIN_DISTANCE = 1e-9
# a gap certificate asks its distance bound to exceed the tail by this
# share of the coordinates' scale: room for the rounding of the gap, the
# tail and the point-to-facet distances, each a few ulps of that scale on
# facets that are not slivers (a triangle's normal, and so its plane
# distance, is only as accurate as its area is large against its sides)
GAP_ROUNDING = 1e-12
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


def _certify(cache: _ImageCache, ys: np.ndarray, max_refine=MAX_REFINE) -> list:
    """Certify the degrees of the (T, n) targets ``ys`` over one probe, one
    pass per mesh level for all the targets still open: per target its
    ``DegreeReport``, or the ``IndeterminateDegreeError`` that says why it
    has none.

    At each level a target's count certifies by the streak rule when it
    repeats the previous level's twice, or once where the mesh is locally
    resolved around y.  A target that the streak rule leaves open, and
    that would therefore map the next level anyway, then tries the gap
    certificate (``_ImageCache.gap_margins``).  On the first level no
    count repeats, and the first two levels are mapped in one batch, so
    every target tries the gap there; a level 0 has no gap (no δ_{-1}),
    nor has ``max_refine`` (no level after it is mapped)."""
    histories = [[] for _ in range(len(ys))]
    reports = [None] * len(ys)
    prev, streak = [None] * len(ys), [0] * len(ys)
    open_ = list(range(len(ys)))
    first = cache.probe.refinement
    # a certification reads its first two levels: map both in one batch
    if first < max_refine and open_:
        cache.images(first + 1)
    for level in range(first, max_refine + 1):
        if not open_:
            break
        targets = ys[open_]
        raw, dist = cache.raw(targets, level)
        check, unsettled = [], []
        for k, (i, r, d) in enumerate(zip(open_, raw.tolist(), dist.tolist())):
            histories[i].append((level, r, d))
            # a count that is ambiguous in both directions, or NaN inside
            # the bounding box of the image, leaves the level as unresolved
            # as a near target
            if d < MIN_DISTANCE or not math.isfinite(r):
                prev[i], streak[i] = None, 0
                continue
            streak[i] = streak[i] + 1 if r == prev[i] else 0
            prev[i] = r
            # one stable refinement suffices when the mesh is provably fine
            # around y; otherwise an unresolved fold can mimic stability
            # for one step, so demand a second consecutive stable refinement
            if streak[i] >= 2:
                reports[i] = _report(histories[i])
            else:
                (check if streak[i] == 1 else unsettled).append(k)
        if check:
            resolved = cache.locally_resolved(targets[check], level, dist[check])
            for k, ok in zip(check, resolved.tolist()):
                if ok:
                    reports[open_[k]] = _report(histories[open_[k]])
                else:
                    unsettled.append(k)
        if unsettled and 0 < level < max_refine:
            gap, tail = cache.gap(level)
            for k, margin in zip(unsettled, cache.gap_margins(targets[unsettled], level).tolist()):
                if not math.isnan(margin):
                    reports[open_[k]] = _report(histories[open_[k]], "gap", gap, tail, margin)
        open_ = [i for i in open_ if reports[i] is None]
    for i in open_:
        reports[i] = IndeterminateDegreeError(
            f"degree not certified after refinement {max_refine}: history={histories[i]}")
    return reports


def _report(history, *certificate) -> DegreeReport:
    """The report of the count of a history's last level."""
    level, r, d = history[-1]
    return DegreeReport(int(r), d, level, history, *certificate)


def _cached_degree(cache: _ImageCache, y, max_refine=MAX_REFINE) -> DegreeReport:
    """The certified degree of one target: a one-row ``_certify``."""
    (report,) = _certify(cache, np.asarray(y, dtype=float)[None], max_refine)
    if isinstance(report, IndeterminateDegreeError):
        raise report
    return report


def degree(map_forward, probe: SphereProbe, y, max_refine: int = MAX_REFINE) -> DegreeReport:
    """Degree deg(f, S(a,r), y), certified by the homotopy gap between mesh
    levels or by refinement stability (see ``_certify``).

    Refines the mesh until the gap certificate holds or the crossing count
    equals the previous level's (twice in a row, unless the mesh is locally
    resolved around y); raises when y stays too close to the image mesh,
    and ``ValueError`` when y is not finite.
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
    inside = _ball_points(rng, c, radius, n_inside, n, inside=True)
    outside = _ball_points(rng, c, radius, n_outside, n, inside=False)
    ys = map_rows(np.concatenate([inside, outside]))
    probed = np.flatnonzero(~(_min_distance(sphere_images, ys) < BOUNDARY_TOL))
    # interior points must land on nonzero degree, exterior ones on zero
    decided = [(i < len(inside), d != 0)
               for i, d in zip(probed.tolist(), _degrees(_certify(cache, ys[probed])))
               if d is not None]
    bad = [interior for interior, nonzero in decided if interior != nonzero]
    skipped = len(inside) + len(outside) - len(decided)
    return InvReport(len(inside), bad.count(True), len(outside), bad.count(False),
                     len(decided), skipped)


def _degrees(reports) -> list:
    """The degree of each of ``_certify``'s reports, None where it has none."""
    return [rep.degree if isinstance(rep, DegreeReport) else None for rep in reports]


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
    targets = np.asarray(y_grid, dtype=float).reshape(-1, len(center))
    d_small = _degrees(_certify(small, targets))
    nonzero = np.array([i for i, d in enumerate(d_small) if d], dtype=int)
    near = _min_distance(big_images, targets[nonzero]) < BOUNDARY_TOL
    bad = sum(d is None or d == 0 for d in _degrees(_certify(big, targets[nonzero[~near]])))
    skipped = d_small.count(None) + int(near.sum())
    return ProbeViolations(bad, len(targets) - skipped, skipped)


def disjointness_probe(map_like, center_a, r_a: float, center_b, r_b: float,
                       y_grid, refinement: int = 3) -> ProbeViolations:
    """Violations of disjoint topological images over disjoint balls: a
    target of nonzero degree over both spheres.  A target of indeterminate
    degree over either is skipped."""
    map_rows = forward_rows(map_like)
    ca = _ImageCache(map_rows, SphereProbe(tuple(center_a), r_a, refinement))
    cb = _ImageCache(map_rows, SphereProbe(tuple(center_b), r_b, refinement))
    targets = np.asarray(y_grid, dtype=float).reshape(-1, len(center_a))
    da = _degrees(_certify(ca, targets))
    both = np.array([i for i, d in enumerate(da) if d is not None], dtype=int)
    pairs = [(da[i], db) for i, db in zip(both.tolist(), _degrees(_certify(cb, targets[both])))
             if db is not None]
    bad = sum(a != 0 and b != 0 for a, b in pairs)
    return ProbeViolations(bad, len(pairs), len(targets) - len(pairs))
