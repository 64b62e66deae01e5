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


@lru_cache(maxsize=None)
def octasphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit sphere mesh: octahedron subdivided ``level`` times, radially
    projected; triangles oriented outward."""
    verts = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ]
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    v = [np.array(p, dtype=float) for p in verts]
    f = list(faces)
    for _ in range(level):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = v[i] + v[j]
                m /= np.linalg.norm(m)
                cache[key] = len(v)
                v.append(m)
            return cache[key]

        nf = []
        for a, b, c in f:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nf += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        f = nf
    verts_arr = np.array(v)
    faces_arr = np.array(f, dtype=np.int64)
    # enforce outward orientation
    for i, (a, b, c) in enumerate(faces_arr):
        if np.linalg.det(np.stack([verts_arr[a], verts_arr[b], verts_arr[c]])) < 0:
            faces_arr[i] = (a, c, b)
    return verts_arr, faces_arr


def _circle(center, radius, level):
    m = 64 * 2**level
    th = 2 * np.pi * np.arange(m) / m
    return np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
    )


class _ImageCache:
    """Per-probe cache of image meshes (the map evaluation dominates).

    ``map_rows`` evaluates the map on an (N, n) array of points, so every
    mesh level is one call (see ``analysis.forward_rows``)."""

    def __init__(self, map_rows, probe: SphereProbe):
        self.map_rows = map_rows
        self.probe = probe
        self._mesh: dict[int, tuple] = {}

    def mesh(self, level: int):
        if level not in self._mesh:
            c = np.asarray(self.probe.center, dtype=float)
            if len(c) == 3:
                verts, faces = octasphere(level)
                images = self.map_rows(c + self.probe.radius * verts)
                body = np.ascontiguousarray(images[faces])
                cents = body.mean(axis=1)
                diams = np.linalg.norm(
                    body - np.roll(body, 1, axis=1), axis=2
                ).max(axis=1)
            else:
                images = self.map_rows(_circle(c, self.probe.radius, level))
                body = np.ascontiguousarray(images)
                nxt = np.roll(images, -1, axis=0)
                cents = 0.5 * (images + nxt)
                diams = np.linalg.norm(images - nxt, axis=1)
            self._mesh[level] = (images, body, cents, diams)
        return self._mesh[level]

    def raw(self, y: np.ndarray, level: int):
        images, body, cents, diams = self.mesh(level)
        if images.shape[1] == 3:
            raw = _kernels.solid_angle_sum(body, np.ascontiguousarray(y)) / (4 * math.pi)
        else:
            raw = _kernels.winding_sum(body, np.ascontiguousarray(y))
        dist = float(np.min(np.linalg.norm(images - y, axis=1)))
        return raw, dist

    def locally_resolved(self, y: np.ndarray, level: int, dist: float) -> bool:
        """True when no mesh element can both reach the vicinity of y and
        be large against dist; such an element could hide a fold of the
        image surface around y.  An element stays within 0.7 diam of its
        centroid, so only elements with |cent - y| - 0.7 diam < 2 dist
        matter."""
        _, _, cents, diams = self.mesh(level)
        hazard = np.linalg.norm(cents - y, axis=1) - 0.7 * diams < 2.0 * dist
        if not hazard.any():
            return True
        return float(diams[hazard].max()) < 0.5 * dist


# the finest mesh level a degree certification tries by default
MAX_REFINE = 7


def _cached_degree(cache: _ImageCache, y, snap_tol=0.2, stability_tol=0.05,
                   max_refine=MAX_REFINE, min_distance=1e-9) -> DegreeReport:
    y = np.asarray(y, dtype=float)
    history = []
    prev_raw = None
    streak = 0
    for level in range(cache.probe.refinement, max_refine + 1):
        raw, dist = cache.raw(y, level)
        history.append((level, raw, dist))
        if dist < min_distance:
            prev_raw, streak = None, 0
            continue
        near = round(raw)
        snapped = abs(raw - near) < snap_tol
        if snapped and prev_raw is not None and abs(raw - prev_raw) < stability_tol:
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


def degree(map_forward, probe: SphereProbe, y, snap_tol: float = 0.2,
           stability_tol: float = 0.05, max_refine: int = MAX_REFINE,
           min_distance: float = 1e-9) -> DegreeReport:
    """Degree deg(f, S(a,r), y), certified by snap and refinement stability.

    Refines the mesh until the raw sum is within ``snap_tol`` of an
    integer and moved less than ``stability_tol`` since the previous
    level; raises when y stays too close to the image mesh.
    """
    cache = _ImageCache(forward_rows(map_forward), probe)
    return _cached_degree(cache, y, snap_tol, stability_tol, max_refine, min_distance)


def signed_preimage_count(map_forward, y, box, grid: int = 13,
                          newton_steps: int = 30, tol: float = 1e-10,
                          dedupe: float = 1e-6) -> int:
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
        for _ in range(newton_steps):
            r = np.asarray(map_forward(x)) - y
            if np.linalg.norm(r) < tol:
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
        if any(np.linalg.norm(x - r0) < dedupe for r0 in roots):
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
              n_outside: int = 20, seed: int = 0, refinement: int = 3,
              boundary_tol: float = 1e-6) -> InvReport:
    """Degree-based invertibility probe on one ball.

    Sampled interior points must map to points of nonzero degree (or to
    the sphere image within tolerance); sampled exterior points must map
    to degree zero (or near the sphere image).
    """
    map_rows = forward_rows(map_like)
    rng = np.random.Generator(np.random.Philox(seed))
    c = np.asarray(center, dtype=float)
    n = len(c)
    probe = SphereProbe(tuple(c), radius, refinement)
    cache = _ImageCache(map_rows, probe)
    sphere_images = cache.mesh(refinement)[0]

    def near_boundary(y):
        return float(np.min(np.linalg.norm(sphere_images - y, axis=1))) < boundary_tol

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
                  y_grid, refinement: int = 3, boundary_tol: float = 1e-6) -> int:
    """Violations of E(f, B(a,r)) within E(f, B(a,s)) on a y-grid."""
    map_rows = forward_rows(map_like)
    small = _ImageCache(map_rows, SphereProbe(tuple(center), r_small, refinement))
    big = _ImageCache(map_rows, SphereProbe(tuple(center), r_big, refinement))
    big_images = big.mesh(refinement)[0]
    bad = 0
    for y in y_grid:
        try:
            d_small = _cached_degree(small, y).degree
        except IndeterminateDegreeError:
            continue
        if d_small == 0:
            continue
        if float(np.min(np.linalg.norm(big_images - y, axis=1))) < boundary_tol:
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
