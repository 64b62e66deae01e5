"""Hot numeric kernels, vectorized with numpy.

The loops that dominate runtime: batched evaluation of the nested-cube
homeomorphism and its Jacobians, signed ray-crossing counts over a
bucket grid of the facets of a closed loop or triangle mesh, and
point-to-facet distances.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .geometry import descend_set

# ---------------------------------------------------------------------------
# Nested-cube homeomorphism, batched.
#
# Both constructions share the address tree: at every level the child is
# picked by the half-open sign rule, and the same letter is used to update
# the source and target centers.  A point in the level-i frame (sup-norm
# offset t in [r_i, r'_i]) maps radially with the affine profile
# lambda(r_i) = rt_i, lambda(r'_i) = rt'_i; a point still inside the inner
# cube at the stage depth maps linearly with ratio rt_k / r_k.  Passing the
# swapped radius arrays evaluates the exact inverse.  The images and the
# Jacobians come from one descent.  A row given its own stage s <= k
# descends s levels and reads the ratio rt_s / r_s; the radii of stage s
# are the first s + 1 of stage k's, so the row gets the stage-s map's
# floats.
# ---------------------------------------------------------------------------


def cantor_map_points(points, rs, rs_out, rt, rt_out, stage, jacobian=False, stages=None):
    """``(images, (N, n, n) Jacobians or None unless jacobian)`` of the
    nested-cube map on the (N, n) ``points``, row i at stage ``stages[i]``
    when ``stages`` is given, else every row at ``stage``.  A frame row
    x = z + xi with t = |xi|_inf has the Jacobian (lambda / t) I plus
    ((lambda' - lambda / t) / t) xi sign(xi_m) added to column m, the first
    coordinate where |xi| is largest; an inner-cube row of stage s has
    (rt_s / r_s) I."""
    level, letters, zs, t = descend_set(points, rs, stage, stages)
    zt = 0.5 * rt[0] * letters[0]
    for lev in range(2, stage + 1):
        zt = zt + 0.5 * rt[lev - 1] * letters[lev - 1]
    if stages is None:
        scale = np.full(len(points), rt[stage] / rs[stage])
    else:
        scale = (rt / rs).take(stages)
    frame = level > 0
    if frame.any():
        lv, tf = level[frame], t[frame]
        lam = rt[lv] + (tf - rs[lv]) * (rt_out[lv] - rt[lv]) / (rs_out[lv] - rs[lv])
        scale[frame] = np.where(tf == rs_out[lv], rt_out[lv], lam) / tf
    images = zt + scale[:, None] * (points - zs)
    if not jacobian:
        return images, None
    count, n = points.shape
    if stages is None:
        d = np.empty((count, n, n))
        d[:] = (rt[stage] / rs[stage]) * np.eye(n)
    else:
        d = (rt / rs).take(stages)[:, None, None] * np.eye(n)
    rows = np.flatnonzero(level)
    lev, t = level[rows], t[rows]
    xi = points[rows] - zs[rows]
    # lambda again, from its slope: (t - r)(rt' - rt) / (r' - r) above
    # rounds otherwise
    lam_slope = (rt_out[lev] - rt[lev]) / (rs_out[lev] - rs[lev])
    lam = rt[lev] + (t - rs[lev]) * lam_slope
    idx, mx = np.arange(len(rows)), np.argmax(np.abs(xi), axis=1)
    sub = (lam / t)[:, None, None] * np.eye(n)
    coef = ((lam_slope - lam / t) / t)[:, None]
    sub[idx, :, mx] += coef * (xi * np.sign(xi[idx, mx])[:, None])
    d[rows] = sub
    return images, d


# ---------------------------------------------------------------------------
# Signed ray crossings for sphere-probe degrees (n = 2, 3).
#
# The degree of a closed oriented loop (n = 2) or surface (n = 3) around y
# is the signed number of its facets, segments or triangles, that the ray
# y + t d, t > 0, crosses (Kearfott, Numer. Math. 32, 1979).  With
# d = (1, s), the shear x -> (x_2 - s_1 x_1, ..., x_n - s_{n-1} x_1) has
# determinant 1 and sends the ray to one point p.  A facet is crossed when
# its projection contains p and y lies behind its plane:
# - containment reads the barycentric weights of p in the projected facet:
#   at n = 3 the orientation of p and each side, at n = 2 the offset of
#   each end.  All weights of a facet that contains p share the sign of
#   its projected orientation, which is the sign of (outward normal . d).
# - y lies behind the facet when the orientation of y and the facet, in
#   the original coordinates, has that sign too.
# Every orientation carries Shewchuk's rounding bound (Math. Comp. 1997).
# A weight within it means the ray grazes an edge or vertex, and the
# caller retries along another d; an orientation of y within it means y
# lies on the facet's plane.
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])
_SEGMENT_SIGNS = np.array([1.0, -1.0])


class FacetGrid:
    """The facets of a closed mesh projected along the ray direction
    (1, ``slopes``), with a bucket index over their projected bounding
    boxes.

    ``images`` (n, V) holds the vertices component by component and
    ``facets`` (F, n) indexes its columns, each row in the mesh's outward
    orientation.  A grid queried by one target scans every facet with a
    per-vertex side test; a grid queried by more than one target, in one
    batch or over several, builds the index, which cuts the projected box
    of the vertices into about F / 16 buckets (2-D) or F / 4 (1-D) and
    lists each facet, by int32 CSR, in every bucket that its projected box
    meets.  A query then reads the facets of the point's bucket only.
    Building costs a few scans, which a mesh queried once would never
    repay.
    """

    def __init__(self, images, facets, slopes):
        self.images = images
        self.slopes = np.array(slopes)
        self.facets = facets
        self.proj = images[1:] - self.slopes[:, None] * images[0]
        self.lo, self.hi = self.proj.min(axis=1), self.proj.max(axis=1)
        self.queries = 0
        self.start = None

    def build(self):
        """Build the bucket index."""
        d = len(self.proj)
        cells = self.cells = max(1, int(len(self.facets) ** (1 / d)) // 4)
        self.width = np.where(self.hi > self.lo, (self.hi - self.lo) / cells, 1.0)
        # per axis, the buckets of the least and greatest corner of a facet
        first, count = [], []
        for axis, coords in enumerate(self.proj):
            lo = coords[self.facets[:, 0]]
            hi = lo.copy()
            for col in self.facets.T[1:]:
                np.minimum(lo, coords[col], out=lo)
                np.maximum(hi, coords[col], out=hi)
            first.append(self._bucket(lo, axis))
            count.append(self._bucket(hi, axis) - first[-1] + 1)
        # one entry per (facet, bucket) pair, buckets numbered row-major:
        # each axis repeats every entry once per bucket of its range
        facet = np.arange(len(self.facets), dtype=np.int32)
        bucket = np.zeros(len(self.facets), dtype=np.int32)
        for axis in range(d):
            entry, step = _ranges(count[axis][facet])
            facet = facet[entry]
            bucket = bucket[entry] * cells + first[axis][facet] + step
        # a stable sort of 16-bit keys is a radix sort
        key = bucket.astype(np.int16) if cells**d <= 2**15 else bucket
        self.ids = facet[np.argsort(key, kind="stable")]
        self.start = np.zeros(cells**d + 1, dtype=np.int32)
        np.cumsum(np.bincount(bucket, minlength=cells**d), out=self.start[1:])

    def _bucket(self, coords, axis=slice(None)):
        """Bucket numbers of projected coordinates inside the box, along one
        axis or, by default, along each axis of (..., d) points: monotone
        in the coordinate, so a point inside a facet's projected box falls
        in one of the facet's buckets."""
        cell = (coords - self.lo[axis]) / self.width[axis]
        return np.minimum(cell.astype(np.int32), self.cells - 1)

    def candidates(self, points):
        """``(rows, ids)``: for each row of the (T, d) projected points,
        facet indices that include every facet whose projected box contains
        it, none for a row outside the projected box of the vertices.  Each
        row inside the box is a query; the index is built once the grid has
        had more than one."""
        inside = np.flatnonzero(((self.lo <= points) & (points <= self.hi)).all(axis=1))
        self.queries += len(inside)
        if self.start is None and self.queries > 1:
            self.build()
        if self.start is None:
            if not len(inside):
                return inside, inside
            # one query: drop the facets whose corners all lie on one side
            # of its point along some axis
            side = np.zeros(self.proj.shape[1], dtype=np.uint8)
            for axis, (coords, c) in enumerate(zip(self.proj, points[inside[0]])):
                side |= (coords < c).view(np.uint8) << 2 * axis
                side |= (coords > c).view(np.uint8) << 2 * axis + 1
            common = side[self.facets[:, 0]]
            for col in self.facets.T[1:]:
                common &= side[col]
            ids = np.flatnonzero(common == 0)
            return np.full(len(ids), inside[0]), ids
        flat = np.ravel_multi_index(self._bucket(points[inside]).T, (self.cells,) * len(self.lo))
        begin = self.start[flat]
        entry, step = _ranges(self.start[flat + 1] - begin)
        return inside[entry], self.ids[begin[entry] + step]


def _ranges(counts):
    """``(entry, step)`` of ``counts[i]`` consecutive items per entry i:
    the entry of each item, and its place 0, 1, ... within the entry."""
    ends = np.cumsum(counts, dtype=np.int32)
    entry = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return entry, np.arange(len(entry), dtype=np.int32) - (ends - counts)[entry]


def crossing_count(grid: FacetGrid, ys):
    """``(counts, retry)`` for the (T, n) targets ``ys``: the signed number
    of the grid's facets that the ray y + t d (t > 0) crosses from each
    target, as floats, and the targets whose direction is ambiguous.

    A target is retried when the ray passes within rounding of an edge or
    vertex of a facet whose projection may contain its point; its count is
    NaN, and so is the count of a target within rounding of the plane of
    such a facet.
    """
    counts = np.zeros(len(ys))
    retry = np.zeros(len(ys), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        p = ys[:, 1:] - grid.slopes * ys[:, :1]
        rows, ids = grid.candidates(p)
        if not len(ids):
            return counts, retry
        corners = grid.facets[ids].T                          # (n, k)
        # the weights, one row per corner: of a segment's end, the other
        # end's offset; of a triangle's corner, the orientation of the
        # next two corners
        if p.shape[1] == 1:
            weight = (grid.proj[0][corners] - p[rows, 0])[::-1] * _SEGMENT_SIGNS[:, None]
            bound = 0.0
        else:
            left, right = _cofactors(grid.proj[:, corners] - p.T[:, None, rows])
            weight = left - right
            bound = 2 * _EPS * (np.abs(left) + np.abs(right))
        above, below = weight > bound, weight < -bound
        inside = above.all(axis=0) | below.all(axis=0)
        if not (above | below).all():
            # a weight within rounding: retry the targets whose ray may
            # graze an edge or vertex of such a facet
            retry[rows[~inside & ~(above.any(axis=0) & below.any(axis=0))]] = True
            inside &= ~retry[rows]
        # y lies behind a facet that contains p when the orientation of y
        # and the facet has the sign of the facet's weights
        rows, sign = rows[inside], np.sign(weight[0, inside])
        det, err = _orientation(grid.images[:, corners[:, inside]] - ys[rows].T[:, None, :])
        counts += np.bincount(rows, weights=np.where(det * sign > 0, sign, 0.0), minlength=len(ys))
    counts[rows[~(np.abs(det) > err)]] = math.nan      # on the plane, or overflowed
    counts[retry] = math.nan
    return counts, retry


def _cofactors(xy):
    """``(left, right)`` of (2, 3, k) corner coordinates x, y: per corner
    i, x[i+1] y[i+2] and y[i+1] x[i+2], whose difference is the
    orientation of corners i+1 and i+2 in the (x, y) plane."""
    one, two = xy[:, _NEXT], xy[:, _AFTER]
    return one[0] * two[1], one[1] * two[0]


def _orientation(m):
    """``(det, bound)`` of k 2x2 or 3x3 matrices, ``m[component, row]``
    an array of k floats: the determinants evaluated in floats, expanded
    along component 0, and bounds on their rounding errors."""
    if len(m) == 2:
        left, right = m[0, 0] * m[1, 1], m[1, 0] * m[0, 1]
        return left - right, 2 * _EPS * (np.abs(left) + np.abs(right))
    left, right = _cofactors(m[1:])
    terms = m[0] * (left - right)
    perm = np.abs(m[0]) * (np.abs(left) + np.abs(right))
    return terms[0] + terms[1] + terms[2], 8 * _EPS * (perm[0] + perm[1] + perm[2])


# ---------------------------------------------------------------------------
# Point-to-facet distances, for the homotopy-gap certificate of the degree
# probes.  The distance from y to a segment is its distance to the
# orthogonal projection of y onto the segment's line, clamped to the ends;
# to a triangle, the distance to its plane when the projection of y falls
# inside it (y lies left of each side, seen along the normal), else the
# least distance to its three sides.  Every sum runs one coordinate at a
# time, x, y, z, so a pointwise loop in floats gives the same distances.
# ---------------------------------------------------------------------------


def facet_distances(corners, ys):
    """The distance from each of k points to its facet: ``corners``
    (n, n, k) holds the facets' corners, ``corners[c, i]`` coordinate c of
    corner i (segments at n = 2, triangles at n = 3), and ``ys`` (n, k)
    the points, one column per facet."""
    n, m, k = corners.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 2:
            return _segment_distance(corners[:, 1] - corners[:, 0], ys - corners[:, 0])
        # the sides (a, b), (b, c), (c, a) of every triangle, side by side
        starts = corners.reshape(n, 3 * k)
        sides = corners[:, _NEXT].reshape(n, 3 * k) - starts
        offsets = np.concatenate([ys] * 3, axis=1) - starts
        nearest = _segment_distance(sides, offsets).reshape(3, k).min(axis=0)
        normal = _cross(sides[:, :k], -sides[:, 2 * k:])
        square = _dot(normal, normal)
        left = _dot(_cross(sides, offsets), np.concatenate([normal] * 3, axis=1)).reshape(3, k)
        inside = (left >= 0).all(axis=0) & (square > 0)
        plane = np.abs(_dot(offsets[:, :k], normal)) / np.sqrt(square)
    return np.where(inside, plane, nearest)


def _segment_distance(side, offset):
    """The distance from the ends of the (n, k) ``offset`` vectors to the
    segments from 0 along the ``side`` vectors."""
    square = _dot(side, side)
    t = np.minimum(np.maximum(np.where(square > 0, _dot(offset, side) / square, 0.0), 0.0), 1.0)
    rest = offset - t * side
    return np.sqrt(_dot(rest, rest))


def _dot(u, v):
    """Column dot products, summed x, y, z in turn."""
    return (u * v).sum(axis=0)


def _cross(u, v):
    return u[_NEXT] * v[_AFTER] - u[_AFTER] * v[_NEXT]


# ---------------------------------------------------------------------------
# Signed solid angle sums (van Oosterom & Strackee).  No package code calls
# this: the degree probes count ray crossings.  It stays because the tests
# take it as the crossing count's oracle, and because the benchmark's traced
# run wraps ``_kernels.solid_angle_sum`` by name.
#
# A triangle (a, b, c), with corners offset by -y, subtends the signed
# solid angle 2 atan2(a . (b x c), |a||b||c| + (a.b)|c| + (b.c)|a| +
# (c.a)|b|).  On a closed mesh the corners and sides are shared: each
# vertex is in about six faces and each edge in two.  So the kernel
# works on the vertex offsets, one component array each: the norms once
# per vertex, the dot products once per edge, and only the triple
# product once per face; the faces then gather them by index.
# ---------------------------------------------------------------------------


def solid_angle_sum(faces, edges, face_edges, images, y):
    """``(sum of signed solid angles, min |v - y|)`` of a closed mesh.

    ``images`` (3, V) holds the vertices component by component;
    ``faces`` (F, 3) and ``edges`` (E, 2) index its columns, and row f of
    ``face_edges`` indexes the edges (a, b), (b, c), (c, a) of
    face f = (a, b, c).  The angles are summed in face order.
    """
    # every three-term sum keeps the order of the per-triangle formula
    # it replaces (np.cross's cross product, einsum's (p0 + p2) + p1 dot
    # product, a (x^2 + y^2) + z^2 norm), so the sum is the same float
    x0, x1, x2 = images - y[:, None]
    norms = np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)
    e0, e1 = edges.T
    dots = (x0[e0] * x0[e1] + x2[e0] * x2[e1]) + x1[e0] * x1[e1]
    fa, fb, fc = faces.T
    b0, b1, b2 = x0[fb], x1[fb], x2[fb]
    c0, c1, c2 = x0[fc], x1[fc], x2[fc]
    det = ((x0[fa] * (b1 * c2 - b2 * c1) + x2[fa] * (b0 * c1 - b1 * c0))
           + x1[fa] * (b2 * c0 - b0 * c2))
    la, lb, lc = norms[fa], norms[fb], norms[fc]
    ab, bc, ca = face_edges.T
    den = la * lb * lc + dots[ab] * lc + dots[bc] * la + dots[ca] * lb
    return float(2.0 * np.arctan2(det, den).sum()), float(norms.min())
