"""Hot numeric kernels, vectorized with numpy.

The loops that dominate runtime: batched evaluation of the nested-cube
homeomorphism, and signed ray-crossing counts over a bucket grid of the
facets of a closed loop or triangle mesh.
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
# swapped radius arrays evaluates the exact inverse.
# ---------------------------------------------------------------------------


def cantor_map_points(points, rs, rs_out, rt, rt_out, stage, out):
    return cantor_map_descended(points, descend_set(points, rs, stage),
                                rs, rs_out, rt, rt_out, stage, out)


def cantor_map_descended(points, descent, rs, rs_out, rt, rt_out, stage, out):
    """``cantor_map_points`` from the ``descend_set`` of the points."""
    level, letters, zs, t = descent
    zt = 0.5 * rt[0] * letters[0]
    for lev in range(2, stage + 1):
        zt = zt + 0.5 * rt[lev - 1] * letters[lev - 1]
    scale = np.full(len(points), rt[stage] / rs[stage])
    frame = level > 0
    if frame.any():
        lv, tf = level[frame], t[frame]
        lam = rt[lv] + (tf - rs[lv]) * (rt_out[lv] - rt[lv]) / (rs_out[lv] - rs[lv])
        scale[frame] = np.where(tf == rs_out[lv], rt_out[lv], lam) / tf
    out[:] = zt + scale[:, None] * (points - zs)
    return out


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
    orientation.  The first query scans every facet with a per-vertex side
    test; the second builds the index, which cuts the projected box of the
    vertices into about F / 16 buckets (2-D) or F / 4 (1-D) and lists each
    facet, by int32 CSR, in every bucket that its projected box meets.  A
    query then reads the facets of the point's bucket only.  Building costs
    a few scans, which a mesh queried once would never repay.
    """

    def __init__(self, images, facets, slopes):
        self.images = images
        self.slopes = tuple(slopes)
        self.facets = facets
        self.proj = images[1:] - np.array(self.slopes)[:, None] * images[0]
        self.lo, self.hi = self.proj.min(axis=1).tolist(), self.proj.max(axis=1).tolist()
        self.queries = 0
        self.start = None

    def build(self):
        """Build the bucket index."""
        d = len(self.proj)
        cells = self.cells = max(1, int(len(self.facets) ** (1 / d)) // 4)
        self.width = [(hi - lo) / cells if hi > lo else 1.0 for lo, hi in zip(self.lo, self.hi)]
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
            repeats = count[axis][facet]
            ends = np.cumsum(repeats, dtype=np.int32)
            entry = np.repeat(np.arange(len(facet), dtype=np.int32), repeats)
            step = np.arange(ends[-1], dtype=np.int32) - (ends - repeats)[entry]
            facet = facet[entry]
            bucket = bucket[entry] * cells + first[axis][facet] + step
        # a stable sort of 16-bit keys is a radix sort
        key = bucket.astype(np.int16) if cells**d <= 2**15 else bucket
        self.ids = facet[np.argsort(key, kind="stable")]
        self.start = np.zeros(cells**d + 1, dtype=np.int32)
        np.cumsum(np.bincount(bucket, minlength=cells**d), out=self.start[1:])

    def _bucket(self, coords, axis):
        """Bucket numbers along an axis of projected coordinates inside the
        box: monotone in the coordinate, so a point inside a facet's
        projected box falls in one of the facet's buckets."""
        cell = (coords - self.lo[axis]) / self.width[axis]
        return np.minimum(cell.astype(np.int32), self.cells - 1)

    def candidates(self, p):
        """Indices of facets that include every facet whose projected box
        contains the projected point p: none when p lies outside the
        projected box of the vertices.  Builds the index on the second
        query."""
        if not all(lo <= c <= hi for c, lo, hi in zip(p, self.lo, self.hi)):
            return self.facets[:0, 0]
        self.queries += 1
        if self.start is None and self.queries > 1:
            self.build()
        if self.start is None:
            # drop the facets whose corners all lie on one side of p
            # along some axis
            side = np.zeros(self.proj.shape[1], dtype=np.uint8)
            for axis, (coords, c) in enumerate(zip(self.proj, p)):
                side |= (coords < c).view(np.uint8) << 2 * axis
                side |= (coords > c).view(np.uint8) << 2 * axis + 1
            common = side[self.facets[:, 0]]
            for col in self.facets.T[1:]:
                common &= side[col]
            return np.flatnonzero(common == 0)
        flat = 0
        for c, lo, width in zip(p, self.lo, self.width):
            flat = flat * self.cells + min(int((c - lo) / width), self.cells - 1)
        return self.ids[self.start[flat]:self.start[flat + 1]]


def crossing_count(grid: FacetGrid, y):
    """Signed number of the grid's facets that the ray y + t d (t > 0)
    crosses, as a float.

    ``None`` when the ray passes within rounding of an edge or vertex of a
    facet whose projection may contain p (the direction is ambiguous), and
    NaN when y lies within rounding of the plane of such a facet.
    """
    y = y.tolist()
    p = [c - s * y[0] for c, s in zip(y[1:], grid.slopes)]
    ids = grid.candidates(p)
    if not len(ids):
        return 0.0
    corners = grid.facets[ids]                                # (k, n)
    if len(p) == 1:
        # the weight of each end of a segment is the other end's offset
        weight = (grid.proj[0][corners] - p[0])[:, ::-1] * _SEGMENT_SIGNS
        bound = 0.0
    else:
        # the weight of corner i is the orientation of corners i+1 and i+2
        u = grid.proj[0][corners] - p[0]
        v = grid.proj[1][corners] - p[1]
        left = u[:, _NEXT] * v[:, _AFTER]
        right = v[:, _NEXT] * u[:, _AFTER]
        weight = left - right
        bound = 2 * _EPS * (np.abs(left) + np.abs(right))
    above = weight > bound
    if (np.abs(weight) > bound).all():
        inside = above.all(axis=1) | ~above.any(axis=1)
    else:
        below = weight < -bound
        inside = above.all(axis=1) | below.all(axis=1)
        if (~inside & ~(above.any(axis=1) & below.any(axis=1))).any():
            return None
    # a ray meets few facets: finish them one at a time
    count = 0
    for sign, corner in zip(np.sign(weight[inside, 0]).tolist(), corners[inside].tolist()):
        det, err = _orientation([[float(c) - t for c, t in zip(grid.images[:, i], y)]
                                 for i in corner])
        if not abs(det) > err:      # on the plane, or overflowed
            return math.nan
        if det * sign > 0:
            count += sign
    return float(count)


def _orientation(rows):
    """``(det, bound)`` of a 2x2 or 3x3 matrix of floats given by rows: the
    determinant evaluated in floats, and a bound on its rounding error."""
    if len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        left, right = a0 * b1, a1 * b0
        return left - right, 2 * _EPS * (abs(left) + abs(right))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    bc, ca, ab = b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1
    perm = (abs(a0) * (abs(b1 * c2) + abs(b2 * c1)) + abs(b0) * (abs(c1 * a2) + abs(c2 * a1))
            + abs(c0) * (abs(a1 * b2) + abs(a2 * b1)))
    return a0 * bc + b0 * ca + c0 * ab, 8 * _EPS * perm


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
