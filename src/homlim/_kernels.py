"""Hot numeric kernels, vectorized with numpy.

The loops that dominate runtime: batched evaluation of the nested-cube
homeomorphism, signed solid-angle sums over closed triangle meshes with
shared vertices and edges, and planar winding sums.
"""

from __future__ import annotations

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
# Signed solid angle sums (van Oosterom & Strackee) for n = 3 degrees.
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


# ---------------------------------------------------------------------------
# Planar winding sums for n = 2 degrees.
# ---------------------------------------------------------------------------


def winding_sum(loop, y):
    """Winding number of the closed loop (2, N), held component by
    component, around y."""
    v0, v1 = loop - y[:, None]
    w0, w1 = np.roll(v0, -1), np.roll(v1, -1)
    cross = v0 * w1 - v1 * w0
    dot = v0 * w0 + v1 * w1
    return float(np.arctan2(cross, dot).sum() / (2.0 * np.pi))
