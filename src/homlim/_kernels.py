"""Hot numeric kernels, vectorized with numpy.

The loops that dominate runtime: batched evaluation of the nested-cube
homeomorphism, signed solid-angle sums over triangle meshes, and planar
winding sums.
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
# ---------------------------------------------------------------------------


def solid_angle_sum(tris, y):
    v = tris - y[None, None, :]
    a, b, c = v[:, 0, :], v[:, 1, :], v[:, 2, :]
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = (
        la * lb * lc
        + np.einsum("ij,ij->i", a, b) * lc
        + np.einsum("ij,ij->i", b, c) * la
        + np.einsum("ij,ij->i", c, a) * lb
    )
    return float(2.0 * np.arctan2(det, den).sum())


# ---------------------------------------------------------------------------
# Planar winding sums for n = 2 degrees.
# ---------------------------------------------------------------------------


def winding_sum(loop, y):
    v = loop - y[None, :]
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
    dot = v[:, 0] * w[:, 0] + v[:, 1] * w[:, 1]
    return float(np.arctan2(cross, dot).sum() / (2.0 * np.pi))
