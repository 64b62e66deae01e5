"""The stage-k homeomorphism carrying one nested-cube set onto another.

Inside the level-i frame Q'_{v(i)} \\ Q_{v(i)} the map is radial in the
sup norm: x = z + t u with |u|_inf = 1 goes to z~ + lambda(t) u, where
lambda is affine with lambda(r_i) = r~_i and lambda(r'_i) = r~'_i.  On a
level-k inner cube it is the linear scaling by r~_k / r_k.  Because
r'_i = r_{i-1}/2 and r~'_i = r~_{i-1}/2 the frame maps agree with the
enclosing linear map on both boundaries, so no glue region is needed and
the piecewise inverse is exact.  Every evaluation, images and Jacobians
of the map or of its inverse, is one call of the batched kernel
``_kernels.cantor_map_points``, which descends the address tree once.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._maps import BatchMap
from .errors import DomainError
from .geometry import ParameterSchedule

__all__ = ["CantorHomeomorphism"]


class CantorHomeomorphism(BatchMap):
    """Bijection of [-1,1]^n mapping the stage-k source cells onto target cells.

    Parameters
    ----------
    src, dst : ParameterSchedule
        Source and target schedules (same n).  alpha_0 = beta_0 = 1 makes
        the map the identity on the cube boundary.
    stage : int
        Construction depth k; the map is linear on the 2^{nk} level-k cells.

    The inverse map is ``CantorHomeomorphism(dst, src, stage)``: the same
    kernel on the same radius arrays, with their roles swapped.
    """

    def __init__(self, src: ParameterSchedule, dst: ParameterSchedule, stage: int):
        if src.n != dst.n:
            raise ValueError("source and target schedules disagree on n")
        if stage < 1:
            raise ValueError("stage must be >= 1")
        self.src = src
        self.dst = dst
        self.stage = stage
        self.n = src.n
        self._rs, self._rs_out = src.radii(stage)
        self._rt, self._rt_out = dst.radii(stage)

    def _walk_rows(self, points, inverse: bool = False, jacobian: bool = False):
        """The map, or with ``inverse`` its inverse (the same kernel with the
        radius arrays swapped), on every row of ``points``: (images, (N, n, n)
        Jacobians or None), from one kernel call.  A Jacobian is undefined on
        the sup-norm edge set (non-unique max coordinate), where the first
        max index is used; Jacobians need every row in [-1, 1]^n."""
        x = np.ascontiguousarray(points, dtype=float)
        radii = (self._rs, self._rs_out, self._rt, self._rt_out)
        rs, rs_out, rt, rt_out = radii[2:] + radii[:2] if inverse else radii
        if jacobian and x.size and np.abs(x).max() > 1.0:
            raise DomainError("point outside [-1,1]^n")
        return _kernels.cantor_map_points(x, rs, rs_out, rt, rt_out, self.stage, jacobian)

    def derivative_bound(self, level: int) -> float:
        """Sharp sup of the radial-map stretch on the level-i frame:
        max{beta_i/alpha_i, (beta_{i-1}-beta_i)/(alpha_{i-1}-alpha_i)},
        alpha the source and beta the target schedule (the inverse map is
        the map with the two schedules swapped)."""
        if not 1 <= level <= self.stage:
            raise ValueError("level out of range")
        a0, a1 = self.src.alpha(level - 1), self.src.alpha(level)
        b0, b1 = self.dst.alpha(level - 1), self.dst.alpha(level)
        return max(b1 / a1, (b0 - b1) / (a0 - a1))
