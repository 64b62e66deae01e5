"""The evaluation convention that every map of the package shares.

A map has one body, ``_walk_rows(points, inverse=False, jacobian=False,
stages=None)``: it runs the map, or with ``inverse`` its inverse, on
every row of an (N, n) array and returns (images, (N, n, n) Jacobians of
the map it ran, or None unless ``jacobian``).  The batch methods are
calls of that body, and a single point is a one-row batch.

A map built for stage k also evaluates the stages below it: ``stages``,
an (N,) int array with 1 <= s <= k, runs row i at stage ``stages[i]``.
The radii, tower levels and tentacle levels of stage s are the first s
of stage k's, and every walk's arithmetic is per row, so each row gets,
float for float, what the stage-s map gives it.  With None every row
runs at the map's own stage, and no walk does any operation for it.
"""

from __future__ import annotations

import numpy as np


def _one_row(point) -> np.ndarray:
    return np.asarray(point, dtype=float)[None, :]


def row_stages(stages, stage: int, count: int) -> np.ndarray | None:
    """``stages`` as an (N,) intp array, or None for None; a ValueError
    unless it holds one stage per row with 1 <= s <= ``stage``."""
    if stages is None:
        return None
    stages = np.asarray(stages, dtype=np.intp)
    if stages.shape != (count,) or ((stages < 1) | (stages > stage)).any():
        raise ValueError(f"stages must hold one stage in 1..{stage} per row")
    return stages


class BatchMap:
    """Batch methods and one-row calls of the body ``_walk_rows``."""

    def forward_many(self, points: np.ndarray) -> np.ndarray:
        return self._walk_rows(points)[0]

    def inverse_many(self, points: np.ndarray) -> np.ndarray:
        return self._walk_rows(points, inverse=True)[0]

    def derivative_many(self, points: np.ndarray, stages=None) -> np.ndarray:
        """Analytic Jacobians at every row of ``points``: an (N, n, n) array;
        with ``stages``, row i's of stage ``stages[i]``."""
        return self._walk_rows(points, jacobian=True, stages=stages)[1]

    def forward(self, point) -> np.ndarray:
        return self.forward_many(_one_row(point))[0]

    def inverse(self, point) -> np.ndarray:
        return self.inverse_many(_one_row(point))[0]

    def derivative(self, point) -> np.ndarray:
        return self.derivative_many(_one_row(point))[0]
