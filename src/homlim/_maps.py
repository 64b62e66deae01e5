"""The evaluation convention that every map of the package shares.

A map has one body, ``_walk_rows(points, inverse=False, jacobian=False)``:
it runs the map, or with ``inverse`` its inverse, on every row of an
(N, n) array and returns (images, (N, n, n) Jacobians of the map it ran,
or None unless ``jacobian``).  The batch methods are calls of that body,
and a single point is a one-row batch.
"""

from __future__ import annotations

import numpy as np


def _one_row(point) -> np.ndarray:
    return np.asarray(point, dtype=float)[None, :]


class BatchMap:
    """Batch methods and one-row calls of the body ``_walk_rows``."""

    def forward_many(self, points: np.ndarray) -> np.ndarray:
        return self._walk_rows(points)[0]

    def inverse_many(self, points: np.ndarray) -> np.ndarray:
        return self._walk_rows(points, inverse=True)[0]

    def derivative_many(self, points: np.ndarray) -> np.ndarray:
        """Analytic Jacobians at every row of ``points``: an (N, n, n) array."""
        return self._walk_rows(points, jacobian=True)[1]

    def forward(self, point) -> np.ndarray:
        return self.forward_many(_one_row(point))[0]

    def inverse(self, point) -> np.ndarray:
        return self.inverse_many(_one_row(point))[0]

    def derivative(self, point) -> np.ndarray:
        return self.derivative_many(_one_row(point))[0]
