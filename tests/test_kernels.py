import math

import numpy as np
import pytest

from homlim import _kernels


def test_closed_surface_full_angle():
    # any closed outward surface subtends 4 pi from an interior point
    from homlim.degree import octasphere

    verts, faces = octasphere(2)
    tris = np.ascontiguousarray(verts[faces])
    total = _kernels.solid_angle_sum(tris, np.array([0.1, 0.0, -0.2]))
    assert total == pytest.approx(4 * math.pi, rel=1e-12)


def test_circle_winds_once():
    rng = np.random.default_rng(2)
    th = np.sort(rng.uniform(0, 2 * np.pi, 64))
    loop = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert _kernels.winding_sum(loop, np.array([0.1, 0.2])) == pytest.approx(1.0, abs=1e-9)
