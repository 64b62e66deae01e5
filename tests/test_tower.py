import numpy as np
import pytest

from homlim.cantor_map import CantorHomeomorphism
from homlim.errors import InvalidAddressError
from homlim.geometry import ParameterSchedule, cube_vertices
from homlim.tower import (
    TowerMapping,
    relocation_moves,
    slot_correspondence,
    verify_goodmap,
)

B = ParameterSchedule(n=3, beta=4.0, kind="B")
A = ParameterSchedule(n=3, beta=4.0, kind="A")


class TestSlotCorrespondence:
    def test_extreme_vertices(self):
        assert slot_correspondence((-1, -1, -1)) == (0.0, 0.0, -7 / 8)
        assert slot_correspondence((1, 1, 1)) == (0.0, 0.0, 7 / 8)

    def test_bijective(self):
        # the 2^n vertices map to 2^n distinct slots
        for n in (2, 3, 4):
            assert len({slot_correspondence(v) for v in cube_vertices(n)}) == 2**n

    def test_rejects_non_vertex(self):
        with pytest.raises(InvalidAddressError):
            slot_correspondence((0, 1, 1))


class TestRelocationLayout:
    def test_move_table_builds_for_admissible_beta(self):
        for n, beta in ((2, 3.0), (3, 4.0), (3, 5.0), (4, 5.0)):
            moves = relocation_moves(n, beta)
            assert len(moves) >= 2**n  # at least one leg per child

    def test_moves_stay_inside_cell(self):
        for mv in relocation_moves(3, 4.0):
            lo, hi = mv.corridor_box(3)
            assert np.all(lo > -1.0) and np.all(hi < 1.0)


class TestTowerMapping:
    def test_cell_center_moves_to_slot(self):
        L = TowerMapping(B, 1)
        assert np.allclose(L.forward((0.5, 0.5, 0.5)), (0, 0, 7 / 8))

    def test_identity_outside_corridors(self):
        L = TowerMapping(B, 1)
        x = np.array([0.9, -0.9, 0.9])
        assert np.array_equal(L.forward(x), x)

    def test_boundary_identity_exact(self):
        L = TowerMapping(B, 3)
        rng = np.random.default_rng(0)
        for axis in range(3):
            for side in (-1.0, 1.0):
                pts = rng.uniform(-1, 1, (30, 3))
                pts[:, axis] = side
                for x in pts:
                    assert np.array_equal(L.forward(x), x)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
    def test_roundtrip(self, stage):
        L = TowerMapping(B, stage)
        rng = np.random.default_rng(stage)
        pts = rng.uniform(-1, 1, (300, 3))
        for x in pts:
            assert np.max(np.abs(L.inverse(L.forward(x)) - x)) < 1e-11
            assert np.max(np.abs(L.forward(L.inverse(x)) - x)) < 1e-11

    def test_sampled_injectivity(self):
        L = TowerMapping(B, 3)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, (500, 3))
        images = L.forward_many(pts)
        d = np.sqrt(((images[:, None, :] - images[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, 1.0)
        src = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(src, 1.0)
        assert d[src > 1e-6].min() > 1e-12

    def test_goodmap(self):
        for stage in (1, 2):
            L = TowerMapping(B, stage)
            report = verify_goodmap(L, stage)
            assert all(report.values())

    def test_empirical_bilipschitz_uniform_in_stage(self):
        # max pairwise stretch (both ways) stays under one constant, k <= 5
        rng = np.random.default_rng(11)
        worst = []
        for stage in range(1, 6):
            L = TowerMapping(B, stage)
            pts = rng.uniform(-1, 1, (200, 3))
            images = L.forward_many(pts)
            d_src = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            d_img = np.sqrt(((images[:, None] - images[None]) ** 2).sum(-1))
            mask = d_src > 1e-9
            ratio = d_img[mask] / d_src[mask]
            worst.append(max(ratio.max(), (1 / ratio).max()))
        assert max(worst) < 200.0

    def test_composes_with_cantor_map_addresswise(self):
        # L o g carries level-k fat cells onto level-k tower cells
        stage = 2
        g = CantorHomeomorphism(A, B, stage)
        L = TowerMapping(B, stage)
        rng = np.random.default_rng(3)
        for _ in range(20):
            word = tuple(tuple(rng.choice([-1, 1], 3)) for _ in range(stage))
            z = np.zeros(3)
            z_hat = np.zeros(3)
            for j, v in enumerate(word):
                z = z + 0.5 * A.r(j) * np.array(v, dtype=float)
                z_hat = z_hat + B.r(j) * np.array(slot_correspondence(v))
            pts = z + A.r(stage) * 0.9 * rng.uniform(-1, 1, (10, 3))
            out = np.array([L.forward(g.forward(p)) for p in pts])
            assert np.max(np.abs(out - z_hat)) <= B.r(stage) + 1e-12

    def test_derivative_matches_fd(self):
        L = TowerMapping(B, 2)
        rng = np.random.default_rng(5)
        h = 1e-8
        good = 0
        for x in rng.uniform(-0.98, 0.98, (60, 3)):
            da = L.derivative(x)
            df = np.empty((3, 3))
            for d_ in range(3):
                e = np.zeros(3)
                e[d_] = h
                df[:, d_] = (L.forward(x + e) - L.forward(x - e)) / (2 * h)
            if np.max(np.abs(da - df)) / max(1.0, np.abs(da).max()) < 1e-5:
                good += 1
        assert good >= 52  # interface-straddling samples excluded
