import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlim.errors import InvalidAddressError
from homlim.geometry import (
    Address,
    ParameterSchedule,
    cell_center,
    cube_vertices,
    harmonic_schedule,
    limit_measure,
    locate,
    stage_measure,
    tower_slots,
)

A = ParameterSchedule(n=3, beta=4.0, kind="A")
B = ParameterSchedule(n=3, beta=4.0, kind="B")


class TestScheduleRadii:
    def test_kind_a_level_one(self):
        # r_1 = 2^{-1}(1+2^{-4})/2 = 17/64, r'_1 = alpha_0/2
        assert (A.r(1), A.r_outer(1)) == (17 / 64, 0.5)

    def test_level_zero_is_unit_cube(self):
        assert (A.r(0), A.r_outer(0)) == (1.0, 1.0)
        assert (B.r(0), B.r_outer(0)) == (1.0, 1.0)

    def test_kind_b_level_two(self):
        assert (B.r(2), B.r_outer(2)) == (2.0**-10, 2.0**-6)

    def test_outer_is_half_previous_inner(self):
        for k in range(1, 12):
            assert A.r_outer(k) == pytest.approx(A.r(k - 1) / 2, rel=0, abs=0)

    def test_alpha_strictly_decreasing(self):
        # strictly decreasing until the float plateau at the limit value
        for sched in (A, B, harmonic_schedule(3)):
            vals = [sched.alpha(k) for k in range(20)]
            lim = sched.alpha_limit()
            assert vals[0] == 1.0
            assert all(b < a or (b == a == lim) for a, b in zip(vals, vals[1:]))
            assert vals[-1] >= 0


class TestCellCenter:
    def test_first_level_corner(self):
        addr = Address("setA", ((1, 1, 1),))
        assert np.allclose(cell_center(A, addr), [0.5, 0.5, 0.5])

    def test_tower_first_slot(self):
        addr = Address("towerB", (tower_slots(3)[0],))
        assert np.allclose(cell_center(B, addr), [0, 0, -7 / 8])

    def test_empty_word_is_origin(self):
        assert np.allclose(cell_center(A, Address("setA", ())), 0.0)

    def test_invalid_letter_rejected(self):
        with pytest.raises(InvalidAddressError):
            Address("setA", ((2, 0, 0),))
        with pytest.raises(InvalidAddressError):
            Address("towerB", ((1, 1, 1),))

    def test_children_outer_cubes_tile_parent(self):
        # the 2^n half-open outer child cubes partition the parent inner cube
        rng = np.random.default_rng(0)
        parent = Address("setA", ((1, -1, 1),))
        zp = cell_center(A, parent)
        pts = zp + A.r(1) * rng.uniform(-1, 1, size=(300, 3)) * 0.999
        r_out = A.r_outer(2)
        for x in pts:
            hits = 0
            for v in cube_vertices(3):
                z = cell_center(A, parent.child(v))
                hits += bool(np.all(x >= z - r_out) and np.all(x < z + r_out))
            assert hits == 1


class TestLocate:
    def test_frame_level_one(self):
        loc = locate(A, "setA", (0.1, 0.1, 0.1), 5)
        assert loc.zone == "frame"
        assert loc.address.word == ((1, 1, 1),)
        assert loc.sup_offset == pytest.approx(0.4)

    def test_center_stays_core(self):
        # the deep cell center stays inside every nested inner cube
        word = ((1, 1, 1),) * 3
        x = cell_center(A, Address("setA", word))
        loc = locate(A, "setA", x, 3)
        assert loc.zone == "core"
        assert loc.address.word == word

    def test_tower_outside(self):
        loc = locate(B, "towerB", (0.9, 0.9, 0.9), 5)
        assert loc.zone == "outside"

    def test_locate_inverts_cell_center(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            word = tuple(tuple(rng.choice([-1, 1], 3)) for _ in range(4))
            addr = Address("setA", word)
            loc = locate(A, "setA", cell_center(A, addr), 4)
            assert loc.zone == "core"
            assert loc.address.word == word

    @given(st.lists(st.floats(-1, 1, exclude_max=True, allow_nan=False), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_total_on_half_open_cube(self, coords):
        loc = locate(A, "setA", np.array(coords), 6)
        assert loc.zone in ("frame", "core")
        if loc.zone == "frame":
            k = loc.address.level
            assert A.r(k) <= loc.sup_offset <= A.r_outer(k)


class TestMeasures:
    def test_limit_measures(self):
        assert limit_measure(A) == pytest.approx(1.0)
        assert limit_measure(B) == 0.0

    def test_stage_measure_value(self):
        assert stage_measure(A, 1) == pytest.approx(8 * (17 / 32) ** 3)

    def test_stage_measure_monotone_to_limit(self):
        lim = limit_measure(A)
        vals = [stage_measure(A, k) for k in range(21)]
        assert all(b < a or (b == a == lim) for a, b in zip(vals, vals[1:]))
        assert vals[20] == pytest.approx(lim, abs=1e-9)

