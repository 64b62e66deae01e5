import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homlim.geometry import (
    ParameterSchedule,
    cell_center,
    cube_vertices,
    descend_set,
    harmonic_schedule,
    limit_measure,
    row_max,
    stage_measure,
    tower_slots,
    tower_step,
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
        assert np.allclose(cell_center(A, ((1, 1, 1),)), [0.5, 0.5, 0.5])

    def test_tower_first_slot(self):
        assert np.allclose(cell_center(B, (tower_slots(3)[0],), tower=True), [0, 0, -7 / 8])

    def test_empty_word_is_origin(self):
        assert np.allclose(cell_center(A, ()), 0.0)

    def test_children_outer_cubes_tile_parent(self):
        # the 2^n half-open outer child cubes partition the parent inner cube
        rng = np.random.default_rng(0)
        parent = ((1, -1, 1),)
        zp = cell_center(A, parent)
        pts = zp + A.r(1) * rng.uniform(-1, 1, size=(300, 3)) * 0.999
        r_out = A.r_outer(2)
        for x in pts:
            hits = 0
            for v in cube_vertices(3):
                z = cell_center(A, parent + (v,))
                hits += bool(np.all(x >= z - r_out) and np.all(x < z + r_out))
            assert hits == 1


class TestDescents:
    @given(st.booleans(), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_descent_inverts_cell_center(self, tower, k, data):
        # the descent from a cell's center returns the cell's word and
        # center, bit for bit: descend_set on the setA tree (the center
        # stays inside every nested inner cube), tower_step on towerB
        alphabet = tower_slots(3) if tower else cube_vertices(3)
        word = tuple(data.draw(st.lists(st.sampled_from(alphabet), min_size=k, max_size=k)))
        sched = B if tower else A
        x = cell_center(sched, word, tower)[None, :]
        if tower:
            z, found = np.zeros((1, 3)), []
            for j in range(1, k + 1):
                tile, z = tower_step(x, z, sched.r(j - 1))
                found.append(alphabet[tile[0]])
        else:
            level, letters, z, _ = descend_set(x, sched.radii(k)[0], k)
            assert level[0] == 0
            found = [tuple(int(s) for s in letters[j, 0]) for j in range(k)]
        assert tuple(found) == word
        assert np.array_equal(z[0], x[0])

    @given(st.lists(st.lists(st.floats(-1, 1, exclude_max=True, allow_nan=False),
                             min_size=3, max_size=3), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_set_frames_lie_between_the_radii(self, rows):
        # every row of the half-open cube stops in a level-k frame, where
        # r_k <= t <= r'_k, or stays inside the level-6 inner cube
        level, _, _, sup = descend_set(np.array(rows), A.radii(6)[0], 6)
        for k, t in zip(level, sup):
            if k:
                assert A.r(k) <= t <= A.r_outer(k)
            else:
                assert t < A.r(6)


# the magnitudes a sup norm folds: +0, subnormals, normal floats, inf, NaN
MAGNITUDES = st.one_of(st.just(0.0), st.floats(5e-324, 2.0**-1022, exclude_max=True),
                       st.floats(0.0, allow_infinity=False), st.just(math.inf),
                       st.just(math.nan))


def row_arrays(elements):
    # (N, m) arrays, m = 1..9: from m = 9 on, numpy's reduce and the fold
    # can return zeros of different sign
    shapes = st.tuples(st.integers(0, 40), st.integers(1, 9))
    return arrays(np.float64, shapes, elements=elements)


class TestRowMax:
    @given(row_arrays(MAGNITUDES))
    @settings(max_examples=300, deadline=None)
    def test_magnitudes_match_the_reduce_bit_for_bit(self, a):
        out = row_max(a)
        assert out.shape == (len(a),)
        assert out.tobytes() == np.maximum.reduce(a, axis=1).tobytes()

    @given(row_arrays(st.floats()))
    @settings(max_examples=300, deadline=None)
    def test_signed_rows_match_the_reduce_as_values(self, a):
        # equal values, zeros of either sign, NaN where the reduce has it
        np.testing.assert_array_equal(row_max(a), np.maximum.reduce(a, axis=1))

    def test_every_column_counts(self):
        for m in range(1, 10):
            for j in range(m):
                a = np.zeros((2, m))
                a[1, j] = 1.0
                assert row_max(a).tolist() == [0.0, 1.0]


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

