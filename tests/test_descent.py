"""Property tests for the shared address-tree descents.

``geometry.descend_set`` holds the setA/setB child rule and feeds the
batched Cantor kernel and the Cantor derivative; ``geometry.tower_step``
holds the towerB tile rule and feeds ``TowerMapping``.  The points sit on half-open faces (a coordinate equal to
a cell center), on frame radii, on slot-tile boundaries, within an ulp of
cell faces, and at random.  Every comparison is bit-exact, except the
finite-difference check of the derivative.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_maps import move_apply

from homlim import _kernels
from homlim.cantor_map import CantorHomeomorphism
from homlim.geometry import (
    ParameterSchedule,
    cell_center,
    cube_vertices,
    descend_set,
    tower_slots,
)
from homlim.tower import TowerMapping, relocation_moves

A = ParameterSchedule(n=3, beta=4.0, kind="A")
B = ParameterSchedule(n=3, beta=4.0, kind="B")
SLOTS = tower_slots(3)
COORD = st.floats(-1, 1, allow_nan=False)


def reference_set_walk(x, sched, depth):
    """The setA/setB child rule written out in Python floats."""
    z = [0.0] * len(x)
    word = []
    for k in range(1, depth + 1):
        v = tuple(1 if xd >= zd else -1 for xd, zd in zip(x, z))
        z = [zd + 0.5 * sched.r(k - 1) * vd for zd, vd in zip(z, v)]
        word.append(v)
        t = max(abs(xd - zd) for xd, zd in zip(x, z))
        if t >= sched.r(k):
            return k, word, z, t
    return 0, word, z, t


def reference_tower_cell(x, sched, level):
    """The towerB tile rule written out in Python floats: the center of the
    level-``level`` cell holding x, or None when x leaves a cell on the way."""
    n = len(x)
    z = [0.0] * n
    for k in range(1, level + 1):
        r_prev = sched.r(k - 1)
        tile = math.floor((x[n - 1] - z[n - 1] + r_prev) / (2.0 * r_prev / 2**n))
        if not 0 <= tile < 2**n:
            return None
        z = [zd + r_prev * sd for zd, sd in zip(z, SLOTS[tile])]
        if max(abs(xd - zd) for xd, zd in zip(x, z)) >= sched.r(k):
            return None
    return np.array(z)


def set_cell(sched, x, depth):
    """The setA/setB cell of the point x by ``descend_set``: (frame level, 0
    inside the level-``depth`` inner cube; word; sup offset)."""
    level, letters, _, sup = descend_set(x[None, :], sched.radii(depth)[0], depth)
    k = int(level[0]) or depth
    return int(level[0]), tuple(map(tuple, letters[:k, 0])), float(sup[0])


@st.composite
def set_points(draw, sched):
    """A point of [-1,1]^3 near a level-k cell of the setA/setB tree."""
    k = draw(st.integers(1, 4))
    word = tuple(draw(st.lists(st.sampled_from(cube_vertices(3)), min_size=k, max_size=k)))
    z = cell_center(sched, word)
    u = np.array(draw(st.lists(COORD, min_size=3, max_size=3)))
    kind = draw(st.sampled_from(["face", "frame", "random"]))
    if kind == "random":
        return u
    if kind == "frame":
        u[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
        return z + draw(st.sampled_from([sched.r(k), sched.r_outer(k)])) * u
    # copy coordinates of an ancestor center: equality with the center
    # the sign rule compares against at the next level
    x = z + sched.r(k) * u
    zj = cell_center(sched, word[: draw(st.integers(0, k - 1))])
    for d in draw(st.sets(st.integers(0, 2), min_size=1)):
        x[d] = zj[d]
    return x


@st.composite
def set_batches(draw):
    sched = draw(st.sampled_from([A, B]))
    pts = draw(st.lists(set_points(sched), min_size=1, max_size=12))
    return sched, np.array(pts), draw(st.integers(1, 4))


class TestSetDescent:
    @given(set_batches())
    @settings(max_examples=150, deadline=None)
    def test_batched_rows_match_reference_and_one_row_calls(self, case):
        sched, pts, depth = case
        radii = np.array([sched.r(k) for k in range(depth + 1)])
        level, letters, center, sup = descend_set(pts, radii, depth)
        for i, x in enumerate(pts):
            k, word, z, t = reference_set_walk(x, sched, depth)
            assert level[i] == k
            assert np.array_equal(letters[: len(word), i], np.array(word, float))
            assert not letters[len(word):, i].any()
            assert np.array_equal(center[i], z) and sup[i] == t
            one = descend_set(pts[i : i + 1], radii, depth)
            assert one[0][0] == level[i] and one[3][0] == sup[i]
            assert np.array_equal(one[1][:, 0], letters[:, i])
            assert np.array_equal(one[2][0], center[i])


class TestCantorKernel:
    @given(set_batches())
    @settings(max_examples=100, deadline=None)
    def test_batched_rows_match_one_row_calls(self, case):
        _, pts, stage = case
        g = CantorHomeomorphism(A, B, stage)
        fwd, inv = g.forward_many(pts), g.inverse_many(pts)
        back = g.inverse_many(fwd)
        for i, x in enumerate(pts):
            assert np.array_equal(fwd[i], g.forward(x))
            assert np.array_equal(inv[i], g.inverse(x))
            assert np.array_equal(back[i], g.inverse(g.forward(x)))
            assert np.max(np.abs(back[i] - x)) < 1e-10

    @given(set_batches())
    @settings(max_examples=60, deadline=None)
    def test_kernel_takes_locate_cells(self, case):
        # the image of a point is its offset from its source cell (as
        # descend_set finds it), rescaled about the center of the target
        # cell of the same word
        sched, pts, stage = case
        src, dst = (A, B) if sched is A else (B, A)
        g = CantorHomeomorphism(src, dst, stage)
        rs, rs_out = src.radii(stage)
        rt, rt_out = dst.radii(stage)
        out = _kernels.cantor_map_points(pts, rs, rs_out, rt, rt_out, stage)[0]
        for x, y in zip(pts, out):
            frame, word, t = set_cell(src, x, stage)
            k = len(word)
            zs = cell_center(src, word)
            zt = cell_center(dst, word)
            if not frame:
                scale = rt[stage] / rs[stage]
            else:
                lam = rt[k] + (t - rs[k]) * (rt_out[k] - rt[k]) / (rs_out[k] - rs[k])
                scale = (rt_out[k] if t == rs_out[k] else lam) / t
            assert np.array_equal(y, zt + scale * (x - zs))
            assert np.array_equal(y, g.forward(x))


class TestCantorDerivative:
    @given(set_batches(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form_at_located_cell(self, case, forward):
        _, pts, stage = case
        src, dst = (A, B) if forward else (B, A)
        g = CantorHomeomorphism(src, dst, stage)
        for x in pts:
            k, word, t = set_cell(src, x, stage)
            d = g.derivative(x)
            if not k:
                assert np.array_equal(d, (dst.r(stage) / src.r(stage)) * np.eye(3))
                continue
            xi = x - cell_center(src, word)
            slope = (dst.r_outer(k) - dst.r(k)) / (src.r_outer(k) - src.r(k))
            lam = dst.r(k) + (t - src.r(k)) * slope
            mx = int(np.argmax(np.abs(xi)))
            expect = (lam / t) * np.eye(3)
            expect[:, mx] += ((slope - lam / t) / t) * (xi * np.sign(xi[mx]))
            assert np.array_equal(d, expect)

    @given(set_batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_central_differences_off_interfaces(self, case):
        _, pts, stage = case
        g = CantorHomeomorphism(A, B, stage)
        for x in pts:
            cell = set_cell(A, x, stage)
            h = 1e-3 * A.r(len(cell[1]))
            top = np.sort(np.abs(x - cell_center(A, cell[1])))
            # skip points whose stencil leaves the cube, crosses a face or a
            # frame radius, or meets the sup-norm edge set
            if np.max(np.abs(x)) >= 1 - 2 * h or top[-1] - top[-2] <= 4 * h:
                continue
            steps = [s * e for s in (-2 * h, 2 * h) for e in np.eye(3)]
            if any(set_cell(A, x + e, stage)[:2] != cell[:2] for e in steps):
                continue
            df = np.empty((3, 3))
            for d in range(3):
                e = np.zeros(3)
                e[d] = h
                df[:, d] = (g.forward(x + e) - g.forward(x - e)) / (2 * h)
            da = g.derivative(x)
            assert np.max(np.abs(da - df)) <= 1e-4 * np.abs(da).max()


@st.composite
def tower_points(draw):
    """A point near a level-k tower cell: on a slot-tile boundary of its
    parent, within a few ulps of one of its faces, or at random."""
    k = draw(st.integers(1, 4))
    word = draw(st.lists(st.sampled_from(SLOTS), min_size=k, max_size=k))
    z = cell_center(B, tuple(word), tower=True)
    u = np.array(draw(st.lists(COORD, min_size=3, max_size=3)))
    kind = draw(st.sampled_from(["tile", "face", "random"]))
    if kind == "random":
        return u
    x = z + B.r(k) * u
    if kind == "tile":
        zp, r_prev = cell_center(B, tuple(word[:-1]), tower=True), B.r(k - 1)
        x[2] = zp[2] - r_prev + draw(st.integers(0, 8)) * (2.0 * r_prev / 8)
        return np.clip(x, -1, 1)
    d = draw(st.integers(0, 2))
    x[d] = z[d] + draw(st.sampled_from([-1.0, 1.0])) * B.r(k)
    for _ in range(draw(st.integers(0, 2))):
        x[d] = np.nextafter(x[d], draw(st.sampled_from([-np.inf, np.inf])))
    return np.clip(x, -1, 1)


def reference_tower_forward(L, x):
    """Stage map with every cell looked up again from the root."""
    x = x.copy()
    for i in range(1, L.stage + 1):
        center = reference_tower_cell(x, L.schedule, i - 1)
        if center is None:
            continue
        scale = L.schedule.r(i - 1)
        w = (x - center) / scale
        for mv in relocation_moves(L.n, L.schedule.beta):
            w = move_apply(mv, w)
        x = center + scale * w
    return x


def reference_tower_inverse(L, y):
    y = y.copy()
    for i in range(L.stage, 0, -1):
        center = reference_tower_cell(y, L.schedule, i - 1)
        if center is None:
            continue
        scale = L.schedule.r(i - 1)
        w = (y - center) / scale
        for mv in reversed(relocation_moves(L.n, L.schedule.beta)):
            w = move_apply(mv, w, inverse=True)
        y = center + scale * w
    return y


TOWERS = {k: TowerMapping(B, k) for k in range(1, 5)}


class TestTowerDescent:
    @given(st.lists(tower_points(), min_size=1, max_size=6), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_stage_steps_match_root_walks(self, pts, stage):
        L = TOWERS[stage]
        for x in pts:
            for p in (x, L.inverse(x)):
                assert np.array_equal(L.forward(p), reference_tower_forward(L, p))
                assert np.array_equal(L.inverse(p), reference_tower_inverse(L, p))
