import itertools

import numpy as np
import pytest
import reference_maps as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from homlim.cantor_map import CantorHomeomorphism
from homlim.composite import build_stage
from homlim.errors import InfeasibleScheduleError, InvalidAddressError
from homlim.geometry import ParameterSchedule, address_words, cell_center, cube_vertices
from homlim.tower import (
    TowerMapping,
    move_layers,
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

    @pytest.mark.parametrize("n,beta", [(2, 3.0), (3, 4.0), (3, 5.0), (4, 5.0), (5, 6.0)])
    def test_every_corridor_misses_the_other_cubes(self, n, beta):
        # replay the table: the mover of a leg is the cube centered at its
        # source, and its corridor box lies off every other cube, at its
        # grid center or, once moved, where its last leg left it
        rho = 2.0 ** -(beta + 1)
        centers = [np.array(v, dtype=float) / 2 for v in cube_vertices(n)]
        for mv in relocation_moves(n, beta):
            at = np.insert(np.array(mv.trans_center), mv.axis, mv.src)
            mover = [i for i, c in enumerate(centers) if np.array_equal(c, at)]
            assert len(mover) == 1
            lo, hi = mv.corridor_box(n)
            for i, c in enumerate(centers):
                if i != mover[0]:
                    assert np.any((hi <= c - rho) | (c + rho <= lo)), (mv, c)
            centers[mover[0]][mv.axis] = mv.dst


def padded_boxes(n, beta):
    """The corridor boxes of the move table padded by 1e-9, in move order."""
    return [(lo - 1e-9, hi + 1e-9) for lo, hi in
            (mv.corridor_box(n) for mv in relocation_moves(n, beta))]


def boxes_meet(a, b):
    return all(a[0][d] < b[1][d] and b[0][d] < a[1][d] for d in range(len(a[0])))


@st.composite
def corridor_points(draw, n, beta):
    """A point of [-1, 1]^n, or of the padded box of a move with some
    coordinates on a face of the padded or the exact box, or an ulp or two
    off one."""
    if draw(st.booleans()):
        return np.array([draw(st.floats(-1, 1)) for _ in range(n)])
    moves = relocation_moves(n, beta)
    m = draw(st.integers(0, len(moves) - 1))
    lo, hi = padded_boxes(n, beta)[m]
    exact = moves[m].corridor_box(n)
    x = np.array([draw(st.floats(lo[d], hi[d])) for d in range(n)])
    for d in draw(st.sets(st.integers(0, n - 1))):
        x[d] = draw(st.sampled_from([lo[d], hi[d], exact[0][d], exact[1][d]]))
        for _ in range(draw(st.integers(0, 2))):
            x[d] = np.nextafter(x[d], draw(st.sampled_from([-np.inf, np.inf])))
    return x


class TestMoveLayers:
    """The moves of a level run in dependency layers: each move in one
    layer, the padded boxes of a layer pairwise disjoint, and every
    meeting pair in its move order.  Span tables hand each row its moves,
    and a level takes one pass per move of its longest chain."""

    FEASIBLE = [(n, beta) for n in (2, 3, 4) for beta in (3.5, 4.0, 4.5, 5.0)
                if beta >= n + 1] + [(5, 6.0)]

    LAYERS = {2: 7, 3: 6, 4: 7}

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("beta", [3.5, 4.0, 4.5, 5.0])
    def test_layers_order_the_meeting_moves(self, n, beta):
        if beta < n + 1:
            with pytest.raises(InfeasibleScheduleError):
                move_layers(n, beta)
            return
        table = move_layers(n, beta)
        count = len(relocation_moves(n, beta))
        assert sorted(table.order.tolist()) == list(range(count))
        assert table.starts[0] == 0 and table.starts[-1] == count
        assert all(a < b for a, b in zip(table.starts, table.starts[1:]))
        assert len(table.starts) - 1 == self.LAYERS[n]
        layer = {}
        for l, (a, b) in enumerate(zip(table.starts, table.starts[1:])):
            for m in table.order[a:b].tolist():
                layer[m] = l
        assert len(layer) == count
        boxes = padded_boxes(n, beta)
        for j, m in itertools.combinations(range(count), 2):
            if boxes_meet(boxes[j], boxes[m]):
                assert layer[j] < layer[m]

    @pytest.mark.parametrize("n, beta", [*FEASIBLE, (7, 8.0)])
    def test_span_tables_match_the_boxes(self, n, beta):
        # in each numbering (from the first position, and from the last),
        # bit b of word s is position 64s + b
        table = move_layers(n, beta)
        boxes = padded_boxes(n, beta)
        count, words = len(boxes), -(-len(boxes) // 64)
        layer = np.searchsorted(table.starts, np.arange(count), side="right") - 1
        numbered = [(table.order, layer), (table.order[::-1], layer.max() - layer[::-1])]
        # bit q of a position's mask is set when the walk runs q's layer after
        # the position's own
        for (moves, ranks), masks in zip(numbered, table.masks):
            assert masks.shape == (words, count)
            for p in range(count):
                want = sum(1 << q for q in range(count) if ranks[q] > ranks[p])
                assert sum(int(w) << (64 * s) for s, w in enumerate(masks[:, p])) == want
        # bit b of word s on interval (e_{i-1}, e_i] of axis d is set when
        # the padded box of position 64s + b holds a point of the interval:
        # its midpoint, or e_i where the two edges are an ulp apart and no
        # float lies between them; the unbounded end intervals are sampled
        # 0.5 beyond the outer edges.  The point lies in a box (lo, hi]
        # exactly when the interval does, lo and hi being edges.
        points = []
        for d in range(n):
            e = np.array(sorted({b[side][d] for b in boxes for side in (0, 1)}))
            assert np.array_equal(table.cuts[d], e)
            mid = 0.5 * (e[1:] + e[:-1])
            x = np.concatenate(([e[0] - 0.5], np.where(mid > e[:-1], mid, e[1:]), [e[-1] + 0.5]))
            for (moves, _), spans in zip(numbered, table.spans):
                want = np.zeros((words, len(x)), dtype=np.uint64)
                for p, m in enumerate(moves.tolist()):
                    lo, hi = boxes[m]
                    want[p // 64, (x > lo[d]) & (x <= hi[d])] |= np.uint64(1 << (p % 64))
                assert np.array_equal(spans[d], want)
            points.append(x)
        if n > 4:
            return
        # on a point of every grid cell, the words ANDed over the axes mark
        # the boxes that hold it, at most one per layer
        L = TowerMapping(ParameterSchedule(n=n, beta=beta, kind="B"), 1)
        grid = np.stack(np.meshgrid(*points, indexing="ij"), axis=-1).reshape(-1, n)
        for inverse, (moves, ranks) in enumerate(numbered):
            held = L._spanned(grid, inverse)
            want = np.zeros((words, len(grid)), dtype=np.uint64)
            per_layer = np.zeros((len(table.starts) - 1, len(grid)), dtype=int)
            for p, m in enumerate(moves.tolist()):
                lo, hi = boxes[m]
                inside = ((grid > lo) & (grid <= hi)).all(axis=1)
                want[p // 64, inside] |= np.uint64(1 << (p % 64))
                per_layer[ranks[p]] += inside
            assert np.array_equal(held, want)
            assert per_layer.max() == 1

    @pytest.mark.parametrize("n, beta", FEASIBLE)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_a_move_keeps_are_owned_by_it(self, n, beta, data):
        # in each numbering, every row that a move's exact corridor test
        # keeps has that move's bit set, and no other bit of its layer, on
        # and off the box faces
        L = TowerMapping(ParameterSchedule(n=n, beta=beta, kind="B"), 1)
        table, moves = L.layers, relocation_moves(n, beta)
        pts = np.array(data.draw(st.lists(corridor_points(n, beta), min_size=1, max_size=8)))
        count = len(moves)
        for inverse in (False, True):
            held = [sum(int(w) << (64 * s) for s, w in enumerate(col))
                    for col in L._spanned(pts, inverse).T]
            for l, (a, b) in enumerate(zip(table.starts, table.starts[1:])):
                if inverse:
                    a, b = count - b, count - a
                layer_bits = sum(1 << p for p in range(a, b))
                for p in range(a, b):
                    mv = moves[table.order[count - 1 - p if inverse else p]]
                    for x, bits in zip(pts, held):
                        if mv.lo < x[mv.axis] < mv.hi and ref._trans_delta(mv, x)[0] < mv.width:
                            assert bits & layer_bits == 1 << p

    def test_a_level_takes_its_longest_move_chain(self, monkeypatch):
        # a uniform batch through T2 k = 1 meets most corridors; each tower
        # level takes as many passes as the most moves that act on one of
        # its rows in the pointwise reference walk: 4 in each direction
        stage = build_stage("T2", 1)
        levels, run_moves, step_rows = [], TowerMapping._run_moves, TowerMapping._step_rows

        def counted_run(self, w, d=None, inverse=False):
            moves = relocation_moves(self.n, self.schedule.beta)
            levels.append([moves[::-1] if inverse else moves, inverse, w.copy(), 0])
            return run_moves(self, w, d, inverse)

        def counted_step(self, *args):
            levels[-1][3] += 1
            return step_rows(self, *args)

        monkeypatch.setattr(TowerMapping, "_run_moves", counted_run)
        monkeypatch.setattr(TowerMapping, "_step_rows", counted_step)
        pts = np.random.default_rng(2400).uniform(-1, 1, (2400, 3))
        stage.forward_many(pts)
        assert sorted(inverse for _, inverse, _, _ in levels) == [False, True]
        for moves, inverse, w, passes in levels:
            longest = 0
            for x in w:
                acted = 0
                for mv in moves:
                    acted += mv.lo < x[mv.axis] < mv.hi and ref._trans_delta(mv, x)[0] < mv.width
                    x = ref.move_apply(mv, x, inverse)
                longest = max(longest, acted)
            assert passes == longest == 4


def diagonal_points(n, beta, m, rng):
    """Points in the blend shell of move m whose transverse offsets from
    the corridor axis tie, two or (n >= 4) all of them, at three axial
    places; every coordinate is a short dyadic, so the ties are exact."""
    mv = relocation_moves(n, beta)[m]
    others = [d for d in range(n) if d != mv.axis]
    s2, s3 = mv.src - mv.rho, mv.src + mv.rho
    pts = []
    for tied in itertools.combinations(others, 2 if n == 3 else 3):
        for xa in (0.5 * (mv.lo + s2), mv.src, 0.5 * (s3 + mv.hi)):
            t = mv.rho + (mv.width - mv.rho) * rng.uniform(0.05, 0.95)
            t = np.round(t * 2.0**20) / 2.0**20
            x = np.zeros(n)
            x[mv.axis] = np.round(xa * 2.0**20) / 2.0**20
            for j, d in enumerate(others):
                off = t if d in tied else 0.5 * t
                x[d] = mv.trans_center[j] + rng.choice([-1.0, 1.0]) * off
            pts.append(x)
    return pts


class TestBlendTies:
    """On the sup-norm diagonals of a blended corridor the blend entry goes
    to the first transverse coordinate that attains the sup distance, as
    in the reference ``move_derivative``."""

    @pytest.mark.parametrize("n, beta", [(3, 4.0), (4, 5.0)])
    def test_diagonal_rows_match_the_reference(self, n, beta):
        L = TowerMapping(ParameterSchedule(n=n, beta=beta, kind="B"), 1)
        moves = relocation_moves(n, beta)
        rng = np.random.default_rng(n)
        tested = 0
        for m, mv in enumerate(moves):
            for x in diagonal_points(n, beta, m, rng):
                # the first move to act on x in the walk is m, forward, and
                # the last one, backward, so m sees x on its diagonal
                first = [j for j, u in enumerate(moves)
                         if u.lo < x[u.axis] < u.hi and ref._trans_delta(u, x)[0] < u.width]
                for inverse, order in ((False, first), (True, first[::-1])):
                    if not order or order[0] != m:
                        continue
                    tested += 1
                    move = ref.move_derivative(mv, x, inverse=inverse)
                    assert np.count_nonzero(np.delete(move[mv.axis], mv.axis)) == 1
                    want = (ref.tower_inverse_derivative if inverse else ref.tower_derivative)(L, x)
                    got = L._walk_rows(x[None], inverse=inverse, jacobian=True)[1][0]
                    assert np.array_equal(got, want)
                    image = (ref.tower_inverse if inverse else ref.tower_forward)(L, x)
                    assert np.array_equal(L._walk_rows(x[None], inverse=inverse)[0][0].view(np.int64),
                                          image.view(np.int64))
        assert tested >= 2 * len(moves)


class TestTowerMapping:
    def test_cell_center_moves_to_slot(self):
        L = TowerMapping(B, 1)
        assert np.allclose(L.forward((0.5, 0.5, 0.5)), (0, 0, 7 / 8))

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n, beta", [(5, 6.0), (7, 8.0)])
    def test_five_dimensions_match_the_reference(self, n, beta, inverse):
        # at n = 5 (160 moves, up to 32 in a layer, 3 words) and n = 7 (896
        # moves, 14 words) the walk gives each row the reference's image and
        # Jacobian, points near the level-2 cells of the set and of the
        # tower among them, and some rows take moves of several words
        sched = ParameterSchedule(n=n, beta=beta, kind="B")
        L = TowerMapping(sched, 2)
        rng = np.random.default_rng(n)
        words = address_words(cube_vertices(n), 2, 20, rng)
        centers = [cell_center(sched, w) for w in words]
        centers += [cell_center(sched, tuple(map(slot_correspondence, w)), tower=True)
                    for w in words]
        pts = np.concatenate([rng.uniform(-1, 1, (40, n)),
                              np.array(centers) + sched.r(2) * rng.uniform(-0.99, 0.99, (40, n))])
        images, jacobians = L._walk_rows(pts, inverse=inverse, jacobian=True)
        walk = ref._tower_inverse_walk if inverse else ref._tower_walk
        for x, image, d in zip(pts, images, jacobians):
            want, want_d = walk(L, x, True)
            assert np.array_equal(image.view(np.int64), want.view(np.int64))
            assert np.array_equal(d, want_d)
        assert np.count_nonzero((images != pts).any(axis=1)) >= 40
        # the words of the moves that act on each row at the top level
        moves = relocation_moves(n, beta)
        at = np.argsort(L.layers.order)
        if inverse:
            moves, at = moves[::-1], len(moves) - 1 - at[::-1]
        spread = 0
        for x in pts:
            acted = set()
            for p, mv in zip(at.tolist(), moves):
                if mv.lo < x[mv.axis] < mv.hi and ref._trans_delta(mv, x)[0] < mv.width:
                    acted.add(p // 64)
                x = ref.move_apply(mv, x, inverse)
            spread = max(spread, len(acted))
        assert spread >= 2

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
