"""Bilipschitz rearrangement of nested cubes into a tower formation.

Stage k is the composition L_k = Lambda_k o ... o Lambda_1.  Inside each
level-(i-1) tower cell, Lambda_i relocates the 2^n grid-arranged child
cubes (all of half-width r_i) onto the 2^n tower slots stacked along the
last axis.  Each relocation is a sequence of axis-aligned elementary
moves: a piecewise-linear stretch along the move axis, blended to the
identity across a transverse shell, which is an exact translation on the
cube itself and the identity outside its corridor box.  Moves are applied
sequentially, and the corridor of every move is verified at construction
time to avoid the current position of every other child cube, so the
composition is a bijection of the cell fixing its boundary.

Scale invariance: the move table is computed once in coordinates where
the parent cell is the unit cube and reused at every level.

Evaluation has one body, on (N, n) batches, run a level at a time, and
the moves of a level run in dependency layers (``move_layers``): a
move's layer is one more than the largest layer of the earlier moves
whose padded corridor box meets its own, so the boxes of a layer are
disjoint and each row lies in at most one.  Per axis, a span table marks
in bit words of 64 consecutive positions the boxes that span each
interval between box edges, so a row's boxes are one gather per axis
and an AND.  Each row then steps through its own moves: a pass runs the
next move of every row that has one, the lowest set bit of its words,
with the move's constants gathered per row, in the float operations of
the move alone, and a per-move mask clears the layers the row has
passed.  A level takes as many passes as its longest chain of moves (4
on a uniform batch at n = 3, against 6 layers), and the inverse walks
the same tables numbered from the last move.  A single point is a
one-row batch.  The cell tests and the
corridors' transverse sup distances are row maxima by ``row_max``; the
blend's ``argmax`` stays, as it must pick the first tying coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._maps import BatchMap
from .errors import InfeasibleScheduleError, InvalidAddressError
from .geometry import (
    ParameterSchedule,
    address_words,
    cell_center,
    cube_vertices,
    row_max,
    tower_slots,
    tower_step,
)

__all__ = ["slot_correspondence", "TowerMapping", "verify_goodmap", "relocation_moves"]

_ONE = np.uint64(1)


def slot_index(v) -> int:
    """Lexicographic slot number j in 1..2^n: bits (v_i+1)/2 read big-endian."""
    j = 0
    for s in v:
        if s not in (-1, 1):
            raise InvalidAddressError(f"vertex {v!r} is not in {{-1,1}}^n")
        j = 2 * j + (s + 1) // 2
    return j + 1


def slot_correspondence(v) -> tuple[float, ...]:
    """The tower slot assigned to cube vertex v."""
    n = len(v)
    return tower_slots(n)[slot_index(v) - 1]


@dataclass(frozen=True)
class ElementaryMove:
    """Axis-aligned transport of one cube inside the unit parent cell.

    Along ``axis`` the map is the monotone PL stretch with knots
    (lo, src-rho, src+rho, hi) -> (lo, src-rho+chi*tau, src+rho+chi*tau, hi),
    tau = dst - src, where chi falls linearly from 1 (transverse sup
    distance <= rho) to 0 (distance >= width).  Exact translation on the
    cube, identity outside the corridor box.
    """

    axis: int
    src: float
    dst: float
    lo: float
    hi: float
    trans_center: tuple[float, ...]  # all coordinates except `axis`
    rho: float
    width: float

    def corridor_box(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.empty(n)
        hi = np.empty(n)
        j = 0
        for d in range(n):
            if d == self.axis:
                lo[d], hi[d] = self.lo, self.hi
            else:
                lo[d] = self.trans_center[j] - self.width
                hi[d] = self.trans_center[j] + self.width
                j += 1
        return lo, hi


@lru_cache(maxsize=None)
def relocation_moves(n: int, beta: float) -> tuple[ElementaryMove, ...]:
    """Per-cell move table, in unit-parent coordinates, for all 2^n children.

    Children start on the grid at centers v/2 and end on the tower slots.
    Route per child: one vertical leg (last axis) to the private slot
    height, then horizontal legs zeroing the remaining coordinates one
    axis at a time.  Within each sibling pair (children sharing a grid
    column) the one whose vertical sweep misses the sibling cube moves
    first.  The corridor of every move is checked against the current
    cube positions of all other children.
    """
    if beta < n + 1:
        raise InfeasibleScheduleError("tower relocation needs beta >= n+1")
    rho = 2.0 ** -(beta + 1)
    slot_gap = 2.0 ** (1 - n)
    margin = (slot_gap - 2 * rho) / 4.0
    # horizontal legs run at a private slot height, so their transverse
    # clearance is the slot gap; vertical legs only need to clear the
    # parked column at transverse distance 1/2, so they can be much wider
    # (wide corridors mean gentle blend slopes); 0.35 keeps the cell
    # corners outside every shaft
    width_h = rho + margin
    width_v = min(0.35, 0.5 - 2.0 * rho)
    if width_h + rho >= 2.0**-n or width_v <= rho:
        raise InfeasibleScheduleError("corridor width exceeds slot clearance")

    verts = cube_vertices(n)
    index = {v: i for i, v in enumerate(verts)}
    grid = {v: np.array(v, dtype=float) / 2.0 for v in verts}
    target = {v: np.array(slot_correspondence(v)) for v in verts}

    def vertical_clear(v, sibling_pos):
        a = grid[v][n - 1]
        b = target[v][n - 1]
        sweep = (min(a, b) - rho - margin, max(a, b) + rho + margin)
        sib = (sibling_pos - rho, sibling_pos + rho)
        return sweep[1] <= sib[0] or sweep[0] >= sib[1]

    order: list[tuple[int, ...]] = []
    for v in verts:
        if v[n - 1] == 1:
            continue
        low, high = v, v[: n - 1] + (1,)
        if vertical_clear(low, grid[high][n - 1]):
            order += [low, high]
        elif vertical_clear(high, grid[low][n - 1]):
            order += [high, low]
        else:
            raise InfeasibleScheduleError("no collision-free sibling order")

    reach = 1.0 - rho

    def corridor_clear(mv, positions, mover):
        clo, chi_ = mv.corridor_box(n)
        if np.any(clo <= -1.0) or np.any(chi_ >= 1.0):
            return False
        # each other cube [p - rho, p + rho] lies off the box along some axis
        off = ((chi_ <= positions - rho) | (positions + rho <= clo)).any(axis=1)
        off[index[mover]] = True
        return bool(off.all())

    def legs(v, positions):
        pos = grid[v].copy()
        out = []
        stops = [target[v][n - 1]] + [0.0] * (n - 1)
        axes = [n - 1] + list(range(n - 1))
        for axis, stop in zip(axes, stops):
            if pos[axis] != stop:
                width = width_v if axis == n - 1 else width_h
                lo = min(pos[axis], stop) - rho - margin
                hi = max(pos[axis], stop) + rho + margin
                tc = tuple(pos[d] for d in range(n) if d != axis)

                def make(lo_, hi_):
                    return ElementaryMove(axis, float(pos[axis]), float(stop),
                                          float(lo_), float(hi_), tc, rho, width)

                # stretch horizontal corridors toward the cell boundary when
                # clear: long corridors keep the compression slopes small;
                # vertical shafts stay tight so the cell corners are
                # untouched by the relocation
                if axis != n - 1:
                    if corridor_clear(make(-reach, hi), positions, v):
                        lo = -reach
                    if corridor_clear(make(lo, reach), positions, v):
                        hi = reach
                out.append(make(lo, hi))
                pos[axis] = stop
        return out

    moves: list[ElementaryMove] = []
    # the current cube centers, one row per vertex in ``verts`` order
    positions = np.array([grid[v] for v in verts])
    for v in order:
        for mv in legs(v, positions):
            if not corridor_clear(mv, positions, v):
                raise InfeasibleScheduleError(
                    f"corridor of {v} leg axis {mv.axis} blocked"
                )
            moves.append(mv)
        positions[index[v]] = target[v]
    return tuple(moves)


@dataclass(frozen=True)
class MoveLayers:
    """``relocation_moves(n, beta)`` in dependency layers, built by
    ``move_layers``.  Positions count the moves in layer order.  The tables
    past ``cuts`` come in two numberings: index 0 counts the positions from
    the first (the forward walk's order), index 1 from the last (the
    inverse walk's), and bit b of word s stands for position 64s + b."""

    order: np.ndarray  # (M,) the move at each position
    starts: tuple[int, ...]  # layer l holds the positions starts[l]:starts[l + 1]
    cuts: tuple[np.ndarray, ...]  # per axis, its padded box edges, sorted, distinct
    axis: tuple[np.ndarray, np.ndarray]  # (M,) move axes
    # (M, 2n + 13): the corridor axis with 0.0 on the move axis, 1.0 off the move
    # axis and 0.0 on it, then the floats that ``TowerMapping._step_rows`` unpacks
    const: tuple[np.ndarray, np.ndarray]
    # per axis d, (S, len(cuts[d]) + 1) uint64: column i marks the positions whose
    # padded box spans (cuts[d][i - 1], cuts[d][i]]
    spans: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    # (S, M) uint64: column p marks the positions of the layers that the walk
    # runs after the layer of position p
    masks: tuple[np.ndarray, np.ndarray]


def _pack_bits(cover: np.ndarray) -> np.ndarray:
    """(R, M) bools as (ceil(M / 64), R) uint64 words, column 64s + b of
    row r as bit b of word [s, r]."""
    pad = -cover.shape[1] % 64
    packed = np.packbits(np.pad(cover, ((0, 0), (0, pad))), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").astype(np.uint64).T)


@lru_cache(maxsize=None)
def move_layers(n: int, beta: float) -> MoveLayers:
    """The move table of ``relocation_moves(n, beta)`` in dependency layers.

    The corridor boxes are padded by 1e-9, far beyond the rounding of
    |w_d - c| <= 2 in unit-cell coordinates, so a padded box holds every
    row the exact corridor test keeps.  A move's layer is 1 + the largest
    layer of the earlier moves whose padded box meets its own (0 if none
    does), so the boxes of one layer are pairwise disjoint and a meeting
    pair keeps its order.  A move is the identity off its corridor and
    keeps the corridor's points in it, so two moves whose boxes are
    disjoint commute, float for float: the layers run in order (in
    reverse for the inverse) compose to the moves run in order.

    The padded edges e_0 < e_1 < ... of axis d cut it into the intervals
    (e_{i-1}, e_i], i = searchsorted(e, v).  ``spans`` marks per axis and
    interval the moves whose box spans it (lo <= e_{i-1} and e_i <= hi),
    in words of 64 consecutive positions: ANDed over the axes, a row's
    words mark the boxes that hold it, at most one per layer.  After a
    row's move at position p, ``masks[:, p]`` keeps the bits of the layers
    still to come.  Both are packed from boolean arrays, in both
    numberings, and take 1040 bytes at n = 3, 13 kB at n = 5 and 6.6 MB
    at n = 9 (5.3 MB of it masks)."""
    moves = relocation_moves(n, beta)
    boxes = [mv.corridor_box(n) for mv in moves]
    lo = np.array([lo for lo, _ in boxes]) - 1e-9
    hi = np.array([hi for _, hi in boxes]) + 1e-9
    layer = np.zeros(len(moves), dtype=int)
    for m in range(1, len(moves)):
        meet = ((lo[:m] < hi[m]) & (lo[m] < hi[:m])).all(axis=1)
        layer[m] = 1 + layer[:m][meet].max(initial=-1)
    order = np.argsort(layer, kind="stable")
    layer_at = layer[order]
    lo, hi = lo[order].T, hi[order].T
    starts = tuple(np.searchsorted(layer_at, range(layer_at[-1] + 2)).tolist())
    const = []
    for m in order:
        mv = moves[m]
        tc, s2, s3, tau = mv.trans_center, mv.src - mv.rho, mv.src + mv.rho, mv.dst - mv.src
        const.append((*tc[:mv.axis], 0.0, *tc[mv.axis:], *(float(d != mv.axis) for d in range(n)),
                      mv.lo, mv.hi, mv.width, mv.rho, mv.width - mv.rho, tau, s2, s3,
                      s2 - mv.lo, mv.hi - s3, s2 + tau - mv.lo, mv.hi - (s3 + tau),
                      -1.0 / (mv.width - mv.rho)))
    cuts = tuple(np.array(sorted(set(lo[d].tolist() + hi[d].tolist()))) for d in range(n))
    spans = ([], [])
    for d, e in enumerate(cuts):
        first, last = np.searchsorted(e, lo[d]) + 1, np.searchsorted(e, hi[d]) + 1
        i = np.arange(len(e) + 1)[:, None]
        cover = (first <= i) & (i < last)
        spans[0].append(_pack_bits(cover))
        spans[1].append(_pack_bits(cover[:, ::-1]))
    ranks = np.arange(len(starts) - 1)[:, None]
    back = layer_at[::-1]
    masks = _pack_bits(layer_at > ranks)[:, layer_at], _pack_bits(back < ranks)[:, back]
    axis = np.array([moves[m].axis for m in order])
    const = np.array(const, dtype=float)
    return MoveLayers(order, starts, cuts, (axis, axis[::-1].copy()),
                      (const, const[::-1].copy()), (tuple(spans[0]), tuple(spans[1])), masks)


class TowerMapping(BatchMap):
    """Stage-k bilipschitz map taking the thin nested-cube set onto its tower.

    Parameters
    ----------
    schedule : ParameterSchedule
        The thin (kind 'B') schedule shared by the source cells and the
        tower; requires beta >= n+1.
    stage : int
        Number of relocation levels k.
    """

    def __init__(self, schedule: ParameterSchedule, stage: int):
        if schedule.kind != "B":
            raise ValueError("tower mapping is driven by a kind-'B' schedule")
        if stage < 1:
            raise ValueError("stage must be >= 1")
        self.schedule = schedule
        self.stage = stage
        self.n = schedule.n
        self.layers = move_layers(self.n, schedule.beta)
        self._eye = np.eye(self.n)
        self._r = [schedule.r(k) for k in range(stage + 1)]

    # -- evaluation: one body for both directions, on (N, n) arrays; a row
    # that leaves its cell drops out of the walk, which ends when none is left

    def _enter_rows(self, x: np.ndarray, center: np.ndarray, level: int):
        """The level-``level`` tower cells (``level`` >= 1) holding the rows
        of x, one tile step below ``center``, their level-(level-1) cells:
        (mask of the rows that stay in a cell, the centers of those rows).

        Lambda_i moves a point only inside its level-(i-1) cell, and every
        cell sits deep inside its parent, so the ancestors found for one
        stage still hold the point at the next; only the parent, whose
        face a point can cross by an ulp of rescaling, is checked again.
        """
        _, z = tower_step(x, center, self._r[level - 1])
        stay = row_max(np.abs(x - z)) < self._r[level]
        if level > 1:
            stay &= row_max(np.abs(x - center)) < self._r[level - 1]
        return stay, z.compress(stay, axis=0)

    def _spanned(self, w: np.ndarray, inverse: bool = False) -> np.ndarray:
        """(S, N) words: per row of w, ``move_layers``'s words ANDed over
        the axes, so that bit b of word s marks the move at position
        64s + b (counted from the last with ``inverse``) if its padded box
        holds the row."""
        t = self.layers
        spans = t.spans[inverse]
        held = spans[0].take(t.cuts[0].searchsorted(w[:, 0]), axis=1)
        for d in range(1, self.n):
            held &= spans[d].take(t.cuts[d].searchsorted(w[:, d]), axis=1)
        return held

    def _run_moves(self, w: np.ndarray, d: np.ndarray | None = None,
                   inverse: bool = False) -> None:
        """Apply the moves in order to the rows of the (N, n) array w, in
        place, or with ``inverse`` their inverses in reverse order; with d,
        also d <- (Jacobian of each move or inverse move) @ d on the
        (N, n, n) array d.

        Each row steps through its own moves, those of the boxes that hold
        it, a layer at a time (``move_layers``).  Its next move is the
        lowest set bit of its first nonzero word, gathered from the span
        tables in the walk's numbering, which lists the layers in the
        order the walk runs them.  One pass runs the next move of every
        row that has one, rows of different layers together, and gathers
        the passed rows' words again, as a moved row stays in its box but
        may enter boxes of later layers; the mask of each row's move
        clears the bits of its layer and the layers before it, and a row
        whose move was in the walk's last layer, its mask 0, is done
        without a gather.  So a level
        takes as many passes as the longest chain of moves its rows take
        (4 per direction on a uniform batch at n = 3, of 6 layers), and no
        more than the layer count, as every pass takes each row a layer
        further."""
        t = self.layers
        masks = t.masks[inverse]
        held, rows = self._spanned(w, inverse), None
        for _ in t.starts[1:]:
            # each row's first nonzero word, and the position of its bit 0
            word, lead = held[0], 0
            for s in range(1, len(held)):
                empty = word == 0
                word, lead = np.where(empty, held[s], word), np.where(empty, 64 * s, lead)
            live = word.nonzero()[0]
            if not len(live):
                return
            rows, word = live if rows is None else rows.take(live), word.take(live)
            # the lowest set bit's number is the count of the bits below it,
            # as intp, which ``take`` reads without a cast
            pos = np.bitwise_count(~word & (word - _ONE)).astype(np.intp)
            if len(held) > 1:  # else every lead is 0
                pos += lead.take(live)
            self._step_rows(w, d, rows, pos, inverse)
            # a mask is 0 just when its last word is: the walk's last layer
            # holds the last position
            later = masks.take(pos, axis=1)
            go = later[-1].nonzero()[0]
            if len(go) < len(rows):
                if not len(go):
                    return
                rows, later = rows.take(go), later.take(go, axis=1)
            held = self._spanned(w.take(rows, axis=0), inverse) & later

    def _step_rows(self, w: np.ndarray, d: np.ndarray | None, rows: np.ndarray,
                   owner: np.ndarray, inverse: bool) -> None:
        """One step of the rows ``rows`` of w: row i through the move (inverse
        move) at position owner[i], counted from the last with ``inverse``,
        in place, with d as in ``_run_moves``; every row sees the float
        operations of its move.

        A move acts where lo < x_axis < hi and the transverse sup distance
        delta < width, with tau falling linearly from dst - src (delta <=
        rho) to 0 (delta = width): along the axis it is the PL map taking
        lo < s2 < s3 < hi (s2, s3 = src -/+ rho) to lo, s2 + tau, s3 + tau,
        hi.  Its Jacobian is the identity but for the axis row (slope, blend
        entry), taken before the move, or for the inverse at the preimage,
        where it inverts to (1/slope, -blend entry/slope).  The blend entry
        goes to the first transverse coordinate that attains the sup
        distance (the argmax): on a diagonal of the corridor, where x_i and
        x_j tie, i < j, it is the derivative on the side where x_i does."""
        n = self.n
        sub = w.take(rows, axis=0)
        axis = self.layers.axis[inverse].take(owner)
        xa = sub[np.arange(len(rows)), axis]
        c = self.layers.const[inverse].take(owner, axis=0)
        diff = sub - c[:, :n]
        off = np.abs(diff) * c[:, n:2 * n]
        delta = row_max(off)
        inside = (xa > c[:, 2 * n]) & (xa < c[:, 2 * n + 1]) & (delta < c[:, 2 * n + 2])
        if np.count_nonzero(inside) < len(rows):
            keep = inside.nonzero()[0]
            rows, axis, xa, c, diff, off, delta = (
                v.take(keep, axis=0) for v in (rows, axis, xa, c, diff, off, delta))
        lo, hi, width, rho, wr, tau_full, s2, s3, k2, k3, q2, q3, dchi = c[:, 2 * n:].T
        # 1 where delta <= rho: the ratio is >= 1 there, and <= 1 elsewhere
        tau = np.minimum(1.0, (width - delta) / wr) * tau_full
        t2, t3 = s2 + tau, s3 + tau
        p2, p3 = t2 - lo, hi - t3
        if inverse:
            ya = np.where(xa < t2, lo + (xa - lo) * k2 / p2,
                          np.where(xa > t3, hi - (hi - xa) * k3 / p3, xa - tau))
        else:
            ya = np.where(xa < s2, lo + (xa - lo) * p2 / k2,
                          np.where(xa > s3, hi - (hi - xa) * p3 / k3, xa + tau))
        w[rows, axis] = ya
        if d is None:
            return
        x = ya if inverse else xa
        below, mid = x < s2, x <= s3
        slope = np.where(below, p2 / k2, np.where(mid, 1.0, p3 / k3))
        jac = self._eye[None].repeat(len(rows), axis=0)
        jac[np.arange(len(rows)), axis, axis] = 1.0 / slope if inverse else slope
        blend = np.flatnonzero(delta > rho)
        if len(blend):
            pl_minus_x = np.where(below, (lo + (x - lo) * q2 / k2) - x,
                                  np.where(mid, tau_full, (hi - (hi - x) * q3 / k3) - x))
            arg = off[blend].argmax(axis=1)
            sgn = np.where(diff[blend, arg] >= 0.0, 1.0, -1.0)
            entry = dchi[blend] * sgn * pl_minus_x[blend]
            jac[blend, axis[blend], arg] = -entry / slope[blend] if inverse else entry
        d[rows] = np.matmul(jac, d.take(rows, axis=0))

    def _walk_rows(self, points, inverse: bool = False, jacobian: bool = False):
        """The stages, or with ``inverse`` their inverses, on every row of
        ``points``: (images, (N, n, n) Jacobians or None).

        The forward stages run shallowest first, each in the level-(i-1)
        cells that hold the images of the stages before it.  The inverse
        stages run deepest first, each in a cell below the level-i cells
        that hold the points, for i = 0..stage-1, so all those cells are
        found before any stage runs."""
        x = np.array(points, dtype=float)
        count, n = x.shape
        d = np.tile(np.eye(n), (count, 1, 1)) if jacobian else None
        # (rows held by a level-i cell, the centers of those cells)
        cells = [(np.arange(count), np.zeros_like(x))]

        def enter(level):
            rows, center = cells[-1]
            stay, z = self._enter_rows(x.take(rows, axis=0), center, level)
            if not np.count_nonzero(stay):
                return False
            cells.append((rows.compress(stay), z))
            return True

        if inverse:
            for level in range(1, self.stage):
                if not enter(level):
                    break
        for i in (range(len(cells), 0, -1) if inverse else range(1, self.stage + 1)):
            if not inverse and i > 1 and not enter(i - 1):
                break
            rows, center = cells[i - 1]
            scale = self._r[i - 1]
            w = (x.take(rows, axis=0) - center) / scale
            dw = d.take(rows, axis=0) if jacobian else None
            self._run_moves(w, dw, inverse)
            x[rows] = center + scale * w
            if jacobian:
                d[rows] = dw
        return x, d


GOODMAP_CELLS = 512
GOODMAP_SAMPLES = 8


def verify_goodmap(tower: TowerMapping, max_level: int) -> dict[int, bool]:
    """Sample tower cells and check the inverse lands in the matched cells.

    For every tower address vhat(i) = (tau(v_1), ..., tau(v_i)), points of
    the tower cell must pull back into the source cell of (v_1, ..., v_i).
    Returns a per-level pass flag.  Up to ``GOODMAP_CELLS`` cells of a level
    are drawn, ``GOODMAP_SAMPLES`` points in each, from a fixed seed; the
    samples of all cells of a level are pulled back in one batch.
    """
    rng = np.random.default_rng(0)
    n = tower.n
    sched = tower.schedule
    verts = cube_vertices(n)
    result: dict[int, bool] = {}
    for level in range(1, max_level + 1):
        words = address_words(verts, level, GOODMAP_CELLS, rng)
        r_in = sched.r(level)
        z_srcs, pts = [], []
        for word in words:
            z_srcs.append(cell_center(sched, word))
            z_hat = cell_center(sched, tuple(map(slot_correspondence, word)), tower=True)
            pts.append(z_hat + r_in * 0.9 * rng.uniform(-1, 1, size=(GOODMAP_SAMPLES, n)))
        back = tower.inverse_many(np.concatenate(pts)).reshape(len(words), GOODMAP_SAMPLES, n)
        result[level] = bool(np.max(np.abs(back - np.array(z_srcs)[:, None, :])) <= r_in + 1e-12)
    return result

