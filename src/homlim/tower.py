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

Evaluation has one body, on (N, n) batches, run a level at a time: the
corridor boxes of the move table are held as (n, M) arrays, every row of
the level is screened against all of them in one comparison, and only the
moves some row hits run their exact corridor test and act, on those rows.
A single point is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._maps import BatchMap
from .errors import InfeasibleScheduleError, InvalidAddressError
from .geometry import (
    Address,
    ParameterSchedule,
    address_words,
    cell_center,
    cube_vertices,
    tower_slots,
    tower_step,
)

__all__ = ["slot_correspondence", "TowerMapping", "verify_goodmap", "relocation_moves"]


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

    @cached_property
    def _others(self) -> np.ndarray:
        """The coordinates other than ``axis``, in order."""
        return np.array([d for d in range(len(self.trans_center) + 1) if d != self.axis])

    def corridor_rows(self, w: np.ndarray, cand: np.ndarray):
        """The rows ``cand`` of the (N, n) array w that lie inside the
        corridor: (their indices, axial coordinates, transverse sup
        distances, and tau there), or None if none does.  tau falls
        linearly from dst - src (distance <= rho) to 0 (distance width)."""
        sub = w.take(cand, axis=0)
        xa = sub[:, self.axis]
        delta = np.maximum.reduce(np.abs(sub.take(self._others, axis=1) - self.trans_center), axis=1)
        inside = (xa > self.lo) & (xa < self.hi) & (delta < self.width)
        count = np.count_nonzero(inside)
        if not count:
            return None
        rows = cand
        if count < len(cand):
            rows, xa, delta = cand.compress(inside), xa.compress(inside), delta.compress(inside)
        # 1 where delta <= rho: the ratio is >= 1 there, and <= 1 elsewhere
        chi = np.minimum(1.0, (self.width - delta) / (self.width - self.rho))
        return rows, xa, delta, chi * (self.dst - self.src)

    def apply_rows(self, w: np.ndarray, hit, inverse: bool = False) -> None:
        """The move (its inverse with ``inverse``) on the rows ``hit`` of
        ``corridor_rows`` found in the (N, n) array w, in place; the other
        rows stay fixed.

        Along the axis it is the PL map taking the knots lo < a2 < a3 < hi
        to lo, b2, b3, hi, with the piece between a2 and a3 moved by
        ``shift``: a2, a3 = src -/+ rho and b2, b3 = a2 + tau, a3 + tau,
        or for the inverse the two pairs swapped and the shift -tau."""
        rows, xa, _, tau = hit
        s2, s3 = self.src - self.rho, self.src + self.rho
        a2, a3, b2, b3, shift = ((s2 + tau, s3 + tau, s2, s3, -tau) if inverse
                                 else (s2, s3, s2 + tau, s3 + tau, tau))
        lo, hi = self.lo, self.hi
        ya = xa + shift
        # the two end pieces, on the rows that reach them (no row inside
        # the cube does); the knots are arrays on one side, floats on the other
        below = xa < a2
        if np.count_nonzero(below):
            x, a, b = (v.compress(below) if np.ndim(v) else v for v in (xa, a2, b2))
            ya[below] = lo + (x - lo) * (b - lo) / (a - lo)
        above = xa > a3
        if np.count_nonzero(above):
            x, a, b = (v.compress(above) if np.ndim(v) else v for v in (xa, a3, b3))
            ya[above] = hi - (hi - x) * (hi - b) / (hi - a)
        w[:, self.axis][rows] = ya

    def derivative_rows(self, w: np.ndarray, d: np.ndarray, hit, inverse: bool = False) -> None:
        """d <- (Jacobian of the move) @ d on the rows ``hit`` of
        ``corridor_rows`` found in the (N, n) array w, in place on the
        (N, n, n) array d, in one stacked matmul; the Jacobian is the
        identity on the other rows, so they keep their d.  It is taken
        where the rows of w are: at the points before the move, or with
        ``inverse``, after ``apply_rows`` moved them back, at their
        preimages, where it is inverted.  It is the identity except on the
        axis row (slope, blend entry), whose inverse is (1/slope,
        -blend entry/slope)."""
        rows, _, delta, tau = hit
        xa = w[rows, self.axis]
        n = w.shape[1]
        lo, hi, tau_full = self.lo, self.hi, self.dst - self.src
        s2 = self.src - self.rho
        s3 = self.src + self.rho
        below, inside = xa < s2, xa <= s3
        slope = np.where(below, (s2 + tau - lo) / (s2 - lo),
                         np.where(inside, 1.0, (hi - (s3 + tau)) / (hi - s3)))
        pl_minus_x = np.where(
            below, (lo + (xa - lo) * (s2 + tau_full - lo) / (s2 - lo)) - xa,
            np.where(inside, tau_full, (hi - (hi - xa) * (hi - (s3 + tau_full)) / (hi - s3)) - xa))
        jac = np.tile(np.eye(n), (len(rows), 1, 1))
        jac[:, self.axis, self.axis] = 1.0 / slope if inverse else slope
        blend = np.flatnonzero(delta > self.rho)
        if len(blend):
            # d chi / d x at the first transverse coordinate that attains
            # the sup distance
            j = np.abs(w[rows[blend]][:, self._others] - self.trans_center).argmax(axis=1)
            arg = self._others[j]
            sgn = np.where(w[rows[blend], arg] >= np.take(self.trans_center, j), 1.0, -1.0)
            dchi = -1.0 / (self.width - self.rho) * sgn
            entry = dchi * pl_minus_x[blend]
            jac[blend, self.axis, arg] = -entry / slope[blend] if inverse else entry
        d[rows] = np.matmul(jac, d.take(rows, axis=0))

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
        cubes = np.array([positions[u] for u in verts if u != mover])
        return bool(((chi_ <= cubes - rho) | (cubes + rho <= clo)).any(axis=1).all())

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
    positions = {v: grid[v].copy() for v in verts}
    for v in order:
        for mv in legs(v, positions):
            if not corridor_clear(mv, positions, v):
                raise InfeasibleScheduleError(
                    f"corridor of {v} leg axis {mv.axis} blocked"
                )
            moves.append(mv)
        positions[v] = target[v].copy()
    return tuple(moves)


@lru_cache(maxsize=None)
def _screen_table(n: int, beta: float):
    """The corridor boxes of ``relocation_moves(n, beta)`` for the screen:
    (lo, hi, meets_later, meets_earlier).

    lo and hi are (n, M, 1) arrays, so that a screen reduces over its
    first axis and gives one row per move.  The boxes are padded by 1e-9,
    far beyond the rounding of |w_d - c| <= 2 in unit-cell coordinates, so
    screening a row against them never drops a row the exact corridor test
    keeps.  A move keeps the rows it moves inside its box, so afterwards
    they can enter only the boxes that meet it: meets_later[m] holds those
    of the moves after m, meets_earlier[m] those before it (the order of
    the inverse), as (indices, lo, hi)."""
    boxes = [mv.corridor_box(n) for mv in relocation_moves(n, beta)]
    lo = np.array([lo for lo, _ in boxes]) - 1e-9
    hi = np.array([hi for _, hi in boxes]) + 1e-9
    meet = ((lo[:, None] < hi[None]) & (lo[None] < hi[:, None])).all(axis=2)
    lo, hi = lo.T[:, :, None].copy(), hi.T[:, :, None].copy()

    def boxes_of(moves):
        return moves, lo[:, moves], hi[:, moves]

    count = len(boxes)
    return (lo, hi, [boxes_of(np.flatnonzero(meet[m, m + 1:]) + m + 1) for m in range(count)],
            [boxes_of(np.flatnonzero(meet[m, :m])) for m in range(count)])


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
        self.moves = relocation_moves(self.n, schedule.beta)
        self._box_lo, self._box_hi, self._meets_later, self._meets_earlier = (
            _screen_table(self.n, schedule.beta))
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
        stay = np.maximum.reduce(np.abs(x - z), axis=1) < self._r[level]
        if level > 1:
            stay &= np.maximum.reduce(np.abs(x - center), axis=1) < self._r[level - 1]
        return stay, z.compress(stay, axis=0)

    @staticmethod
    def _screen(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """(M', N) mask of the rows of w inside the padded corridor boxes
        (lo, hi) of M' moves: every row such a move acts on, and a few
        more."""
        v = w.T[:, None, :]
        return np.logical_and.reduce((v > lo) & (v < hi), axis=0)

    def _run_moves(self, w: np.ndarray, d: np.ndarray | None = None,
                   inverse: bool = False) -> None:
        """Apply the moves in order to the rows of the (N, n) array w, in
        place, or with ``inverse`` their inverses in reverse order; with d,
        also d <- (Jacobian of each move or inverse move) @ d on the
        (N, n, n) array d.

        Each row is screened against every corridor box at once.  Only the
        moves some row hits run their exact corridor test, once, for both
        the Jacobian and the move, and the rows a move changes are screened
        again against the boxes still to come that meet its own."""
        count = len(self.moves)
        meets = self._meets_earlier if inverse else self._meets_later
        hits = self._screen(w, self._box_lo, self._box_hi)
        pending = np.logical_or.reduce(hits, axis=1).tolist()
        for m in (range(count - 1, -1, -1) if inverse else range(count)):
            if not pending[m]:
                continue
            mv = self.moves[m]
            hit = mv.corridor_rows(w, hits[m].nonzero()[0])
            if hit is None:
                continue
            if d is not None and not inverse:
                mv.derivative_rows(w, d, hit)
            mv.apply_rows(w, hit, inverse)
            if d is not None and inverse:
                mv.derivative_rows(w, d, hit, inverse=True)
            later, lo, hi = meets[m]
            if len(later):
                rows = hit[0]
                rescreen = self._screen(w.take(rows, axis=0), lo, hi)
                hits[later[:, None], rows] = rescreen
                for j in later[np.logical_or.reduce(rescreen, axis=1)].tolist():
                    pending[j] = True

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
            z_srcs.append(cell_center(sched, Address("setB", word)))
            z_hat = cell_center(sched, Address("towerB", tuple(map(slot_correspondence, word))))
            pts.append(z_hat + r_in * 0.9 * rng.uniform(-1, 1, size=(GOODMAP_SAMPLES, n)))
        back = tower.inverse_many(np.concatenate(pts)).reshape(len(words), GOODMAP_SAMPLES, n)
        result[level] = bool(np.max(np.abs(back - np.array(z_srcs)[:, None, :])) <= r_in + 1e-12)
    return result

