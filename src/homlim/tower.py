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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleScheduleError, InvalidAddressError
from .geometry import ParameterSchedule, address_words, cube_vertices, tower_slots, tower_step

__all__ = ["slot_correspondence", "slot_correspondence_inverse", "TowerMapping",
           "verify_goodmap", "relocation_moves"]


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


def slot_correspondence_inverse(vhat) -> tuple[int, ...]:
    """The cube vertex whose slot is ``vhat``."""
    n = len(vhat)
    try:
        j = tower_slots(n).index(tuple(vhat))
    except ValueError:
        raise InvalidAddressError(f"{vhat!r} is not a tower slot") from None
    bits = format(j, f"0{n}b")
    return tuple(2 * int(b) - 1 for b in bits)


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

    def _chi(self, delta: float) -> float:
        if delta <= self.rho:
            return 1.0
        if delta >= self.width:
            return 0.0
        return (self.width - delta) / (self.width - self.rho)

    def _trans_delta(self, x) -> tuple[float, int]:
        delta = -1.0
        arg = -1
        j = 0
        for d in range(len(x)):
            if d == self.axis:
                continue
            off = abs(x[d] - self.trans_center[j])
            if off > delta:
                delta = off
                arg = d
            j += 1
        return delta, arg

    def _pl_knots(self, tau, inverse: bool):
        """The axial PL map at shift tau: knots lo < a2 <= a3 < hi go to
        lo, b2, b3, hi, and the piece between a2 and a3 moves by ``shift``.
        With s2, s3 = src -/+ rho the move has a2, a3 = s2, s3 and b2, b3 =
        s2 + tau, s3 + tau; its inverse swaps the two pairs and shifts by
        -tau."""
        s2 = self.src - self.rho
        s3 = self.src + self.rho
        if inverse:
            return s2 + tau, s3 + tau, s2, s3, -tau
        return s2, s3, s2 + tau, s3 + tau, tau

    def apply(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """The move at x, or with ``inverse`` its inverse."""
        xa = x[self.axis]
        if xa <= self.lo or xa >= self.hi:
            return x
        delta, _ = self._trans_delta(x)
        if delta >= self.width:
            return x
        a2, a3, b2, b3, shift = self._pl_knots(self._chi(delta) * (self.dst - self.src), inverse)
        if xa < a2:
            ya = self.lo + (xa - self.lo) * (b2 - self.lo) / (a2 - self.lo)
        elif xa <= a3:
            ya = xa + shift
        else:
            ya = self.hi - (self.hi - xa) * (self.hi - b3) / (self.hi - a3)
        out = x.copy()
        out[self.axis] = ya
        return out

    def _corridor_rows(self, w: np.ndarray):
        """Rows of w inside the corridor: (row indices, their axial
        coordinate, their transverse sup distance, tau there), or None if
        none is."""
        xa = w[:, self.axis]
        rows = np.flatnonzero((xa > self.lo) & (xa < self.hi))
        if not len(rows):
            return None
        others = [d for d in range(w.shape[1]) if d != self.axis]
        delta = np.abs(w[np.ix_(rows, others)] - self.trans_center).max(axis=1)
        near = delta < self.width
        rows, xa, delta = rows[near], xa[rows[near]], delta[near]
        chi = np.where(delta <= self.rho, 1.0, (self.width - delta) / (self.width - self.rho))
        return rows, xa, delta, chi * (self.dst - self.src)

    def apply_rows(self, w: np.ndarray, inverse: bool = False) -> None:
        """``apply`` on every row of the (N, n) array w, in place, with the
        same float operations."""
        hit = self._corridor_rows(w)
        if hit is None:
            return
        rows, xa, _, tau = hit
        a2, a3, b2, b3, shift = self._pl_knots(tau, inverse)
        w[rows, self.axis] = np.where(
            xa < a2, self.lo + (xa - self.lo) * (b2 - self.lo) / (a2 - self.lo),
            np.where(xa <= a3, xa + shift,
                     self.hi - (self.hi - xa) * (self.hi - b3) / (self.hi - a3)))

    def derivative(self, x: np.ndarray) -> np.ndarray:
        n = len(x)
        d = np.eye(n)
        xa = x[self.axis]
        if xa <= self.lo or xa >= self.hi:
            return d
        delta, arg = self._trans_delta(x)
        if delta >= self.width:
            return d
        chi = self._chi(delta)
        tau_full = self.dst - self.src
        tau = chi * tau_full
        s2 = self.src - self.rho
        s3 = self.src + self.rho
        if xa < s2:
            slope = (s2 + tau - self.lo) / (s2 - self.lo)
            pl_minus_x = (self.lo + (xa - self.lo) * (s2 + tau_full - self.lo) / (s2 - self.lo)) - xa
        elif xa <= s3:
            slope = 1.0
            pl_minus_x = tau_full
        else:
            slope = (self.hi - (s3 + tau)) / (self.hi - s3)
            pl_minus_x = (self.hi - (self.hi - xa) * (self.hi - (s3 + tau_full)) / (self.hi - s3)) - xa
        d[self.axis, self.axis] = slope
        if self.rho < delta < self.width:
            j = arg if arg < self.axis else arg - 1
            sgn = 1.0 if x[arg] >= self.trans_center[j] else -1.0
            dchi = -1.0 / (self.width - self.rho) * sgn
            d[self.axis, arg] += dchi * pl_minus_x
        return d

    def derivative_rows(self, w: np.ndarray, d: np.ndarray) -> None:
        """d <- ``derivative`` @ d on the rows of the (N, n) array w inside
        the corridor, in place on the (N, n, n) array d: each Jacobian is
        built with the float operations of ``derivative`` and multiplied
        in one stacked matmul.  ``derivative`` is the identity on the
        other rows, so they keep their d."""
        hit = self._corridor_rows(w)
        if hit is None:
            return
        rows, xa, delta, tau = hit
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
        jac = np.zeros((len(rows), n, n))
        jac[:, np.arange(n), np.arange(n)] = 1.0
        jac[:, self.axis, self.axis] = slope
        blend = np.flatnonzero(delta > self.rho)
        if len(blend):
            # the first transverse argmax, as ``_trans_delta`` finds it
            others = [a for a in range(n) if a != self.axis]
            j = np.abs(w[np.ix_(rows[blend], others)] - self.trans_center).argmax(axis=1)
            arg = np.array(others)[j]
            sgn = np.where(w[rows[blend], arg] >= np.array(self.trans_center)[j], 1.0, -1.0)
            dchi = -1.0 / (self.width - self.rho) * sgn
            jac[blend, self.axis, arg] += dchi * pl_minus_x[blend]
        d[rows] = np.matmul(jac, d[rows])

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


def _boxes_disjoint(alo, ahi, blo, bhi) -> bool:
    return bool(np.any(ahi <= blo) or np.any(bhi <= alo))


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
        for u in verts:
            if u == mover:
                continue
            if not _boxes_disjoint(clo, chi_, positions[u] - rho, positions[u] + rho):
                return False
        return True

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


class TowerMapping:
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
        self._r = [schedule.r(k) for k in range(stage + 1)]

    # -- cell location in tower coordinates ----------------------------------

    def _enter(self, x: np.ndarray, center: np.ndarray, level: int):
        """Center of the level-``level`` tower cell holding x, one tile
        step below ``center`` (its level-(level-1) cell), or None.

        Lambda_i moves a point only inside its level-(i-1) cell, and every
        cell sits deep inside its parent, so the ancestors found for one
        stage still hold the point at the next; only the parent, whose
        face a point can cross by an ulp of rescaling, is checked again.
        """
        if level == 0:
            return center
        if level > 1 and np.max(np.abs(x - center)) >= self._r[level - 1]:
            return None
        _, z = tower_step(x, center, self._r[level - 1])
        if np.max(np.abs(x - z)) >= self._r[level]:
            return None
        return z

    # -- evaluation -----------------------------------------------------------

    def _walk(self, point, jacobian: bool):
        """Run the stages on ``point``: (image, Jacobian or None)."""
        x = np.asarray(point, dtype=float).copy()
        d = np.eye(self.n) if jacobian else None
        center = np.zeros(self.n)
        for i in range(1, self.stage + 1):
            center = self._enter(x, center, i - 1)
            if center is None:
                break
            scale = self._r[i - 1]
            w = (x - center) / scale
            for mv in self.moves:
                if jacobian:
                    d = mv.derivative(w) @ d
                w = mv.apply(w)
            x = center + scale * w
        return x, d

    def forward(self, point) -> np.ndarray:
        return self._walk(point, jacobian=False)[0]

    def inverse(self, point) -> np.ndarray:
        y = np.asarray(point, dtype=float).copy()
        # cells of levels 0..stage-1 holding y; the inverse stages run
        # deepest first, each inside a cell below these, so they stay valid
        centers = [np.zeros(self.n)]
        while len(centers) < self.stage:
            center = self._enter(y, centers[-1], len(centers))
            if center is None:
                break
            centers.append(center)
        for i in range(len(centers), 0, -1):
            center = centers[i - 1]
            scale = self._r[i - 1]
            w = (y - center) / scale
            for mv in reversed(self.moves):
                w = mv.apply(w, inverse=True)
            y = center + scale * w
        return y

    def derivative(self, point) -> np.ndarray:
        return self._walk(point, jacobian=True)[1]

    # -- batched evaluation ---------------------------------------------------
    #
    # The same cell steps and moves as the pointwise bodies above, run on
    # (N, n) arrays: a row that leaves its cell drops out, as ``_enter``
    # returning None ends the pointwise walk.  Every row sees the pointwise
    # float operations, so the results agree bit for bit.

    def _enter_rows(self, x: np.ndarray, center: np.ndarray, level: int):
        """``_enter`` for the rows of x, ``level`` >= 1: (mask of the rows
        that stay in a cell, the level-``level`` centers of those rows)."""
        if level > 1:
            stay = np.abs(x - center).max(axis=1) < self._r[level - 1]
        else:
            stay = np.ones(len(x), dtype=bool)
        # the tile rule of ``tower_step``, row-wise
        r_prev = self._r[level - 1]
        n = x.shape[1]
        offset = x[stay, n - 1] - center[stay, n - 1] + r_prev
        tile = np.clip(np.floor(offset / (2.0 * r_prev / 2**n)), 0, 2**n - 1).astype(np.intp)
        z = center[stay] + r_prev * np.array(tower_slots(n))[tile]
        inner = np.abs(x[stay] - z).max(axis=1) < self._r[level]
        stay[stay] = inner
        return stay, z[inner]

    def _walk_rows(self, points, jacobian: bool):
        """``_walk`` on every row of ``points``: (images, (N, n, n)
        Jacobians or None)."""
        x = np.array(points, dtype=float)
        count, n = x.shape
        d = np.tile(np.eye(n), (count, 1, 1)) if jacobian else None
        rows = np.arange(count)
        center = np.zeros_like(x)
        for i in range(1, self.stage + 1):
            if i > 1:
                stay, center = self._enter_rows(x[rows], center, i - 1)
                rows = rows[stay]
            scale = self._r[i - 1]
            w = (x[rows] - center) / scale
            dw = d[rows] if jacobian else None
            for mv in self.moves:
                if jacobian:
                    mv.derivative_rows(w, dw)
                mv.apply_rows(w)
            x[rows] = center + scale * w
            if jacobian:
                d[rows] = dw
        return x, d

    def forward_many(self, points: np.ndarray) -> np.ndarray:
        return self._walk_rows(points, jacobian=False)[0]

    def derivative_many(self, points: np.ndarray) -> np.ndarray:
        return self._walk_rows(points, jacobian=True)[1]

    def inverse_many(self, points: np.ndarray) -> np.ndarray:
        y = np.array(points, dtype=float)
        # depth[j]: how many of the cells of levels 0..stage-1 hold row j
        depth = np.ones(len(y), dtype=np.intp)
        centers = np.zeros((self.stage,) + y.shape)
        rows = np.arange(len(y))
        for level in range(1, self.stage):
            stay, z = self._enter_rows(y[rows], centers[level - 1, rows], level)
            rows = rows[stay]
            centers[level, rows] = z
            depth[rows] += 1
        for i in range(self.stage, 0, -1):
            rows = np.flatnonzero(depth >= i)
            center = centers[i - 1, rows]
            scale = self._r[i - 1]
            w = (y[rows] - center) / scale
            for mv in reversed(self.moves):
                mv.apply_rows(w, inverse=True)
            y[rows] = center + scale * w
        return y


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
            z_src = np.zeros(n)
            z_hat = np.zeros(n)
            for j, v in enumerate(word):
                z_src = z_src + 0.5 * sched.r(j) * np.array(v, dtype=float)
                z_hat = z_hat + sched.r(j) * np.array(slot_correspondence(v))
            z_srcs.append(z_src)
            pts.append(z_hat + r_in * 0.9 * rng.uniform(-1, 1, size=(GOODMAP_SAMPLES, n)))
        back = tower.inverse_many(np.concatenate(pts)).reshape(len(words), GOODMAP_SAMPLES, n)
        result[level] = bool(np.max(np.abs(back - np.array(z_srcs)[:, None, :])) <= r_in + 1e-12)
    return result

