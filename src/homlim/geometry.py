"""Nested-cube geometry: parameter schedules, address words, descents.

Everything else in the package is built on the family of nested cubes
inside [-1,1]^n.  A schedule supplies the shrinking half-widths
r_k = 2^{-k} alpha_k and r'_k = 2^{-k} alpha_{k-1}; an address word (a
tuple of child letters) names one cell of the construction.  Two trees
share the machinery:

* the setA/setB tree: 2^n children per cell, letters v in {-1,1}^n,
  centered at the parent center plus (r_{k-1}/2) v;
* the towerB tree: 2^n children stacked along the last axis, letters the
  slot vectors vhat of ``tower_slots``, centered at the parent center
  plus r_{k-1} vhat.

``cell_center`` turns a word into its center; ``descend_set`` finds the
setA/setB cells of a batch of points, and ``tower_step`` takes one step
down the towerB tree.  The tower's radii (a kind 'B' schedule), its slot
heights (``slot_array``) and its tile rule (``slot_tiles``) have their one
owner here: the tentacles attached to the tower cells read them.  Every
per-row sup norm of the package's walks is taken by ``row_max``, a fold
over the columns, as numpy's reduce over a short axis costs about 20
times more; first-maximum ``argmax`` calls and reductions along a long
axis stay numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidAddressError, UnsupportedDimensionError

DEPTH_CAP = 24


@lru_cache(maxsize=None)
def cube_vertices(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2^n vertices of [-1,1]^n, lexicographic with -1 before 1."""
    if n < 1:
        raise UnsupportedDimensionError("need n >= 1")
    verts = [()]
    for _ in range(n):
        verts = [v + (s,) for v in verts for s in (-1, 1)]
    return tuple(verts)


@lru_cache(maxsize=None)
def tower_slots(n: int) -> tuple[tuple[float, ...], ...]:
    """Slot vectors (0, ..., 0, -1 + (2j-1)/2^n) for j = 1..2^n."""
    if n < 2:
        raise UnsupportedDimensionError("tower construction needs n >= 2")
    zeros = (0.0,) * (n - 1)
    return tuple(zeros + (-1.0 + (2 * j - 1) / 2**n,) for j in range(1, 2**n + 1))


@dataclass(frozen=True)
class ParameterSchedule:
    """A decreasing sequence alpha_k driving a nested-cube construction.

    kind 'A' is the fat sequence alpha_k = (1 + 2^{-k beta})/2, kind 'B'
    the thin sequence 2^{-k beta}; kind 'custom' takes an explicit table
    (alpha_0 must be 1 and the table strictly decreasing).
    """

    n: int
    beta: float = 4.0
    kind: str = "A"
    custom_alpha: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.n < 2:
            raise UnsupportedDimensionError("need n >= 2")
        if self.kind not in ("A", "B", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("A", "B") and self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.kind == "custom":
            a = self.custom_alpha
            if len(a) < 2 or a[0] != 1.0:
                raise ValueError("custom schedule needs alpha_0 = 1 and depth >= 1")
            if any(a[i + 1] >= a[i] for i in range(len(a) - 1)) or a[-1] <= 0:
                raise ValueError("custom schedule must be strictly decreasing and positive")

    def alpha(self, k: int) -> float:
        if k < 0:
            raise ValueError("level must be >= 0")
        if self.kind == "A":
            return 0.5 * (1.0 + 2.0 ** (-k * self.beta))
        if self.kind == "B":
            return 2.0 ** (-k * self.beta)
        if k >= len(self.custom_alpha):
            raise ValueError(f"custom schedule only defined up to level {len(self.custom_alpha) - 1}")
        return self.custom_alpha[k]

    def alpha_limit(self) -> float:
        if self.kind == "A":
            return 0.5
        if self.kind == "B":
            return 0.0
        return self.custom_alpha[-1]

    def r(self, k: int) -> float:
        """Inner half-width r_k = 2^{-k} alpha_k."""
        return 2.0**-k * self.alpha(k)

    def r_outer(self, k: int) -> float:
        """Outer half-width r'_k = 2^{-k} alpha_{k-1}; r'_0 := r_0."""
        if k == 0:
            return self.alpha(0)
        return 2.0**-k * self.alpha(k - 1)

    def radii(self, k_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (r_0..r_k, r'_0..r'_k) for kernel-style consumers."""
        r = np.array([self.r(k) for k in range(k_max + 1)])
        ro = np.array([self.r_outer(k) for k in range(k_max + 1)])
        return r, ro


def harmonic_schedule(n: int, depth: int = DEPTH_CAP) -> ParameterSchedule:
    """Custom schedule alpha_k = 1/(k+1): measure-zero limit, full dimension."""
    return ParameterSchedule(
        n=n, kind="custom", custom_alpha=tuple(1.0 / (k + 1) for k in range(depth + 1))
    )


def address_words(alphabet, level: int, cap: int, rng) -> list[tuple]:
    """Words of ``level`` letters: all of them when there are at most
    ``cap``, else ``cap`` words drawn letter by letter from ``rng``."""
    if len(alphabet) ** level <= cap:
        words = [()]
        for _ in range(level):
            words = [w + (a,) for w in words for a in alphabet]
        return words
    return [tuple(alphabet[rng.integers(len(alphabet))] for _ in range(level))
            for _ in range(cap)]


def cell_center(schedule: ParameterSchedule, word, tower: bool = False) -> np.ndarray:
    """Center of the cell named by the address ``word`` under ``schedule``:
    a cell of the towerB tree when ``tower``, else of the setA/setB tree.

    setA/setB recursion: z_k = z_{k-1} + (r_{k-1}/2) v_k;
    towerB recursion:    z_k = z_{k-1} + r_{k-1} vhat_k.
    """
    n = schedule.n
    z = np.zeros(n)
    for j, letter in enumerate(word, start=1):
        if len(letter) != n:
            raise InvalidAddressError("letter dimension does not match schedule")
        step = schedule.r(j - 1)
        if not tower:
            step *= 0.5
        z += step * np.asarray(letter, dtype=float)
    return z


def row_max(a: np.ndarray) -> np.ndarray:
    """The largest entry of each row of the (N, m) array a, m >= 1, by one
    ``np.maximum`` pass per column.  Over a short axis this is many times
    faster than ``np.maximum.reduce(a, axis=1)``: 5.9 us against 124 us at
    N = 2400, m = 3 (2-core Xeon, numpy 2.4.6).  Callers pass magnitudes:
    on signed input, from m = 9 on, the two can return zeros of different
    sign; NaN and every other value come out alike."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def descend_set(points: np.ndarray, radii, depth: int, depths=None):
    """Batched setA/setB descent of the address tree, ``depth`` levels deep,
    or with ``depths`` (an (N,) int array, 1 <= depths[i] <= depth) row i
    ``depths[i]`` levels deep.

    At level k the child letter of a row is v = sign(x - z) with x >= z
    counted as +1 (half-open faces), and the center steps by
    (r_{k-1}/2) v; a row stops in the first frame, where its sup offset
    t = |x - z|_inf reaches r_k, or in the inner cube of its own depth.
    ``radii`` holds r_0..r_depth.

    Returns (level, letters, center, sup): the frame level of each row
    (0 for rows still inside the inner cube of their depth), the sign
    letters as a (depth, N, n) array (zero below the stop level), the
    center of the cell where the row stopped and its sup offset there.
    Rows leave the walk as they stop, and the walk ends once all have.
    A row's arithmetic is its own, so it gets what a walk of its own
    depth gives it.
    """
    npts, n = points.shape
    level = np.zeros(npts, dtype=np.intp)
    letters = np.zeros((depth, npts, n))
    center = np.empty((npts, n))
    sup = np.empty(npts)
    rows = slice(None)  # the rows still walking: all of them until one stops
    x, z = points, np.zeros((npts, n))
    for lev in range(1, depth + 1):
        sign = np.where(x >= z, 1.0, -1.0)
        z = z + 0.5 * radii[lev - 1] * sign
        letters[lev - 1, rows] = sign
        t = row_max(np.abs(x - z))
        stop = t >= radii[lev]
        if depths is not None:
            # a row at its own depth stops in that level's inner cube
            frame, stop = stop, stop | (depths[rows] == lev)
        stopped = np.count_nonzero(stop)
        if stopped == len(t):
            level[rows] = lev if depths is None else np.where(frame, lev, 0)
            break
        if stopped:
            ids = np.arange(npts)[rows]
            done = ids[stop]
            level[done] = lev if depths is None else np.where(frame[stop], lev, 0)
            center[done] = z[stop]
            sup[done] = t[stop]
            keep = ~stop
            rows, x, z, t = ids[keep], x[keep], z[keep], t[keep]
    center[rows] = z
    sup[rows] = t
    return level, letters, center, sup


@lru_cache(maxsize=None)
def slot_array(n: int) -> np.ndarray:
    """``tower_slots(n)`` as a (2^n, n) array; its last column holds the
    slot heights."""
    return np.array(tower_slots(n))


def slot_tiles(offsets: np.ndarray, half_width, n: int) -> np.ndarray:
    """The slot tile of every last-coordinate offset from a cell center:
    the index of the one of the 2^n equal tiles of [-half_width,
    half_width) that holds it, clamped to the end tiles.  ``half_width``
    is one float or one per offset.  The tower cells and the tentacles
    stacked on them are binned by this one rule."""
    tile = np.floor((offsets + half_width) / (half_width * (2.0 / 2**n)))
    return np.minimum(np.maximum(tile, 0), 2**n - 1).astype(np.intp)


def tower_step(points: np.ndarray, centers: np.ndarray, r_prev: float):
    """One towerB descent step of the rows of ``points`` from their cells
    (the rows of ``centers``, half-width r_prev).

    The last coordinate is binned by ``slot_tiles`` and the child center
    steps by r_prev vhat.  Returns (tiles, child centers).
    """
    n = points.shape[1]
    tile = slot_tiles(points[:, n - 1] - centers[:, n - 1], r_prev, n)
    return tile, centers + r_prev * slot_array(n)[tile]


def stage_measure(schedule: ParameterSchedule, k: int) -> float:
    """Volume of the k-th stage union, 2^{nk} (2 r_k)^n = (2 alpha_k)^n."""
    return (2.0 * schedule.alpha(k)) ** schedule.n


def limit_measure(schedule: ParameterSchedule) -> float:
    """Volume of the limit set, (2 lim alpha_k)^n."""
    return (2.0 * schedule.alpha_limit()) ** schedule.n
