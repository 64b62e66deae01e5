"""Tentacle geometry and the squeezing / stretching stage maps.

Each tower cell carries a long thin tentacle: the cell cube united with
the tube P(r, rho1, rho2) = [rho1, rho2) x (-r, r)^{n-1} in a chart whose
first axis points away from the cell.  Tentacles of consecutive levels
are nested after a volume-preserving shift (a shear in the last
coordinate driven by the first), and inside every tentacle an axial
piecewise-linear profile with a log log 1/|x| transverse modulation
squeezes the tube onto the cell scale (or stretches it back out).  The
transverse widths b_k < d_k solve hard smallness constraints; in the
strict schedules they fall far below floating-point range and are kept
in log-magnitude form, so geometric evaluation of the stage maps is a
demo-schedule feature.

The tower facts come from ``geometry``, their one owner: a level's radii
are its base schedule's, its axial extents are summed from them level by
level, and the descent bins sibling tentacles by the tower's tile rule
and slot heights (``slot_tiles``, ``slot_array``), so a level's cube is
the tower cell its tentacle hangs from.

Each level has one knot table, solved with it: the axial knots ``ts``
and the s-knots ``s0 + se e``, affine in the modulation e in [0, E].  Its
order is checked once, at e = 0 and e = E, where a schedule is solved and
where a stage takes it, so it holds for every row a stage evaluates.

Each kernel works on rows and has one flavor: ``_modulation_rows`` (the
modulation and its slope at every transverse radius), ``_pl_rows`` (the
axial profile and its inverse, through the rows of
``TentacleLevel.knots``) and ``_shear_rows`` (the shear and its slope).
A stage map runs in three steps, each with one owner.
``_TentacleStage._descend_rows`` takes cube rows to their level, slot
heights and chart rows; ``_TentacleStage._walk_chart`` maps chart rows
through the knot table of their level, to the chart images and, when
asked, the cube Jacobians, of the stage or of its inverse; and
``TentacleSchedule.centerline`` puts a chart row back in the cube.  Every
evaluation method of a stage is a call of ``_TentacleStage._walk_rows``,
which runs the three; a caller that holds chart rows, as a continuum
witness does on tubes thinner than an ulp, walks the chart directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._maps import BatchMap
from .errors import (
    DomainError,
    InfeasibleScheduleError,
    NotInitializedError,
    UnsupportedDimensionError,
)
from .geometry import ParameterSchedule, row_max, slot_array, slot_tiles

__all__ = [
    "TentacleLevel",
    "TentacleSchedule",
    "solve_parameters",
    "SqueezeStage",
    "StretchStage",
    "tentacle_seminorm_bound",
    "log_tentacle_union_measure",
    "shift_bound",
    "conjugation_constant",
]

SQUEEZE = "squeeze"
STRETCH = "stretch"
MODES = ("demo", "strict-T1", "strict-T2")

# largest u = log(1/d) for which exp(-u) is still a positive double
_FLOAT_LOG_RANGE = 700.0


# ---------------------------------------------------------------------------
# Piecewise-linear interpolation through monotone knots, row by row.
# ---------------------------------------------------------------------------


def _raise_first_outside(outside: np.ndarray) -> None:
    """Raise the DomainError of the first row that lies outside its knots,
    as a loop over the rows would; nothing if every row is inside."""
    if outside.any():
        raise DomainError(f"row {int(np.argmax(outside))}: outside the knot range")


def _pl_rows(v: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The piecewise-linear interpolant through the knots (src[i], dst[i])
    of row i (strictly increasing, with v inside them) at every v[i]; its
    exact inverse when src and dst swap."""
    # the piece of v: the number of inner knots below it
    piece = (v[:, None] > src[:, 1:-1]).sum(axis=1)
    rows = np.arange(len(v))
    x0, x1 = src[rows, piece], src[rows, piece + 1]
    y0, y1 = dst[rows, piece], dst[rows, piece + 1]
    return y0 + (v - x0) * (y1 - y0) / (x1 - x0)


# ---------------------------------------------------------------------------
# Per-level parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TentacleLevel:
    """Solved constants of one tentacle level (one squeezing family).

    u_d, u_b are log(1/d_k), log(1/b_k); d/b themselves may underflow to
    0.0 and are materialized only on demand.  ``bend`` is the modulation
    coefficient of the middle knot (A_k when squeezing, the analogous
    constant when stretching); it is None at level 1 where that knot
    leaves the cube and is dropped.  ``shift_drop`` = r_{k-1} - b_{k-1}
    feeds the level-k shear.  The knot table of the level map is ``ts``
    (axial knots) against ``s0 + se e`` (s-knots at modulation e).
    """

    k: int
    r_hat: float
    r_hat_prev: float
    a: float
    c: float
    a_sq: float
    c_sq: float
    u_d: float
    u_b: float
    e_range: float
    bend: float | None
    line_prev_at_a: float
    line_prev_at_c: float
    delta_budget: float | None
    shift_drop: float
    ts: tuple[float, ...]
    s0: tuple[float, ...]
    se: tuple[float, ...]

    @property
    def d(self) -> float:
        return math.exp(-self.u_d)

    @property
    def b(self) -> float:
        return math.exp(-self.u_b)

    def knots(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The axial knots and the s-knots s0 + se e at every modulation of
        the array e, as two (len(e), K) arrays."""
        ss = np.add(self.s0, np.multiply.outer(e, self.se))
        return np.broadcast_to(self.ts, ss.shape), ss


@dataclass
class TentacleSchedule:
    """Solved tentacle parameters for levels 1..k_max of one family."""

    n: int
    beta: float
    family: str
    mode: str
    base: ParameterSchedule
    levels: list[TentacleLevel]

    def level(self, k: int) -> TentacleLevel:
        if not 1 <= k <= len(self.levels):
            raise NotInitializedError(f"level {k} not solved (have {len(self.levels)})")
        return self.levels[k - 1]

    def center_height(self, heights) -> float:
        """Last coordinate z_n of the center of the tentacle whose tower
        address has the slot heights ``heights`` (one per level)."""
        return sum(self.level(j + 1).r_hat_prev * h for j, h in enumerate(heights))

    def centerline(self, heights, t: np.ndarray) -> np.ndarray:
        """Last coordinate of the twisted centerline of the tentacle with
        the slot heights ``heights`` (as for ``_shear_rows``) at every axial
        coordinate of t: the center height plus the shear.  A chart row w
        is the cube point w + (0, ..., 0, centerline(heights, w_1))."""
        return self.center_height(heights) + _shear_rows(self, heights, t)

    @property
    def geometric(self) -> bool:
        """True when b_k, d_k are representable and stage maps can run."""
        return self.mode == "demo"


def _boundary_line(lv: TentacleLevel | None, family: str, t: float) -> float:
    """The axial boundary line l_k (squeeze) or l~_k (stretch) of the level
    ``lv`` at t: identity below r_k, then the chord through (r_k, r_k) and
    (a_k, a~_k) when squeezing, (a~_k, a_k) when stretching; the identity
    when ``lv`` is None (level 0)."""
    if lv is None or t <= lv.r_hat:
        return t
    lo, hi = (lv.a, lv.a_sq) if family == SQUEEZE else (lv.a_sq, lv.a)
    return lv.r_hat + (hi - lv.r_hat) / (lo - lv.r_hat) * (t - lv.r_hat)


def shift_bound(n: int, beta: float) -> float:
    """Uniform bound on the shear slope of every shifting map."""
    return (1.0 - 2.0**-n) / (1.0 - 2.0 ** -(beta + 1))


def conjugation_constant(n: int, beta: float) -> float:
    """Transport constant for integrals through the shift conjugation:
    |D(S o F o S^{-1})| <= (1+s)^2 |DF| with s the shear-slope bound and
    unit shear Jacobian, so energies pick up at most (1+s)^{2(n-1)}."""
    s = shift_bound(n, beta)
    return (1.0 + s) ** (2 * (n - 1))


def _coeff_sup(n: int, beta: float, family: str) -> float:
    """k-independent bound on the knot modulation coefficients."""
    if family == SQUEEZE:
        # A_k <= (r_{k-1} - r_k) / (r_{k-1} - 2 r_k), constant in k
        q = 2.0 ** -(beta + 1)
        return max(1.0, (1.0 - q) / (1.0 - 2.0 * q))
    # stretch: coefficient <= 1/(a_k - a~_k) <= 1/(a_inf - a~_1)
    q = 2.0 ** -(beta + 1)
    a_inf = 1.0 - q * q / (1.0 - q)
    return max(1.0, 1.0 / (a_inf - 2.0 * q))


def geometry_constant(n: int, beta: float, family: str) -> float:
    """Surface constant of the sup-norm polar integration of the
    transverse-gradient term: (n-1) 2^{n-1} (coefficient bound)^{n-1}."""
    return (n - 1) * 2.0 ** (n - 1) * _coeff_sup(n, beta, family) ** (n - 1)


def fixd_constant(n: int, beta: float, family: str) -> float:
    """The constant making the closed-form transverse bound land at delta_k."""
    return (n - 2) / geometry_constant(n, beta, family)


def delta_tilde(mode: str, n: int, beta: float, k: int) -> float:
    """Per-stage energy budget for the assembled map."""
    if mode == "strict-T1":
        return 2.0 ** (-k * beta * (n - 1)) / k**2
    if mode == "strict-T2":
        return 2.0 ** (-k * beta * (2 * n - 1)) / k**2
    raise ValueError(f"no delta-tilde schedule in mode {mode!r}")


def solve_parameters(
    n: int,
    beta: float,
    mode: str,
    family: str | None = None,
    k_max: int = 4,
) -> TentacleSchedule:
    """Solve tentacle levels 1..k_max by induction.

    Strict modes derive d_k from the smallness condition
    2^{(beta+1)k(n-1)} / log^{n-2}(1/d_k) < C_fixd delta_k with
    delta_k = 2^{-nk} delta~_k / C_shift, then b_k from the boundary
    matching log log(1/b_k) = log log(1/d_k) + Delta_k; everything stays
    in log magnitude.  Demo mode starts from d_1 = 1/20 and shrinks d_k
    geometrically, clamped by the ordering constraints d_k <= 4^{-n}
    b_{k-1} and d_k < 2^{-n} r_{k-1}, keeping all widths representable.
    """
    if n < 3:
        raise UnsupportedDimensionError("tentacle construction needs n >= 3")
    if beta < n + 1:
        raise InfeasibleScheduleError("tentacles need beta >= n+1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if family is None:
        family = STRETCH if mode == "strict-T2" else SQUEEZE
    if family not in (SQUEEZE, STRETCH):
        raise ValueError(f"unknown family {family!r}")

    base = ParameterSchedule(n=n, beta=beta, kind="B")
    c_shift = conjugation_constant(n, beta)
    c_fixd = fixd_constant(n, beta, family)

    levels: list[TentacleLevel] = []
    prev: TentacleLevel | None = None
    for k in range(1, k_max + 1):
        # the tower radii r_k of the base schedule; the axial extents
        # a_k = 1 - r_2 - ... - r_{k+2} and c_k = a_{k-1}, summed in order
        r, r_prev = base.r(k), base.r(k - 1)
        c = 1.0 - base.r(2) if prev is None else prev.a
        a = c - base.r(k + 2)
        a_sq = 2.0 * r
        c_sq = c if k == 1 else 2.0 * r_prev  # level-1 overshoot clamp

        # the domain tube ends (a, c when squeezing, the squeezed ends a~,
        # c~ when stretching) on the previous level's boundary line
        lo, hi = (a, c) if family == SQUEEZE else (a_sq, c_sq)
        at_lo, at_hi = _boundary_line(prev, family, lo), _boundary_line(prev, family, hi)
        e_range = at_lo - a_sq if family == SQUEEZE else a - at_lo
        if e_range <= 0:
            raise InfeasibleScheduleError(f"level {k}: non-positive modulation range")

        db = None
        if mode == "demo":
            u_d = math.log(20.0) + (k - 1) * math.log(4.0)
            floor = -math.log(2.0 ** -(n + 1) * r_prev)
            u_d = max(u_d, floor)
            if prev is not None:
                u_d = max(u_d, prev.u_b + n * math.log(4.0))
        else:
            db = 2.0**(-n * k) * delta_tilde(mode, n, beta, k) / c_shift
            try:
                u_d = (2.0 ** ((beta + 1) * k * (n - 1)) / (c_fixd * db)) ** (1.0 / (n - 2))
            except (OverflowError, ZeroDivisionError):  # db underflows to 0 first at some beta
                raise InfeasibleScheduleError(f"level {k}: log 1/d_k overflows doubles") from None
            u_d = max(u_d, -math.log(2.0 ** -(n + 1) * r_prev))
            if prev is not None:
                u_d = max(u_d, prev.u_b + n * math.log(4.0))
        u_b = u_d * math.exp(e_range)

        if u_b <= u_d:
            raise InfeasibleScheduleError(f"level {k}: b >= d")
        if prev is not None and u_d < prev.u_b + n * math.log(4.0) - 1e-9:
            raise InfeasibleScheduleError(f"level {k}: d_k > 4^-n b_(k-1)")
        if mode == "demo" and u_b > _FLOAT_LOG_RANGE:
            raise InfeasibleScheduleError(
                f"level {k}: demo width b_k underflows doubles (log 1/b = {u_b:.1f})"
            )

        if k == 1:
            bend = None
        elif family == SQUEEZE:
            mid = r + (a_sq - r) * (r_prev - r) / (a - r)  # l_k(r_{k-1})
            bend = (r_prev - mid) / e_range
        else:
            mid = 0.5 * (a + c)
            bend = (mid - r_prev) / e_range
        # the knot table: the domain tube ends go to the previous line
        # there, the near end phi moving down (squeezing) or up
        # (stretching) by e; from level 2 on the middle knot r_{k-1}, below
        # a or above a~, moves the same way by bend e
        sign = -1.0 if family == SQUEEZE else 1.0
        ts, s0, se = [r, lo, hi], [r, at_lo, at_hi], [0.0, sign, 0.0]
        if k > 1:
            i = 1 if family == SQUEEZE else 2
            ts.insert(i, r_prev), s0.insert(i, r_prev), se.insert(i, sign * bend)
        lv = TentacleLevel(
            k, r, r_prev, a, c, a_sq, c_sq, u_d, u_b, e_range, bend, at_lo, at_hi, db,
            0.0 if k == 1 else r_prev - math.exp(-prev.u_b), tuple(ts), tuple(s0), tuple(se),
        )
        if mode == "demo":  # r_k underflows or a_k rounds to c_k at large beta
            _check_knot_order(lv)
        levels.append(lv)
        prev = lv
    return TentacleSchedule(n, beta, family, mode, base, levels)


# ---------------------------------------------------------------------------
# Knot tables.
# ---------------------------------------------------------------------------


def _check_knot_order(level: TentacleLevel) -> None:
    """Raise InfeasibleScheduleError (a ValueError) unless the level's knots
    are strictly increasing at e = 0 and at e = E.  The knots are affine in
    e and ``_modulation_rows`` keeps e in [0, E], so then every row a stage
    evaluates has ordered knots."""
    ts, ss = level.knots(np.array([0.0, level.e_range]))
    if (np.diff(ts) <= 0).any() or (np.diff(ss) <= 0).any():
        raise InfeasibleScheduleError(f"level {level.k}: knots not strictly increasing")


# ---------------------------------------------------------------------------
# Shifting maps: shears of the last coordinate, row by row.
# ---------------------------------------------------------------------------


def _taper_rows(t: np.ndarray, r_k: float, r_prev: float) -> np.ndarray:
    """The shear profile of a level at every entry of t: 0 for t <= r_k, 1
    for t >= r_prev, linear between (the clipped ratio is 0 exactly when
    t <= r_k and 1 exactly when t >= r_prev)."""
    return np.minimum(np.maximum((t - r_k) / (r_prev - r_k), 0.0), 1.0)


def _shear_rows(sched: TentacleSchedule, heights, t: np.ndarray,
                slope: bool = False) -> np.ndarray:
    """sigma at every entry of t, or with ``slope`` its derivative (0 at
    the kinks of the profile), for the composed shear x_n += sigma(x_1) of
    a tower-address prefix.  ``heights[i]`` is the last coordinate of the
    level-(i+1) letter: one float, or one per entry of t; a zero height
    adds nothing."""
    total = np.zeros(len(t))
    for i, h in enumerate(heights):
        lv = sched.level(i + 1)
        r_k, r_prev = lv.r_hat, lv.r_hat_prev
        taper = (np.where((r_k < t) & (t < r_prev), 1.0 / (r_prev - r_k), 0.0) if slope
                 else _taper_rows(t, r_k, r_prev))
        total -= lv.shift_drop * h * taper
    return total


# ---------------------------------------------------------------------------
# The straight-chart level map: x -> (eta(x_1, |x_perp|), x_perp).
# ---------------------------------------------------------------------------


def _modulation_rows(lv: TentacleLevel, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, de/drho) at every transverse sup radius of the array rho.

    e = log log(1/max(b, rho)) - log log(1/d), clamped to [0, E]: just
    below b the difference of the two logs can round above E.  It is E
    where rho <= 0 or log(1/rho) >= u_b, 0 where log(1/rho) <= u_d, and
    the slope is 0 on both; a NaN radius falls through to the interior
    formula, and gives NaN.  The logs are math.log, one call per entry:
    np.log rounds differently on some inputs."""
    e, de_drho = np.full(len(rho), lv.e_range), np.zeros(len(rho))
    pos = np.flatnonzero(~(rho <= 0.0))
    r = rho[pos]
    u = -np.fromiter(map(math.log, r.tolist()), float, len(r))
    flat = u <= lv.u_d
    e[pos[flat]] = 0.0
    mid = ~(flat | (u >= lv.u_b))
    r, u, pos = r[mid], u[mid], pos[mid]
    e[pos] = np.minimum(np.fromiter(map(math.log, u.tolist()), float, len(u))
                        - math.log(lv.u_d), lv.e_range)
    de_drho[pos] = -1.0 / (r * u)
    return e, de_drho


def _level_rows(lv: TentacleLevel, w: np.ndarray):
    """The modulation slope and the axial knots of the level map at every
    row of the (N, n) chart array w: (de/drho, ts, ss), the knots as
    (N, K) arrays."""
    e, de_drho = _modulation_rows(lv, row_max(np.abs(w[:, 1:])))
    return (de_drho,) + lv.knots(e)


def _straight_jacobian_rows(lv: TentacleLevel, w: np.ndarray, de_drho: np.ndarray,
                            ts: np.ndarray, ss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobian of the level map x -> (eta(x_1, |x_perp|), x_perp) at
    every row of the (N, n) chart array w, from the ``_level_rows`` of w:
    ((N, n, n) Jacobians, etas).  The first row of each is (axial slope,
    d eta / d w_perp), the others are the identity; d eta / d e
    interpolates the knot slopes ``se``."""
    count, n = w.shape
    t = w[:, 0]
    # the piece rule of _pl_rows: the number of inner knots below t
    piece = (t[:, None] > ts[:, 1:-1]).sum(axis=1)
    rows = np.arange(count)
    t0, t1 = ts[rows, piece], ts[rows, piece + 1]
    s0, s1 = ss[rows, piece], ss[rows, piece + 1]
    lam = (t - t0) / (t1 - t0)
    se = np.array(lv.se)
    deta_de = se[piece] * (1 - lam) + se[piece + 1] * lam
    d = np.tile(np.eye(n), (count, 1, 1))
    d[:, 0, 0] = (s1 - s0) / (t1 - t0)
    graded = np.flatnonzero(de_drho != 0.0)
    arg = 1 + np.abs(w[graded, 1:]).argmax(axis=1)
    d[graded, 0, arg] = (deta_de[graded] * de_drho[graded]
                         * np.copysign(1.0, w[graded, arg]))
    return d, s0 + lam * (s1 - s0)


# ---------------------------------------------------------------------------
# The assembled stage maps.
# ---------------------------------------------------------------------------


class _TentacleStage(BatchMap):
    """Common machinery: find the deepest twisted tentacle containing a
    point, work in its straight chart, apply the per-slice axial map."""

    family: str
    forward_from_squeezed: bool  # domain tubes end at c~ instead of c

    def __init__(self, sched: TentacleSchedule, stage: int):
        if sched.family != self.family:
            raise ValueError(f"schedule family {sched.family!r} != {self.family!r}")
        if not sched.geometric:
            raise NotInitializedError(
                "strict schedules keep widths in log form; stage maps need demo mode"
            )
        if stage > len(sched.levels):
            raise NotInitializedError(f"stage {stage} beyond solved levels")
        for lv in sched.levels[:stage]:
            _check_knot_order(lv)
        self.sched = sched
        self.stage = stage
        self.n = sched.n

    # -- evaluation, on (N, n) arrays, for both directions and for images
    # and Jacobians: the descent to the chart rows (rows leave it as they
    # stop), the walk of the chart and the way back along the centerline

    def _tube_end(self, lv: TentacleLevel, squeezed: bool) -> float:
        return lv.c_sq if squeezed else lv.c

    def _descend_rows(self, x: np.ndarray, squeezed: bool):
        """Find the deepest level J and the chart row of every row of x.

        Returns (J, heights, w), J one value per row, heights the address
        height letters as a (stage, N) array (0 from level J on), and w the
        chart rows (shift removed, center subtracted: the row of x is w +
        (0, ..., 0, ``sched.centerline(heights, w_1)``)); J = 0, and w the
        row of x, when the row is outside every level-1 tentacle.
        """
        npts, n = x.shape
        slot_heights = slot_array(n)[:, n - 1]
        found = np.zeros(npts, dtype=np.intp)
        heights = np.zeros((self.stage, npts))
        w = x.copy()  # the last column is q_n, updated as rows go deeper
        t_all, q_all = x[:, 0], w[:, n - 1]
        rows = np.arange(npts)
        for j in range(1, self.stage + 1):
            lv = self.sched.level(j)
            end = self._tube_end(lv, squeezed)
            # the cube and the tube of the level lie in -r_hat < t < end
            t = t_all[rows]
            near = (t > -lv.r_hat) & (t < end)
            count = np.count_nonzero(near)
            if not count:
                break
            if count < len(rows):
                rows, t = rows.compress(near), t.compress(near)
            q_n = q_all[rows]
            nu = lv.r_hat_prev - lv.shift_drop * _taper_rows(t, lv.r_hat, lv.r_hat_prev)
            # the sibling stacking pitch fell below float resolution;
            # deeper tentacles are indistinguishable from their parent
            live = nu > 0.0
            if np.count_nonzero(live) < len(rows):
                rows, t, q_n, nu = (v.compress(live) for v in (rows, t, q_n, nu))
            s_hat = slot_heights.take(slot_tiles(q_n, nu, n))
            w_n = q_n - s_hat * nu
            perp = np.maximum(row_max(np.abs(x.take(rows, axis=0)[:, 1 : n - 1])), np.abs(w_n))
            deeper = ((np.maximum(np.abs(t), perp) < lv.r_hat)
                      | ((lv.r_hat <= t) & (perp < lv.d)))
            count = np.count_nonzero(deeper)
            if not count:
                break
            if count < len(rows):
                rows, s_hat, w_n = rows.compress(deeper), s_hat.compress(deeper), w_n.compress(deeper)
            heights[j - 1, rows] = s_hat
            q_all[rows] = w_n
            found[rows] = j
        return found, heights, w

    def _walk_chart(self, J: np.ndarray, heights: np.ndarray, w: np.ndarray,
                    inverse: bool = False, jacobian: bool = False):
        """The level maps, or their inverses, on the chart rows w of the
        levels J and slot heights ``heights`` that ``_descend_rows`` gives:
        (chart images, (N, n, n) Jacobians of the map walked in the cube,
        off the interface surfaces, or None unless ``jacobian``).  A row of
        level J >= 1 whose axial coordinate is at least r_J maps it through
        the knots of its level; the other rows are fixed.  A Jacobian
        conjugates the straight-chart one, taken at the forward map's side
        of the chart (at the preimage when inverting, where it is
        inverted), by the shear slopes at the axial coordinates going in and
        coming out.  The knots of every row are ordered (``__init__`` checks
        each level's table); the first row outside its knots raises its
        DomainError, Jacobians or not."""
        count, n = w.shape
        # x becomes the images; w keeps the axial coordinate of the points
        x = w.copy()
        d = np.tile(np.eye(n), (count, 1, 1)) if jacobian else None
        rows = J.nonzero()[0]
        if not len(rows):
            return x, d
        outside = np.zeros(count, dtype=bool)
        for j in range(1, J.max() + 1):
            lv = self.sched.level(j)
            axial = rows[(J[rows] == j) & (w[rows, 0] >= lv.r_hat)]
            if not len(axial):
                continue
            de_drho, ts, ss = _level_rows(lv, w[axial])
            v = w[axial, 0]
            src, dst = (ss, ts) if inverse else (ts, ss)
            outside[axial] = (v < src[:, 0]) | (v > src[:, -1])
            x[axial, 0] = _pl_rows(v, src, dst)
            if jacobian:
                chart = w[axial]
                if inverse:
                    chart[:, 0] = x[axial, 0]
                b, eta = _straight_jacobian_rows(lv, chart, de_drho, ts, ss)
                if inverse:
                    # the first row (m, g) of b inverts to (1/m, -g/m), and
                    # the axial coordinate coming out is the preimage's
                    m = b[:, 0, 0].copy()
                    b[:, 0] = -b[:, 0] / m[:, None]
                    b[:, 0, 0] = 1.0 / m
                    eta = chart[:, 0]
                # out = Sh(q + z), q the chart image, in = Sh^{-1}(x) - z
                a, c = np.tile(np.eye(n), (2, len(axial), 1, 1))
                a[:, n - 1, 0] = _shear_rows(self.sched, heights[:j, axial], eta, slope=True)
                c[:, n - 1, 0] = -_shear_rows(self.sched, heights[:j, axial], v, slope=True)
                d[axial] = np.matmul(np.matmul(a, b), c)
        _raise_first_outside(outside)
        return x, d

    def _walk_rows(self, points, inverse: bool = False, jacobian: bool = False):
        """The stage map, or its inverse, on every row of ``points``:
        (images, (N, n, n) Jacobians of the map walked, or None unless
        ``jacobian``).  The rows descend to their chart rows, the chart
        walks (``_walk_chart``), and an image goes back to the cube on the
        centerline at its new axial coordinate."""
        x = np.asarray(points, dtype=float)
        J, heights, w = self._descend_rows(x, squeezed=self.forward_from_squeezed != inverse)
        x, d = self._walk_chart(J, heights, w, inverse, jacobian)
        rows = J.nonzero()[0]
        if len(rows):  # a row in no tentacle stays, and costs no shear
            x[rows, -1] += self.sched.centerline(heights[:, rows], x[rows, 0])
        return x, d


class SqueezeStage(_TentacleStage):
    """h_k: identity outside the twisted tentacles, squeezes every level-j
    tentacle tube onto the squeezed tube, the identity on the tower cells,
    linear on the inner tubes."""

    family = SQUEEZE
    forward_from_squeezed = False


class StretchStage(_TentacleStage):
    """h~_k: the mirror map carrying squeezed tubes back onto full tubes;
    not the pointwise inverse of the squeeze (the interiors differ), but
    the same tentacle bookkeeping."""

    family = STRETCH
    forward_from_squeezed = True


# ---------------------------------------------------------------------------
# Energy bounds.
# ---------------------------------------------------------------------------


def tentacle_seminorm_bound(sched: TentacleSchedule, k: int) -> float:
    """Upper bound / estimate for the P'_k energy of one straight level map.

    Strict modes: the log-space closed form
        c_geom 2^{(beta+1)k(n-1)} (u_d^{2-n} - u_b^{2-n}) / (n-2)
    plus the axial-slope volume term (which underflows to 0 there).
    Demo mode (n = 3): a tight semi-analytic evaluation of the exact
    Frobenius energy, exact in the axial variable, 1-D quadrature in the
    transverse log radius; it cross-validates against grid quadrature.
    """
    n = sched.n
    if n == 2:
        raise UnsupportedDimensionError("the transverse exponent degenerates at n = 2")
    lv = sched.level(k)
    if sched.mode == "demo":
        if n != 3:
            raise UnsupportedDimensionError("demo-mode tight energy implemented for n = 3")
        return _demo_energy(sched, k)
    c_geom = geometry_constant(n, sched.beta, sched.family)
    bracket = lv.u_d ** (2 - n) - lv.u_b ** (2 - n)
    main = c_geom * 2.0 ** ((sched.beta + 1) * k * (n - 1)) * bracket / (n - 2)
    # axial term: (max slope)^{n-1} * |P'_k|, evaluated via logs
    log_axial = (
        (n - 1) * _log_max_axial_slope(sched, lv)
        + math.log(lv.c_sq if sched.family == STRETCH else lv.c)
        + (n - 1) * (math.log(2.0) - lv.u_d)
    )
    axial = math.exp(log_axial) if log_axial > -745.0 else 0.0
    return main + axial


def _log_max_axial_slope(sched: TentacleSchedule, lv: TentacleLevel) -> float:
    """log of the largest axial slope of the level-k map over all knot
    pieces and modulations e in [0, E], from exact piece lengths.

    A piece's slope is affine in e, so it peaks at e = 0 or e = E.  The
    steepest is the end cap [a_k, c_k] at e = E when squeezing: length
    r_{k+2}, which rounds to zero next to 1 at deep levels, and rise
    sigma r_{k+2} + E, with sigma = r_{k-1} / (c_k - r_{k-1}) the slope of
    l_{k-1} (1 at k = 1).  When stretching it is the first piece
    [r_k, a~_k] at e = E: length r_k, rise r_k + E.  The length enters in
    log form, log 1/r_j = j (beta+1) log 2, finite where r_j underflows.
    """
    if sched.family == SQUEEZE:
        j = lv.k + 2
        sigma = 1.0 if lv.k == 1 else lv.r_hat_prev / (lv.c - lv.r_hat_prev)
    else:
        j = lv.k
        sigma = 1.0
    return (math.log(lv.e_range) + j * (sched.beta + 1) * math.log(2.0)
            + math.log1p(sigma * sched.base.r(j) / lv.e_range))


def _demo_energy(sched: TentacleSchedule, k: int) -> float:
    """Exact-in-axial, 1-D-quadrature-in-rho evaluation of
    int_{P'_k} |D eta-map|_F^2 for n = 3."""
    from numpy.polynomial.legendre import leggauss  # not loaded by numpy itself

    lv = sched.level(k)
    u_d, u_b, e_rng = lv.u_d, lv.u_b, lv.e_range
    d, b = lv.d, lv.b

    # transverse moments int 8 e^{-2u} E^j du over the sup-annulus b < rho
    # < d (area el. 8 rho drho), in the chart u = u_d e^E: 40-node
    # Gauss-Legendre on the geometric pieces [E/2, E], [E/4, E/2], ... of
    # [0, E], down to a first piece no wider than 1/(2 u_d), the decay
    # length of exp(-2 u_d e^E) at E = 0
    levels = max(0, math.ceil(math.log2(2.0 * u_d * e_rng)))
    cuts = e_rng * 2.0 ** -np.arange(levels, -1, -1.0)
    lo, hi = np.concatenate([[0.0], cuts[:-1]])[:, None], cuts[:, None]
    x, w = leggauss(40)
    e = ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel()
    u = u_d * np.exp(e)
    dens = ((hi - lo) / 2 * w).ravel() * 8.0 * u * np.exp(-2.0 * u)

    a0 = (2 * d) ** 2 - (2 * b) ** 2
    a1, a2 = float(dens @ e), float(dens @ e**2)
    g2 = 8.0 * (1.0 / u_d - 1.0 / u_b)
    core = (2 * b) ** 2

    ts, ss, coeffs = lv.ts, lv.s0, lv.se  # ordered: solve_parameters checks
    total = 0.0
    for i in range(len(ts) - 1):
        t_lo, t_hi = ts[i], ts[i + 1]
        length = t_hi - t_lo
        s_lo0, s_hi0 = ss[i], ss[i + 1]
        c_lo, c_hi = coeffs[i], coeffs[i + 1]
        # axial slope m(E) = m0 + m1 E on this piece
        m0 = (s_hi0 - s_lo0) / length
        m1 = (c_hi - c_lo) / length
        # identity rows: (n-1) = 2 over the full cross-section
        total += 2.0 * length * ((2 * d) ** 2)
        # slope^2 term: integrate (m0 + m1 E)^2 over annulus + core (E = range)
        total += length * (m0 * m0 * a0 + 2 * m0 * m1 * a1 + m1 * m1 * a2)
        total += length * (m0 + m1 * e_rng) ** 2 * core
        # transverse-gradient term: (c_lo + lam (c_hi - c_lo))^2 averaged in lam
        w_mean = c_lo * c_lo + c_lo * (c_hi - c_lo) + (c_hi - c_lo) ** 2 / 3.0
        total += length * w_mean * g2
    return total


def log_tentacle_union_measure(sched: TentacleSchedule, k: int) -> float:
    """log of 2^{nk} (d_k^{n-1} c_k 2^{n-1} + (2 r_k)^n), stable for
    log-form widths; the sequence must decrease to -inf."""
    n = sched.n
    lv = sched.level(k)
    log_tube = (n - 1) * (-lv.u_d) + math.log(lv.c) + (n - 1) * math.log(2.0)
    log_cube = n * math.log(2.0 * lv.r_hat)
    hi = max(log_tube, log_cube)
    lo = min(log_tube, log_cube)
    return n * k * math.log(2.0) + hi + math.log1p(math.exp(lo - hi))
