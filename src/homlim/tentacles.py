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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleScheduleError,
    NotInitializedError,
    UnsupportedDimensionError,
)
from .geometry import ParameterSchedule, tower_slots

__all__ = [
    "PLKnots",
    "pl_interpolate",
    "pl_inverse",
    "pl_slope",
    "TentacleLevel",
    "TentacleSchedule",
    "solve_parameters",
    "shift_forward",
    "shift_inverse",
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
# Piecewise-linear interpolation through monotone knots.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLKnots:
    """Monotone knot lists (t_i, s_i); both strictly increasing."""

    ts: tuple[float, ...]
    ss: tuple[float, ...]

    def __post_init__(self):
        if len(self.ts) != len(self.ss) or len(self.ts) < 2:
            raise ValueError("need matching knot lists of length >= 2")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise ValueError(f"t-knots not strictly increasing: {self.ts}")
        if any(b <= a for a, b in zip(self.ss, self.ss[1:])):
            raise ValueError(f"s-knots not strictly increasing: {self.ss}")


def _pl_piece(v: float, knots: tuple[float, ...]) -> int:
    for i in range(len(knots) - 2):
        if v <= knots[i + 1]:
            return i
    return len(knots) - 2


def pl_interpolate(t: float, knots: PLKnots) -> float:
    """Value of the piecewise-linear interpolant at t in [t_1, t_last]."""
    if t < knots.ts[0] or t > knots.ts[-1]:
        raise DomainError(f"t={t} outside [{knots.ts[0]}, {knots.ts[-1]}]")
    i = _pl_piece(t, knots.ts)
    return knots.ss[i] + (t - knots.ts[i]) * (knots.ss[i + 1] - knots.ss[i]) / (
        knots.ts[i + 1] - knots.ts[i]
    )


def pl_inverse(s: float, knots: PLKnots) -> float:
    """Exact inverse of the interpolant (swap the knot roles)."""
    if s < knots.ss[0] or s > knots.ss[-1]:
        raise DomainError(f"s={s} outside [{knots.ss[0]}, {knots.ss[-1]}]")
    i = _pl_piece(s, knots.ss)
    return knots.ts[i] + (s - knots.ss[i]) * (knots.ts[i + 1] - knots.ts[i]) / (
        knots.ss[i + 1] - knots.ss[i]
    )


def _pl_rows(v: np.ndarray, ts, ss, inverse: bool = False) -> np.ndarray:
    """``pl_interpolate`` (``pl_inverse`` when ``inverse``) row by row.

    The knot lists ``ts``, ``ss`` hold floats or arrays of one value per
    row of v; each row gets the float operations of the pointwise
    functions.  Raises DomainError if some row fails their checks: knots
    strictly increasing (a ValueError of ``PLKnots`` there) and v inside
    the knot range."""
    ts, ss = (np.stack(np.broadcast_arrays(*knots, v)[:-1], axis=1) for knots in (ts, ss))
    src, dst = (ss, ts) if inverse else (ts, ss)
    bad = ((ts[:, 1:] <= ts[:, :-1]).any(axis=1) | (ss[:, 1:] <= ss[:, :-1]).any(axis=1)
           | (v < src[:, 0]) | (v > src[:, -1]))
    if bad.any():
        raise DomainError(f"{np.count_nonzero(bad)} rows fail the knot or range checks")
    # the _pl_piece rule: the number of inner knots below v
    piece = (v[:, None] > src[:, 1:-1]).sum(axis=1)
    rows = np.arange(len(v))
    x0, x1 = src[rows, piece], src[rows, piece + 1]
    y0, y1 = dst[rows, piece], dst[rows, piece + 1]
    return y0 + (v - x0) * (y1 - y0) / (x1 - x0)


def pl_slope(t: float, knots: PLKnots) -> float:
    i = _pl_piece(t, knots.ts)
    return (knots.ss[i + 1] - knots.ss[i]) / (knots.ts[i + 1] - knots.ts[i])


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
    feeds the level-k shear.
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
    mid_knot: float | None
    delta_budget: float | None
    delta_tilde: float | None
    shift_drop: float

    @property
    def d(self) -> float:
        return math.exp(-self.u_d)

    @property
    def b(self) -> float:
        return math.exp(-self.u_b)


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

    @property
    def geometric(self) -> bool:
        """True when b_k, d_k are representable and stage maps can run."""
        return self.mode == "demo"


def _r_hat(beta: float, k: int) -> float:
    return 2.0 ** (-k * (beta + 1))


def _axial_extents(beta: float, k: int) -> tuple[float, float]:
    """(a_k, c_k): a_k = 1 - sum_{i=2}^{k+2} r_i, c_k = a_{k-1}."""
    a = 1.0
    for j in range(2, k + 3):
        a -= _r_hat(beta, j)
    c = 1.0
    for j in range(2, k + 2):
        c -= _r_hat(beta, j)
    return a, c


def _boundary_line(beta: float, k_line: int, family: str):
    """The axial boundary line l_k (squeeze) or l~_k (stretch): identity
    below r_k, then the chord through (r_k, r_k) and (a_k, a~_k) when
    squeezing, (a~_k, a_k) when stretching; the identity at level 0."""
    if k_line == 0:
        return lambda t: t
    r = _r_hat(beta, k_line)
    a, _ = _axial_extents(beta, k_line)
    lo, hi = (a, 2.0 * r) if family == SQUEEZE else (2.0 * r, a)
    slope = (hi - r) / (lo - r)

    def line(t: float) -> float:
        if t <= r:
            return t
        return r + slope * (t - r)

    return line


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
        r = _r_hat(beta, k)
        r_prev = _r_hat(beta, k - 1)
        a, c = _axial_extents(beta, k)
        a_sq = 2.0 * r
        c_sq = c if k == 1 else 2.0 * r_prev  # level-1 overshoot clamp

        line_prev = _boundary_line(beta, k - 1, family)
        if family == SQUEEZE:
            e_range = line_prev(a) - a_sq
        else:
            e_range = a - line_prev(a_sq)
        if e_range <= 0:
            raise InfeasibleScheduleError(f"level {k}: non-positive modulation range")

        dt = db = None
        if mode == "demo":
            u_d = math.log(20.0) + (k - 1) * math.log(4.0)
            floor = -math.log(2.0 ** -(n + 1) * r_prev)
            u_d = max(u_d, floor)
            if prev is not None:
                u_d = max(u_d, prev.u_b + n * math.log(4.0))
        else:
            dt = delta_tilde(mode, n, beta, k)
            db = 2.0**(-n * k) * dt / c_shift
            u_d = (2.0 ** ((beta + 1) * k * (n - 1)) / (c_fixd * db)) ** (1.0 / (n - 2))
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
            bend = mid = None
        elif family == SQUEEZE:
            mid = r + (a_sq - r) * (r_prev - r) / (a - r)  # l_k(r_{k-1})
            bend = (r_prev - mid) / e_range
        else:
            mid = 0.5 * (a + c)
            bend = (mid - r_prev) / e_range
        # the previous line at the domain tube ends: a, c when squeezing,
        # the squeezed ends a~, c~ when stretching
        lo, hi = (a, c) if family == SQUEEZE else (a_sq, c_sq)
        lv = TentacleLevel(
            k, r, r_prev, a, c, a_sq, c_sq, u_d, u_b, e_range, bend,
            line_prev(lo), line_prev(hi), mid, db, dt,
            0.0 if k == 1 else r_prev - math.exp(-prev.u_b),
        )
        levels.append(lv)
        prev = lv
    return TentacleSchedule(n, beta, family, mode, base, levels)


# ---------------------------------------------------------------------------
# Knot tables.
# ---------------------------------------------------------------------------


def _knot_lists(level: TentacleLevel, family: str, e):
    """(ts, ss): the axial knots of the level map at transverse modulation
    e in [0, E]; e may be an array, giving array entries in ss."""
    lv = level
    if family == SQUEEZE:
        phi = lv.line_prev_at_a - e
        if lv.k == 1:
            return (lv.r_hat, lv.a, lv.c), (lv.r_hat, phi, lv.line_prev_at_c)
        psi = lv.r_hat_prev - lv.bend * e
        return (lv.r_hat, lv.r_hat_prev, lv.a, lv.c), (lv.r_hat, psi, phi, lv.line_prev_at_c)
    phi = lv.line_prev_at_a + e
    if lv.k == 1:
        return (lv.r_hat, lv.a_sq, lv.c_sq), (lv.r_hat, phi, lv.line_prev_at_c)
    psi = lv.r_hat_prev + lv.bend * e
    return (lv.r_hat, lv.a_sq, lv.r_hat_prev, lv.c_sq), (lv.r_hat, phi, psi, lv.line_prev_at_c)


def _knots(level: TentacleLevel, family: str, e: float) -> PLKnots:
    """Axial knots of the level map at transverse modulation e in [0, E]."""
    return PLKnots(*_knot_lists(level, family, e))


def _knot_e_coeffs(level: TentacleLevel, family: str) -> tuple[float, ...]:
    """d s_i / d e for the knot table above."""
    if family == SQUEEZE:
        if level.k == 1:
            return (0.0, -1.0, 0.0)
        return (0.0, -level.bend, -1.0, 0.0)
    if level.k == 1:
        return (0.0, 1.0, 0.0)
    return (0.0, 1.0, level.bend, 0.0)


def _modulation(level: TentacleLevel, rho: float) -> tuple[float, float]:
    """(e, de/drho) for transverse sup radius rho.

    e = log log(1/max(b, rho)) - log log(1/d), clamped to [0, E]."""
    if rho <= 0.0:
        return level.e_range, 0.0
    u = -math.log(rho)
    if u >= level.u_b:
        return level.e_range, 0.0
    if u <= level.u_d:
        return 0.0, 0.0
    return math.log(u) - math.log(level.u_d), -1.0 / (rho * u)


# ---------------------------------------------------------------------------
# Shifting maps.
# ---------------------------------------------------------------------------


def _taper(t: float, r_k: float, r_prev: float) -> float:
    if t <= r_k:
        return 0.0
    if t >= r_prev:
        return 1.0
    return (t - r_k) / (r_prev - r_k)


def _taper_rows(t: np.ndarray, r_k: float, r_prev: float) -> np.ndarray:
    """``_taper`` on an array: the clipped ratio is 0 exactly when t <= r_k
    and 1 exactly when t >= r_prev, so every value is the same float."""
    return np.clip((t - r_k) / (r_prev - r_k), 0.0, 1.0)


def _taper_slope(t: float, r_k: float, r_prev: float) -> float:
    if r_k < t < r_prev:
        return 1.0 / (r_prev - r_k)
    return 0.0


class _Shift:
    """The composed shear S of a tower-address prefix: x_n += sigma(x_1)."""

    def __init__(self, sched: TentacleSchedule, heights: list[float]):
        # heights[i] = last coordinate of the level-(i+1) letter
        self.sched = sched
        self.heights = heights

    def sigma(self, t: float) -> float:
        total = 0.0
        for i, h in enumerate(self.heights):
            lv = self.sched.level(i + 1)
            total -= lv.shift_drop * h * _taper(t, lv.r_hat, lv.r_hat_prev)
        return total

    def sigma_slope(self, t: float) -> float:
        total = 0.0
        for i, h in enumerate(self.heights):
            lv = self.sched.level(i + 1)
            total -= lv.shift_drop * h * _taper_slope(t, lv.r_hat, lv.r_hat_prev)
        return total


def shift_forward(sched: TentacleSchedule, word, point) -> np.ndarray:
    """Apply the composed shifting map of the tower-address ``word``."""
    x = np.asarray(point, dtype=float).copy()
    sh = _Shift(sched, [w[-1] for w in word])
    x[-1] += sh.sigma(x[0])
    return x


def shift_inverse(sched: TentacleSchedule, word, point) -> np.ndarray:
    y = np.asarray(point, dtype=float).copy()
    sh = _Shift(sched, [w[-1] for w in word])
    y[-1] -= sh.sigma(y[0])
    return y


# ---------------------------------------------------------------------------
# The straight-chart level map: x -> (eta(x_1, |x_perp|), x_perp).
# ---------------------------------------------------------------------------


def _straight_axial(lv: TentacleLevel, family: str, w: np.ndarray,
                    inverse: bool = False) -> float:
    """Axial coordinate eta of the level map at chart point w (of its
    inverse when ``inverse``): the PL profile of the knots at w's
    transverse modulation."""
    e, _ = _modulation(lv, float(np.max(np.abs(w[1:]))))
    knots = _knots(lv, family, e)
    return pl_inverse(w[0], knots) if inverse else pl_interpolate(w[0], knots)


def _straight_jacobian(lv: TentacleLevel, family: str,
                       w: np.ndarray) -> tuple[np.ndarray, float]:
    """(Jacobian, eta) of the level map at chart point w: the first row is
    (axial slope, d eta / d w_perp), the other rows are the identity."""
    rho = float(np.max(np.abs(w[1:])))
    e, de_drho = _modulation(lv, rho)
    knots = _knots(lv, family, e)
    i = _pl_piece(w[0], knots.ts)
    lam = (w[0] - knots.ts[i]) / (knots.ts[i + 1] - knots.ts[i])
    coeffs = _knot_e_coeffs(lv, family)
    deta_de = coeffs[i] * (1 - lam) + coeffs[i + 1] * lam
    d = np.eye(len(w))
    d[0, 0] = pl_slope(w[0], knots)
    if de_drho != 0.0:
        arg = 1 + int(np.argmax(np.abs(w[1:])))
        d[0, arg] = deta_de * de_drho * math.copysign(1.0, w[arg])
    eta = knots.ss[i] + lam * (knots.ss[i + 1] - knots.ss[i])
    return d, eta


# ---------------------------------------------------------------------------
# The assembled stage maps.
# ---------------------------------------------------------------------------


class _TentacleStage:
    """Common machinery: locate the deepest twisted tentacle containing a
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
        self.sched = sched
        self.stage = stage
        self.n = sched.n
        self._slots = [s[-1] for s in tower_slots(sched.n)]

    # -- descent --------------------------------------------------------------

    def _tube_end(self, lv: TentacleLevel, squeezed: bool) -> float:
        return lv.c_sq if squeezed else lv.c

    def _descend(self, x: np.ndarray, squeezed: bool):
        """Find the deepest level J and chart data for point x.

        Returns (J, heights, z_n, w) where heights are the address height
        letters, z_n the tentacle center height, and w the chart point
        (shift removed, center subtracted); J = 0 when x is outside every
        level-1 tentacle.
        """
        n = self.n
        t = x[0]
        heights: list[float] = []
        z_n = 0.0
        q_n = x[-1]
        found = 0
        w = None
        for j in range(1, self.stage + 1):
            lv = self.sched.level(j)
            nu = lv.r_hat_prev - lv.shift_drop * _taper(t, lv.r_hat, lv.r_hat_prev)
            if nu <= 0.0:
                # the sibling stacking pitch fell below float resolution;
                # deeper tentacles are indistinguishable from their parent
                break
            m = int(math.floor((q_n / nu + 1.0) * 2 ** (n - 1)))
            m = min(max(m, 0), 2**n - 1)
            s_hat = self._slots[m]
            w_n = q_n - s_hat * nu
            w_cand = np.empty(n)
            w_cand[0] = t
            w_cand[1 : n - 1] = x[1 : n - 1]
            w_cand[n - 1] = w_n
            in_cube = np.max(np.abs(w_cand)) < lv.r_hat
            d_j = lv.d
            end = self._tube_end(lv, squeezed)
            in_tube = (
                lv.r_hat <= t < end
                and np.max(np.abs(w_cand[1:])) < d_j
            )
            if not (in_cube or in_tube):
                break
            heights.append(s_hat)
            z_n += lv.r_hat_prev * s_hat
            q_n = w_n
            found = j
            w = w_cand
        return found, heights, z_n, w

    # -- public API ---------------------------------------------------------------

    def _map(self, point, inverse: bool) -> np.ndarray:
        """The stage map or its inverse: find the tentacle among the tubes
        of the side it starts from, map the axial coordinate in the
        straight chart and put the shift back at the new axial value."""
        x = np.asarray(point, dtype=float)
        J, heights, z_n, w = self._descend(x, squeezed=self.forward_from_squeezed != inverse)
        if J == 0:
            return x.copy()
        lv = self.sched.level(J)
        out = w.copy()
        if w[0] >= lv.r_hat:
            out[0] = _straight_axial(lv, self.family, w, inverse)
        out[-1] += z_n + _Shift(self.sched, heights).sigma(out[0])
        return out

    def forward(self, point) -> np.ndarray:
        return self._map(point, inverse=False)

    def inverse(self, point) -> np.ndarray:
        return self._map(point, inverse=True)

    # -- batched evaluation ---------------------------------------------------
    #
    # ``_descend`` and ``_map`` on (N, n) arrays, with the pointwise float
    # operations on every row; rows leave the descent as they stop.

    def _descend_rows(self, x: np.ndarray, squeezed: bool):
        """``_descend`` for the rows of x: (J, heights, z_n, w) with J and z_n
        one value per row, heights a (stage, N) array (0 from level J on)
        and w the chart points (x itself on rows with J = 0)."""
        npts, n = x.shape
        found = np.zeros(npts, dtype=np.intp)
        heights = np.zeros((self.stage, npts))
        z_n = np.zeros(npts)
        w = x.copy()  # the last column is q_n, updated as rows go deeper
        slots = np.array(self._slots)
        rows = np.arange(npts)
        for j in range(1, self.stage + 1):
            lv = self.sched.level(j)
            t, q_n = x[rows, 0], w[rows, n - 1]
            nu = lv.r_hat_prev - lv.shift_drop * _taper_rows(t, lv.r_hat, lv.r_hat_prev)
            live = nu > 0.0  # the float-pitch cutoff of _descend
            rows, t, q_n, nu = rows[live], t[live], q_n[live], nu[live]
            m = np.clip(np.floor((q_n / nu + 1.0) * 2 ** (n - 1)), 0, 2**n - 1)
            s_hat = slots[m.astype(np.intp)]
            w_n = q_n - s_hat * nu
            perp = np.maximum(np.abs(x[rows, 1 : n - 1]).max(axis=1), np.abs(w_n))
            in_cube = np.maximum(np.abs(t), perp) < lv.r_hat
            in_tube = (lv.r_hat <= t) & (t < self._tube_end(lv, squeezed)) & (perp < lv.d)
            deeper = in_cube | in_tube
            rows = rows[deeper]
            s_hat = s_hat[deeper]
            heights[j - 1, rows] = s_hat
            z_n[rows] += lv.r_hat_prev * s_hat
            w[rows, n - 1] = w_n[deeper]
            found[rows] = j
        return found, heights, z_n, w

    def _map_rows(self, points, inverse: bool) -> np.ndarray:
        """``_map`` on every row of ``points``."""
        x = np.array(points, dtype=float)
        J, heights, z_n, w = self._descend_rows(
            x, squeezed=self.forward_from_squeezed != inverse)
        rows = np.flatnonzero(J)
        out = x.copy()
        out[rows] = w[rows]
        for j in range(1, self.stage + 1):
            lv = self.sched.level(j)
            axial = rows[(J[rows] == j) & (w[rows, 0] >= lv.r_hat)]
            if len(axial):
                wa = w[axial]
                rho = np.abs(wa[:, 1:]).max(axis=1)
                # math.log per row: np.log rounds differently on some inputs
                e = np.array([_modulation(lv, r)[0] for r in rho.tolist()])
                try:
                    out[axial, 0] = _pl_rows(wa[:, 0], *_knot_lists(lv, self.family, e), inverse)
                except DomainError:
                    # the rows one by one raise the error of the first bad
                    # row, whatever its level, as a loop over ``_map`` does
                    for p in x:
                        self._map(p, inverse)
                    raise
        t = out[rows, 0]
        sigma = np.zeros(len(rows))
        for i in range(self.stage):
            lv = self.sched.level(i + 1)
            deep = J[rows] > i
            sigma[deep] -= (lv.shift_drop * heights[i, rows[deep]]
                            * _taper_rows(t[deep], lv.r_hat, lv.r_hat_prev))
        out[rows, -1] += z_n[rows] + sigma
        return out

    def forward_many(self, points: np.ndarray) -> np.ndarray:
        return self._map_rows(points, inverse=False)

    def inverse_many(self, points: np.ndarray) -> np.ndarray:
        return self._map_rows(points, inverse=True)

    def derivative(self, point) -> np.ndarray:
        """Analytic Jacobian of the forward map (off interface surfaces)."""
        x = np.asarray(point, dtype=float)
        n = self.n
        J, heights, _, w = self._descend(x, squeezed=self.forward_from_squeezed)
        if J == 0:
            return np.eye(n)
        lv = self.sched.level(J)
        if w[0] < lv.r_hat:
            return np.eye(n)
        sh = _Shift(self.sched, heights)
        b, eta = _straight_jacobian(lv, self.family, w)
        # shear conjugation: out = Sh(q + z), q = B-chart, in = Sh^{-1}(x) - z
        c = np.eye(n)
        c[n - 1, 0] = -sh.sigma_slope(x[0])
        a = np.eye(n)
        a[n - 1, 0] = sh.sigma_slope(eta)
        return a @ b @ c


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
        (n - 1) * _log_max_axial_slope(lv, sched.family, sched.beta)
        + math.log(lv.c_sq if sched.family == STRETCH else lv.c)
        + (n - 1) * (math.log(2.0) - lv.u_d)
    )
    axial = math.exp(log_axial) if log_axial > -745.0 else 0.0
    return main + axial


def _log_max_axial_slope(lv: TentacleLevel, family: str, beta: float) -> float:
    """log of the largest axial slope of the level-k map over all knot
    pieces and modulations e in [0, E], from exact piece lengths.

    A piece's slope is affine in e, so it peaks at e = 0 or e = E.  The
    steepest is the end cap [a_k, c_k] at e = E when squeezing: length
    r_{k+2}, which rounds to zero next to 1 at deep levels, and rise
    sigma r_{k+2} + E, with sigma = r_{k-1} / (c_k - r_{k-1}) the slope of
    l_{k-1} (1 at k = 1).  When stretching it is the first piece
    [r_k, a~_k] at e = E: length r_k, rise r_k + E.
    """
    if family == SQUEEZE:
        j = lv.k + 2
        sigma = 1.0 if lv.k == 1 else lv.r_hat_prev / (lv.c - lv.r_hat_prev)
    else:
        j = lv.k
        sigma = 1.0
    return (math.log(lv.e_range) + j * (beta + 1) * math.log(2.0)
            + math.log1p(sigma * _r_hat(beta, j) / lv.e_range))


def _demo_energy(sched: TentacleSchedule, k: int) -> float:
    """Exact-in-axial, 1-D-quadrature-in-rho evaluation of
    int_{P'_k} |D eta-map|_F^2 for n = 3.  The only user of scipy, which
    is imported here so that importing the package does not load it."""
    from scipy.integrate import quad

    lv = sched.level(k)
    family = sched.family
    u_d, u_b, e_rng = lv.u_d, lv.u_b, lv.e_range
    d, b = lv.d, lv.b

    # transverse moments over the sup-annulus b < rho < d (area el. 8 rho drho)
    def moment(j):
        val, _ = quad(
            lambda u: 8.0 * math.exp(-2.0 * u) * (math.log(u / u_d)) ** j,
            u_d,
            u_b,
            limit=200,
        )
        return val

    area_ann = (2 * d) ** 2 - (2 * b) ** 2
    a0, a1, a2 = area_ann, moment(1), moment(2)
    g2 = 8.0 * (1.0 / u_d - 1.0 / u_b)
    core = (2 * b) ** 2

    kn0 = _knots(lv, family, 0.0)
    coeffs = _knot_e_coeffs(lv, family)
    total = 0.0
    for i in range(len(kn0.ts) - 1):
        t_lo, t_hi = kn0.ts[i], kn0.ts[i + 1]
        length = t_hi - t_lo
        s_lo0, s_hi0 = kn0.ss[i], kn0.ss[i + 1]
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
