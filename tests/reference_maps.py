"""Point-at-a-time reference bodies of the tower and tentacle stage maps.

The package evaluates every factor map with one body on (N, n) arrays, and
its ``forward``, ``inverse`` and ``derivative`` are one-row calls of that
body.  The bodies below evaluate one point at a time with their own float
operations, in Python control flow, so the tests can compare each row of
a batch with them: images bit for bit, signs of zeros included, and
Jacobians with ``np.array_equal`` (here ``np.eye(n) @ d`` turns -0.0 into
+0.0 where the batch skips an identity factor).  The piecewise-linear
profile and the shear of the tentacle stages are here too, one point at a
time, and so are the modulation and the knot tables, the latter from
their per-family formulas: the reference shares only the solved level
constants with the package.  The Jacobians of the inverse maps are
closed forms too, not matrix inversions: an elementary move and the
straight-chart tentacle map are the identity but for one row (m, g),
which inverts to (1/m, -g/m) at the preimage.  The Cauchy table's tube quadrature has its
loop version here too: ``tube_nodes`` places a tube's nodes and measure
factors one node at a time, with the shear of this file.

The Cantor map and the axis collapse have no body here: their pointwise
calls are one-row batches, checked against ``tests/test_descent.py``'s
reference walks and the closed forms there; the reference inverse of a
Cantor map is the Cantor map with the two schedules swapped.  The Cantor
map's Jacobian, and its inverse's, is a closed form here
(``cantor_derivative``), at the cell of the point's one-row descent.

The degree probes' sphere mesh has its loop version here too: the
octahedron subdivided through a midpoint dictionary.  So do the oracles of
their crossing counts: the van Oosterom-Strackee solid-angle sum over an
(F, 3, 3) array of triangle corners, one triangle per row, and the winding
number of a planar loop as a sum of turning angles.  The package certifies
a batch of targets one mesh level at a time; ``certify`` certifies one
target, with its own crossing count (a scan of every facet, each crossed
facet's orientation in Python floats), count per level, local-resolution
test, gap certificate and level loop.  The gap pairs each added vertex
with the edge ends of the loop subdivision's midpoint dictionary, and
the distance bound visits every facet in Python floats, with the
package's float operations in the package's order, so that reports
compare as ``float.hex``.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from homlim import tentacles
from homlim.cantor_map import CantorHomeomorphism
from homlim.composite import AxisCollapse
from homlim.degree import GAP_ROUNDING, MIN_DISTANCE, RAY_SLOPES, DegreeReport
from homlim.errors import DomainError, IndeterminateDegreeError
from homlim.geometry import descend_set, tower_slots
from homlim.tower import TowerMapping, relocation_moves

# ---------------------------------------------------------------------------
# Tower: the elementary moves and the cell walk.
# ---------------------------------------------------------------------------


def _chi(mv, delta):
    if delta <= mv.rho:
        return 1.0
    if delta >= mv.width:
        return 0.0
    return (mv.width - delta) / (mv.width - mv.rho)


def _trans_delta(mv, x):
    """The transverse sup distance from the corridor axis and the first
    coordinate that attains it."""
    delta, arg, j = -1.0, -1, 0
    for d in range(len(x)):
        if d == mv.axis:
            continue
        off = abs(x[d] - mv.trans_center[j])
        if off > delta:
            delta, arg = off, d
        j += 1
    return delta, arg


def move_apply(mv, x, inverse=False):
    """The move ``mv`` at x, or with ``inverse`` its inverse."""
    xa = x[mv.axis]
    if xa <= mv.lo or xa >= mv.hi:
        return x
    delta, _ = _trans_delta(mv, x)
    if delta >= mv.width:
        return x
    tau = _chi(mv, delta) * (mv.dst - mv.src)
    s2, s3 = mv.src - mv.rho, mv.src + mv.rho
    if inverse:
        a2, a3, b2, b3, shift = s2 + tau, s3 + tau, s2, s3, -tau
    else:
        a2, a3, b2, b3, shift = s2, s3, s2 + tau, s3 + tau, tau
    if xa < a2:
        ya = mv.lo + (xa - mv.lo) * (b2 - mv.lo) / (a2 - mv.lo)
    elif xa <= a3:
        ya = xa + shift
    else:
        ya = mv.hi - (mv.hi - xa) * (mv.hi - b3) / (mv.hi - a3)
    out = x.copy()
    out[mv.axis] = ya
    return out


def move_derivative(mv, x, inverse=False):
    """The Jacobian of the move ``mv`` at x, or with ``inverse`` that of
    its inverse at x: the identity but for the axis row (slope, blend
    entry) of the move at the preimage, inverted to (1/slope, -blend
    entry/slope).  Whether x is in the corridor is read at x."""
    n = len(x)
    d = np.eye(n)
    xa = x[mv.axis]
    if xa <= mv.lo or xa >= mv.hi:
        return d
    delta, arg = _trans_delta(mv, x)
    if delta >= mv.width:
        return d
    if inverse:
        xa = move_apply(mv, x, inverse=True)[mv.axis]
    tau_full = mv.dst - mv.src
    tau = _chi(mv, delta) * tau_full
    s2, s3 = mv.src - mv.rho, mv.src + mv.rho
    if xa < s2:
        slope = (s2 + tau - mv.lo) / (s2 - mv.lo)
        pl_minus_x = (mv.lo + (xa - mv.lo) * (s2 + tau_full - mv.lo) / (s2 - mv.lo)) - xa
    elif xa <= s3:
        slope = 1.0
        pl_minus_x = tau_full
    else:
        slope = (mv.hi - (s3 + tau)) / (mv.hi - s3)
        pl_minus_x = (mv.hi - (mv.hi - xa) * (mv.hi - (s3 + tau_full)) / (mv.hi - s3)) - xa
    d[mv.axis, mv.axis] = 1.0 / slope if inverse else slope
    if mv.rho < delta < mv.width:
        j = arg if arg < mv.axis else arg - 1
        sgn = 1.0 if x[arg] >= mv.trans_center[j] else -1.0
        entry = -1.0 / (mv.width - mv.rho) * sgn * pl_minus_x
        d[mv.axis, arg] = -entry / slope if inverse else entry
    return d


def _enter(L, x, center, level):
    """Center of the level-``level`` tower cell holding x, one tile step
    below ``center``, or None; the tile rule in Python floats."""
    if level == 0:
        return center
    r = L.schedule.r
    if level > 1 and np.max(np.abs(x - center)) >= r(level - 1):
        return None
    n, r_prev = len(x), r(level - 1)
    tile = math.floor((x[n - 1] - center[n - 1] + r_prev) / (2.0 * r_prev / 2**n))
    z = center + r_prev * np.array(tower_slots(n)[min(max(tile, 0), 2**n - 1)])
    if np.max(np.abs(x - z)) >= r(level):
        return None
    return z


def _tower_walk(L, point, jacobian):
    x = np.asarray(point, dtype=float).copy()
    d = np.eye(L.n) if jacobian else None
    center = np.zeros(L.n)
    for i in range(1, L.stage + 1):
        center = _enter(L, x, center, i - 1)
        if center is None:
            break
        scale = L.schedule.r(i - 1)
        w = (x - center) / scale
        for mv in relocation_moves(L.n, L.schedule.beta):
            if jacobian:
                d = move_derivative(mv, w) @ d
            w = move_apply(mv, w)
        x = center + scale * w
    return x, d


def tower_forward(L, point):
    return _tower_walk(L, point, jacobian=False)[0]


def tower_derivative(L, point):
    return _tower_walk(L, point, jacobian=True)[1]


def _tower_inverse_walk(L, point, jacobian):
    y = np.asarray(point, dtype=float).copy()
    d = np.eye(L.n) if jacobian else None
    centers = [np.zeros(L.n)]
    while len(centers) < L.stage:
        center = _enter(L, y, centers[-1], len(centers))
        if center is None:
            break
        centers.append(center)
    for i in range(len(centers), 0, -1):
        center = centers[i - 1]
        scale = L.schedule.r(i - 1)
        w = (y - center) / scale
        for mv in reversed(relocation_moves(L.n, L.schedule.beta)):
            if jacobian:
                d = move_derivative(mv, w, inverse=True) @ d
            w = move_apply(mv, w, inverse=True)
        y = center + scale * w
    return y, d


def tower_inverse(L, point):
    return _tower_inverse_walk(L, point, jacobian=False)[0]


def tower_inverse_derivative(L, point):
    return _tower_inverse_walk(L, point, jacobian=True)[1]


# ---------------------------------------------------------------------------
# Tentacle stages: the piecewise-linear profile, the shear, the descent and
# the straight-chart level map.
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


def _pl_piece(v, knots):
    for i in range(len(knots) - 2):
        if v <= knots[i + 1]:
            return i
    return len(knots) - 2


def pl_interpolate(t, knots):
    """Value of the piecewise-linear interpolant at t in [t_1, t_last]."""
    if t < knots.ts[0] or t > knots.ts[-1]:
        raise DomainError(f"t={t} outside [{knots.ts[0]}, {knots.ts[-1]}]")
    i = _pl_piece(t, knots.ts)
    return knots.ss[i] + (t - knots.ts[i]) * (knots.ss[i + 1] - knots.ss[i]) / (
        knots.ts[i + 1] - knots.ts[i]
    )


def pl_inverse(s, knots):
    """Exact inverse of the interpolant (swap the knot roles)."""
    if s < knots.ss[0] or s > knots.ss[-1]:
        raise DomainError(f"s={s} outside [{knots.ss[0]}, {knots.ss[-1]}]")
    i = _pl_piece(s, knots.ss)
    return knots.ts[i] + (s - knots.ss[i]) * (knots.ts[i + 1] - knots.ts[i]) / (
        knots.ss[i + 1] - knots.ss[i]
    )


def pl_slope(t, knots):
    i = _pl_piece(t, knots.ts)
    return (knots.ss[i + 1] - knots.ss[i]) / (knots.ts[i + 1] - knots.ts[i])


def modulation(lv, rho):
    """(e, de/drho) for transverse sup radius rho, one radius at a time.

    e = log log(1/max(b, rho)) - log log(1/d), clamped to [0, E]: just
    below b the difference of the two logs can round above E."""
    if rho <= 0.0:
        return lv.e_range, 0.0
    u = -math.log(rho)
    if u >= lv.u_b:
        return lv.e_range, 0.0
    if u <= lv.u_d:
        return 0.0, 0.0
    return min(math.log(u) - math.log(lv.u_d), lv.e_range), -1.0 / (rho * u)


def level_knots(lv, family, e):
    """Axial knots of the level map at transverse modulation e in [0, E],
    family by family: the near tube end goes to phi = l(a) - e when
    squeezing, l(a~) + e when stretching, and from level 2 on the middle
    knot r_{k-1} to psi = r_{k-1} -+ bend e."""
    if family == "squeeze":
        phi = lv.line_prev_at_a - e
        if lv.k == 1:
            return PLKnots((lv.r_hat, lv.a, lv.c), (lv.r_hat, phi, lv.line_prev_at_c))
        psi = lv.r_hat_prev - lv.bend * e
        return PLKnots((lv.r_hat, lv.r_hat_prev, lv.a, lv.c),
                       (lv.r_hat, psi, phi, lv.line_prev_at_c))
    phi = lv.line_prev_at_a + e
    if lv.k == 1:
        return PLKnots((lv.r_hat, lv.a_sq, lv.c_sq), (lv.r_hat, phi, lv.line_prev_at_c))
    psi = lv.r_hat_prev + lv.bend * e
    return PLKnots((lv.r_hat, lv.a_sq, lv.r_hat_prev, lv.c_sq),
                   (lv.r_hat, phi, psi, lv.line_prev_at_c))


def knot_e_coeffs(lv, family):
    """d s_i / d e for the knots of ``level_knots``."""
    if family == "squeeze":
        return (0.0, -1.0, 0.0) if lv.k == 1 else (0.0, -lv.bend, -1.0, 0.0)
    return (0.0, 1.0, 0.0) if lv.k == 1 else (0.0, 1.0, lv.bend, 0.0)


def _taper(t, r_k, r_prev):
    if t <= r_k:
        return 0.0
    if t >= r_prev:
        return 1.0
    return (t - r_k) / (r_prev - r_k)


def _taper_slope(t, r_k, r_prev):
    return 1.0 / (r_prev - r_k) if r_k < t < r_prev else 0.0


def slot_pitch(lv, t):
    """The pitch nu of the level's sibling tentacles at the axial
    coordinate t: r_{k-1} less the level's shear drop there."""
    return lv.r_hat_prev - lv.shift_drop * _taper(t, lv.r_hat, lv.r_hat_prev)


def sigma(sched, heights, t, taper=_taper):
    """The composed shear x_n += sigma(x_1) of the address with the slot
    heights ``heights``, at t; its slope with ``taper=_taper_slope``."""
    total = 0.0
    for i, height in enumerate(heights):
        lv = sched.level(i + 1)
        total -= lv.shift_drop * height * taper(t, lv.r_hat, lv.r_hat_prev)
    return total


def shift_forward(sched, word, point):
    """The composed shifting map of the tower-address ``word`` at point,
    x_n += sigma(x_1), through the package's shear kernel."""
    x = np.array(point, dtype=float)
    x[-1] += tentacles._shear_rows(sched, [w[-1] for w in word], x[:1])[0]
    return x


def shift_inverse(sched, word, point):
    """The inverse of ``shift_forward``: x_n -= sigma(x_1)."""
    y = np.array(point, dtype=float)
    y[-1] -= tentacles._shear_rows(sched, [w[-1] for w in word], y[:1])[0]
    return y


def tentacle_descend(h, x, squeezed):
    """(J, heights, z_n, w): the deepest level J whose tentacle holds x, the
    address height letters, the tentacle center height and the chart point;
    J = 0 and w None outside every level-1 tentacle."""
    n = h.n
    t, q_n = x[0], x[-1]
    heights, z_n, found, w = [], 0.0, 0, None
    slots = [s[-1] for s in tower_slots(n)]
    for j in range(1, h.stage + 1):
        lv = h.sched.level(j)
        nu = slot_pitch(lv, t)
        if nu <= 0.0:
            break
        m = int(math.floor((q_n / nu + 1.0) * 2 ** (n - 1)))
        s_hat = slots[min(max(m, 0), 2**n - 1)]
        w_n = q_n - s_hat * nu
        w_cand = np.empty(n)
        w_cand[0] = t
        w_cand[1 : n - 1] = x[1 : n - 1]
        w_cand[n - 1] = w_n
        in_cube = np.max(np.abs(w_cand)) < lv.r_hat
        in_tube = (lv.r_hat <= t < h._tube_end(lv, squeezed)
                   and np.max(np.abs(w_cand[1:])) < lv.d)
        if not (in_cube or in_tube):
            break
        heights.append(s_hat)
        z_n += lv.r_hat_prev * s_hat
        q_n, found, w = w_n, j, w_cand
    return found, heights, z_n, w


def _tentacle_map(h, point, inverse):
    x = np.asarray(point, dtype=float)
    J, heights, z_n, w = tentacle_descend(h, x, h.forward_from_squeezed != inverse)
    if J == 0:
        return x.copy()
    lv = h.sched.level(J)
    out = w.copy()
    if w[0] >= lv.r_hat:
        e, _ = modulation(lv, float(np.max(np.abs(w[1:]))))
        knots = level_knots(lv, h.family, e)
        out[0] = (pl_inverse if inverse else pl_interpolate)(w[0], knots)
    out[-1] += z_n + sigma(h.sched, heights, out[0])
    return out


def tentacle_forward(h, point):
    return _tentacle_map(h, point, inverse=False)


def tentacle_inverse(h, point):
    return _tentacle_map(h, point, inverse=True)


def _tentacle_jacobian(h, point, inverse):
    """The Jacobian of h, or with ``inverse`` of h^{-1}, at one point: the
    straight-chart Jacobian, with first row (axial slope m, d eta / d
    w_perp) at the forward map's side of the chart, inverted to (1/m,
    -(d eta / d w_perp)/m) for h^{-1}, between the shear slopes at the
    axial coordinates going in and coming out."""
    x = np.asarray(point, dtype=float)
    n = h.n
    J, heights, _, w = tentacle_descend(h, x, h.forward_from_squeezed != inverse)
    if J == 0:
        return np.eye(n)
    lv = h.sched.level(J)
    if w[0] < lv.r_hat:
        return np.eye(n)
    e, de_drho = modulation(lv, float(np.max(np.abs(w[1:]))))
    knots = level_knots(lv, h.family, e)
    t = pl_inverse(w[0], knots) if inverse else w[0]
    i = _pl_piece(t, knots.ts)
    lam = (t - knots.ts[i]) / (knots.ts[i + 1] - knots.ts[i])
    coeffs = knot_e_coeffs(lv, h.family)
    deta_de = coeffs[i] * (1 - lam) + coeffs[i + 1] * lam
    b = np.eye(n)
    slope = pl_slope(t, knots)
    b[0, 0] = 1.0 / slope if inverse else slope
    if de_drho != 0.0:
        arg = 1 + int(np.argmax(np.abs(w[1:])))
        grad = deta_de * de_drho * math.copysign(1.0, w[arg])
        b[0, arg] = -grad / slope if inverse else grad
    eta = knots.ss[i] + lam * (knots.ss[i + 1] - knots.ss[i])
    # shear conjugation: out = Sh(q + z), q the chart image, in = Sh^{-1}(x) - z
    c = np.eye(n)
    c[n - 1, 0] = -sigma(h.sched, heights, x[0], _taper_slope)
    a = np.eye(n)
    a[n - 1, 0] = sigma(h.sched, heights, t if inverse else eta, _taper_slope)
    return a @ b @ c


def tentacle_derivative(h, point):
    return _tentacle_jacobian(h, point, inverse=False)


def tentacle_inverse_derivative(h, point):
    return _tentacle_jacobian(h, point, inverse=True)


def tube_nodes(sched, k, word, config, res_mult=1):
    """The Cauchy-table quadrature nodes of one level-k tube and their
    measure factors (m, s), one node at a time: per axial node, each
    strip's 2(n-1) nodes (axis by axis, +rho then -rho), each of measure
    2^(n-2) rho^(n-1) u dE dt, then the core node, (2b)^(n-1) times dt.
    A strip of measure 0 carries no node."""
    lv = sched.level(k)
    n = sched.n
    heights = [w[-1] for w in word]
    z_n = sched.center_height(heights)
    ts = level_knots(lv, sched.family, 0.0).ts
    t_res = config.axial_resolution * res_mult
    e_res = config.transverse_resolution * res_mult
    levels = config.axial_levels
    segs = []
    for lo, hi in zip(ts, ts[1:]):
        cuts = [lo + (hi - lo) * 2.0**-j for j in range(levels, 0, -1)]
        segs.extend(zip([lo] + cuts, cuts + [hi]))
    core_area = (2.0 * lv.b) ** (n - 1)
    nodes, measures = [], []
    x = np.zeros(n)
    for t_lo, t_hi in segs:
        dt = (t_hi - t_lo) / t_res
        for it in range(t_res):
            t = t_lo + (it + 0.5) * dt
            sig = sigma(sched, heights, t)
            de = lv.e_range / e_res
            for ie in range(e_res):
                u = lv.u_d * math.exp((ie + 0.5) * de)
                rho = math.exp(-u)
                meas = 2.0 ** (n - 2) * rho
                for _ in range(n - 2):
                    meas *= rho
                meas = meas * u * de * dt
                if meas == 0.0:
                    continue
                for axis in range(1, n):
                    for sign in (1.0, -1.0):
                        x[:] = 0.0
                        x[0] = t
                        x[axis] = sign * rho
                        x[n - 1] += z_n + sig
                        nodes.append(x.copy())
                        measures.append((meas, 1.0))
            if core_area > 0.0:
                x[:] = 0.0
                x[0] = t
                x[n - 1] = z_n + sig
                nodes.append(x.copy())
                measures.append((core_area, dt))
    return np.array(nodes).reshape(-1, n), np.array(measures).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Factors and composites.
# ---------------------------------------------------------------------------


def forward(f, point):
    """``f.forward`` at one point by the reference body of f's kind."""
    if isinstance(f, TowerMapping):
        return tower_forward(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_forward(f, point)
    assert isinstance(f, (CantorHomeomorphism, AxisCollapse))
    return f.forward(point)


def inverse(f, point):
    """``f.inverse`` at one point; for a Cantor map, the forward map of the
    Cantor map with the two schedules swapped."""
    if isinstance(f, TowerMapping):
        return tower_inverse(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_inverse(f, point)
    if isinstance(f, CantorHomeomorphism):
        return _swapped(f).forward(point)
    assert isinstance(f, AxisCollapse)
    return f.inverse(point)


def derivative(f, point):
    if isinstance(f, TowerMapping):
        return tower_derivative(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_derivative(f, point)
    if isinstance(f, CantorHomeomorphism):
        return cantor_derivative(f, point)
    assert isinstance(f, AxisCollapse)
    return f.derivative(point)


def inverse_derivative(f, point):
    """The Jacobian of f^{-1} at one point."""
    if isinstance(f, TowerMapping):
        return tower_inverse_derivative(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_inverse_derivative(f, point)
    assert isinstance(f, CantorHomeomorphism)
    return cantor_derivative(f, point, inverse=True)


def cantor_derivative(g, point, inverse=False):
    """The Jacobian of the Cantor map g, or with ``inverse`` of g^{-1} (the
    map with the two schedules swapped), at one point of [-1,1]^n.  The
    point's one-row descent gives its cell: on the level-i frame, x = z +
    xi with t = |xi|_inf, lambda the affine profile from (r_i, r~_i) to
    (r'_i, r~'_i) and lambda' its slope, the Jacobian is (lambda / t) I
    plus ((lambda' - lambda / t) / t) xi sign(xi_m) added to column m, the
    first coordinate where |xi| is largest; on the level-k inner cube it is
    (r~_k / r_k) I."""
    x = np.asarray(point, dtype=float)
    if np.max(np.abs(x)) > 1.0:
        raise DomainError("point outside [-1,1]^n")
    src, dst = (g.dst, g.src) if inverse else (g.src, g.dst)
    k, n = g.stage, len(x)
    rs, rs_out = src.radii(k)
    rt, rt_out = dst.radii(k)
    level, _, z, sup = descend_set(x[None, :], rs, k)
    i = int(level[0])
    if not i:
        return (rt[k] / rs[k]) * np.eye(n)
    xi, t = x - z[0], sup[0]
    slope = (rt_out[i] - rt[i]) / (rs_out[i] - rs[i])
    lam = rt[i] + (t - rs[i]) * slope
    m = max(range(n), key=lambda c: abs(xi[c]))  # the first of equal maxima
    d = (lam / t) * np.eye(n)
    d[:, m] += ((slope - lam / t) / t) * (xi * math.copysign(1.0, xi[m]))
    return d


@lru_cache(maxsize=None)
def _swapped(g):
    return CantorHomeomorphism(g.dst, g.src, g.stage)


def stage_forward(stage, point):
    """The composite stage at one point: its chain folded factor by factor
    through the reference bodies."""
    x = np.asarray(point, dtype=float)
    if np.max(np.abs(x)) > 1.0:
        raise DomainError("point outside [-1,1]^n")
    for f, s in stage.chain:
        x = forward(f, x) if s > 0 else inverse(f, x)
    return x


def stage_inverse(stage, point):
    x = np.asarray(point, dtype=float)
    for f, s in reversed(stage.chain):
        x = inverse(f, x) if s > 0 else forward(f, x)
    return x


def stage_derivative(stage, point):
    """The chain rule through the reference bodies; an inverted factor
    contributes the Jacobian of f^{-1} at the point it is applied to."""
    x = np.asarray(point, dtype=float)
    d = None
    for i, (f, s) in enumerate(stage.chain):
        jac = derivative(f, x) if s > 0 else inverse_derivative(f, x)
        if i < len(stage.chain) - 1:
            x = forward(f, x) if s > 0 else inverse(f, x)
        d = jac if d is None else jac @ d
    return d


# ---------------------------------------------------------------------------
# Degree probes: the sphere mesh, the solid-angle sum per triangle and the
# winding number of a loop.
# ---------------------------------------------------------------------------


def _loop_subdivision(level):
    """``(verts, faces, parents)`` of the octahedron subdivided ``level``
    times through a midpoint dictionary: the vertices, the faces as
    subdivided, and per vertex added by the last subdivision (none at
    level 0) the ends of the edge it splits."""
    v = [np.array(p, dtype=float) for p in
         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
    f = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
         (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    cache = {}
    for _ in range(level):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = v[i] + v[j]
                m /= np.linalg.norm(m)
                cache[key] = len(v)
                v.append(m)
            return cache[key]

        nf = []
        for a, b, c in f:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nf += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        f = nf
    return v, f, sorted(cache, key=cache.get)


def octasphere(level):
    """The octahedron subdivided ``level`` times, midpoints numbered by
    first use and radially projected, then each triangle oriented
    outward."""
    v, f, _ = _loop_subdivision(level)
    verts = np.array(v)
    faces = np.array(f, dtype=np.int64)
    for i, (a, b, c) in enumerate(faces):
        if np.linalg.det(np.stack([verts[a], verts[b], verts[c]])) < 0:
            faces[i] = (a, c, b)
    return verts, faces


def solid_angle_corners(tris, y):
    """Sum of the signed solid angles that the triangles ``tris`` (F, 3, 3)
    subtend at y, each from its own three corners."""
    v = tris - y[None, None, :]
    a, b, c = v[:, 0, :], v[:, 1, :], v[:, 2, :]
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = (
        la * lb * lc
        + np.einsum("ij,ij->i", a, b) * lc
        + np.einsum("ij,ij->i", b, c) * la
        + np.einsum("ij,ij->i", c, a) * lb
    )
    return float(2.0 * np.arctan2(det, den).sum())


def winding_sum(loop, y):
    """Winding number of the closed loop (2, N), held component by
    component, around y: its turning angles summed over 2 pi."""
    v0, v1 = loop - y[:, None]
    w0, w1 = np.roll(v0, -1), np.roll(v1, -1)
    cross = v0 * w1 - v1 * w0
    dot = v0 * w0 + v1 * w1
    return float(np.arctan2(cross, dot).sum() / (2.0 * np.pi))


# ---------------------------------------------------------------------------
# Degree certification, one target at a time.
# ---------------------------------------------------------------------------


def crossing_count(images, facets, slopes, y):
    """Signed number of the facets (F, n) of the mesh ``images`` (n, V)
    that the ray y + t (1, slopes), t > 0, crosses, as a float: None when
    the ray passes within rounding of an edge or vertex of a facet whose
    projected box holds the projected y, NaN when y lies within rounding
    of such a facet's plane."""
    proj = images[1:] - np.array(slopes)[:, None] * images[0]
    y = y.tolist()
    p = [c - s * y[0] for c, s in zip(y[1:], slopes)]
    if not all(lo <= c <= hi for c, lo, hi in
               zip(p, proj.min(axis=1).tolist(), proj.max(axis=1).tolist())):
        return 0.0
    # the facets whose projected boxes hold p
    lo, hi = proj[:, facets].min(axis=2), proj[:, facets].max(axis=2)
    ids = np.flatnonzero(((lo <= np.array(p)[:, None]) & (np.array(p)[:, None] <= hi)).all(axis=0))
    holds = []
    for corner in facets[ids].tolist():
        if len(p) == 1:
            # the weight of each end of a segment is the other end's offset
            weight = [proj[0][corner[1]] - p[0], -(proj[0][corner[0]] - p[0])]
            bound = [0.0, 0.0]
        else:
            # the weight of corner i is the orientation of corners i+1 and i+2
            weight, bound = zip(*(orientation([[proj[0][corner[j]] - p[0], proj[1][corner[j]] - p[1]]
                                                for j in ((i + 1) % 3, (i + 2) % 3)])
                                   for i in range(3)))
        above = [w > b for w, b in zip(weight, bound)]
        below = [w < -b for w, b in zip(weight, bound)]
        if all(above) or all(below):
            holds.append((corner, 1 if above[0] else -1))
        elif not (any(above) and any(below)):
            return None
    count = 0
    for corner, sign in holds:
        det, err = orientation([[float(c) - t for c, t in zip(images[:, i], y)] for i in corner])
        if not abs(det) > err:      # on the plane, or overflowed
            return math.nan
        if det * sign > 0:
            count += sign
    return float(count)


def orientation(rows):
    """``(det, bound)`` of a 2x2 or 3x3 matrix of floats given by rows: the
    determinant evaluated in floats, and a bound on its rounding error."""
    eps = sys.float_info.epsilon
    if len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        left, right = a0 * b1, a1 * b0
        return left - right, 2 * eps * (abs(left) + abs(right))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    bc, ca, ab = b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1
    perm = (abs(a0) * (abs(b1 * c2) + abs(b2 * c1)) + abs(b0) * (abs(c1 * a2) + abs(c2 * a1))
            + abs(c0) * (abs(a1 * b2) + abs(a2 * b1)))
    return a0 * bc + b0 * ca + c0 * ab, 8 * eps * perm


def degree_raw(cache, y, level):
    """``(count, distance from y to the image vertices)`` of a level of a
    ``degree._ImageCache``: the count along the first of ``RAY_SLOPES``
    that is not ambiguous, NaN when none is or an image vertex is not
    finite, and 0.0 for a NaN count when y lies outside the bounding box
    of the image vertices."""
    images = cache.images(level)
    with np.errstate(over="ignore", invalid="ignore"):
        dist = float(np.min(np.linalg.norm(images - y[:, None], axis=0)))
    raw = math.nan
    if np.isfinite(images).all():
        for slopes in RAY_SLOPES[len(images)]:
            with np.errstate(over="ignore", invalid="ignore"):
                count = crossing_count(images, cache.facets(level), slopes, y)
            if count is not None:
                raw = count
                break
    if not math.isfinite(raw) and ((y < images.min(axis=1)) | (y > images.max(axis=1))).any():
        raw = 0.0
    return raw, dist


def mesh_geometry(images, facets):
    """``(centroids, diameters)`` of the elements of a mesh, from the rows
    of their corners: the corners' mean, and the longest side by
    ``np.linalg.norm``."""
    corners = images.T[facets]                             # (F, corners, n)
    sides = np.linalg.norm(corners - np.roll(corners, -1, axis=1), axis=2)
    return corners.sum(axis=1) / facets.shape[1], sides.max(axis=1)


def locally_resolved(cache, y, level, dist):
    """True when no image element of the level both reaches 2 dist of y,
    by its centroid less 0.7 of its diameter, and has a diameter of
    0.5 dist or more."""
    cents, diams = mesh_geometry(cache.images(level), cache.facets(level))
    with np.errstate(over="ignore", invalid="ignore"):
        hazard = np.linalg.norm(cents - y, axis=1) - 0.7 * diams < 2.0 * dist
    return not hazard.any() or float(diams[hazard].max()) < 0.5 * dist


def midpoint_gap(images, level, verts):
    """The gap of a mesh level from the images (n, V) of the next, taken
    at its unit mesh vertices ``verts`` (V, n), one added vertex at a time:
    the largest distance from a vertex's image to the mean of the images of
    the ends of the edge it splits, NaN when one is NaN.  On the sphere the
    ends come from the loop subdivision's midpoint dictionary; on the
    circle of M points, from the angles of ``verts``: each point k steps of
    2π/M round from (1, 0) with k odd is added, between the points k - 1
    and k + 1 of the level, counter-clockwise."""
    cols = images.T.tolist()
    if len(images) == 3:
        parents = _loop_subdivision(level + 1)[2]
        start = len(cols) - len(parents)
        pairs = [(start + k, i, j) for k, (i, j) in enumerate(parents)]
    else:
        m = len(cols)
        steps = np.rint(np.arctan2(verts[:, 1], verts[:, 0]) * (m / (2 * np.pi))).astype(int) % m
        at = {k: v for v, k in enumerate(steps.tolist())}
        assert sorted(at) == list(range(m))
        pairs = [(at[k], at[k - 1], at[(k + 1) % m]) for k in range(1, m, 2)]
    gap = -math.inf
    for v, i, j in pairs:
        off = [c - 0.5 * (a + b) for c, a, b in zip(cols[v], cols[i], cols[j])]
        d = math.sqrt(_dot(off, off))
        if math.isnan(d):
            return math.nan
        gap = max(gap, d)
    return gap


def gap_tail(cache, level):
    """``(gap, tail)`` of a level: its gap, and the gap over 1 - q, where
    q is the gap over the previous level's (NaN unless q < 1)."""
    gap = midpoint_gap(cache.images(level + 1), level, cache.mesh(level + 1)[0])
    below = midpoint_gap(cache.images(level), level - 1, cache.mesh(level)[0])
    ratio = gap / below if below > 0 else math.nan
    return gap, gap / (1.0 - ratio) if ratio < 1 else math.nan


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _dot(u, v):
    """The dot product, summed x, y, z in turn."""
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a * b
    return total


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def segment_distance(a, b, y):
    """The distance from y to the segment [a, b]: to the projection of y
    on its line, clamped to the ends."""
    side, off = _sub(b, a), _sub(y, a)
    square = _dot(side, side)
    t = min(max(_dot(off, side) / square if square > 0 else 0.0, 0.0), 1.0)
    rest = [o - t * s for o, s in zip(off, side)]
    return math.sqrt(_dot(rest, rest))


def facet_distance(corners, y):
    """The distance from y to a segment or triangle given by its corners:
    to a triangle's plane when y projects inside it, else to its nearest
    side."""
    if len(corners) == 2:
        return segment_distance(*corners, y)
    a, b, c = corners
    nearest = min(segment_distance(a, b, y), segment_distance(b, c, y), segment_distance(c, a, y))
    normal = _cross(_sub(b, a), _sub(c, a))
    square = _dot(normal, normal)
    if square > 0 and all(_dot(_cross(_sub(q, p), _sub(y, p)), normal) >= 0
                          for p, q in ((a, b), (b, c), (c, a))):
        return abs(_dot(_sub(y, a), normal)) / math.sqrt(square)
    return nearest


def gap_certificate(cache, y, level):
    """``(gap, tail, margin)`` when the level's gap certifies y, else None:
    a lower bound on the distance from y to the level's image surface, the
    least over its facets of the exact distance where the facet's box
    padded by the tail and the rounding allowance contains y and the
    sup-norm distance to the box elsewhere, must exceed that pad."""
    gap, tail = gap_tail(cache, level)
    if not math.isfinite(tail):
        return None
    cols = cache.images(level).T.tolist()
    y = y.tolist()
    extent = max(abs(c) for col in cols for c in col)
    pad = tail + GAP_ROUNDING * max(max(abs(c) for c in y), extent)
    bound = math.inf
    for facet in cache.facets(level).tolist():
        corners = [cols[i] for i in facet]
        out = max(max(min(c[k] for c in corners) - y[k], y[k] - max(c[k] for c in corners))
                  for k in range(len(y)))
        bound = min(bound, out if out > pad else facet_distance(corners, y))
    if not bound > pad:
        return None
    return gap, tail, bound / tail if tail > 0 else math.inf


def certify(cache, y, max_refine):
    """The degree of y over the cache's probe: the first level whose count
    repeats the previous level's twice, or once where the mesh is locally
    resolved, or else whose gap certificate holds, below ``max_refine``
    and above level 0; levels with y within ``MIN_DISTANCE`` of the image
    vertices or a NaN count are skipped.  Raises
    ``IndeterminateDegreeError`` when no level up to ``max_refine``
    certifies."""
    y = np.asarray(y, dtype=float)
    history, prev_raw, streak = [], None, 0
    for level in range(cache.probe.refinement, max_refine + 1):
        raw, dist = degree_raw(cache, y, level)
        history.append((level, raw, dist))
        if dist < MIN_DISTANCE or not math.isfinite(raw):
            prev_raw, streak = None, 0
            continue
        streak = streak + 1 if raw == prev_raw else 0
        prev_raw = raw
        if streak >= 2 or (streak == 1 and locally_resolved(cache, y, level, dist)):
            return DegreeReport(int(raw), dist, level, history)
        cert = gap_certificate(cache, y, level) if 0 < level < max_refine else None
        if cert is not None:
            return DegreeReport(int(raw), dist, level, history, "gap", *cert)
    raise IndeterminateDegreeError(
        f"degree not certified after refinement {max_refine}: history={history}")
