"""Point-at-a-time reference bodies of the tower and tentacle stage maps.

The package evaluates every factor map with one body on (N, n) arrays, and
its ``forward``, ``inverse`` and ``derivative`` are one-row calls of that
body.  The bodies below evaluate one point at a time with their own float
operations, in Python control flow, so the tests can compare each row of
a batch with them: images bit for bit, signs of zeros included, and
Jacobians with ``np.array_equal`` (here ``np.eye(n) @ d`` turns -0.0 into
+0.0 where the batch skips an identity factor).  The piecewise-linear
profile and the shear of the tentacle stages are here too, one point at a
time, so the reference shares only the knot tables and the modulation
with the package.  The Jacobians of the inverse maps are closed forms
too, not matrix inversions: an elementary move and the straight-chart
tentacle map are the identity but for one row (m, g), which inverts to
(1/m, -g/m) at the preimage.

The Cantor map and the axis collapse have no body here: their pointwise
calls are one-row batches, checked against ``tests/test_descent.py``'s
reference walks and the closed forms there; the inverse of a Cantor map
is the Cantor map with the two schedules swapped.

The degree probes' sphere mesh and solid-angle sum have their loop
versions here too: the octahedron subdivided through a midpoint
dictionary, and the van Oosterom-Strackee sum over an (F, 3, 3) array of
triangle corners, one triangle per row.
"""

import math
from dataclasses import dataclass

import numpy as np

from homlim import tentacles
from homlim.cantor_map import CantorHomeomorphism
from homlim.composite import AxisCollapse
from homlim.errors import DomainError
from homlim.geometry import tower_slots
from homlim.tower import TowerMapping

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
        for mv in L.moves:
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
        for mv in reversed(L.moves):
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


def level_knots(lv, family, e):
    """Axial knots of the level map at transverse modulation e in [0, E]."""
    return PLKnots(*tentacles._knot_lists(lv, family, e))


def _taper(t, r_k, r_prev):
    if t <= r_k:
        return 0.0
    if t >= r_prev:
        return 1.0
    return (t - r_k) / (r_prev - r_k)


def _taper_slope(t, r_k, r_prev):
    return 1.0 / (r_prev - r_k) if r_k < t < r_prev else 0.0


def sigma(sched, heights, t, taper=_taper):
    """The composed shear x_n += sigma(x_1) of the address with the slot
    heights ``heights``, at t; its slope with ``taper=_taper_slope``."""
    total = 0.0
    for i, height in enumerate(heights):
        lv = sched.level(i + 1)
        total -= lv.shift_drop * height * taper(t, lv.r_hat, lv.r_hat_prev)
    return total


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
        nu = lv.r_hat_prev - lv.shift_drop * _taper(t, lv.r_hat, lv.r_hat_prev)
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
        e, _ = tentacles._modulation(lv, float(np.max(np.abs(w[1:]))))
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
    e, de_drho = tentacles._modulation(lv, float(np.max(np.abs(w[1:]))))
    knots = level_knots(lv, h.family, e)
    t = pl_inverse(w[0], knots) if inverse else w[0]
    i = _pl_piece(t, knots.ts)
    lam = (t - knots.ts[i]) / (knots.ts[i + 1] - knots.ts[i])
    coeffs = tentacles._knot_e_coeffs(lv, h.family)
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
    if isinstance(f, TowerMapping):
        return tower_inverse(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_inverse(f, point)
    assert isinstance(f, (CantorHomeomorphism, AxisCollapse))
    return f.inverse(point)


def derivative(f, point):
    if isinstance(f, TowerMapping):
        return tower_derivative(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_derivative(f, point)
    assert isinstance(f, (CantorHomeomorphism, AxisCollapse))
    return f.derivative(point)


def inverse_derivative(f, point):
    """The Jacobian of f^{-1} at one point; for a Cantor map, the forward
    Jacobian of the Cantor map with the two schedules swapped."""
    if isinstance(f, TowerMapping):
        return tower_inverse_derivative(f, point)
    if isinstance(f, tentacles._TentacleStage):
        return tentacle_inverse_derivative(f, point)
    assert isinstance(f, CantorHomeomorphism)
    return CantorHomeomorphism(f.dst, f.src, f.stage).derivative(point)


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
# Degree probes: the sphere mesh and the solid-angle sum, per triangle.
# ---------------------------------------------------------------------------


def octasphere(level):
    """The octahedron subdivided ``level`` times, midpoints numbered by
    first use and radially projected, then each triangle oriented
    outward."""
    v = [np.array(p, dtype=float) for p in
         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
    f = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
         (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
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
