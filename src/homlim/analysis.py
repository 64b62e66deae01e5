"""Cauchy tables of Sobolev differences, Jacobian and boundary probes.

The Cauchy table has one quadrature.  A level-k tentacle tube is
integrated on a grid in its (t, E) chart, t axial and E the transverse
log-log modulation, whose strips carry the exact sup-annulus measure;
that absorbs the 1/(rho log 1/rho) transverse gradient of the squeeze
profile into a bounded integrand.  A tower cell is integrated by the
midpoint rule on a cube grid.  Finite-difference Jacobians come from one
central-difference stencil, evaluated in one batch of the map.  All
randomness flows from one counter-based generator seeded by the caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .composite import build_stage
from .geometry import address_words, tower_slots
from .tentacles import _Shift, TentacleSchedule

__all__ = [
    "QuadratureConfig",
    "CauchyTable",
    "cauchy_table",
    "SurveyReport",
    "jacobian_survey",
    "boundary_identity_check",
    "make_rng",
    "fd_jacobian",
    "forward_rows",
]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so identical seeds replay identically."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid resolutions and probe steps for the numeric checks."""

    resolution: int = 6              # per-axis midpoint nodes in a tower cell
    axial_resolution: int = 8        # along tentacle tubes (per axial segment)
    axial_levels: int = 6            # geometric axial splits per tube piece
    transverse_resolution: int = 4   # modulation nodes per tube strip
    # read by nothing: perfbench/workloads.py still passes it, and the CLI
    # rejects it in a config file
    transverse_levels: int = 6
    cells_cap: int = 16              # addresses sampled per level in tables
    fd_step: float | None = None     # None: derive from the active stage
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "fd_step":
                if value is not None and not (isinstance(value, numbers.Real)
                                              and not isinstance(value, bool)
                                              and 0 < value < math.inf):
                    raise ValueError("fd_step must be a positive number or None")
            elif not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{f.name} must be an integer, not {value!r}")
        if self.resolution < 4:
            raise ValueError("resolution must be >= 4 per axis")
        if min(self.axial_resolution, self.transverse_resolution, self.cells_cap) < 1:
            raise ValueError("axial_resolution, transverse_resolution and cells_cap must be >= 1")
        if min(self.axial_levels, self.transverse_levels, self.seed) < 0:
            raise ValueError("axial_levels, transverse_levels and seed must be >= 0")


def _cube_integral(integrand, center, r: float, res: int) -> float:
    """Midpoint rule for the integral of ``integrand`` over the cube of
    half-width r around ``center``, with ``res`` nodes per axis."""
    lo, hi = center - r, center + r
    axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(res) + 0.5) / res for d in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    vol = float(np.prod((hi - lo) / res))
    return vol * sum(integrand(p) for p in nodes)


def fd_jacobian(f, x, h):
    """Central-difference Jacobian of f at x with step h."""
    return _fd_jacobians(forward_rows(f), np.asarray(x, dtype=float)[None, :], h)[0]


def forward_rows(map_like):
    """``map_like`` as a function of an (N, n) array of points: its
    ``forward_many`` when it has one, else its ``forward`` (or ``map_like``
    itself, a plain callable) called row by row."""
    many = getattr(map_like, "forward_many", None)
    if callable(many):
        return many
    fwd = getattr(map_like, "forward", None)
    fwd = fwd if callable(fwd) else map_like
    return lambda pts: np.array([fwd(p) for p in pts]).reshape(np.shape(pts))


def _fd_jacobians(rows, pts, h):
    """``fd_jacobian`` at every row of pts, from one batch of 2n N
    evaluations of the rows map; the stencil points are built as x + e and
    x - e, as there, so they are the same floats."""
    count, n = pts.shape
    steps = np.zeros((n, n))
    steps[np.arange(n), np.arange(n)] = h
    stencil = np.concatenate([pts[:, None, :] + steps, pts[:, None, :] - steps])
    images = rows(stencil.reshape(-1, n)).reshape(2, count, n, n)
    # images[0, i, d] = f(x_i + e_d): column d of the i-th Jacobian
    return ((images[0] - images[1]) / (2 * h)).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# Cauchy difference table.
# ---------------------------------------------------------------------------


@dataclass
class CauchyRow:
    k: int
    integral: float
    envelope: float
    passed: bool
    rel_change: float = float("nan")


@dataclass
class CauchyTable:
    variant: str
    p: float
    rows: list[CauchyRow]
    fitted_c: float

    def decreasing(self) -> bool:
        vals = [r.integral for r in self.rows]
        return all(b < a for a, b in zip(vals, vals[1:]))

    def summable(self) -> bool:
        """Tail-sum ratios below one (mirrors series convergence)."""
        vals = [r.integral for r in self.rows]
        tails = [sum(vals[i:]) for i in range(len(vals))]
        return all(t2 / t1 < 1.0 for t1, t2 in zip(tails, tails[1:]) if t1 > 0)


def _sample_words(n: int, level: int, cap: int, rng) -> tuple[list, float]:
    """Tower letter words at ``level`` (all if few, else a seeded sample);
    returns the words and the inflation factor total/sampled."""
    slots = tower_slots(n)
    words = address_words(slots, level, cap, rng)
    return words, len(slots) ** level / len(words)


def _geom_segments(breaks, levels: int):
    """Split each interval geometrically toward its lower end."""
    segs = []
    for lo, hi in zip(breaks, breaks[1:]):
        if levels <= 0:
            segs.append((lo, hi))
            continue
        cuts = [lo + (hi - lo) * 2.0**-j for j in range(levels, 0, -1)]
        segs.extend(zip([lo] + cuts, cuts + [hi]))
    return segs


def _tube_integral(sched: TentacleSchedule, k: int, word, weight_fn,
                   config: QuadratureConfig, res_mult: int = 1) -> float:
    """Integral of a pointwise weight over one twisted level-k tube.

    The grid lives in the chart (t, E): t is the axial coordinate (split
    at the knot planes and geometrically toward each piece's low end,
    where the composed maps run through their scale cascade) and E the
    transverse log-log modulation.  The sup-annulus measure per strip,
    2 rho^2 u dE dt with u = log(1/rho), is exact, which absorbs the
    1/(rho u) transverse gradient of the squeeze profile into a bounded
    integrand.
    """
    from .tentacles import _knots

    lv = sched.level(k)
    n = sched.n
    heights = [w[-1] for w in word]
    z_n = sched.center_height(heights)
    sh = _Shift(sched, heights)
    segs = _geom_segments(_knots(lv, sched.family, 0.0).ts, config.axial_levels)
    t_res = config.axial_resolution * res_mult
    e_res = config.transverse_resolution * res_mult
    u_d, e_rng = lv.u_d, lv.e_range
    core_area = (2.0 * lv.b) ** (n - 1)
    dirs = [(axis, sign) for axis in range(1, n) for sign in (1.0, -1.0)]
    total = 0.0
    x = np.zeros(n)
    for t_lo, t_hi in segs:
        dt = (t_hi - t_lo) / t_res
        for it in range(t_res):
            t = t_lo + (it + 0.5) * dt
            sig = sh.sigma(t)
            # shell: strips at transverse sup radius rho(E)
            de = e_rng / e_res
            for ie in range(e_res):
                e = (ie + 0.5) * de
                u = u_d * math.exp(e)
                rho = math.exp(-u)
                meas = 2.0 * rho * rho * u * de * dt
                if meas == 0.0:
                    continue
                for axis, sign in dirs:
                    x[:] = 0.0
                    x[0] = t
                    x[axis] = sign * rho
                    x[n - 1] += z_n + sig
                    total += weight_fn(x) * meas
            # core below the clamp radius: no transverse gradient
            if core_area > 0.0:
                x[:] = 0.0
                x[0] = t
                x[n - 1] = z_n + sig
                total += weight_fn(x) * core_area * dt
    return total


def cauchy_table(variant: str, p: float, k_max: int, config: QuadratureConfig,
                 n: int = 3, beta: float = 4.0, refine: bool = False) -> CauchyTable:
    """Integrals of |Df_k - Df_{k-1}|_F^p over the stage-k change region.

    The change region is the union of the level-k tentacle tubes (where
    the new squeeze acts) and the level-(k-1) tower cells (where the
    deeper nested-cube and relocation structure appears); both maps agree
    elsewhere.  Tubes are integrated on the exact-measure chart grid of
    ``_tube_integral``, cells by midpoint boxes.  Addresses are
    subsampled above ``config.cells_cap`` and rescaled by the cell count.
    """
    if variant not in ("T1", "T2"):
        raise ValueError("cauchy tables exist for variants T1 and T2")
    rng = make_rng(config.seed)
    rows = []
    stages = {k: build_stage(variant, k, n, beta) for k in range(1, k_max + 1)}
    sched = stages[k_max].schedule
    res_mult = 2 if refine else 1

    for k in range(2, k_max + 1):
        fk, fk1 = stages[k], stages[k - 1]

        def diff(x):
            return float(
                np.linalg.norm(fk.derivative(x) - fk1.derivative(x), "fro") ** p
            )

        total = 0.0
        words, inflate = _sample_words(n, k, config.cells_cap, rng)
        for word in words:
            total += inflate * _tube_integral(sched, k, word, diff, config, res_mult)
        # level-(k-1) tower cells
        words1, inflate1 = _sample_words(n, k - 1, config.cells_cap, rng)
        r_in = sched.base.r(k - 1)
        for word in words1:
            z = np.zeros(n)
            for j, s in enumerate(word):
                z = z + sched.base.r(j) * np.array(s)
            total += inflate1 * _cube_integral(diff, z, r_in, config.resolution * res_mult)
        rows.append(CauchyRow(k, total, 0.0, True))

    env = [2.0 ** (-k * beta) + 1.0 / k**2 for k in range(2, k_max + 1)]
    c = max((r.integral / e for r, e in zip(rows, env)), default=0.0)
    for r, e in zip(rows, env):
        r.envelope = c * e
        r.passed = r.integral <= r.envelope * (1 + 1e-12)
    return CauchyTable(variant, p, rows, c)


# ---------------------------------------------------------------------------
# Jacobian survey and boundary identity.
# ---------------------------------------------------------------------------


@dataclass
class SurveyReport:
    fraction_positive: float
    min_det: float
    exceptions: list = field(default_factory=list)
    hard_failures: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.exceptions)


def jacobian_survey(map_like, count: int, config: QuadratureConfig,
                    n: int = 3, step: float | None = None) -> SurveyReport:
    """Central-difference Jacobian determinants at seeded random points of
    the cube [-1, 1]^n.

    A point with non-positive finite-difference determinant is an
    exception; it counts as a hard failure only if the analytic
    determinant (when available) is also non-positive and the sign does
    not recover under a refined step, i.e. only genuine orientation
    defects survive, not interface-straddling artifacts.
    """
    rng = make_rng(config.seed)
    lo, hi = -np.ones(n), np.ones(n)
    h = step or config.fd_step
    if h is None:
        k = getattr(map_like, "k", None) or getattr(map_like, "stage", 1)
        beta = getattr(map_like, "beta", 4.0)
        h = min(1e-6, 1e-3 * 2.0 ** (-(k) * (beta + 1)))
    rows = forward_rows(map_like)
    deriv = getattr(map_like, "derivative", None)
    margin = 10 * h
    pts = lo + (hi - lo) * rng.random((count, len(lo)))
    pts = np.clip(pts, lo + margin, hi - margin)
    dets = np.linalg.det(_fd_jacobians(rows, pts, h)).tolist()
    positives = sum(det > 0 for det in dets)
    min_det = min([math.inf, *dets])
    exceptions = [(x.copy(), det) for x, det in zip(pts, dets) if not det > 0]
    fines = []
    if exceptions:
        fine_pts = np.array([x for x, _ in exceptions])
        fines = np.linalg.det(_fd_jacobians(rows, fine_pts, h / 8)).tolist()
    hard = []
    for (x, det), fine in zip(exceptions, fines):
        analytic = None
        if deriv is not None:
            try:
                analytic = float(np.linalg.det(deriv(x)))
            except Exception:
                analytic = None
        if fine <= 0 and (analytic is None or analytic <= 0):
            hard.append((x.copy(), det, fine, analytic))
    return SurveyReport(positives / count, min_det, exceptions, hard)


def boundary_identity_check(map_like, n: int, samples_per_face: int,
                            seed: int = 0) -> tuple[bool, float]:
    """Max deviation |f(x) - x| over samples of every face of the cube."""
    rng = make_rng(seed)
    worst = 0.0
    rows = forward_rows(map_like)
    for axis in range(n):
        for side in (-1.0, 1.0):
            pts = rng.uniform(-1, 1, (samples_per_face, n))
            pts[:, axis] = side
            worst = max(worst, float(np.max(np.abs(rows(pts) - pts), initial=0.0)))
    return worst <= 1e-12, worst
