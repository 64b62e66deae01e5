"""Cauchy tables of Sobolev differences, Jacobian and boundary probes.

The Cauchy table has one quadrature, held in arrays.  A level-k tentacle
tube is integrated on a grid in its (t, E) chart, t axial and E the
transverse log-log modulation, whose strips carry the exact sup-annulus
measure (n-1) 2^(n-1) rho^(n-1) u dE dt at every n; that absorbs the
1/(rho log 1/rho) transverse gradient of the squeeze profile into a
bounded integrand.  A tower cell is integrated by the midpoint rule on a
cube grid.  The nodes of a row's sampled tubes and cells go in batches
of about ``CAUCHY_BATCH`` nodes (one batch a row on small quadratures),
and batch j of every row makes batch column j.  Per column the deepest
stage differentiates row k's nodes at stages k-1 and k, every row in one
walk with a stage per row (more, of about 2 ``CAUCHY_BATCH`` rows each,
on large quadratures).  Each tube's or cell's weighted measures are
summed by one cumulative sum, which adds in node order, so the rows are
those of a loop over the nodes and do not depend on the batch size.
Finite-difference Jacobians come from one central-difference stencil,
evaluated in one batch of the map.  All randomness flows from one counter-based generator
seeded by the caller.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .composite import build_stage
from .errors import DomainError
from .geometry import address_words, cell_center, tower_slots
from .tentacles import TentacleSchedule

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


INT, REAL, CHOICE, TEXT, POINT = "int", "real", "choice", "text", "point"


def _finite(value) -> float | None:
    """A JSON number as a finite float, else None: strings and booleans are
    not numbers here, nor an integer beyond the floats."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value) if math.isfinite(value) else None
    except OverflowError:
        return None


@dataclass(frozen=True)
class Field:
    """One config field: its kind, its range and its default.  An INT or a
    REAL lies between lo and hi, inclusive unless ``open`` names the end; a
    field whose default is None also takes null, which means the default."""

    kind: str
    default: object
    lo: float = -math.inf
    hi: float = math.inf
    open: tuple = ()
    choices: tuple = ()

    def describe(self) -> str:
        """What a value must be, as the config errors and the README say it."""
        text = {INT: "an integer", REAL: "a finite number", TEXT: "a non-empty string",
                POINT: "a list of n finite numbers",
                CHOICE: "one of " + ", ".join(map(repr, self.choices))}[self.kind]
        if self.kind == INT and self.hi < math.inf:
            text += f" in {self.lo}..{self.hi}"
        elif self.hi < math.inf:
            text += (f" in {'[('['lo' in self.open]}{self.lo!r}, "
                     f"{self.hi!r}{'])'['hi' in self.open]}")
        elif self.lo > -math.inf:
            text += f" {'>' if 'lo' in self.open else '>='} {self.lo!r}"
        return text + (" or null" if self.default is None else "")

    def parse(self, value, n: int | None = None, name: str = "value"):
        """``value`` as the field holds it (a REAL as a float, a POINT as a
        tuple of n floats); a ValueError says that ``name`` must be what."""
        if value is None and self.default is None:
            return None
        x = value
        if self.kind == POINT:
            x = tuple(map(_finite, value)) if isinstance(value, list) else ()
            ok = len(x) == n and None not in x
        elif self.kind in (CHOICE, TEXT):
            ok = (isinstance(value, str) and value != ""
                  and (self.kind == TEXT or value in self.choices))
        else:
            if self.kind == REAL:
                x = _finite(value)
            elif isinstance(value, bool) or not isinstance(value, numbers.Integral):
                x = None
            ok = x is not None and (self.lo < x if "lo" in self.open else self.lo <= x) \
                and (x < self.hi if "hi" in self.open else x <= self.hi)
        if not ok:
            raise ValueError(f"{name} must be {self.describe()}, got {reprlib.repr(value)}")
        return x


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid resolutions and probe steps for the numeric checks; the ranges
    of the fields are those of ``QUADRATURE_FIELDS``."""

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
        for name, spec in QUADRATURE_FIELDS.items():
            spec.parse(getattr(self, name), name=name)


# The most points (rows of n coordinates) one config may make a command
# hold at once; it caps the size fields, so that an oversized config is
# rejected before anything is allocated.
POINT_BUDGET = 1 << 18
# The quadrature fields of a config.  export-slice maps a grid of
# (8 resolution)^2 points.  jacobian_survey keeps its points 10 h inside
# the cube: h <= 1e-3 leaves it [-0.99, 0.99]^n, while a step near 0.1
# would shrink it to a sliver around the origin, where the stage maps are
# near the identity and every survey passes.  Below 2^-40 the central
# differences are rounding noise: with seed 0 and 400 points the T2 and W
# surveys at k = 3 find 68, 66 and 5 exceptions at h = 2^-49, 2^-46 and
# 2^-43, and every T1/T2/W survey at k = 1..3 finds none at 2^-40.
QUADRATURE_FIELDS = {
    "resolution": Field(INT, QuadratureConfig.resolution, 4, math.isqrt(POINT_BUDGET) // 8),
    "axial_resolution": Field(INT, QuadratureConfig.axial_resolution, 1, POINT_BUDGET),
    "axial_levels": Field(INT, QuadratureConfig.axial_levels, 0, POINT_BUDGET),
    "transverse_resolution": Field(INT, QuadratureConfig.transverse_resolution, 1, POINT_BUDGET),
    "cells_cap": Field(INT, QuadratureConfig.cells_cap, 1, POINT_BUDGET),
    "fd_step": Field(REAL, QuadratureConfig.fd_step, 2.0**-40, 1e-3),
    "seed": Field(INT, QuadratureConfig.seed, 0),
}


def _cube_nodes(center, r: float, res: int) -> tuple[np.ndarray, float]:
    """Midpoint-rule nodes of the cube of half-width r around ``center``,
    ``res`` per axis, and the volume of one grid box."""
    lo, hi = center - r, center + r
    axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(res) + 0.5) / res for d in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1), float(np.prod((hi - lo) / res))


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


@dataclass
class CauchyTable:
    variant: str
    p: float
    rows: list[CauchyRow]
    fitted_c: float

    def decreasing(self) -> bool:
        vals = [r.integral for r in self.rows]
        return all(b < a for a, b in zip(vals, vals[1:]))


def _sample_words(n: int, level: int, cap: int, rng) -> tuple[list, float]:
    """Tower letter words at ``level`` (all if few, else a seeded sample);
    returns the words and the inflation factor total/sampled."""
    slots = tower_slots(n)
    words = address_words(slots, level, cap, rng)
    return words, len(slots) ** level / len(words)


def _tube_nodes(sched: TentacleSchedule, k: int, word, config: QuadratureConfig,
                res_mult: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes of one twisted level-k tube, (N, n), and their
    measure factors (m, s), (N, 2): a node of weight w adds (w * m) * s.

    The grid lives in the chart (t, E): t is the axial coordinate (split
    at the knot planes and geometrically toward each piece's low end,
    where the composed maps run through their scale cascade) and E the
    transverse log-log modulation.  The strip at sup radius rho(E), u =
    log(1/rho), has the exact sup-annulus measure (n-1) 2^(n-1) rho^(n-1)
    u dE dt, which absorbs the 1/(rho u) transverse gradient of the
    squeeze profile into a bounded integrand; its 2(n-1) nodes, +rho then
    -rho on each transverse axis, carry 2^(n-2) rho^(n-1) u dE dt each.
    Per axial node come the strips' nodes, then the core node, (2b)^(n-1)
    times dt.  Strips of measure 0 carry no node.
    """
    lv, n = sched.level(k), sched.n
    heights = [w[-1] for w in word]
    ts = np.array(lv.ts)  # ordered: solve_parameters checks
    # each knot interval split geometrically toward its low end
    fracs = [2.0**-j for j in range(config.axial_levels, 0, -1)]
    edges = np.column_stack([ts[:-1], ts[:-1, None] + np.diff(ts)[:, None] * fracs, ts[1:]])
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    t_res = config.axial_resolution * res_mult
    e_res = config.transverse_resolution * res_mult
    de = lv.e_range / e_res
    rhos, bases = [], []
    for ie in range(e_res):  # Python floats: numpy's exp need not round as math's
        u = lv.u_d * math.exp((ie + 0.5) * de)
        rho = math.exp(-u)
        base = 2.0 ** (n - 2) * rho
        for _ in range(n - 2):
            base *= rho
        rhos.append(rho)
        bases.append(base * u * de)
    dt = np.repeat((hi - lo) / t_res, t_res)
    t = np.repeat(lo, t_res) + np.tile(np.arange(t_res) + 0.5, len(lo)) * dt
    height = sched.centerline(heights, t)
    # per axial node: each strip's nodes, then the core node
    per = 2 * (n - 1)
    m = per * e_res + 1
    nodes = np.zeros((len(t), m, n))
    nodes[..., 0] = t[:, None]
    nodes[:, np.arange(m - 1), np.tile(np.repeat(np.arange(1, n), 2), e_res)] = \
        np.repeat(rhos, per) * np.tile([1.0, -1.0], (n - 1) * e_res)
    nodes[:, :-1, n - 1] += height[:, None]
    nodes[:, -1, n - 1] = height
    measures = np.ones((len(t), m, 2))
    measures[:, :-1, 0] = np.multiply.outer(dt, np.repeat(bases, per))
    measures[:, -1, 0], measures[:, -1, 1] = (2.0 * lv.b) ** (n - 1), dt
    keep = measures[..., 0] != 0.0
    return nodes[keep], measures[keep]


def _ordered_sum(weights, measures) -> float:
    """Sum of (w * m) * s over the nodes, in node order from 0.0: one
    cumulative sum, which adds sequentially where np.sum adds pairwise, so
    the result is that of a loop over the nodes."""
    terms = (weights * measures[:, 0]) * measures[:, 1]
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def _tube_integral(sched: TentacleSchedule, k: int, word, weight_fn,
                   config: QuadratureConfig, res_mult: int = 1) -> float:
    """Integral of a pointwise weight over one twisted level-k tube, on the
    nodes and measures of ``_tube_nodes``, summed by ``_ordered_sum``:
    ``weight_fn`` is called once per node, in node order."""
    nodes, measures = _tube_nodes(sched, k, word, config, res_mult)
    return _ordered_sum(np.array([weight_fn(x) for x in nodes], dtype=float), measures)


# Nodes per batch of a Cauchy row.  Batch j of every row makes batch
# column j, and the deepest stage differentiates a column's nodes twice
# each, row k's batch at stages k-1 and k (two slices), in walks that
# close once they hold 2 * CAUCHY_BATCH rows.  A slice holds fewer than
# CAUCHY_BATCH rows plus one part, so a walk holds fewer than
# 3 * CAUCHY_BATCH rows plus one part, whatever k_max, and a table holds
# the Jacobians of one walk and of at most one slice walked before it.
# So this is enough that the fixed cost of a walk is small, and few
# enough that those Jacobians and their temporaries stay a few MB
# whatever the quadrature.
CAUCHY_BATCH = 1 << 13


def _change_region(sched: TentacleSchedule, k: int, words, inflate: float, words1,
                   inflate1: float, config: QuadratureConfig, res_mult: int):
    """The parts of the stage-k change region, the sampled level-k tubes
    and then the sampled level-(k-1) tower cells, as tuples (nodes,
    measures, inflate, vol): a part adds inflate * (vol * S) to the table
    row, S the ``_ordered_sum`` of the weights at its nodes."""
    for word in words:
        yield *_tube_nodes(sched, k, word, config, res_mult), inflate, 1.0
    r_in = sched.base.r(k - 1)
    for word in words1:
        z = cell_center(sched.base, word, tower=True)
        nodes, vol = _cube_nodes(z, r_in, config.resolution * res_mult)
        yield nodes, np.ones((len(nodes), 2)), inflate1, vol


def _batches(parts, size: int):
    """Consecutive runs of the (nodes, ...) tuples ``parts``, each closed
    once it holds ``size`` nodes or more, the last one when they end."""
    batch, count = [], 0
    for part in parts:
        batch.append(part)
        count += len(part[0])
        if count >= size:
            yield batch
            batch, count = [], 0
    if batch:
        yield batch


def _add_parts(total: float, diff: np.ndarray, batch, p: float) -> float:
    """``total`` plus each part's inflate * (vol * S) in part order, S the
    ``_ordered_sum`` of |D|_F^p at its nodes, D the rows of ``diff`` that
    the concatenated parts of ``batch`` cover."""
    flat = diff.reshape(len(diff), -1)
    # |D|_F as np.linalg.norm takes it, the root of the dot product of the
    # flat entries, raised to p per element: numpy's power of an array
    # rounds differently from the scalar one
    weights = np.array([r ** p for r in np.sqrt(np.vecdot(flat, flat)).tolist()])
    start = 0
    for part_nodes, measures, inflate, vol in batch:
        stop = start + len(part_nodes)
        total += inflate * (vol * _ordered_sum(weights[start:stop], measures))
        start = stop
    return total


def cauchy_table(variant: str, p: float, k_max: int, config: QuadratureConfig,
                 n: int = 3, beta: float = 4.0, refine: bool = False) -> CauchyTable:
    """Integrals of |Df_k - Df_{k-1}|_F^p over the stage-k change region.

    The change region is the union of the level-k tentacle tubes (where
    the new squeeze acts) and the level-(k-1) tower cells (where the
    deeper nested-cube and relocation structure appears); both maps agree
    elsewhere.  Tubes are integrated on the exact-measure chart grid of
    ``_tube_nodes``, cells by midpoint boxes.  Addresses are subsampled
    above ``config.cells_cap`` and rescaled by the cell count.

    Each row's parts go in batches of about ``CAUCHY_BATCH`` nodes, and
    column j is batch j of every row.  A column is stacked as row k's
    batch at stage k-1, then at stage k, for k = 2..k_max, and the stage
    ``k_max`` map differentiates the stack with a stage per row
    (``derivative_many``'s ``stages``), which gives each row the floats of
    its own stage's map, in walks of whole slices that close once they
    hold 2 ``CAUCHY_BATCH`` rows: one walk per column on quadratures of up
    to ``CAUCHY_BATCH`` nodes a row.  Row k takes its stage-k slice minus
    its stage-(k-1) slice, held until the stage-k slice is walked.
    """
    if variant not in ("T1", "T2"):
        raise ValueError("cauchy tables exist for variants T1 and T2")
    rng = make_rng(config.seed)
    deepest = build_stage(variant, k_max, n, beta)
    sched = deepest.schedule
    res_mult = 2 if refine else 1
    batches = []  # per row, its batches, made as the columns need them
    for k in range(2, k_max + 1):
        words, inflate = _sample_words(n, k, config.cells_cap, rng)
        words1, inflate1 = _sample_words(n, k - 1, config.cells_cap, rng)
        parts = _change_region(sched, k, words, inflate, words1, inflate1, config, res_mult)
        batches.append(_batches(parts, CAUCHY_BATCH))
    totals = [0.0] * (k_max - 1)
    for column in zip_longest(*batches):  # column[k - 2]: the batch of row k, or None
        filled = [(k, batch) for k, batch in enumerate(column, start=2) if batch]
        nodes = [np.concatenate([part[0] for part in batch]) for _, batch in filled]
        # the stack: row k's nodes at stage k - 1, then at stage k
        stack = [(x, np.full(len(x), k + i)) for (k, _), x in zip(filled, nodes)
                 for i in (-1, 0)]
        walks = (deepest.derivative_many(np.concatenate([x for x, _ in walk]),
                                         stages=np.concatenate([s for _, s in walk]))
                 for walk in _batches(stack, 2 * CAUCHY_BATCH))
        held = np.empty((0, n, n))  # the Jacobians walked and not yet taken
        for (k, batch), x in zip(filled, nodes):
            m = len(x)
            while len(held) < 2 * m:
                held = np.concatenate([held, next(walks)])
            totals[k - 2] = _add_parts(totals[k - 2], held[m:2 * m] - held[:m], batch, p)
            held = held[2 * m:]
    rows = [CauchyRow(k, total, 0.0, True) for k, total in enumerate(totals, start=2)]

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
    defects survive, not interface-straddling artifacts.  The analytic
    determinant is unavailable where ``derivative`` raises DomainError
    (FL has no analytic Jacobian) or LinAlgError (``map_like`` may be any
    object with a ``derivative``; the stage maps raise none); any other
    error propagates.  With neither ``step`` nor ``config.fd_step`` the
    step is min(1e-6, 1e-3 2^(-k(beta+1))), raised to the ``fd_step``
    floor 2^-40, below which central differences are rounding noise.
    """
    rng = make_rng(config.seed)
    lo, hi = -np.ones(n), np.ones(n)
    h = step or config.fd_step
    if h is None:
        k = getattr(map_like, "k", None) or getattr(map_like, "stage", 1)
        beta = getattr(map_like, "beta", 4.0)
        h = max(min(1e-6, 1e-3 * 2.0 ** (-(k) * (beta + 1))), QUADRATURE_FIELDS["fd_step"].lo)
    rows = forward_rows(map_like)
    deriv = getattr(map_like, "derivative", None)
    margin = 10 * h
    pts = lo + (hi - lo) * rng.random((count, len(lo)))
    pts = np.clip(pts, lo + margin, hi - margin)
    dets = np.linalg.det(_fd_jacobians(rows, pts, h))
    positive = dets > 0
    # Python's min from inf: NaNs skipped, the first of equal values kept
    # (argmin's pick, as -0.0 == 0.0)
    valued = dets[~np.isnan(dets)]
    min_det = float(valued[valued.argmin()]) if len(valued) else math.inf
    bad = np.flatnonzero(~positive)
    # rows of a fresh array, in point order
    exceptions = list(zip(pts[bad], dets[bad].tolist()))
    fines = []
    if exceptions:
        fines = np.linalg.det(_fd_jacobians(rows, pts[bad], h / 8)).tolist()
    hard = []
    for (x, det), fine in zip(exceptions, fines):
        analytic = None
        if deriv is not None:
            try:
                analytic = float(np.linalg.det(deriv(x)))
            except (DomainError, np.linalg.LinAlgError):
                analytic = None
        if fine <= 0 and (analytic is None or analytic <= 0):
            hard.append((x.copy(), det, fine, analytic))
    return SurveyReport(np.count_nonzero(positive) / count, min_det, exceptions, hard)


def boundary_identity_check(map_like, n: int, samples_per_face: int,
                            seed: int = 0) -> tuple[bool, float]:
    """Max deviation |f(x) - x| over samples of every face of the cube,
    drawn face by face and mapped in one batch; NaN, and not passed, when
    an image is NaN."""
    rng = make_rng(seed)
    faces = []
    for axis in range(n):
        for side in (-1.0, 1.0):
            pts = rng.uniform(-1, 1, (samples_per_face, n))
            pts[:, axis] = side
            faces.append(pts)
    pts = np.concatenate(faces)
    worst = float(np.max(np.abs(forward_rows(map_like)(pts) - pts), initial=0.0))
    return worst <= 1e-12, worst
