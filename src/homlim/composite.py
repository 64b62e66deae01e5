"""Assembled counterexample stages and preimage-continuum witnesses.

Variants:

* T1: f_k = g_k^{-1} o L_k^{-1} o h_k   (squeeze; fat-target limit has
  continuum preimages over a positive-measure set),
* T2: f~_k = g_k^{-1} o L_k^{-1} o h~_k o L_k o g_k  (stretch; one-to-one
  limit whose generalized inverse collapses continua),
* W:  w_k  = g_k^{-1} o L_k^{-1} o h~_k^{-1} o L_k o g_k  (the stage
  generalized inverse: w_k o f~_k = id exactly),
* FL: f_L = S o L_k o g_k on the harmonic fat schedule, with S the
  axis-collapse squeeze; Lipschitz, non-injective, sends the limit set
  to a shrinking neighborhood of one point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cantor_map import CantorHomeomorphism
from .errors import DomainError
from .geometry import Address, ParameterSchedule, cell_center, harmonic_schedule
from .tentacles import (
    SQUEEZE,
    STRETCH,
    SqueezeStage,
    StretchStage,
    TentacleSchedule,
    _Shift,
    solve_parameters,
)
from .tower import TowerMapping, slot_correspondence

__all__ = ["CompositeStage", "build_stage", "ContinuumWitness", "continuum_witness",
           "AxisCollapse"]

VARIANTS = ("T1", "T2", "W", "FL")
# points on the tentacle centerline of a continuum witness
WITNESS_SAMPLES = 24


class AxisCollapse:
    """Lipschitz squeeze of the vertical axis segment to a point.

    On Q(0, 1-delta): (x_1, ..., x_n) -> (x_1, ..., x_{n-1},
    x_n sqrt(x_1^2+...+x_{n-1}^2)); blended radially (sup norm) to the
    identity on the cube boundary.  Not injective on the axis.
    """

    delta = 1.0 / 16.0

    def __init__(self, n: int):
        self.n = n

    def forward(self, point) -> np.ndarray:
        return self.forward_many(np.asarray(point, dtype=float)[None, :])[0]

    def forward_many(self, points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        core = x.copy()
        core[:, -1] = x[:, -1] * np.sqrt(np.sum(x[:, :-1] ** 2, axis=1))
        sup = np.abs(x).max(axis=1)
        inner = 1.0 - self.delta
        t = np.minimum((sup - inner) / self.delta, 1.0)[:, None]
        # the core itself inside, not its blend with weight 0
        return np.where((sup <= inner)[:, None], core, (1.0 - t) * core + t * x)

    def inverse(self, point) -> np.ndarray:
        raise DomainError("the FL stage collapses the axis and has no inverse")

    inverse_many = inverse

    def derivative(self, point) -> np.ndarray:
        raise DomainError("FL derivative is piecewise; use finite differences")


def _fold(chain: tuple, x, many: bool = False):
    """Apply the (factor, direction) pairs of ``chain`` in order: f for
    direction +1, f^{-1} for -1.  With ``many``, x is an (N, n) array and
    every factor runs its batched body."""
    for f, s in chain:
        if many:
            x = f.forward_many(x) if s > 0 else f.inverse_many(x)
        else:
            x = f.forward(x) if s > 0 else f.inverse(x)
    return x


def _reverse(chain: tuple) -> tuple:
    """The chain of the inverse map."""
    return tuple((f, -s) for f, s in reversed(chain))


@dataclass
class CompositeStage:
    """One stage of a counterexample composition: the fold of ``chain``."""

    variant: str
    k: int
    n: int
    beta: float
    chain: tuple
    schedule: TentacleSchedule | None = None

    def forward(self, point) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        if np.max(np.abs(x)) > 1.0:
            raise DomainError("point outside [-1,1]^n")
        return _fold(self.chain, x)

    def inverse(self, point) -> np.ndarray:
        return _fold(_reverse(self.chain), np.asarray(point, dtype=float))

    def derivative(self, point) -> np.ndarray:
        """Analytic Jacobian by the chain rule through every factor; an
        inverted factor contributes [Df(f^{-1} x)]^{-1} at the image the
        fold computes anyway, and the last image is never needed."""
        x = np.asarray(point, dtype=float)
        d = None
        last = len(self.chain) - 1
        for i, (f, s) in enumerate(self.chain):
            if s > 0:
                jac = f.derivative(x)
                if i < last:
                    x = f.forward(x)
            else:
                x = f.inverse(x)
                jac = np.linalg.inv(f.derivative(x))
            d = jac if d is None else jac @ d
        return d

    def forward_many(self, points: np.ndarray) -> np.ndarray:
        """``forward`` on every row of ``points``, one batch per factor."""
        x = np.asarray(points, dtype=float)
        if x.size and np.max(np.abs(x)) > 1.0:
            raise DomainError("point outside [-1,1]^n")
        return _fold(self.chain, x, many=True)

    def inverse_many(self, points: np.ndarray) -> np.ndarray:
        return _fold(_reverse(self.chain), np.asarray(points, dtype=float), many=True)


@lru_cache(maxsize=32)
def _tentacle_sched(n: int, beta: float, family: str, k_max: int):
    return solve_parameters(n, beta, "demo", family, k_max)


def build_stage(variant: str, k: int, n: int = 3, beta: float = 4.0) -> CompositeStage:
    """Construct one composite stage with shared, cached factor maps, on
    the demo tentacle schedule (the strict widths underflow).

    The chain table is the one place that knows the variants:
    T1 = g^{-1} L^{-1} h, T2 = g^{-1} L^{-1} h~ L g, W = g^{-1} L^{-1} h~^{-1} L g
    and FL = S L g, read right to left.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    sched_b = ParameterSchedule(n=n, beta=beta, kind="B")
    tower = TowerMapping(sched_b, k)
    if variant == "FL":
        g = CantorHomeomorphism(harmonic_schedule(n), sched_b, k)
        chain = ((g, 1), (tower, 1), (AxisCollapse(n), 1))
        return CompositeStage(variant, k, n, beta, chain)
    sched_a = ParameterSchedule(n=n, beta=beta, kind="A")
    g = CantorHomeomorphism(sched_a, sched_b, k)
    g_inv = CantorHomeomorphism(sched_b, sched_a, k)
    family = SQUEEZE if variant == "T1" else STRETCH
    ts = _tentacle_sched(n, beta, family, k)
    h = (SqueezeStage if variant == "T1" else StretchStage)(ts, k)
    chain = {
        "T1": ((h, 1), (tower, -1), (g_inv, 1)),
        "T2": ((g, 1), (tower, 1), (h, 1), (tower, -1), (g_inv, 1)),
        "W": ((g, 1), (tower, 1), (h, -1), (tower, -1), (g_inv, 1)),
    }[variant]
    return CompositeStage(variant, k, n, beta, chain, ts)


# ---------------------------------------------------------------------------
# Preimage-continuum witnesses.
# ---------------------------------------------------------------------------


@dataclass
class ContinuumWitness:
    """A sampled stage-k tentacle chain and the spread of its image.

    ``polyline`` runs from the tentacle tip down to the tower cell; it
    approximates the continuum collapsing onto the target point, so its
    endpoints stay far apart while ``image_diameter`` shrinks with k.
    """

    variant: str
    k: int
    target_word: tuple
    target_point: np.ndarray
    polyline: np.ndarray
    images: np.ndarray
    endpoint_separation: float = field(init=False)
    image_diameter: float = field(init=False)

    def __post_init__(self):
        self.endpoint_separation = float(
            np.linalg.norm(self.polyline[0] - self.polyline[-1])
        )
        diffs = self.images[:, None, :] - self.images[None, :, :]
        self.image_diameter = float(np.sqrt((diffs**2).sum(-1)).max())


def _tentacle_chain_points(sched: TentacleSchedule, word_hat, k: int,
                           samples: int) -> np.ndarray:
    """Points along the centerline of the level-k twisted tentacle, from
    the tip (x_1 near a_k) down to the tower cell center."""
    n = sched.n
    lv = sched.level(k)
    heights = [w[-1] for w in word_hat]
    z_n = sched.center_height(heights)
    sh = _Shift(sched, heights)
    ts = np.geomspace(lv.r_hat, lv.a, samples - 1)[::-1]
    pts = []
    for t in ts:
        p = np.zeros(n)
        p[0] = t
        p[-1] = z_n + sh.sigma(t)
        pts.append(p)
    tip_first = pts
    center = np.zeros(n)
    center[-1] = z_n
    return np.array(tip_first + [center])


def continuum_witness(word, k: int, variant: str = "T1", n: int = 3,
                      beta: float = 4.0) -> ContinuumWitness:
    """Witness for the collapse of a tentacle chain over one target cell.

    ``word`` addresses a cell of the fat construction; the matched tower
    address is its letterwise slot image.  For T1 the polyline lies along
    the twisted tentacle centerline and is pushed through f_k; for T2 the
    polyline is pulled back to the domain side and pushed through w_k.
    """
    if variant not in ("T1", "T2"):
        raise ValueError("witnesses exist for variants T1 and T2")
    word = tuple(tuple(v) for v in word)
    if len(word) != k:
        raise ValueError("address word length must equal the stage")
    word_hat = tuple(slot_correspondence(v) for v in word)
    stage = build_stage(variant if variant == "T1" else "W", k, n, beta)
    chain = _tentacle_chain_points(stage.schedule, word_hat, k, WITNESS_SAMPLES)
    sched_a = ParameterSchedule(n=n, beta=beta, kind="A")
    target = cell_center(sched_a, Address("setA", word))
    if variant == "T1":
        polyline = chain
        images = stage.forward_many(chain)
    else:
        # domain-side continuum: pull the chain back through (L o g)^{-1},
        # the last two factors of W; w_k images equal g^{-1} L^{-1}
        # (stretch-inverse of the chain), and the stretch inverse is
        # applied in chart form because the deep squeezed tubes are
        # narrower than float resolution
        pull_back = stage.chain[-2:]
        polyline = _fold(pull_back, chain, many=True)
        pulled = _stretch_inverse_on_chain(stage.schedule, word_hat, k, chain)
        images = _fold(pull_back, pulled, many=True)
    return ContinuumWitness(variant, k, word, target, polyline, images)


def _stretch_inverse_on_chain(sched: TentacleSchedule, word_hat, k: int,
                              chain: np.ndarray) -> np.ndarray:
    """Stretch-stage inverse restricted to the level-k tentacle centerline.

    On the centerline the transverse radius is 0, so the modulation sits
    at its clamp value and the axial pullback is a fixed monotone PL map;
    evaluating it directly avoids membership tests on tubes that are
    thinner than one ulp."""
    from .tentacles import _knots, pl_inverse

    lv = sched.level(k)
    heights = [w[-1] for w in word_hat]
    z_n = sched.center_height(heights)
    sh = _Shift(sched, heights)
    knots = _knots(lv, STRETCH, lv.e_range)
    out = []
    for p in chain:
        t = p[0]
        if t < lv.r_hat:
            out.append(p.copy())
            continue
        t_back = pl_inverse(min(t, knots.ss[-1]), knots)
        q = np.zeros_like(p)
        q[0] = t_back
        q[-1] = z_n + sh.sigma(t_back)
        out.append(q)
    return np.array(out)
