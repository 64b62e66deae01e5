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

from ._maps import BatchMap, row_stages
from .cantor_map import CantorHomeomorphism
from .errors import DomainError
from .geometry import ParameterSchedule, cell_center, harmonic_schedule, row_max
from .tentacles import (
    SQUEEZE,
    STRETCH,
    SqueezeStage,
    StretchStage,
    TentacleSchedule,
    solve_parameters,
)
from .tower import TowerMapping, slot_correspondence

__all__ = ["CompositeStage", "build_stage", "ContinuumWitness", "continuum_witness",
           "AxisCollapse"]

VARIANTS = ("T1", "T2", "W", "FL")
# points on the tentacle centerline of a continuum witness
WITNESS_SAMPLES = 24


class AxisCollapse(BatchMap):
    """Lipschitz squeeze of the vertical axis segment to a point.

    On Q(0, 1-delta): (x_1, ..., x_n) -> (x_1, ..., x_{n-1},
    x_n sqrt(x_1^2+...+x_{n-1}^2)); blended radially (sup norm) to the
    identity on the cube boundary.  Not injective on the axis.
    """

    delta = 1.0 / 16.0

    def __init__(self, n: int):
        self.n = n

    def _walk_rows(self, points, inverse: bool = False, jacobian: bool = False,
                   stages=None):
        """The collapse on every row of ``points``; it has no stage, so
        ``stages`` changes nothing."""
        if jacobian:
            raise DomainError("FL derivative is piecewise; use finite differences")
        if inverse:
            raise DomainError("the FL stage collapses the axis and has no inverse")
        x = np.asarray(points, dtype=float)
        core = x.copy()
        core[:, -1] = x[:, -1] * np.sqrt(np.sum(x[:, :-1] ** 2, axis=1))
        sup = row_max(np.abs(x))
        inner = 1.0 - self.delta
        t = np.minimum((sup - inner) / self.delta, 1.0)[:, None]
        # the core itself inside, not its blend with weight 0
        return np.where((sup <= inner)[:, None], core, (1.0 - t) * core + t * x), None


def _fold(chain: tuple, x: np.ndarray, jacobian: bool = False, stages=None):
    """Apply the (factor, direction) pairs of ``chain`` in order to every
    row of the (N, n) array x, f for direction +1 and f^{-1} for -1:
    (images, None), or with ``jacobian`` (images, (N, n, n) Jacobians by
    the chain rule).  Each factor walks once per pair, for its image and,
    when asked, the Jacobian of the direction it walks, with every row at
    its stage in ``stages`` if given."""
    d = None
    for f, s in chain:
        if not jacobian and stages is None:
            x = f.forward_many(x) if s > 0 else f.inverse_many(x)
            continue
        x, jac = f._walk_rows(x, inverse=s < 0, jacobian=jacobian, stages=stages)
        if jacobian:
            d = jac if d is None else np.matmul(jac, d)
    return x, d


def _reverse(chain: tuple) -> tuple:
    """The chain of the inverse map."""
    return tuple((f, -s) for f, s in reversed(chain))


@dataclass
class CompositeStage(BatchMap):
    """One stage of a counterexample composition: the fold of ``chain``.

    ``derivative_many`` multiplies the factor Jacobians in chain order; an
    inverted factor contributes the Jacobian of its own inverse walk.  With
    ``stages`` every factor runs row i at stage ``stages[i]``, so row i
    gets what ``build_stage(variant, stages[i], n, beta)`` gives it."""

    variant: str
    k: int
    n: int
    beta: float
    chain: tuple
    schedule: TentacleSchedule | None = None

    def _walk_rows(self, points, inverse: bool = False, jacobian: bool = False,
                   stages=None):
        x = np.asarray(points, dtype=float)
        # a NaN row fails the test too, and the inverse has the same domain
        if not (np.abs(x) <= 1.0).all():
            raise DomainError("point outside [-1,1]^n")
        stages = row_stages(stages, self.k, len(x))
        return _fold(_reverse(self.chain) if inverse else self.chain, x, jacobian, stages)


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
    family = SQUEEZE if variant == "T1" else STRETCH
    ts = _tentacle_sched(n, beta, family, k)
    h = (SqueezeStage if variant == "T1" else StretchStage)(ts, k)
    chain = {
        "T1": ((h, 1), (tower, -1), (g, -1)),
        "T2": ((g, 1), (tower, 1), (h, 1), (tower, -1), (g, -1)),
        "W": ((g, 1), (tower, 1), (h, -1), (tower, -1), (g, -1)),
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


def _tentacle_chain(sched: TentacleSchedule, word_hat, k: int):
    """The centerline of the level-k twisted tentacle of the tower address
    ``word_hat`` as chart rows, from the tip (x_1 = a_k) down to the tower
    cell center: (J, heights, w) as ``_TentacleStage._descend_rows`` gives
    them, every row of level k, with the cube points w + (0, ..., 0,
    ``sched.centerline(heights, w_1)``)."""
    w = np.zeros((WITNESS_SAMPLES, sched.n))
    lv = sched.level(k)
    w[:-1, 0] = np.geomspace(lv.r_hat, lv.a, WITNESS_SAMPLES - 1)[::-1]
    heights = np.repeat([[v[-1]] for v in word_hat], len(w), axis=1)
    return np.full(len(w), k), heights, w


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
    sched = stage.schedule
    J, heights, w = _tentacle_chain(sched, word_hat, k)
    chain = w.copy()
    chain[:, -1] += sched.centerline(heights, w[:, 0])
    sched_a = ParameterSchedule(n=n, beta=beta, kind="A")
    target = cell_center(sched_a, word)
    if variant == "T1":
        polyline = chain
        images = stage.forward_many(chain)
    else:
        # domain-side continuum: pull the chain back through (L o g)^{-1},
        # the last two factors of W; the w_k images are g^{-1} L^{-1} of
        # the chain's image under W's own h~^{-1}, walked on the chart rows
        # of the chain, since the deep stretch tubes are thinner than an
        # ulp of the cube coordinates the stage would descend from
        pull_back = stage.chain[-2:]
        polyline = _fold(pull_back, chain)[0]
        pulled = stage.chain[2][0]._walk_chart(J, heights, w, inverse=True)[0]
        pulled[:, -1] += sched.centerline(heights, pulled[:, 0])
        images = _fold(pull_back, pulled)[0]
    return ContinuumWitness(variant, k, word, target, polyline, images)
