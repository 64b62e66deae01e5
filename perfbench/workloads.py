"""The three workloads: their inputs, operations and output checks.

Every input is drawn from ``numpy.random.default_rng(seed)``; the package
receives only the generated points, centers and quadrature seeds.  A
workload's ``round`` is a fixed list of operations that the runner repeats
with the same inputs; ``final_checks`` holds the checks that need their own
evaluations and run once, after the timed rounds.  Operations look the
package's functions up when they run, so the traced run's wrappers see
every call.

``cauchy`` leaves T2 out: ``analysis.cauchy_table`` places its change
region in tower coordinates, the domain of T1 only, so every T2 row is 0.
It does not check ``CauchyRow.passed`` either: the envelope constant is
fitted as the largest ratio of row to envelope, so every row passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

VARIANTS = ("T1", "T2", "W")
STAGES = (1, 2, 3)

# cauchy: one table is one operation
CAUCHY_TABLES = 6
CAUCHY_K_MAX = 3
CAUCHY_QUADRATURE = dict(resolution=4, axial_resolution=2, axial_levels=4,
                         transverse_resolution=2, transverse_levels=3, cells_cap=1)

# survey: one (variant, stage) pair is one operation
SURVEY_POINTS = 400
SURVEY_FACE_SAMPLES = 60

# degree: one certified probe is one operation
TAME_CENTER = (0.55, 0.09, 0.25)
RADIUS = 0.05
REFINEMENT = 3
CENTER_JITTER = 0.05        # seeded centers move in x_1 and x_3 only
MULTI_TARGETS = 30          # inside and outside targets of inv_check each


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31, count)]


def _uniform(rng, count, margin=0.0):
    return rng.uniform(-1 + margin, 1 - margin, (count, 3))


class Workload:
    name: str
    stages: tuple = tuple((v, k) for v in VARIANTS for k in STAGES)

    def __init__(self, homlim, seed: int):
        self.h = homlim
        self.seed = seed

    def setup(self):
        """Build every stage used, generate the inputs, and warm up."""
        build = self.h.composite.build_stage
        self.stage = {vk: build(*vk) for vk in self.stages}
        self.rng = np.random.default_rng(self.seed)
        self.make_inputs()
        for st in self.stage.values():
            for x in _uniform(self.rng, 4, 0.1):
                st.inverse(st.forward(x))
                st.derivative(x)

    def make_inputs(self):
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        raise NotImplementedError


class Cauchy(Workload):
    """Demo-schedule Cauchy tables of T1: the derivative path at deep
    points inside tubes and tower cells."""

    name = "cauchy"
    stages = tuple(("T1", k) for k in range(1, CAUCHY_K_MAX + 1))

    def make_inputs(self):
        QC = self.h.analysis.QuadratureConfig
        self.configs = [QC(seed=s, **CAUCHY_QUADRATURE)
                        for s in _seeds(self.rng, CAUCHY_TABLES)]
        self.node_seed = _seeds(self.rng, 1)[0]

    def round(self):
        analysis = self.h.analysis
        return [
            Op(f"cauchy_table seed={cfg.seed}",
               lambda cfg=cfg: analysis.cauchy_table("T1", 2, CAUCHY_K_MAX, cfg),
               lambda t: checks.cauchy_rows(t, CAUCHY_K_MAX))
            for cfg in self.configs
        ]

    def _tube_nodes(self, rng, k, count):
        """Quadrature nodes of one sampled level-k tube, as cauchy_table
        places them."""
        analysis = self.h.analysis
        sched = self.stage[("T1", CAUCHY_K_MAX)].schedule
        words, _ = analysis._sample_words(3, k, 1, analysis.make_rng(self.node_seed))
        nodes = []

        def record(x):
            nodes.append(x.copy())
            return 0.0

        analysis._tube_integral(sched, k, words[0], record, self.configs[0])
        nodes = np.array(nodes)
        return nodes[rng.choice(len(nodes), count, replace=False)]

    def final_checks(self):
        rng = np.random.default_rng([self.seed, 1])
        bad = []
        sched = self.stage[("T1", CAUCHY_K_MAX)].schedule
        # |x_2| >= this keeps a point out of every tube (the chart leaves
        # x_2 alone and tubes are thinner than d_1) and out of every tower
        # cell (they sit on the x_3 axis with radius r_1)
        away = max(sched.level(1).d, sched.base.r(1))
        for k in range(2, CAUCHY_K_MAX + 1):
            st, prev = self.stage[("T1", k)], self.stage[("T1", k - 1)]
            nodes = np.vstack([self._tube_nodes(rng, k, 10), _uniform(rng, 10, 0.01)])
            bad += checks.derivative_matches_fd(st.forward, st.derivative, nodes, f"T1 k={k}")
            pts = _uniform(rng, 40, 0.01)
            pts = pts[np.abs(pts[:, 1]) > away]
            bad += checks.derivatives_equal(st.derivative, prev.derivative, pts,
                                            f"T1 k={k} vs k={k - 1} off the change region")
        st = self.stage[("T1", CAUCHY_K_MAX)]
        bad += checks.roundtrip(st.forward, st.inverse, _uniform(rng, 200),
                                f"T1 k={CAUCHY_K_MAX} inverse(forward)")
        return bad


class Survey(Workload):
    """Jacobian surveys and boundary checks: forward evaluation only, at
    mostly shallow points, through both directions of every factor."""

    name = "survey"

    def make_inputs(self):
        self.pairs = [(vk, s) for vk, s in zip(self.stages, _seeds(self.rng, len(self.stages)))]

    def round(self):
        analysis = self.h.analysis
        QC = analysis.QuadratureConfig
        ops = []
        for (v, k), s in self.pairs:
            st = self.stage[(v, k)]
            label = f"{v} k={k}"

            def run(st=st, s=s):
                rep = analysis.jacobian_survey(st, SURVEY_POINTS, QC(seed=s))
                _, dev = analysis.boundary_identity_check(st, 3, SURVEY_FACE_SAMPLES, seed=s)
                return rep, dev

            ops.append(Op(f"survey {label}", run,
                          lambda out, label=label: checks.survey(out[0], label)
                          + checks.boundary(out[1], label)))
        return ops

    def final_checks(self):
        rng = np.random.default_rng([self.seed, 1])
        bad = []
        for k in STAGES:
            bad += checks.roundtrip(self.stage[("T2", k)].forward, self.stage[("W", k)].forward,
                                    _uniform(rng, 200), f"W(T2(x)) k={k}")
        return bad


def _sphere_point(rng, center, lo, hi):
    u = rng.normal(size=3)
    return np.asarray(center) + RADIUS * rng.uniform(lo, hi) * u / np.linalg.norm(u)


class Degree(Workload):
    """Degree certifications on sphere probes: spatially coherent mesh
    points, plus one multi-target inv_check and one nesting probe."""

    name = "degree"

    def make_inputs(self):
        rng = self.rng
        jitter = rng.uniform(-CENTER_JITTER, CENTER_JITTER, 2)
        seeded = (TAME_CENTER[0] + jitter[0], TAME_CENTER[1], TAME_CENTER[2] + jitter[1])
        self.centers = [TAME_CENTER, seeded]
        # per stage: the image of the fixed center (degree 1) and the image
        # of a point outside the seeded ball (degree 0)
        self.probes = []
        for vk in self.stages:
            fwd = self.stage[vk].forward
            outside = _sphere_point(rng, seeded, 2.0, 3.0)
            self.probes.append((vk, TAME_CENTER, fwd(np.asarray(TAME_CENTER)), 1))
            self.probes.append((vk, seeded, fwd(outside), 0))
        self.inv_seed = _seeds(rng, 1)[0]
        inner = np.array([_sphere_point(rng, TAME_CENTER, 0.0, 0.8)
                          for _ in range(MULTI_TARGETS)])
        self.nest_targets = self.stage[("T1", 3)].forward_many(inner)

    def round(self):
        deg = self.h.degree
        ops = []
        for vk, c, y, expected in self.probes:
            st = self.stage[vk]
            label = f"{vk[0]} k={vk[1]} center={np.round(c, 4).tolist()} expect {expected}"
            ops.append(Op(f"degree {label}",
                          lambda st=st, c=c, y=y: deg.degree(
                              st, deg.SphereProbe(tuple(c), RADIUS, REFINEMENT), y),
                          lambda rep, e=expected, label=label: checks.degree_is(rep, e, label)))
        st = self.stage[("T1", 3)]
        ops.append(Op("inv_check T1 k=3",
                      lambda: deg.inv_check(st, self.centers[1], RADIUS, MULTI_TARGETS,
                                            MULTI_TARGETS, seed=self.inv_seed,
                                            refinement=REFINEMENT),
                      lambda rep: [] if rep.passed else [f"inv_check violations: {rep}"]))
        ops.append(Op("nesting_probe T1 k=3",
                      lambda: deg.nesting_probe(st, TAME_CENTER, RADIUS, 1.6 * RADIUS,
                                                self.nest_targets,
                                                refinement=REFINEMENT),
                      lambda bad: [] if bad == 0 else [f"nesting_probe: {bad} violations"]))
        return ops

    def final_checks(self):
        deg = self.h.degree
        unit = deg.SphereProbe((0.0, 0.0, 0.0), 1.0, 2)
        box = ((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2))
        bad = []
        for name, fixture, y in FIXTURES:
            got = deg.degree(fixture, unit, y).degree
            oracle = deg.signed_preimage_count(fixture, y, box, grid=7)
            if got != oracle:
                bad.append(f"fixture {name}: degree {got}, signed preimages {oracle}")
        return bad


def _identity(x):
    return np.asarray(x, dtype=float)


def _reflection(x):
    x = np.asarray(x, dtype=float)
    return np.array([x[0] + 0.05, x[1], -x[2]])


def _doubling(x):
    return 2.0 * np.asarray(x, dtype=float)


FIXTURES = (
    ("identity", _identity, (0.0, 0.0, 0.0)),
    ("reflection", _reflection, (0.05, 0.0, 0.0)),
    ("doubling", _doubling, (0.1, 0.0, 0.0)),
)

WORKLOADS = {w.name: w for w in (Cauchy, Survey, Degree)}
