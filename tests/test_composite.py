from collections import Counter
from contextlib import ExitStack
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import reference_maps as ref
from hypothesis import given, settings
from hypothesis import strategies as hst

from homlim import _kernels, cantor_map
from homlim.analysis import (
    QuadratureConfig,
    _sample_words,
    _tube_integral,
    _tube_nodes,
    make_rng,
)
from homlim.cantor_map import CantorHomeomorphism
from homlim.composite import (
    AxisCollapse,
    build_stage,
    continuum_witness,
)
from homlim.errors import DomainError
from homlim.geometry import (
    Address,
    ParameterSchedule,
    cell_center,
    cube_vertices,
    harmonic_schedule,
)
from homlim.tentacles import (
    SQUEEZE,
    STRETCH,
    SqueezeStage,
    StretchStage,
    _TentacleStage,
    solve_parameters,
)
from homlim.tower import TowerMapping


class TestCompositions:
    def test_t1_boundary_corner(self):
        assert np.array_equal(build_stage("T1", 2).forward((1.0, 1.0, 1.0)), (1.0, 1.0, 1.0))

    def test_t1_stage_one_frame_example(self):
        # squeeze and relocation are the identity there; only the
        # nested-cube inverse acts, with profile slope 1/2
        st = build_stage("T1", 1)
        assert np.allclose(st.forward((0.9, 0.9, 0.9)), (0.95, 0.95, 0.95))

    @pytest.mark.parametrize("variant", ["T1", "T2", "W"])
    def test_roundtrips(self, variant):
        st = build_stage(variant, 3)
        rng = np.random.default_rng(3)
        for x in rng.uniform(-1, 1, (200, 3)):
            assert np.max(np.abs(st.inverse(st.forward(x)) - x)) < 1e-10

    def test_w_is_generalized_inverse_of_t2(self):
        t2, w = build_stage("T2", 3), build_stage("W", 3)
        rng = np.random.default_rng(4)
        for x in rng.uniform(-1, 1, (200, 3)):
            assert np.max(np.abs(w.forward(t2.forward(x)) - x)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            build_stage("T1", 1).forward((1.5, 0.0, 0.0))

    def test_fl_has_no_inverse(self):
        with pytest.raises(DomainError):
            build_stage("FL", 1).inverse((0.1, 0.1, 0.1))

    def test_derivative_chain_matches_fd(self):
        st = build_stage("T1", 2)
        rng = np.random.default_rng(5)
        ok = 0
        for x in rng.uniform(-0.95, 0.95, (40, 3)):
            da = st.derivative(x)
            df = np.empty((3, 3))
            for d in range(3):
                e = np.zeros(3)
                e[d] = 1e-8
                df[:, d] = (st.forward(x + e) - st.forward(x - e)) / 2e-8
            if np.max(np.abs(da - df)) / max(1.0, np.abs(da).max()) < 1e-4:
                ok += 1
        assert ok >= 36



@lru_cache(maxsize=None)
def written_out(variant, k):
    """forward, inverse and derivative of a stage written out factor by
    factor from separately built factor maps, in the order of the paper's
    formulas (g^{-1} is the Cantor map with the schedules swapped); the
    Jacobians of L^{-1} and h~^{-1} come from the closed-form reference
    bodies."""
    A = ParameterSchedule(n=3, beta=4.0, kind="A")
    B = ParameterSchedule(n=3, beta=4.0, kind="B")
    g, g_inv, L = CantorHomeomorphism(A, B, k), CantorHomeomorphism(B, A, k), TowerMapping(B, k)
    inv_jac = ref.inverse_derivative
    if variant == "T1":
        h = SqueezeStage(solve_parameters(3, 4.0, "demo", SQUEEZE, k), k)

        def forward(x):
            return g_inv.forward(L.inverse(h.forward(x)))

        def inverse(y):
            return h.inverse(L.forward(g.forward(y)))

        def derivative(x):
            x1 = h.forward(x)
            return g_inv.derivative(L.inverse(x1)) @ (inv_jac(L, x1) @ h.derivative(x))

        return forward, inverse, derivative
    h = StretchStage(solve_parameters(3, 4.0, "demo", STRETCH, k), k)
    # W runs the stretch backwards: W = g^{-1} L^{-1} h~^{-1} L g
    mid, mid_back = (h.forward, h.inverse) if variant == "T2" else (h.inverse, h.forward)

    def forward(x):
        return g_inv.forward(L.inverse(mid(L.forward(g.forward(x)))))

    def inverse(y):
        return g_inv.forward(L.inverse(mid_back(L.forward(g.forward(y)))))

    def derivative(x):
        y1 = g.forward(x)
        y2 = L.forward(y1)
        d = L.derivative(y1) @ g.derivative(x)
        d = (h.derivative(y2) if variant == "T2" else inv_jac(h, y2)) @ d
        y3 = mid(y2)
        d = inv_jac(L, y3) @ d
        return g_inv.derivative(L.inverse(y3)) @ d

    return forward, inverse, derivative


def outcome(fn, x):
    try:
        return fn(x)
    except Exception as exc:  # both sides must fail alike
        return type(exc)


def bit_equal(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@lru_cache(maxsize=None)
def tube_nodes(variant, k):
    """Quadrature nodes of two level-k tubes, where every factor acts."""
    cfg = QuadratureConfig(resolution=4, axial_resolution=2, axial_levels=2,
                           transverse_resolution=2, cells_cap=2)
    sched = build_stage(variant, k).schedule
    nodes = []
    words, _ = _sample_words(3, k, 2, make_rng(k))
    for word in words:
        _tube_integral(sched, k, word, lambda x: nodes.append(x.copy()) or 0.0, cfg)
    return np.array(nodes[::3])


STAGES = [(v, k) for v in ("T1", "T2", "W") for k in (1, 2, 3)]


class TestChainFold:
    """The folded chain gives the written-out compositions bit for bit."""

    @staticmethod
    def check(variant, k, points):
        stage = build_stage(variant, k)
        methods = (stage.forward, stage.inverse, stage.derivative)
        for x in points:
            for got, want in zip(methods, written_out(variant, k)):
                assert bit_equal(outcome(got, x), outcome(want, x)), (variant, k, x)

    @given(hst.sampled_from(STAGES),
           hst.lists(hst.tuples(*[hst.floats(-1, 1, allow_nan=False)] * 3),
                     min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_points(self, stage, pts):
        self.check(*stage, np.array(pts, dtype=float))

    @pytest.mark.parametrize("variant,k", STAGES)
    def test_tube_nodes(self, variant, k):
        self.check(variant, k, tube_nodes(variant, k))

    # descents of the Cantor maps, the tower and the tentacle stages: each
    # factor of the chain is walked once, by its joint image-and-Jacobian
    # call in the direction of the chain, L^{-1} and h~^{-1} included
    WALKS = {"T1": {"descend_set": 1, "_walk_rows": 1, "_descend_rows": 1},
             "T2": {"descend_set": 2, "_walk_rows": 2, "_descend_rows": 1},
             "W": {"descend_set": 2, "_walk_rows": 2, "_descend_rows": 1}}

    @pytest.mark.parametrize("variant", ["T1", "T2", "W"])
    def test_derivative_walks_each_forward_factor_once(self, variant):
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return mock.patch.object(owner, name, wrapper)

        stage = build_stage(variant, 2)
        pts = np.array([[0.3, -0.2, 0.5], [0.55, 0.09, 0.25], [0.0, 0.0, 0.0]])
        with ExitStack() as patches:
            for owner, name in ((cantor_map, "descend_set"), (_kernels, "descend_set"),
                                (TowerMapping, "_walk_rows"), (_TentacleStage, "_descend_rows"),
                                (CantorHomeomorphism, "forward_many"),
                                (TowerMapping, "forward_many"), (_TentacleStage, "forward_many"),
                                (TowerMapping, "inverse_many"), (_TentacleStage, "inverse_many")):
                patches.enter_context(counted(owner, name))
            stage.derivative_many(pts)
        assert calls == Counter(self.WALKS[variant])  # and no forward_many or inverse_many

    def test_w_jacobians_are_finite_at_level_3_tube_nodes(self):
        # the stretch tube nodes of level 3 pulled back through (L o g)^{-1}:
        # there the stretch Jacobian has entries near 1e12 and is singular
        # in floats at 108 of the 324 nodes, so no inversion of it may
        # enter the Jacobian of W
        stage = build_stage("W", 3)
        cfg = QuadratureConfig(resolution=4, axial_resolution=2, axial_levels=2,
                               transverse_resolution=2)
        words, _ = _sample_words(3, 3, 2, make_rng(3))
        nodes = np.concatenate([_tube_nodes(stage.schedule, 3, word, cfg)[0] for word in words])
        assert len(nodes) == 324
        (L, _), (g, _) = stage.chain[-2:]
        jac = stage.derivative_many(g.inverse_many(L.inverse_many(nodes)))
        assert np.isfinite(jac).all()

    def test_fl_inverse_and_derivative_raise(self):
        st = build_stage("FL", 2)
        with pytest.raises(DomainError, match="no inverse"):
            st.inverse((0.1, 0.2, 0.3))
        with pytest.raises(DomainError, match="finite differences"):
            st.derivative((0.1, 0.2, 0.3))

class TestWitness:
    def test_t1_endpoints_and_collapse(self):
        diams = []
        for k in range(1, 5):
            wit = continuum_witness([(1, 1, 1)] * k, k, "T1")
            assert wit.endpoint_separation >= 0.9
            diams.append(wit.image_diameter)
        assert all(b < a for a, b in zip(diams, diams[1:]))
        assert diams[-1] / diams[0] <= 0.2

    def test_cell_endpoint_maps_to_target(self):
        from homlim.geometry import ParameterSchedule

        A = ParameterSchedule(n=3, beta=4.0, kind="A")
        for k in (1, 2, 3):
            wit = continuum_witness([(1, 1, 1)] * k, k, "T1")
            err = np.max(np.abs(wit.images[-1] - wit.target_point))
            assert err <= A.r(k)

    def test_t2_collapse(self):
        diams = []
        for k in range(1, 5):
            wit = continuum_witness([(1, 1, 1)] * k, k, "T2")
            assert wit.endpoint_separation >= 0.5
            diams.append(wit.image_diameter)
        assert all(b < a for a, b in zip(diams, diams[1:]))
        assert diams[-1] / diams[0] <= 0.2

    def test_word_length_must_match_stage(self):
        with pytest.raises(ValueError):
            continuum_witness([(1, 1, 1)], 2, "T1")


class TestAxisCollapse:
    def test_axis_goes_to_origin(self):
        s = AxisCollapse(3)
        assert np.allclose(s.forward((0.0, 0.0, 0.7)), (0.0, 0.0, 0.0))

    def test_identity_on_boundary(self):
        s = AxisCollapse(3)
        x = np.array([1.0, 0.3, -0.2])
        assert np.allclose(s.forward(x), x)

    def test_fl_boundary_identity(self):
        st = build_stage("FL", 2)
        rng = np.random.default_rng(0)
        for axis in range(3):
            for side in (-1.0, 1.0):
                pts = rng.uniform(-1, 1, (20, 3))
                pts[:, axis] = side
                for x in pts:
                    assert np.max(np.abs(st.forward(x) - x)) < 1e-15

    def test_fl_collapse_rate(self):
        hs = harmonic_schedule(3)
        rng = np.random.default_rng(5)
        prev = None
        for k in (1, 2, 3, 4):
            st = build_stage("FL", k)
            pts = []
            for _ in range(60):
                word = tuple(tuple(cube_vertices(3)[rng.integers(8)]) for _ in range(k))
                c = cell_center(hs, Address("setA", word))
                pts.append(c + hs.r(k) * rng.uniform(-0.95, 0.95, 3))
            ims = st.forward_many(np.array(pts))
            diam = np.sqrt(((ims[:, None] - ims[None]) ** 2).sum(-1)).max()
            if prev is not None:
                assert diam <= prev / 2
            prev = diam

    def test_fl_lipschitz_quotients_bounded(self):
        rng = np.random.default_rng(6)
        cap = 2000.0  # pinned k-independent bound (see per-factor envelopes)
        for k in (1, 2, 3, 4):
            st = build_stage("FL", k)
            p = rng.uniform(-1, 1, (150, 3))
            q = np.clip(p + rng.uniform(-1e-3, 1e-3, (150, 3)), -1, 1)
            for a, b in zip(p, q):
                if np.linalg.norm(a - b) == 0:
                    continue
                quot = np.linalg.norm(st.forward(a) - st.forward(b)) / np.linalg.norm(a - b)
                assert quot < cap
