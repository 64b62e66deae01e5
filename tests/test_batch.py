"""The batched factor maps and the instruments that call them.

Every ``forward_many`` / ``inverse_many`` runs the float operations of the
pointwise body on each row, so batch and pointwise results are compared
bit for bit, signs of zeros included, on points at half-open faces, frame
radii (the ``tests/test_descent.py`` strategies) and tentacle tube
interfaces.  A batch with a row the pointwise body rejects must raise the
same error.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_descent import TOWERS, A, B, set_points, tower_points

from homlim import analysis, tentacles
from homlim.composite import VARIANTS, build_stage
from homlim.degree import DegreeReport, SphereProbe, degree, inv_check, nesting_probe
from homlim.errors import DomainError
from homlim.geometry import tower_slots
from homlim.tentacles import (
    SqueezeStage,
    StretchStage,
    _knot_lists,
    shift_forward,
    solve_parameters,
)

SQ = solve_parameters(3, 4.0, "demo", "squeeze", 4)
ST = solve_parameters(3, 4.0, "demo", "stretch", 4)
HEIGHTS = [s[-1] for s in tower_slots(3)]
STAGES = {(v, k): build_stage(v, k) for v in VARIANTS for k in range(1, 5)}
TENTACLES = {(cls, k): cls(sched, k) for cls, sched in ((SqueezeStage, SQ), (StretchStage, ST))
             for k in range(1, 5)}


def nudged(draw, value):
    """``value`` moved by up to two ulps either way."""
    for _ in range(draw(st.integers(0, 2))):
        value = float(np.nextafter(value, draw(st.sampled_from([-np.inf, np.inf]))))
    return value


@st.composite
def tube_points(draw, sched, squeezed, levels=None, exact_radius=False):
    """A point of [-1,1]^3 at an interface of a level-j tentacle tube, j up
    to ``levels``: its axial coordinate at a knot plane or a tube end, its
    transverse ones at the tube width d_j, the clamp width b_j or the axis,
    each within two ulps, or anywhere in the tube.

    The last coordinate is stored as an offset from the tube center
    height, so it is read back to about 1e-16 only.  With ``exact_radius``
    that offset stays within b_j/2 of the axis, and the transverse radius
    the stage maps see is the exact x_2 or below b_j."""
    j = draw(st.integers(1, levels or len(sched.levels)))
    lv = sched.level(j)
    heights = draw(st.lists(st.sampled_from(HEIGHTS), min_size=j, max_size=j))
    end = lv.c_sq if squeezed else lv.c
    ts, _ = _knot_lists(lv, sched.family, 0.0)
    t = nudged(draw, draw(st.sampled_from(ts + (end,)) | st.floats(lv.r_hat, end)))
    radial = st.sampled_from([0.0, -0.0, lv.b, -lv.b, lv.d, -lv.d]) | st.floats(-lv.d, lv.d)
    p1 = nudged(draw, draw(radial))
    p2 = draw(st.floats(-0.5 * lv.b, 0.5 * lv.b)) if exact_radius else nudged(draw, draw(radial))
    return chart_point(sched, heights, (t, p1, p2))


def chart_point(sched, heights, w):
    """The point of the tentacle with slot heights ``heights`` whose
    straight-chart coordinates are w."""
    w = (w[0], w[1], sched.center_height(heights) + w[2])
    return shift_forward(sched, [(h,) for h in heights], w)


def outcome(fn, x):
    try:
        return fn(x)
    except Exception as exc:  # both sides must fail alike
        return type(exc)


def bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def check_rows(many, one, pts):
    """``many`` on the batch agrees with ``one`` on each row: bit for bit,
    or raising the error the first failing row raises."""
    pts = np.array(pts, dtype=float).reshape(-1, 3)
    rows = [outcome(one, x) for x in pts]
    errors = [r for r in rows if isinstance(r, type)]
    got = outcome(many, pts)
    if errors:
        assert got is errors[0]
    else:
        assert bit_equal(got, np.array(rows).reshape(pts.shape))
    # a batch of one row takes the same path as the row
    for x, want in zip(pts, rows):
        one_row = outcome(many, x[None, :])
        assert one_row is want if isinstance(want, type) else bit_equal(one_row[0], want)


def pull_back(stage, pts):
    """The points that the first two factors of a T2 or W stage, L o g,
    carry to ``pts`` (up to rounding): g^{-1} L^{-1} of each."""
    (L, _), (g_inv, _) = stage.chain[-2:]
    return np.array([g_inv.forward(L.inverse(p)) for p in pts])


ANY_POINTS = (st.lists(set_points(A), max_size=5), st.lists(set_points(B), max_size=5),
              st.lists(tower_points(), max_size=5))


class TestFactorsBatchedEqualPointwise:
    @given(st.integers(1, 4), st.lists(tower_points(), min_size=1, max_size=8),
           st.lists(set_points(B), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_tower(self, k, tower_pts, set_pts):
        L = TOWERS[k]
        pts = np.array(tower_pts + set_pts)
        check_rows(L.forward_many, L.forward, pts)
        check_rows(L.inverse_many, L.inverse, pts)

    @given(st.integers(1, 4), st.sampled_from([SqueezeStage, StretchStage]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_tentacle_stages(self, k, cls, data):
        h = TENTACLES[(cls, k)]
        pts = data.draw(st.lists(tube_points(h.sched, squeezed=data.draw(st.booleans())),
                                 min_size=1, max_size=10))
        pts += data.draw(st.lists(tower_points(), max_size=4))
        check_rows(h.forward_many, h.forward, pts)
        check_rows(h.inverse_many, h.inverse, pts)


class TestCompositesBatchedEqualPointwise:
    @given(st.sampled_from(VARIANTS), st.integers(1, 4), *ANY_POINTS)
    @settings(max_examples=80, deadline=None)
    def test_faces_and_frames(self, variant, k, a_pts, b_pts, tower_pts):
        stage = STAGES[(variant, k)]
        pts = np.array(a_pts + b_pts + tower_pts + [np.zeros(3)])
        check_rows(stage.forward_many, stage.forward, pts)
        if variant != "FL":
            check_rows(stage.inverse_many, stage.inverse, pts)

    @given(st.sampled_from(["T1", "T2", "W"]), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_tube_interfaces(self, variant, k, data):
        stage = STAGES[(variant, k)]
        sched = stage.schedule
        squeezed = data.draw(st.booleans())  # the tubes forward or inverse descends
        pts = np.array(data.draw(st.lists(tube_points(sched, squeezed), min_size=1, max_size=6)))
        if variant != "T1":  # T2 and W meet the tubes behind L o g
            pts = np.clip(pull_back(stage, pts), -1, 1)
        check_rows(stage.forward_many, stage.forward, pts)
        check_rows(stage.inverse_many, stage.inverse, pts)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_batch(self, variant):
        assert STAGES[(variant, 2)].forward_many(np.empty((0, 3))).shape == (0, 3)

    def test_forward_many_rejects_a_row_outside_the_cube(self):
        pts = np.zeros((5, 3))
        pts[3, 1] = -1.0000000000000002
        with pytest.raises(DomainError, match="outside"):
            STAGES[("T1", 2)].forward_many(pts)

    def test_fl_inverse_many_raises(self):
        with pytest.raises(DomainError, match="no inverse"):
            STAGES[("FL", 2)].inverse_many(np.zeros((4, 3)))


class TestBatchErrors:
    """A batch raises the error of its first bad row, as a loop over the
    rows does, whatever the level and the check that row fails.  Valid
    schedules give no bad tube rows, so the stage is bent: its tubes run
    on to t = 1, past the last axial knot c_j, and the modulation is 10
    beyond half the tube width, which unorders the knots."""

    KINDS = {"good": ((1e-3, 0.02), None), "out_of_range": ((1e-3, 0.02), DomainError),
             "unsorted": ((0.6, 0.9), ValueError)}

    @given(st.lists(st.tuples(st.sampled_from(sorted(KINDS)), st.integers(1, 2),
                              st.sampled_from(HEIGHTS), st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_tentacle_stage(self, rows):
        h = SqueezeStage(SQ, 2)
        h._tube_end = lambda lv, squeezed: 1.0
        modulation = tentacles._modulation
        pts, wants = [], []
        for kind, level, height, u, v in rows:
            (lo, hi), want = self.KINDS[kind]
            level = 1 if kind != "unsorted" else level
            lv = SQ.level(level)
            t = lv.c + u * (1.0 - lv.c) if kind == "out_of_range" else lv.r_hat + u * (lv.c - lv.r_hat)
            if kind == "out_of_range":
                # past the last knot, inside the half-open tube [r_hat, 1)
                t = float(np.clip(t, np.nextafter(lv.c, 1.0), np.nextafter(1.0, 0.0)))
            perp = (lo + v * (hi - lo)) * (lv.d if kind == "unsorted" else 1.0)
            pts.append(chart_point(SQ, [height] * level, (t, perp, 0.0)))
            wants.append(want)
        with mock.patch.object(tentacles, "_modulation",
                               lambda lv, rho: (10.0, 0.0) if rho > 0.5 * lv.d else modulation(lv, rho)):
            got = [outcome(h.forward, p) for p in pts]
            assert [g if isinstance(g, type) else None for g in got] == wants
            check_rows(h.forward_many, h.forward, pts)


class TestRoundtripsAtStageFour:
    """The stage-4 tower and tentacle maps invert their batches at frame
    radii t = r_k, r'_k and at tube interfaces."""

    @given(st.lists(set_points(B), min_size=1, max_size=8),
           st.lists(tower_points(), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_tower(self, set_pts, tower_pts):
        L = TOWERS[4]
        x = np.array(set_pts)
        assert np.max(np.abs(L.inverse_many(L.forward_many(x)) - x)) < 1e-12
        y = np.array(tower_pts)
        assert np.max(np.abs(L.forward_many(L.inverse_many(y)) - y)) < 1e-12

    @given(st.sampled_from([(SqueezeStage, False, 4), (StretchStage, True, 2)]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_tentacle_stages(self, case, data):
        # in-tube inversion conditioning degrades with the tube aspect ratio
        # (see tests/test_tentacles.py); outside the tubes both maps are the
        # identity.  Left out here, and shown to fail below: a transverse
        # radius read to 1e-16 only, and the stretch tubes of levels 3 and
        # 4, whose widths d_3 = 2e-16 and d_4 = 4e-45 are below that.
        cls, squeezed, levels = case
        h = TENTACLES[(cls, 4)]
        x = data.draw(st.lists(tube_points(h.sched, squeezed, levels, exact_radius=True),
                               min_size=1, max_size=8))
        # a point near the axis of a level-2 tube can lie in a level-3 one
        x = np.array([p for p in x if h._descend(p, squeezed)[0] <= levels]).reshape(-1, 3)
        # level-3 squeeze tubes: up to 5e-7 in 20 000 examples
        assert np.max(np.abs(h.inverse_many(h.forward_many(x)) - x), initial=0.0) < 1e-5

    @pytest.mark.xfail(strict=True, reason="the stage maps do not invert to 1e-6 there")
    @pytest.mark.parametrize("cls,level,height,t,perp", [
        (StretchStage, 2, -0.125, 3 * ST.level(2).r_hat, ST.level(2).b),
        (StretchStage, 3, 0.875, ST.level(3).a_sq, 0.0),
        (SqueezeStage, 4, -0.125, 0.5 * (SQ.level(4).r_hat + SQ.level(4).c), SQ.level(4).b),
    ])
    def test_tentacle_stages_fail_at_the_float_resolution(self, cls, level, height, t, perp):
        # the last coordinate's offset from the center height is read to
        # about 1e-16, which moves the modulation e by up to 1e-16 / (rho
        # log 1/rho), and the inverse axial slope multiplies that: too much
        # on the modulation annulus b_j < rho < d_j of these tubes; and the
        # stretch tubes of levels 3 and 4 are thinner than 1e-16
        h = TENTACLES[(cls, 4)]
        x = chart_point(h.sched, [height] * level, (t, 0.0, perp))[None, :]
        assert np.max(np.abs(h.inverse_many(h.forward_many(x)) - x)) < 1e-6


class _Pointwise:
    """A stage without ``forward_many``."""

    def __init__(self, stage):
        self.k, self.beta = stage.k, stage.beta
        self.forward, self.derivative = stage.forward, stage.derivative


def reflection(x):
    x = np.asarray(x, dtype=float)
    assert x.shape == (3,)  # a plain callable is called one point at a time
    return np.array([x[0] + 0.05, x[1], -x[2]])


class TestInstruments:
    def test_plain_callable_degree(self):
        rep = degree(reflection, SphereProbe((0.0, 0.0, 0.0), 1.0, 2), (0.05, 0.0, 0.0))
        assert rep == DegreeReport(-1, -1.0, 0.9999999999999999, 3,
                                   [(2, -1.0, 0.9999999999999999),
                                    (3, -1.0, 0.9999999999999999)])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stage_degree_matches_pointwise(self, variant):
        stage = STAGES[(variant, 3)]
        center = (0.55, 0.09, 0.25)
        probe = SphereProbe(center, 0.05, 3)
        y = stage.forward(np.array(center))
        assert degree(stage, probe, y) == degree(_Pointwise(stage), probe, y)

    def test_inv_check_and_nesting_match_pointwise(self):
        stage = STAGES[("T1", 2)]
        center = (0.55, 0.09, 0.25)
        rep = inv_check(stage, center, 0.05, 6, 6, refinement=3)
        assert rep.passed and rep == inv_check(_Pointwise(stage), center, 0.05, 6, 6,
                                               refinement=3)
        ys = stage.forward_many(np.array(center) + 0.01 * np.eye(3))
        assert (nesting_probe(stage, center, 0.05, 0.08, ys)
                == nesting_probe(_Pointwise(stage), center, 0.05, 0.08, ys) == 0)

    def test_boundary_check_of_no_samples(self):
        for stage in (STAGES[("T1", 2)], _Pointwise(STAGES[("T1", 2)]), reflection):
            assert analysis.boundary_identity_check(stage, 3, 0) == (True, 0.0)

    @pytest.mark.parametrize("variant", ["T1", "W"])
    def test_survey_and_boundary_match_pointwise(self, variant):
        stage = STAGES[(variant, 2)]
        cfg = analysis.QuadratureConfig(seed=3)
        got = analysis.jacobian_survey(stage, 150, cfg)
        want = analysis.jacobian_survey(_Pointwise(stage), 150, cfg)
        assert (got.fraction_positive, got.min_det) == (want.fraction_positive, want.min_det)
        assert [d for _, d in got.exceptions] == [d for _, d in want.exceptions]
        assert (analysis.boundary_identity_check(stage, 3, 20, seed=2)
                == analysis.boundary_identity_check(_Pointwise(stage), 3, 20, seed=2))
