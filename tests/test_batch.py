"""The batched factor maps and the instruments that call them.

Every ``forward_many`` / ``inverse_many`` runs, on each row, the float
operations of the point-at-a-time reference bodies of
``tests/reference_maps.py``, so batch and reference are compared bit for
bit, signs of zeros included, on points at half-open faces, frame radii
(the ``tests/test_descent.py`` strategies) and tentacle tube interfaces.
A batch with a row the reference rejects must raise the same error.  The
same holds for every ``derivative_many``, except that zero signs may
differ.  The pointwise methods are one-row batches, and a batch gives
each row what a one-row call gives it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_maps as ref
from test_descent import TOWERS, A, B, set_points, tower_points

from homlim import analysis
from homlim.cantor_map import CantorHomeomorphism
from homlim.composite import VARIANTS, AxisCollapse, build_stage
from homlim.degree import DegreeReport, SphereProbe, degree, inv_check, nesting_probe
from homlim.errors import DomainError
from homlim.geometry import cell_center, cube_vertices, tower_slots
from homlim.tentacles import (
    SqueezeStage,
    StretchStage,
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
    each within two ulps, or anywhere in the tube; the last one also at a
    boundary of the slot tiles the descent bins level j by, nu_j(t)/2^n
    off the tube's center height.

    The last coordinate is stored as an offset from the tube center
    height, so it is read back to about 1e-16 only.  With ``exact_radius``
    that offset stays within b_j/2 of the axis, and the transverse radius
    the stage maps see is the exact x_2 or below b_j."""
    j = draw(st.integers(1, levels or len(sched.levels)))
    lv = sched.level(j)
    heights = draw(st.lists(st.sampled_from(HEIGHTS), min_size=j, max_size=j))
    end = lv.c_sq if squeezed else lv.c
    t = nudged(draw, draw(st.sampled_from(lv.ts + (end,)) | st.floats(lv.r_hat, end)))
    radial = st.sampled_from([0.0, -0.0, lv.b, -lv.b, lv.d, -lv.d]) | st.floats(-lv.d, lv.d)
    p1 = nudged(draw, draw(radial))
    if exact_radius:
        p2 = draw(st.floats(-0.5 * lv.b, 0.5 * lv.b))
    else:
        edge = ref.slot_pitch(lv, t) / len(HEIGHTS)
        p2 = nudged(draw, draw(radial | st.sampled_from([edge, -edge])))
    return chart_point(sched, heights, (t, p1, p2))


def chart_point(sched, heights, w):
    """The point of the tentacle with slot heights ``heights`` whose
    straight-chart coordinates are w."""
    w = (w[0], w[1], sched.center_height(heights) + w[2])
    return ref.shift_forward(sched, [(h,) for h in heights], w)


def outcome(fn, x):
    try:
        return fn(x)
    except Exception as exc:  # both sides must fail alike
        return type(exc)


def bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def check_rows(many, one, pts, equal=bit_equal):
    """``many`` on the batch agrees with the reference ``one`` on each row
    (bit for bit unless ``equal`` says otherwise), or raises the error the
    first failing row raises."""
    pts = np.array(pts, dtype=float).reshape(-1, 3)
    rows = [outcome(one, x) for x in pts]
    errors = [r for r in rows if isinstance(r, type)]
    got = outcome(many, pts)
    if errors:
        assert got is errors[0]
    else:
        assert len(got) == len(pts) and all(equal(g, r) for g, r in zip(got, rows))
    # a batch of one row takes the same path as the row
    for x, want in zip(pts, rows):
        one_row = outcome(many, x[None, :])
        assert one_row is want if isinstance(want, type) else equal(one_row[0], want)


def inverse_jacobians(f):
    """The Jacobians of f^{-1} from f's inverse walk, as a function of the
    (N, n) array of points it is walked from."""
    return lambda pts: f._walk_rows(pts, inverse=True, jacobian=True)[1]


def pull_back(stage, pts):
    """The points that the first two factors of a T2 or W stage, L o g,
    carry to ``pts`` (up to rounding): g^{-1} L^{-1} of each."""
    (L, _), (g, _) = stage.chain[-2:]
    return np.array([g.inverse(L.inverse(p)) for p in pts])


ANY_POINTS = (st.lists(set_points(A), max_size=5), st.lists(set_points(B), max_size=5),
              st.lists(tower_points(), max_size=5))


class TestFactorsBatchedEqualPointwise:
    @given(st.integers(1, 4), st.lists(tower_points(), min_size=1, max_size=8),
           st.lists(set_points(B), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_tower(self, k, tower_pts, set_pts):
        L = TOWERS[k]
        pts = np.array(tower_pts + set_pts)
        check_rows(L.forward_many, lambda x: ref.tower_forward(L, x), pts)
        check_rows(L.inverse_many, lambda x: ref.tower_inverse(L, x), pts)

    @given(st.integers(1, 4), st.sampled_from([SqueezeStage, StretchStage]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_tentacle_stages(self, k, cls, data):
        h = TENTACLES[(cls, k)]
        pts = data.draw(st.lists(tube_points(h.sched, squeezed=data.draw(st.booleans())),
                                 min_size=1, max_size=10))
        pts += data.draw(st.lists(tower_points(), max_size=4))
        check_rows(h.forward_many, lambda x: ref.tentacle_forward(h, x), pts)
        check_rows(h.inverse_many, lambda x: ref.tentacle_inverse(h, x), pts)


class TestCompositesBatchedEqualPointwise:
    @given(st.sampled_from(VARIANTS), st.integers(1, 4), *ANY_POINTS)
    @settings(max_examples=80, deadline=None)
    def test_faces_and_frames(self, variant, k, a_pts, b_pts, tower_pts):
        stage = STAGES[(variant, k)]
        pts = np.array(a_pts + b_pts + tower_pts + [np.zeros(3)])
        check_rows(stage.forward_many, lambda x: ref.stage_forward(stage, x), pts)
        if variant != "FL":
            check_rows(stage.inverse_many, lambda x: ref.stage_inverse(stage, x), pts)

    @given(st.sampled_from(["T1", "T2", "W"]), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_tube_interfaces(self, variant, k, data):
        stage = STAGES[(variant, k)]
        sched = stage.schedule
        squeezed = data.draw(st.booleans())  # the tubes forward or inverse descends
        pts = np.array(data.draw(st.lists(tube_points(sched, squeezed), min_size=1, max_size=6)))
        if variant != "T1":  # T2 and W meet the tubes behind L o g
            pts = np.clip(pull_back(stage, pts), -1, 1)
        check_rows(stage.forward_many, lambda x: ref.stage_forward(stage, x), pts)
        check_rows(stage.inverse_many, lambda x: ref.stage_inverse(stage, x), pts)

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


CANTOR = {(k, inverse): CantorHomeomorphism(*((B, A) if inverse else (A, B)), k)
          for k in range(1, 5) for inverse in (False, True)}
# directions whose largest |coordinate| ties: (1, 1, 0) and (1, 1, 1), with
# every order and sign
TIES = np.unique([np.multiply(signs, u) for u in ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
                  for signs in cube_vertices(3)], axis=0).astype(float)


def frame_points(sched, k, rng, words=3):
    """Points of the level-j cells of ``words`` sampled level-k words of
    ``sched``, j = 1, ..., k: at sup-norm offsets t = r_j, r'_j and midway
    from the cell center, along the directions ``TIES``."""
    letters = np.array(cube_vertices(3))
    pts = []
    for _ in range(words):
        word = [tuple(v) for v in letters[rng.integers(0, len(letters), k)]]
        for j in range(1, k + 1):
            z, r, r_out = cell_center(sched, word[:j]), sched.r(j), sched.r_outer(j)
            for t in (r, r_out, 0.5 * (r + r_out)):
                pts.append(z + t * TIES)
    return np.vstack(pts)


class TestDerivativeMany:
    """``derivative_many`` against the reference row by row (the Cantor
    maps against the closed form ``reference_maps.cantor_derivative``).
    Jacobians are compared with ``np.array_equal``, blind to signs of
    zeros: the reference's ``np.eye(n) @ d`` turns -0.0 into +0.0, and the
    batches skip such identity factors."""

    @given(st.integers(1, 4), st.booleans(), *ANY_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_cantor_maps(self, k, inverse, a_pts, b_pts, tower_pts):
        g = CANTOR[(k, inverse)]
        check_rows(g.derivative_many, lambda x: ref.derivative(g, x),
                   a_pts + b_pts + tower_pts + [np.zeros(3)], equal=np.array_equal)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_cantor_maps_at_frame_radii_and_ties(self, k, inverse):
        # the Jacobian's column m is the first coordinate of largest |xi|
        g = CANTOR[(k, inverse)]
        rng = np.random.default_rng(k)
        pts = np.vstack([frame_points(A, k, rng), frame_points(B, k, rng)])
        check_rows(g.derivative_many, lambda x: ref.cantor_derivative(g, x), pts,
                   equal=np.array_equal)
        check_rows(inverse_jacobians(g), lambda x: ref.cantor_derivative(g, x, inverse=True),
                   pts, equal=np.array_equal)

    @given(st.integers(1, 4), st.lists(tower_points(), min_size=1, max_size=6),
           st.lists(set_points(B), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_tower(self, k, tower_pts, set_pts):
        L = TOWERS[k]
        # the preimages of tower points sit where the moves act
        pts = np.array(tower_pts + set_pts)
        pts = np.vstack([pts, L.inverse_many(pts)])
        check_rows(L.derivative_many, lambda x: ref.tower_derivative(L, x), pts,
                   equal=np.array_equal)

    @given(st.integers(1, 4), st.sampled_from([SqueezeStage, StretchStage]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_tentacle_stages(self, k, cls, data):
        h = TENTACLES[(cls, k)]
        pts = data.draw(st.lists(tube_points(h.sched, squeezed=data.draw(st.booleans())),
                                 min_size=1, max_size=8))
        pts += data.draw(st.lists(tower_points(), max_size=3))
        check_rows(h.derivative_many, lambda x: ref.tentacle_derivative(h, x), pts,
                   equal=np.array_equal)

    @given(st.integers(1, 4), st.booleans(), *ANY_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_inverse_walk_of_cantor_maps(self, k, inverse, a_pts, b_pts, tower_pts):
        g = CANTOR[(k, inverse)]
        check_rows(inverse_jacobians(g), lambda x: ref.inverse_derivative(g, x),
                   a_pts + b_pts + tower_pts + [np.zeros(3)], equal=np.array_equal)

    @given(st.integers(1, 4), st.lists(tower_points(), min_size=1, max_size=6),
           st.lists(set_points(B), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_inverse_walk_of_tower(self, k, tower_pts, set_pts):
        L = TOWERS[k]
        # the images of set points sit where the inverse moves act
        pts = np.array(tower_pts + set_pts)
        pts = np.vstack([pts, L.forward_many(pts)])
        check_rows(inverse_jacobians(L), lambda x: ref.tower_inverse_derivative(L, x), pts,
                   equal=np.array_equal)

    @given(st.integers(1, 4), st.sampled_from([SqueezeStage, StretchStage]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverse_walk_of_tentacle_stages(self, k, cls, data):
        h = TENTACLES[(cls, k)]
        pts = data.draw(st.lists(tube_points(h.sched, squeezed=data.draw(st.booleans())),
                                 min_size=1, max_size=8))
        pts += data.draw(st.lists(tower_points(), max_size=3))
        check_rows(inverse_jacobians(h), lambda x: ref.tentacle_inverse_derivative(h, x), pts,
                   equal=np.array_equal)

    @given(st.sampled_from(["T1", "T2", "W"]), st.integers(1, 4), *ANY_POINTS)
    @settings(max_examples=40, deadline=None)
    def test_composites_at_faces_and_frames(self, variant, k, a_pts, b_pts, tower_pts):
        stage = STAGES[(variant, k)]
        check_rows(stage.derivative_many, lambda x: ref.stage_derivative(stage, x),
                   a_pts + b_pts + tower_pts + [np.zeros(3)], equal=np.array_equal)

    @given(st.sampled_from(["T1", "T2", "W"]), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_composites_at_tube_interfaces(self, variant, k, data):
        stage = STAGES[(variant, k)]
        pts = np.array(data.draw(st.lists(tube_points(stage.schedule, data.draw(st.booleans())),
                                          min_size=1, max_size=5)))
        if variant != "T1":  # T2 and W meet the tubes behind L o g
            pts = np.clip(pull_back(stage, pts), -1, 1)
        check_rows(stage.derivative_many, lambda x: ref.stage_derivative(stage, x), pts,
                   equal=np.array_equal)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_joint_call_is_forward_and_derivative(self, k, data):
        # the images and Jacobians of one walk, for every factor that has one
        pts = np.vstack([data.draw(st.lists(tower_points(), min_size=1, max_size=4)),
                         np.reshape(data.draw(st.lists(set_points(B), max_size=4)), (-1, 3))])
        for cls in (SqueezeStage, StretchStage):
            h = TENTACLES[(cls, k)]
            tubes = data.draw(st.lists(tube_points(h.sched, data.draw(st.booleans())),
                                       min_size=1, max_size=4))
            pts = np.vstack([pts, tubes])
        pts = np.vstack([pts, TOWERS[k].inverse_many(pts)])
        factors = [CANTOR[(k, False)], CANTOR[(k, True)], TOWERS[k],
                   TENTACLES[(SqueezeStage, k)], TENTACLES[(StretchStage, k)]]
        for f in factors:
            images, jac = f._walk_rows(pts, jacobian=True)
            assert bit_equal(images, f.forward_many(pts))
            assert np.array_equal(jac, f.derivative_many(pts))
            # the inverse walk's images are those of inverse_many, or both raise
            joint = outcome(lambda p: f._walk_rows(p, inverse=True, jacobian=True)[0], pts)
            want = outcome(f.inverse_many, pts)
            assert joint is want if isinstance(want, type) else bit_equal(joint, want)
        collapse = STAGES[("FL", k)].chain[-1][0]
        with pytest.raises(DomainError, match="finite differences"):
            collapse._walk_rows(pts, jacobian=True)

    def test_empty_batch(self):
        maps = [STAGES[(v, 2)] for v in ("T1", "T2", "W")]
        maps += [CANTOR[(2, False)], TOWERS[2], TENTACLES[(SqueezeStage, 2)]]
        for f in maps:
            assert f.derivative_many(np.empty((0, 3))).shape == (0, 3, 3)

    def test_fl_and_axis_collapse_raise(self):
        fl = STAGES[("FL", 2)]
        collapse = fl.chain[-1][0]
        assert isinstance(collapse, AxisCollapse)
        for f in (fl, collapse):
            with pytest.raises(DomainError, match="finite differences"):
                f.derivative_many(np.zeros((4, 3)))

    @pytest.mark.parametrize("variant", ["T1", "T2", "W"])
    def test_a_row_outside_the_cube_raises(self, variant):
        # the Cantor factors reject it, in the batch as on the row
        stage = STAGES[(variant, 2)]
        pts = np.zeros((5, 3))
        pts[3, 1] = -1.0000000000000002
        check_rows(stage.derivative_many, lambda x: ref.stage_derivative(stage, x), pts,
                   equal=np.array_equal)
        with pytest.raises(DomainError, match="outside"):
            stage.derivative_many(pts)


class TestInverseJacobians:
    """The closed-form Jacobian of an inverse walk is the inverse of the
    forward Jacobian: at seeded points off the interface surfaces, where
    the Jacobians jump, D(f^{-1})(f(x)) Df(x) = I up to rounding,
    ||D(f^{-1}) Df - I||_max <= 1e-12 ||D(f^{-1})||_F ||Df||_F (the
    rounding of a product is relative to the product of the norms; seen:
    3e-14), and where cond(Df) < 1e8, D(f^{-1}) agrees with
    np.linalg.inv(Df) to 1e-14 cond(Df) in the max norm relative to
    inv(Df) (an inversion is accurate to about eps cond; seen: 4e-13).
    The stretch tubes of levels 3 and 4 are thinner than the resolution of
    the last coordinate (TestRoundtripsAtStageFour), so the stretch stages
    are sampled in the tubes of levels 1 and 2 at every stage k."""

    @staticmethod
    def check(f, x):
        images, jac = f._walk_rows(x, jacobian=True)
        back, inv_jac = f._walk_rows(images, inverse=True, jacobian=True)
        assert np.max(np.abs(back - x)) < 1e-10
        norms = np.linalg.norm(inv_jac, axis=(1, 2)) * np.linalg.norm(jac, axis=(1, 2))
        err = np.abs(np.matmul(inv_jac, jac) - np.eye(3)).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * norms)
        cond = np.linalg.cond(jac)
        ok = cond < 1e8
        assert np.count_nonzero(ok) >= len(x) // 2
        want = np.linalg.inv(jac[ok])
        rel = np.abs(inv_jac[ok] - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert np.all(rel <= 1e-14 * cond[ok])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tower(self, k):
        L = TOWERS[k]
        rng = np.random.default_rng(k)
        # points of the cube and preimages of points of the cube: the
        # latter sit in the source cells, where the moves act
        self.check(L, np.vstack([rng.uniform(-1, 1, (500, 3)),
                                 L.inverse_many(rng.uniform(-1, 1, (500, 3)))]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("cls,sched,levels", [(SqueezeStage, SQ, 4), (StretchStage, ST, 2)])
    def test_tentacle_stages(self, cls, sched, levels, k):
        h = TENTACLES[(cls, k)]
        rng = np.random.default_rng(k)
        pts = []
        for _ in range(600):
            lv = sched.level(int(rng.integers(1, min(k, levels) + 1)))
            end = lv.c if cls is SqueezeStage else lv.c_sq  # the tubes forward descends
            heights = rng.choice(HEIGHTS, lv.k).tolist()
            # the last chart coordinate within b/2 of the axis, as in
            # tube_points(exact_radius=True)
            w = (rng.uniform(lv.r_hat, end), rng.uniform(-lv.d, lv.d),
                 rng.uniform(-0.5 * lv.b, 0.5 * lv.b))
            pts.append(chart_point(sched, heights, w))
        self.check(h, np.array(pts))


class TestRowIndependence:
    """An N-row batch gives every row what its one-row call gives, for the
    tower, the tentacle stages and the composites, on mixed batches: the
    centers of the 2^n child cubes, each moved by its own legs, next to
    face, frame, tile and tube points."""

    CHILDREN = np.array(cube_vertices(3), dtype=float) / 2.0

    @given(st.integers(1, 4), st.sampled_from(["T1", "T2", "W"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_equal_one_row_calls(self, k, variant, data):
        stage = STAGES[(variant, k)]
        h = stage.chain[0][0] if variant == "T1" else stage.chain[2][0]
        jitter = data.draw(st.floats(-0.1, 0.1))
        pts = np.vstack([self.CHILDREN + jitter,
                         data.draw(st.lists(tower_points(), min_size=1, max_size=4)),
                         np.reshape(data.draw(st.lists(set_points(B), max_size=4)), (-1, 3)),
                         data.draw(st.lists(tube_points(h.sched, data.draw(st.booleans())),
                                            min_size=1, max_size=4))])
        pts = np.vstack([pts, TOWERS[k].inverse_many(pts)])
        for f in (TOWERS[k], h, stage):
            for name in ("forward", "inverse", "derivative"):
                check_rows(getattr(f, name + "_many"), getattr(f, name), pts)


class TestBatchErrors:
    """A batch raises the error of its first row outside its knots, as a
    loop over the rows does.  Valid schedules give no such tube rows, so
    the stage is bent: its tubes run on to t = 1, past the last axial knot
    c_1.  Knots out of order cannot reach a row: the stage checks each
    level's table when it is built (``tests/test_tentacles.py``,
    ``TestPiecewiseLinear::test_knot_validation``)."""

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from(HEIGHTS), st.floats(0, 1),
                              st.floats(1e-3, 0.02)),
                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_tentacle_stage(self, rows):
        h = SqueezeStage(SQ, 2)
        h._tube_end = lambda lv, squeezed: 1.0
        lv = SQ.level(1)
        pts, wants = [], []
        for out_of_range, height, u, perp in rows:
            if out_of_range:
                # past the last knot, inside the half-open tube [r_hat, 1)
                t = float(np.clip(lv.c + u * (1.0 - lv.c), np.nextafter(lv.c, 1.0),
                                  np.nextafter(1.0, 0.0)))
            else:
                t = lv.r_hat + u * (lv.c - lv.r_hat)
            pts.append(chart_point(SQ, [height], (t, perp, 0.0)))
            wants.append(DomainError if out_of_range else None)
        got = [outcome(lambda x: ref.tentacle_forward(h, x), p) for p in pts]
        assert [g if isinstance(g, type) else None for g in got] == wants
        check_rows(h.forward_many, lambda x: ref.tentacle_forward(h, x), pts)

        def derivative(x):
            ref.tentacle_forward(h, x)  # a row raises what its image raises
            return ref.tentacle_derivative(h, x)

        # derivative_many raises what forward_many raises, and so does the
        # joint walk
        check_rows(h.derivative_many, derivative, pts, equal=np.array_equal)
        pts = np.array(pts)
        jac, fwd = outcome(h.derivative_many, pts), outcome(h.forward_many, pts)
        got = outcome(lambda p: h._walk_rows(p, jacobian=True), pts)
        if isinstance(fwd, type):
            assert got is fwd and jac is fwd
        else:
            assert bit_equal(got[0], fwd) and np.array_equal(got[1], jac)


# points of the stage-4 tentacle stages, as (class, level, slot height,
# axial coordinate, offset on the last axis), where the tube is thinner
# than, or the modulation annulus as thin as, the resolution of the cube
# coordinates
FLOAT_RESOLUTION_CASES = [
    (StretchStage, 2, -0.125, 3 * ST.level(2).r_hat, ST.level(2).b),
    (StretchStage, 3, 0.875, ST.level(3).a_sq, 0.0),
    (SqueezeStage, 4, -0.125, 0.5 * (SQ.level(4).r_hat + SQ.level(4).c), SQ.level(4).b),
]


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
        x = np.array([p for p in x if ref.tentacle_descend(h, p, squeezed)[0] <= levels])
        x = x.reshape(-1, 3)
        # level-3 squeeze tubes: up to 5e-7 in 20 000 examples
        assert np.max(np.abs(h.inverse_many(h.forward_many(x)) - x), initial=0.0) < 1e-5

    @pytest.mark.xfail(strict=True, reason="the stage maps do not invert to 1e-6 there")
    @pytest.mark.parametrize("cls,level,height,t,perp", FLOAT_RESOLUTION_CASES)
    def test_tentacle_stages_fail_at_the_float_resolution(self, cls, level, height, t, perp):
        # the last coordinate's offset from the center height is read to
        # about 1e-16, which moves the modulation e by up to 1e-16 / (rho
        # log 1/rho), and the inverse axial slope multiplies that: too much
        # on the modulation annulus b_j < rho < d_j of these tubes; and the
        # stretch tubes of levels 3 and 4 are thinner than 1e-16
        h = TENTACLES[(cls, 4)]
        x = chart_point(h.sched, [height] * level, (t, 0.0, perp))[None, :]
        assert np.max(np.abs(h.inverse_many(h.forward_many(x)) - x)) < 1e-6

    @pytest.mark.parametrize("cls,level,height,t,perp", FLOAT_RESOLUTION_CASES)
    def test_tentacle_stages_invert_in_the_chart(self, cls, level, height, t, perp):
        # the same points as chart rows: the chart walk reads the offset
        # from the centerline exactly, so it inverts where the stage, which
        # descends from the cube point, does not
        h = TENTACLES[(cls, 4)]
        J, w = np.array([level]), np.array([[t, 0.0, perp]])
        heights = np.zeros((4, 1))
        heights[:level] = height
        image = h._walk_chart(J, heights, w)[0]
        assert np.max(np.abs(h._walk_chart(J, heights, image, inverse=True)[0] - w)) < 1e-6


class _Pointwise:
    """A stage without ``forward_many``, evaluated by the reference bodies."""

    def __init__(self, stage):
        self.k, self.beta = stage.k, stage.beta
        self.forward = lambda x: ref.stage_forward(stage, x)
        self.derivative = lambda x: ref.stage_derivative(stage, x)


def reflection(x):
    x = np.asarray(x, dtype=float)
    assert x.shape == (3,)  # a plain callable is called one point at a time
    return np.array([x[0] + 0.05, x[1], -x[2]])


class TestInstruments:
    def test_plain_callable_degree(self):
        rep = degree(reflection, SphereProbe((0.0, 0.0, 0.0), 1.0, 2), (0.05, 0.0, 0.0))
        assert rep == DegreeReport(-1, 0.9999999999999999, 2,
                                   [(2, -1.0, 0.9999999999999999)],
                                   "gap", rep.gap, rep.tail, rep.margin)
        assert rep.margin > 1

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
