import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_maps import (
    knot_e_coeffs,
    level_knots,
    modulation,
    shift_forward,
    shift_inverse,
    tentacle_descend,
)

import homlim
from homlim.errors import (
    DomainError,
    InfeasibleScheduleError,
    NotInitializedError,
    UnsupportedDimensionError,
)
from homlim.geometry import address_words, cell_center, tower_slots
from homlim.tentacles import (
    SqueezeStage,
    StretchStage,
    _modulation_rows,
    _pl_rows,
    _raise_first_outside,
    _straight_jacobian_rows,
    delta_tilde,
    log_tentacle_union_measure,
    solve_parameters,
    tentacle_seminorm_bound,
)

SQ = solve_parameters(3, 4.0, "demo", "squeeze", 4)
ST = solve_parameters(3, 4.0, "demo", "stretch", 4)
DEMO = (SQ, ST, solve_parameters(4, 5.0, "demo", "squeeze", 4),
        solve_parameters(4, 5.0, "demo", "stretch", 4))
SLOTS = [s[-1] for s in tower_slots(3)]


def tube_point(sched, k, rng, squeezed, frac_perp=0.9):
    lv = sched.level(k)
    word = tuple((0, 0, SLOTS[rng.integers(8)]) for _ in range(k))
    end = lv.c_sq if squeezed else lv.c
    t = rng.uniform(lv.r_hat * 1.001, end * 0.999)
    perp = rng.uniform(-lv.d * frac_perp, lv.d * frac_perp, 2)
    z_n = sum(sched.level(j + 1).r_hat_prev * word[j][2] for j in range(k))
    w = np.array([t, perp[0], z_n + perp[1]])
    return shift_forward(sched, word, w), word


def bent(sched, k, **fields):
    """``sched`` with the fields of its level k replaced."""
    levels = list(sched.levels)
    levels[k - 1] = dataclasses.replace(levels[k - 1], **fields)
    return dataclasses.replace(sched, levels=levels)


class TestPiecewiseLinear:
    """The row kernels of the axial profile: ``_pl_rows`` interpolates (and
    inverts, with the knot roles swapped) through knots given per row,
    ``_raise_first_outside`` raises the error of the first row outside
    them; a stage takes only schedules whose knot tables are ordered."""

    TS, SS = (0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 3.0, 4.0)

    def rows(self, v):
        return (np.tile(knots, (len(v), 1)) for knots in (self.TS, self.SS))

    def pl(self, v, inverse=False):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        ts, ss = self.rows(v)
        return _pl_rows(v, ss, ts) if inverse else _pl_rows(v, ts, ss)

    def test_first_piece(self):
        assert self.pl(0.5)[0] == 1.0

    def test_endpoint(self):
        assert self.pl([0.0, 1.0, 3.0]).tolist() == [0.0, 2.0, 4.0]
        assert self.pl([0.0, 2.0, 4.0], inverse=True).tolist() == [0.0, 1.0, 3.0]

    def test_third_piece(self):
        assert self.pl(2.5)[0] == 3.5
        # a row takes its own knots: the second row's s-knots are twice the first's
        ts = np.tile(self.TS, (2, 1))
        ss = np.array([self.SS, (0.0, 4.0, 6.0, 8.0)])
        assert _pl_rows(np.array([2.5, 2.5]), ts, ss).tolist() == [3.5, 7.0]

    def test_domain_error(self):
        v = np.array([1.0, 3.5, -0.5])
        ts, _ = self.rows(v)
        outside = (v < ts[:, 0]) | (v > ts[:, -1])
        assert outside.tolist() == [False, True, True]
        with pytest.raises(DomainError, match="row 1"):
            _raise_first_outside(outside)
        _raise_first_outside(np.zeros(3, dtype=bool))  # no bad row: no error

    def test_knot_validation(self):
        for cls, sched in ((SqueezeStage, SQ), (StretchStage, ST)):
            lv = sched.level(2)
            unordered = [
                bent(sched, 2, ts=(lv.ts[0], lv.ts[1], lv.ts[1], lv.ts[3])),  # a repeated t-knot
                bent(sched, 2, s0=(lv.s0[0], lv.s0[2], lv.s0[1], lv.s0[3])),  # s-knots swapped
                # ordered at e = 0 but not at e = E: phi passes r_k
                # (squeezing) or l(c~) (stretching)
                bent(sched, 2, e_range=10.0),
            ]
            for bad in unordered:
                with pytest.raises(ValueError, match="level 2: knots not strictly increasing"):
                    cls(bad, 2)
                cls(bad, 1)  # a stage checks the levels it walks
            cls(sched, 4)

    @given(st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, t):
        s = self.pl(t)
        assert self.pl(s, inverse=True)[0] == pytest.approx(t, abs=1e-12)

    def test_slope(self):
        # the axial entry of the chart Jacobian, at no transverse gradient
        w = np.array([[0.5, 0.0, 0.0], [2.5, 0.0, 0.0]])
        ts, ss = self.rows(w[:, 0])
        d, _ = _straight_jacobian_rows(SQ.level(2), w, np.zeros(2), ts, ss)
        assert d[:, 0, 0].tolist() == [2.0, 1.0]


class TestSolveParameters:
    def test_demo_level_one_matches_hand_computation(self):
        lv = SQ.level(1)
        assert lv.a == pytest.approx(0.998992919921875)
        assert lv.a_sq == 0.0625
        assert lv.d == pytest.approx(0.05)
        assert lv.e_range == pytest.approx(0.936492919921875)
        # log log(1/b) = log log(1/d) + Delta
        assert math.log(lv.u_b) == pytest.approx(math.log(lv.u_d) + lv.e_range)
        assert lv.b == pytest.approx(4.7979e-4, rel=1e-3)

    def test_axial_chain(self):
        for k in range(2, 5):
            assert SQ.level(k).c == SQ.level(k - 1).a

    def test_strict_fixd_inversion_formula(self):
        # with C delta = 1e-3 at n=3, beta=4, k=1 the width log is 2^10/1e-3
        u_d = 2.0 ** ((4 + 1) * 1 * (3 - 1)) / 1e-3
        assert u_d == pytest.approx(1.024e6)

    def test_strict_widths_stay_log_form(self):
        s = solve_parameters(3, 4.0, "strict-T1", "squeeze", 8)
        for lv in s.levels:
            assert lv.d == 0.0 and lv.b == 0.0  # underflow by design
            assert lv.u_b > lv.u_d > 0

    def test_ordering_constraints(self):
        for sched in (SQ, ST):
            for k in range(2, 5):
                lv, prev = sched.level(k), sched.level(k - 1)
                assert lv.u_d >= prev.u_b + 3 * math.log(4) - 1e-9  # d_k <= 4^-n b_{k-1}
                assert lv.u_b > lv.u_d
                assert lv.d < 2.0**-3 * lv.r_hat_prev

    def test_bend_constant_bounded(self):
        # A_k <= (r_{k-1} - r_k)/(r_{k-1} - 2 r_k), a k-free constant
        q = 2.0**-5
        cap = (1 - q) / (1 - 2 * q)
        for k in range(2, 5):
            assert 0 < SQ.level(k).bend <= cap

    def test_infeasible_configs(self):
        with pytest.raises(UnsupportedDimensionError):
            solve_parameters(2, 4.0, "demo")
        with pytest.raises(InfeasibleScheduleError):
            solve_parameters(3, 3.0, "demo")
        with pytest.raises(InfeasibleScheduleError):
            solve_parameters(3, 4.0, "demo", "stretch", 5)  # b_5 underflows

    @pytest.mark.parametrize("beta", [4.35, 5.1, 7.03])
    def test_levels_take_the_tower_radii(self, beta):
        # a level's cube is the tower cell its tentacle hangs from, so its
        # radii are the tower's at non-dyadic beta too (2^(-k(beta+1))
        # rounds otherwise than 2^-k 2^(-k beta)), and its tube runs from
        # a_k = c_k - r_{k+2} to c_k = a_{k-1}, with c_1 = 1 - r_2
        rng = np.random.default_rng(32)
        for mode, k_cap in (("demo", 24), ("strict-T1", 8), ("strict-T2", 8)):
            for family in ("squeeze", "stretch"):
                sched = deepest_solved(3, beta, mode, family, k_cap)
                base, c = sched.base, 1.0 - sched.base.r(2)
                for lv in sched.levels:
                    assert (lv.r_hat, lv.r_hat_prev) == (base.r(lv.k), base.r(lv.k - 1))
                    assert (lv.c, lv.a) == (c, c - base.r(lv.k + 2))
                    c = lv.a
                for word in address_words(tower_slots(3), len(sched.levels), 16, rng):
                    heights = [letter[-1] for letter in word]
                    assert sched.center_height(heights) == cell_center(base, word, tower=True)[-1]

    def test_stage_maps_require_demo(self):
        s = solve_parameters(3, 4.0, "strict-T1", "squeeze", 2)
        with pytest.raises(NotInitializedError):
            SqueezeStage(s, 2)


def deepest_solved(n, beta, mode, family, k_cap):
    """The schedule of the levels 1..k that solve, k <= k_cap as deep as
    it goes."""
    for k in range(k_cap, 0, -1):
        try:
            return solve_parameters(n, beta, mode, family, k)
        except InfeasibleScheduleError:
            pass
    raise AssertionError(f"no level solves at n={n}, beta={beta}, {mode}, {family}")


@st.composite
def radii(draw, sched):
    """A level of ``sched`` and a transverse sup radius: 0, subnormal,
    within a relative 1e-6 of b_k or d_k, or anywhere in [0, 1]."""
    lv = draw(st.sampled_from(sched.levels))
    rho = draw(st.just(0.0)
               | st.floats(0.0, sys.float_info.min, exclude_max=True)
               | st.sampled_from([lv.b, lv.d]).flatmap(
                   lambda w: st.floats(w * (1 - 1e-6), w * (1 + 1e-6)))
               | st.floats(0.0, 1.0))
    return lv, rho


def assert_modulation_in_range(lv, rho):
    e, de_drho = (v[0] for v in _modulation_rows(lv, np.array([rho])))
    assert 0.0 <= e <= lv.e_range and math.isfinite(de_drho), (lv.k, rho, e)


def assert_modulation_matches_the_oracle(lv, rho):
    """The array modulation at every entry of rho equals the scalar oracle
    as float.hex."""
    rho = np.asarray(rho, dtype=float)
    got = _modulation_rows(lv, rho)
    want = np.array([modulation(lv, r) for r in rho.tolist()]).reshape(len(rho), 2).T
    for g, w in zip(got, want):
        assert list(map(float.hex, g.tolist())) == list(map(float.hex, w.tolist())), lv.k


class TestModulation:
    """The array modulation against the scalar oracle, as float.hex."""

    def test_matches_the_oracle_at_the_widths(self):
        for sched in DEMO:
            for lv in sched.levels:
                rho = [0.0, -0.0, 5e-324, math.inf, math.nan]
                for width in (lv.b, lv.d):
                    rho += [np.nextafter(width, 0.0), width, np.nextafter(width, 1.0)]
                assert_modulation_matches_the_oracle(lv, rho)

    def test_matches_the_oracle_where_the_clamp_acts(self):
        # n = 4 stretch level 3: from 64 to 190 ulps above b_3 the two logs
        # differ by more than E, and e is E only by the clamp
        lv = DEMO[3].level(3)
        rho = (np.float64(lv.b).view(np.int64) + np.arange(64, 191)).view(np.float64)
        raw = [math.log(-math.log(r)) - math.log(lv.u_d) for r in rho.tolist()]
        assert all(-math.log(r) < lv.u_b for r in rho.tolist())
        assert all(v > lv.e_range for v in raw)
        assert_modulation_matches_the_oracle(lv, rho)

    @pytest.mark.parametrize("index", range(len(DEMO)))
    def test_matches_the_oracle_on_seeded_radii(self, index):
        # uniform and log-uniform over [b/2, 1], and uniform over the graded
        # annulus [b, d], which the others miss where it is thin
        rng = np.random.default_rng(index)
        for lv in DEMO[index].levels:
            lo = lv.b / 2
            rho = np.concatenate([rng.uniform(lo, 1.0, 500),
                                  np.exp(rng.uniform(math.log(lo), 0.0, 1000)),
                                  rng.uniform(lv.b, lv.d, 500)])
            e, _ = _modulation_rows(lv, rho)
            assert 0 < np.count_nonzero((0.0 < e) & (e < lv.e_range))
            assert_modulation_matches_the_oracle(lv, rho)


class TestKnots:
    def test_monotone_for_all_modulations(self):
        for sched in (SQ, ST):
            for k in range(1, 5):
                lv = sched.level(k)
                ts, ss = lv.knots(np.linspace(0.0, lv.e_range, 17))
                assert (np.diff(ts) > 0).all() and (np.diff(ss) > 0).all()

    # e in [0, E] is what makes a table ordered at e = 0 and at e = E
    # ordered on every row a stage evaluates
    @given(st.sampled_from(DEMO).flatmap(radii))
    @settings(max_examples=300, deadline=None)
    def test_modulation_stays_in_its_range(self, case):
        assert_modulation_in_range(*case)

    def test_modulation_stays_in_its_range_at_the_widths(self):
        # b_k, d_k and every radius within 256 ulps of them; at n = 4 the
        # stretch level 3 rounds log log(1/rho) - log log(1/d_3) above E
        # from 64 to 190 ulps above b_3
        ulps = np.arange(-256, 257)
        for sched in DEMO:
            for lv in sched.levels:
                for width in (lv.b, lv.d):
                    for rho in (np.float64(width).view(np.int64) + ulps).view(np.float64).tolist():
                        assert_modulation_in_range(lv, rho)

    def test_table_matches_the_family_formulas(self):
        for sched in DEMO:
            for lv in sched.levels:
                e = np.array([0.0, 0.3 * lv.e_range, lv.e_range])
                ts, ss = lv.knots(e)
                for i, ei in enumerate(e.tolist()):
                    want = level_knots(lv, sched.family, ei)
                    assert ts[i].tolist() == list(want.ts) and ss[i].tolist() == list(want.ss)
                assert lv.se == knot_e_coeffs(lv, sched.family)

    def test_squeeze_boundary_values(self):
        lv = SQ.level(1)
        _, ss = lv.knots(np.array([0.0, lv.e_range]))
        assert ss[0, 1] == pytest.approx(lv.a)  # |x_perp| = d_1: phi = l_0(a_1) = a_1
        assert ss[1, 1] == pytest.approx(lv.a_sq)  # |x_perp| <= b_1: phi = 2 r_1 = 0.0625

    def test_stretch_boundary_values(self):
        lv = ST.level(1)
        _, ss = lv.knots(np.array([0.0, lv.e_range]))
        assert ss[1, 1] == pytest.approx(lv.a)  # axial image of a~ is a
        assert ss[0, 1] == pytest.approx(lv.a_sq)  # reduces to the boundary line


class TestShift:
    def test_branch_one_value(self):
        word = ((0, 0, -7 / 8), (0, 0, 7 / 8))
        p = shift_forward(SQ, word, (0.5, 0.0, 0.2))
        drop = SQ.level(2).shift_drop
        assert p[2] == pytest.approx(0.2 - drop * 7 / 8)
        assert p[0] == 0.5 and p[1] == 0.0

    def test_identity_below_deepest_scale(self):
        word = ((0, 0, 7 / 8), (0, 0, 7 / 8))
        x = (SQ.level(2).r_hat * 0.5, 0.1, -0.3)
        assert np.array_equal(shift_forward(SQ, word, x), x)

    def test_level_one_shift_is_identity(self):
        word = ((0, 0, 5 / 8),)
        x = (0.77, 0.1, -0.3)
        assert np.array_equal(shift_forward(SQ, word, x), x)

    def test_inverse(self):
        word = ((0, 0, -7 / 8), (0, 0, 3 / 8))
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, (50, 3)):
            assert np.allclose(shift_inverse(SQ, word, shift_forward(SQ, word, x)), x,
                               atol=1e-15)

    def test_volume_preserving(self):
        # shears in the last coordinate: unit Jacobian everywhere
        word = ((0, 0, -7 / 8), (0, 0, 3 / 8))
        rng = np.random.default_rng(1)
        h = 1e-7
        for x in rng.uniform(-0.9, 0.9, (20, 3)):
            J = np.empty((3, 3))
            for d in range(3):
                e = np.zeros(3)
                e[d] = h
                J[:, d] = (shift_forward(SQ, word, x + e) - shift_forward(SQ, word, x - e)) / (2 * h)
            assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)


class TestStageMaps:
    def test_identity_on_tower_cube(self):
        h2 = SqueezeStage(SQ, 2)
        z = np.array([0.0, 0.0, 7 / 8 + 2.0**-5 * (-7 / 8)])
        for dx in (0.0, 0.5 * SQ.level(2).r_hat):
            x = z + dx
            assert np.array_equal(h2.forward(x), x)

    def test_identity_off_tentacles(self):
        h3 = SqueezeStage(SQ, 3)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (200, 3))
        moved = sum(not np.array_equal(h3.forward(p), p) for p in pts)
        # tentacle tubes occupy a tiny fraction of the cube
        assert moved <= 12

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_squeeze_tube_roundtrip(self, stage):
        # in-tube inversion conditioning degrades with the tube aspect
        # ratio; random cube points (the acceptance check) stay at 1e-10
        h = SqueezeStage(SQ, stage)
        rng = np.random.default_rng(stage)
        tol = {1: 1e-10, 2: 1e-8, 3: 1e-6, 4: 1e-6}[stage]
        for _ in range(120):
            x, _ = tube_point(SQ, stage, rng, squeezed=False)
            assert np.max(np.abs(h.inverse(h.forward(x)) - x)) < tol

    @pytest.mark.parametrize("stage", [1, 2])
    def test_stretch_tube_roundtrip(self, stage):
        h = StretchStage(ST, stage)
        rng = np.random.default_rng(stage)
        for _ in range(120):
            x, _ = tube_point(ST, stage, rng, squeezed=True)
            assert np.max(np.abs(h.inverse(h.forward(x)) - x)) < 1e-10

    def test_new_level_only_changes_new_tubes(self):
        h1, h2 = SqueezeStage(SQ, 1), SqueezeStage(SQ, 2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, _ = tube_point(SQ, 1, rng, squeezed=False)
            found, _, _, _ = tentacle_descend(h2, x, squeezed=False)
            if found < 2:
                assert np.allclose(h1.forward(x), h2.forward(x), atol=1e-15)
        changed = 0
        for _ in range(50):
            x, _ = tube_point(SQ, 2, rng, squeezed=False)
            if not np.allclose(h1.forward(x), h2.forward(x), atol=1e-15):
                changed += 1
        assert changed >= 45

    def test_transverse_coordinates_fixed(self):
        h = SqueezeStage(SQ, 2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, _ = tube_point(SQ, 2, rng, squeezed=False)
            y = h.forward(x)
            assert y[1] == x[1]  # middle coordinates untouched

    def test_nested_tentacle_containment(self):
        # level-(k+1) outer tubes sit inside the level-k inner tentacles
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            h = SqueezeStage(SQ, k + 1)
            for _ in range(60):
                x, word = tube_point(SQ, k + 1, rng, squeezed=False)
                found, heights, _, w = tentacle_descend(h, x, squeezed=False)
                assert found == k + 1
                assert heights == [v[-1] for v in word]

    def test_jacobian_positive(self):
        rng = np.random.default_rng(6)
        for stage, cls, sched, squeezed in ((2, SqueezeStage, SQ, False),
                                            (2, StretchStage, ST, True)):
            h = cls(sched, stage)
            for _ in range(150):
                x, _ = tube_point(sched, stage, rng, squeezed=squeezed)
                assert np.linalg.det(h.derivative(x)) > 0

    def test_derivative_matches_fd(self):
        h = SqueezeStage(SQ, 2)
        rng = np.random.default_rng(7)
        ok = 0
        for _ in range(80):
            x, _ = tube_point(SQ, 2, rng, squeezed=False, frac_perp=0.8)
            da = h.derivative(x)
            df = np.empty((3, 3))
            for d in range(3):
                e = np.zeros(3)
                e[d] = 1e-9
                df[:, d] = (h.forward(x + e) - h.forward(x - e)) / 2e-9
            if np.max(np.abs(da - df)) / max(1.0, np.abs(da).max()) < 1e-4:
                ok += 1
        assert ok >= 72


class TestEnergy:
    def test_strict_bounds_below_budget(self):
        for mode in ("strict-T1", "strict-T2"):
            s = solve_parameters(3, 4.0, mode, None, 8)
            for k in range(1, 9):
                assert tentacle_seminorm_bound(s, k) <= s.level(k).delta_budget

    def test_strict_bracket_example(self):
        # with u_d = 1.024e6 and Delta_1 the bracket is 5.9375e-7-ish
        u_d = 1.024e6
        u_b = u_d * math.exp(SQ.level(1).e_range)
        assert 1 / u_d - 1 / u_b == pytest.approx(5.9375e-7, rel=1e-3)

    def test_zero_width_shell_has_zero_bound(self):
        s = solve_parameters(3, 4.0, "strict-T1", "squeeze", 1)
        lv = s.level(1)
        bracket = lv.u_d ** (2 - 3) - lv.u_d ** (2 - 3)
        assert bracket == 0.0

    def test_general_dimension_strict_form(self):
        s4 = solve_parameters(4, 5.0, "strict-T1", "squeeze", 3)
        for k in range(1, 4):
            assert tentacle_seminorm_bound(s4, k) <= s4.level(k).delta_budget

    def test_demo_form_is_three_dimensional(self):
        with pytest.raises(UnsupportedDimensionError):
            s4 = solve_parameters(4, 5.0, "demo", "squeeze", 1)
            tentacle_seminorm_bound(s4, 1)

    def test_import_leaves_scipy_unloaded(self):
        # the package does not use scipy
        code = "import sys, homlim; assert 'scipy' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=str(Path(homlim.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)

    def test_cauchy_envelope_is_summable(self):
        terms = [2.0 ** (k * 4 * 2) * delta_tilde("strict-T1", 3, 4.0, k)
                 for k in range(1, 9)]
        assert terms == pytest.approx([1 / k**2 for k in range(1, 9)])

    def test_union_measure_decreases(self):
        for mode, fam in (("strict-T1", "squeeze"), ("demo", "squeeze")):
            s = solve_parameters(3, 4.0, mode, fam, 4)
            logs = [log_tentacle_union_measure(s, k) for k in range(1, 5)]
            assert all(b < a for a, b in zip(logs, logs[1:]))

    def test_chain_axial_extent(self):
        # the stage-k tentacle keeps axial extent >= a_k - r_k >= 0.9
        for k in range(1, 5):
            lv = SQ.level(k)
            assert lv.a - lv.r_hat >= 0.9
