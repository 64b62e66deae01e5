from itertools import zip_longest

import numpy as np
import pytest
import reference_maps as ref

from homlim import analysis
from homlim.analysis import (
    QuadratureConfig,
    _batches,
    _change_region,
    _ordered_sum,
    _sample_words,
    _tube_integral,
    _tube_nodes,
    boundary_identity_check,
    cauchy_table,
    fd_jacobian,
    jacobian_survey,
    make_rng,
)
from homlim.composite import CompositeStage, build_stage
from homlim.errors import DomainError
from homlim.geometry import tower_slots
from homlim.tentacles import SqueezeStage, solve_parameters, tentacle_seminorm_bound


class _Identity:
    def forward(self, x):
        return np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.eye(len(x))


class TestSeminorm:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(resolution=3)

    def test_straight_squeeze_matches_semianalytic_bound(self):
        # the tube grid of the Cauchy tables, run on |Dh_1|^2 over one
        # level-1 tube, agrees with the exact-axial reduction (the level-1
        # shift is the identity, so h_1 is the straight squeeze there)
        sched = solve_parameters(3, 4.0, "demo", "squeeze", 1)
        stage = SqueezeStage(sched, 1)

        def energy(x):
            return float(np.linalg.norm(stage.derivative(x), "fro") ** 2)

        word, cfg = [tower_slots(3)[0]], QuadratureConfig()
        coarse = _tube_integral(sched, 1, word, energy, cfg)
        fine = _tube_integral(sched, 1, word, energy, cfg, res_mult=2)
        assert fine == pytest.approx(tentacle_seminorm_bound(sched, 1), rel=0.01)
        assert abs(fine - coarse) / fine < 0.05


def bit_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestTubeQuadrature:
    @pytest.mark.parametrize("res_mult", [1, 2])
    @pytest.mark.parametrize("n,beta", [(3, 4.0), (4, 5.0)])
    @pytest.mark.parametrize("family", ["squeeze", "stretch"])
    def test_nodes_match_the_pointwise_oracle(self, family, n, beta, res_mult):
        sched = solve_parameters(n, beta, "demo", family, 3)
        for levels in (0, 2):
            cfg = QuadratureConfig(axial_resolution=2, axial_levels=levels,
                                   transverse_resolution=2)
            for k in (1, 3):
                words, _ = _sample_words(n, k, 2, make_rng(k))
                for word in words:
                    nodes, measures = _tube_nodes(sched, k, word, cfg, res_mult)
                    want_nodes, want_measures = ref.tube_nodes(sched, k, word, cfg, res_mult)
                    assert bit_equal(nodes, want_nodes), (levels, k, word)
                    assert bit_equal(measures, want_measures), (levels, k, word)

    def test_strips_of_measure_zero_carry_no_node(self):
        # at n = 4 the strip measure rho^3 u dE dt underflows on the deep
        # strips of a level-4 stretch tube: 540 of the 18 * (8 * 6 + 1)
        # nodes of the grid are kept
        sched = solve_parameters(4, 5.0, "demo", "stretch", 4)
        cfg = QuadratureConfig(axial_resolution=2, axial_levels=2, transverse_resolution=8)
        words, _ = _sample_words(4, 4, 1, make_rng(0))
        nodes, measures = _tube_nodes(sched, 4, words[0], cfg)
        want_nodes, want_measures = ref.tube_nodes(sched, 4, words[0], cfg)
        assert len(nodes) == 540
        assert bit_equal(nodes, want_nodes) and bit_equal(measures, want_measures)
        assert (measures > 0).all()

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_unit_weight_integrates_to_the_tube_volume(self, n, k):
        # the strips and the core fill the sup-norm tube of half-width d
        # around the axis from r_hat to c: (c - r_hat) (2d)^(n-1)
        sched = build_stage("T1", 2, n, 5.0).schedule
        lv = sched.level(k)
        words, _ = _sample_words(n, k, 1, make_rng(0))
        cfg = QuadratureConfig(transverse_resolution=64)
        volume = _tube_integral(sched, k, words[0], lambda x: 1.0, cfg)
        assert volume == pytest.approx((lv.c - lv.r_hat) * (2 * lv.d) ** (n - 1), rel=2e-3)


class TestFdJacobian:
    def test_linear_map(self):
        a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [1.0, 0.0, -1.0]])
        x = np.array([0.3, -0.2, 0.5])
        assert np.allclose(fd_jacobian(lambda p: a @ p, x, 1e-6), a, atol=1e-8)

    def test_matches_the_loop_reference(self):
        # one column per pair of calls, as fd_jacobian computed it before it
        # became a one-row batch of the survey stencil
        def reference(f, x, h):
            jac = np.empty((3, 3))
            for d in range(3):
                e = np.zeros(3)
                e[d] = h
                jac[:, d] = (f(x + e) - f(x - e)) / (2 * h)
            return jac

        stage = build_stage("T1", 2)
        for x in make_rng(4).uniform(-0.9, 0.9, (20, 3)):
            assert np.array_equal(fd_jacobian(stage.forward, x, 1e-7),
                                  reference(stage.forward, x, 1e-7))


class TestJacobianSurvey:
    def test_identity(self):
        rep = jacobian_survey(_Identity(), 200, QuadratureConfig(seed=1), step=1e-6)
        assert rep.fraction_positive == 1.0
        assert rep.min_det == pytest.approx(1.0)

    def test_orientation_reversing(self):
        class Refl:
            def forward(self, x):
                y = np.asarray(x, dtype=float).copy()
                y[0] = -y[0]
                return y

        rep = jacobian_survey(Refl(), 100, QuadratureConfig(seed=2), step=1e-6)
        assert rep.fraction_positive == 0.0

    def test_t1_stage(self):
        rep = jacobian_survey(build_stage("T1", 2), 400, QuadratureConfig(seed=3))
        assert rep.fraction_positive >= 0.999
        assert not rep.hard_failures


    @pytest.mark.parametrize("error", [DomainError, np.linalg.LinAlgError])
    def test_derivative_without_a_value_counts_as_unavailable(self, error):
        class Refl:
            def forward(self, x):
                return np.asarray(x, dtype=float) * (-1.0, 1.0, 1.0)

            def derivative(self, x):
                raise error("no analytic Jacobian here")

        rep = jacobian_survey(Refl(), 20, QuadratureConfig(seed=2), step=1e-6)
        assert len(rep.hard_failures) == 20
        assert all(analytic is None for *_, analytic in rep.hard_failures)

    def test_derivative_bug_propagates(self):
        class Refl:
            def forward(self, x):
                return np.asarray(x, dtype=float) * (-1.0, 1.0, 1.0)

            def derivative(self, x):
                raise TypeError("a bug in the derivative body")

        with pytest.raises(TypeError, match="bug"):
            jacobian_survey(Refl(), 20, QuadratureConfig(seed=2), step=1e-6)


class TestBoundary:
    def test_t1_exact(self):
        passed, dev = boundary_identity_check(build_stage("T1", 2), 3, 60)
        assert passed and dev == 0.0

    def test_translation_fails(self):
        class Shift:
            def forward(self, x):
                return np.asarray(x, dtype=float) + 0.1

        passed, dev = boundary_identity_check(Shift(), 3, 30)
        assert not passed
        assert dev == pytest.approx(0.1)

    @staticmethod
    def per_face(map_rows, n, samples_per_face, seed):
        """The deviation face by face: each face's samples drawn and mapped
        in turn, the largest kept."""
        rng = make_rng(seed)
        worst = 0.0
        for axis in range(n):
            for side in (-1.0, 1.0):
                pts = rng.uniform(-1, 1, (samples_per_face, n))
                pts[:, axis] = side
                worst = max(worst, float(np.max(np.abs(map_rows(pts) - pts), initial=0.0)))
        return worst

    @pytest.mark.parametrize("variant", ["T1", "T2", "W", "FL"])
    def test_one_batch_equals_the_per_face_loop(self, variant):
        ripple = analysis.forward_rows(lambda x: x + 1e-3 * np.sin(7.0 * x[::-1]))
        for k in (1, 2, 3):
            stage = build_stage(variant, k)
            for rows in (stage.forward_many, lambda pts: ripple(stage.forward_many(pts))):
                for seed in (0, 1, 7):
                    want = self.per_face(rows, 3, 20, seed)
                    passed, dev = boundary_identity_check(
                        type("Rows", (), {"forward_many": staticmethod(rows)}), 3, 20, seed)
                    assert (passed, dev.hex()) == (want <= 1e-12, want.hex())

    def test_a_nan_image_fails(self):
        # the one batch's maximum is NaN; a face loop with max() kept the
        # deviation of the other faces and passed
        def rows(pts):
            out = pts.copy()
            out[pts[:, 2] == 1.0] = np.nan
            return out

        passed, dev = boundary_identity_check(type("Rows", (), {"forward_many": staticmethod(rows)}),
                                              3, 10)
        assert not passed and np.isnan(dev)
        assert self.per_face(rows, 3, 10, 0) == 0.0


class TestCauchyTable:
    def test_rows_positive_and_fitted_envelope(self):
        cfg = QuadratureConfig(resolution=4, axial_resolution=10,
                               transverse_resolution=2, transverse_levels=4,
                               cells_cap=4, seed=0)
        table = cauchy_table("T1", 2, 3, cfg)
        assert [r.k for r in table.rows] == [2, 3]
        assert all(r.integral > 0 for r in table.rows)
        assert all(r.passed for r in table.rows)
        assert table.fitted_c > 0

    @staticmethod
    def pointwise_rows(variant, n, beta, k_max, p, config):
        """The table as it was before it evaluated each level's nodes in one
        batch: one derivative pair per node, through the reference bodies,
        summed as the nodes come."""
        rng = make_rng(config.seed)
        stages = {k: build_stage(variant, k, n, beta) for k in range(1, k_max + 1)}
        sched = stages[k_max].schedule
        rows = []
        for k in range(2, k_max + 1):
            fk, fk1 = stages[k], stages[k - 1]

            def diff(x):
                diff = ref.stage_derivative(fk, x) - ref.stage_derivative(fk1, x)
                return float(np.linalg.norm(diff, "fro") ** p)

            total = 0.0
            words, inflate = _sample_words(n, k, config.cells_cap, rng)
            for word in words:
                total += inflate * _tube_integral(sched, k, word, diff, config)
            words1, inflate1 = _sample_words(n, k - 1, config.cells_cap, rng)
            r_in, res = sched.base.r(k - 1), config.resolution
            for word in words1:
                z = np.zeros(n)
                for j, s in enumerate(word):
                    z = z + sched.base.r(j) * np.array(s)
                lo, hi = z - r_in, z + r_in
                axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(res) + 0.5) / res
                        for d in range(n)]
                mesh = np.meshgrid(*axes, indexing="ij")
                nodes = np.stack([m.ravel() for m in mesh], axis=1)
                vol = float(np.prod((hi - lo) / res))
                total += inflate1 * (vol * sum(diff(x) for x in nodes))
            rows.append(total)
        return rows

    CFG = QuadratureConfig(resolution=4, axial_resolution=2, axial_levels=2,
                           transverse_resolution=2, cells_cap=2, seed=1)

    @pytest.mark.parametrize("variant,n,beta,k_max", [
        ("T1", 3, 4.0, 3), ("T2", 3, 4.0, 3), ("T1", 4, 5.0, 2)])
    def test_matches_the_pointwise_reference(self, variant, n, beta, k_max):
        # the T2 rows are 0 while its change region is placed in tower
        # coordinates, the domain of T1; its batches still run on every node
        table = cauchy_table(variant, 2, k_max, self.CFG, n=n, beta=beta)
        want = self.pointwise_rows(variant, n, beta, k_max, 2, self.CFG)
        assert [r.integral.hex() for r in table.rows] == [v.hex() for v in want]

    def test_a_fractional_power_is_taken_per_weight(self):
        # numpy's power of an array rounds some weights apart from the
        # scalar power, which moves the last bit of this row
        cfg = QuadratureConfig(resolution=4, axial_resolution=2, axial_levels=4,
                               transverse_resolution=2, cells_cap=2, seed=1)
        table = cauchy_table("T1", 1.5, 2, cfg)
        want = self.pointwise_rows("T1", 3, 4.0, 2, 1.5, cfg)
        assert [r.integral.hex() for r in table.rows] == [v.hex() for v in want]

    @staticmethod
    def row_by_row(k_max, p, config):
        """The table as it was before its stages shared walks: each row's
        nodes differentiated in one batch by both of its stages, the
        weights taken one node at a time."""
        rng = make_rng(config.seed)
        stages = {k: build_stage("T1", k) for k in range(1, k_max + 1)}
        sched = stages[k_max].schedule
        rows = []
        for k in range(2, k_max + 1):
            words = _sample_words(3, k, config.cells_cap, rng)
            words1 = _sample_words(3, k - 1, config.cells_cap, rng)
            parts = list(_change_region(sched, k, *words, *words1, config, 1))
            nodes = np.concatenate([part[0] for part in parts])
            diff = stages[k].derivative_many(nodes) - stages[k - 1].derivative_many(nodes)
            weights = np.array([float(np.linalg.norm(d, "fro") ** p) for d in diff])
            total, start = 0.0, 0
            for part_nodes, measures, inflate, vol in parts:
                stop = start + len(part_nodes)
                total += inflate * (vol * _ordered_sum(weights[start:stop], measures))
                start = stop
            rows.append(total)
        return rows

    # cells_cap 10 gives row 2 18 parts and rows 3 and 4 20 parts each, so
    # at sizes 1 and 100 the last batch columns leave row 2 out
    CAP10 = QuadratureConfig(resolution=4, axial_resolution=2, axial_levels=2,
                             transverse_resolution=2, cells_cap=10, seed=1)

    @pytest.mark.parametrize("size", [1, 100, None])
    def test_rows_do_not_depend_on_the_batch_size(self, monkeypatch, size):
        if size is not None:
            monkeypatch.setattr(analysis, "CAUCHY_BATCH", size)
        for k_max in (3, 4):
            table = cauchy_table("T1", 2, k_max, self.CAP10)
            want = self.row_by_row(k_max, 2, self.CAP10)
            assert [r.integral.hex() for r in table.rows] == [v.hex() for v in want]

    @staticmethod
    def record_walks(monkeypatch):
        """Record (stage, per-row stages) of every ``derivative_many`` call
        of a composite stage."""
        walks = []
        walk = CompositeStage.derivative_many

        def record(self, pts, stages=None):
            walks.append((self.k, np.array(stages)))
            return walk(self, pts, stages)

        monkeypatch.setattr(CompositeStage, "derivative_many", record)
        return walks

    @staticmethod
    def column_stacks(k_max, config, size):
        """Per batch column of a table, its stack: the per-row stages of
        row k's batch at stage k - 1, then at stage k, for k = 2..k_max, one
        array per slice; and the node count of the largest part."""
        rng, sched = make_rng(config.seed), build_stage("T1", k_max).schedule
        rows, largest = [], 0
        for k in range(2, k_max + 1):
            words = _sample_words(3, k, config.cells_cap, rng)
            words1 = _sample_words(3, k - 1, config.cells_cap, rng)
            parts = list(_change_region(sched, k, *words, *words1, config, 1))
            largest = max([largest] + [len(nodes) for nodes, *_ in parts])
            rows.append([sum(len(nodes) for nodes, *_ in batch)
                         for batch in _batches(parts, size)])
        stacks = [[np.full(m, s) for k, m in enumerate(column, start=2) if m is not None
                   for s in (k - 1, k)] for column in zip_longest(*rows)]
        return stacks, largest

    @pytest.mark.parametrize("k_max", [2, 3, 4])
    def test_the_deepest_stage_walks_once_per_batch_column(self, monkeypatch, k_max):
        walks = self.record_walks(monkeypatch)
        cauchy_table("T1", 2, k_max, self.CFG)
        (stack,), _ = self.column_stacks(k_max, self.CFG, analysis.CAUCHY_BATCH)
        # one column: one walk of stage k_max, row k's nodes at k - 1 and k
        assert [k for k, _ in walks] == [k_max]
        assert np.array_equal(walks[0][1], np.concatenate(stack))

    @pytest.mark.parametrize("size", [1, 100])
    def test_a_walk_holds_at_most_three_batch_sizes_and_a_part(self, monkeypatch, size):
        monkeypatch.setattr(analysis, "CAUCHY_BATCH", size)
        walks = self.record_walks(monkeypatch)
        cauchy_table("T1", 2, 4, self.CAP10)
        # each column's slices go in walks that close at 2 size rows; a
        # slice, a batch of one row, holds fewer than size rows plus a part
        stacks, largest = self.column_stacks(4, self.CAP10, size)
        want = [np.concatenate([s for s, in walk]) for stack in stacks
                for walk in _batches([(s,) for s in stack], 2 * size)]
        assert len(walks) == len(want) > len(stacks)
        assert all(k == 4 and np.array_equal(got, w) for (k, got), w in zip(walks, want))
        assert all(len(got) < 3 * size + largest for _, got in walks)

    def test_batches_close_at_the_size(self):
        parts = [(np.zeros((m, 3)), m) for m in (3, 5, 2, 7, 1)]
        assert [[m for _, m in b] for b in _batches(parts, 6)] == [[3, 5], [2, 7], [1]]
        assert list(_batches([], 6)) == []

    def test_tube_integral_calls_its_weight_on_the_shared_nodes(self):
        sched = build_stage("T1", 3).schedule
        cfg = QuadratureConfig(axial_resolution=2, axial_levels=2, transverse_resolution=2)
        words, _ = _sample_words(3, 3, 2, make_rng(0))
        for word in words:
            seen = []
            _tube_integral(sched, 3, word, lambda x: seen.append(x.copy()) or 1.0, cfg)
            nodes, _ = _tube_nodes(sched, 3, word, cfg)
            assert len(seen) == len(nodes) > 0
            assert all(np.array_equal(a, b) for a, b in zip(seen, nodes))

    def test_deterministic_under_seed(self):
        cfg = QuadratureConfig(resolution=4, axial_resolution=8,
                               transverse_resolution=2, transverse_levels=3,
                               cells_cap=2, seed=9)
        t1 = cauchy_table("T1", 2, 3, cfg)
        t2 = cauchy_table("T1", 2, 3, cfg)
        assert [r.integral for r in t1.rows] == [r.integral for r in t2.rows]


class TestDeterminism:
    def test_philox_streams_replay(self):
        a = make_rng(123).random(8)
        b = make_rng(123).random(8)
        assert np.array_equal(a, b)
