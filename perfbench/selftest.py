"""Self-tests of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Each check must fail on a deliberately broken input and pass on a sound
one; the tracer's self times must add up to the traced wall time.  These
tests live with the benchmark, outside the package's test suite.  The
script exits with code 1 when any of them fails.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from homlim import analysis, degree  # noqa: E402
from homlim.composite import build_stage  # noqa: E402


class _Reflect:
    """Orientation-reversing linear map of the cube."""

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([-x[0], x[1], x[2]])


class _Translate:
    """Moves every point, boundary points included."""

    def forward(self, x):
        return np.asarray(x, dtype=float) + 1e-9


def test_survey_check_fails_on_orientation_reversal():
    cfg = analysis.QuadratureConfig(seed=1)
    bad = analysis.jacobian_survey(_Reflect(), 100, cfg, step=1e-6)
    good = analysis.jacobian_survey(build_stage("T1", 2), 100, cfg)
    return bool(checks.survey(bad, "reflect")) and not checks.survey(good, "T1")


def test_boundary_check_fails_on_moved_boundary():
    _, moved = analysis.boundary_identity_check(_Translate(), 3, 20, seed=1)
    _, fixed = analysis.boundary_identity_check(build_stage("T2", 2), 3, 20, seed=1)
    return bool(checks.boundary(moved, "translate")) and not checks.boundary(fixed, "T2")


def test_derivative_check_fails_on_perturbed_derivative():
    st = build_stage("T1", 2)
    nodes = np.random.default_rng(3).uniform(-0.95, 0.95, (12, 3))

    def perturbed(x):
        return st.derivative(x) * (1.0 + 1e-2)

    return (bool(checks.derivative_matches_fd(st.forward, perturbed, nodes, "perturbed"))
            and not checks.derivative_matches_fd(st.forward, st.derivative, nodes, "T1"))


def test_degree_check_fails_on_reflection():
    unit = degree.SphereProbe((0.0, 0.0, 0.0), 1.0, 2)

    def reflection(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[0] + 0.05, x[1], -x[2]])

    rep = degree.degree(reflection, unit, (0.05, 0.0, 0.0))
    ident = degree.degree(lambda x: np.asarray(x, dtype=float), unit, (0.0, 0.0, 0.0))
    return (rep.degree == -1 and bool(checks.degree_is(rep, 1, "reflection"))
            and not checks.degree_is(ident, 1, "identity"))


def test_other_checks_fail_on_broken_input():
    class Row:
        def __init__(self, k, integral):
            self.k, self.integral = k, integral

    class Table:
        rows = [Row(2, 1.0), Row(3, 0.0)]

    pts = np.random.default_rng(4).uniform(-1, 1, (5, 3))

    def shifted(x):
        return np.asarray(x) + 1e-6

    return (bool(checks.cauchy_rows(Table(), 3))
            and bool(checks.roundtrip(shifted, shifted, pts, "shift"))
            and not checks.roundtrip(shifted, lambda y: np.asarray(y) - 1e-6, pts, "shift back")
            and bool(checks.derivatives_equal(lambda x: np.eye(3), lambda x: 2 * np.eye(3),
                                              pts, "scaled")))


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Nested:
    clock = _Clock()

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.inner()
        self.clock.now += 0.5

    def inner(self):
        self.clock.now += 2.0


def test_tracer_self_times_add_up():
    tracer = tracing.Tracer(clock=_Nested.clock)
    original = _Nested.outer
    tracer.wrap(_Nested, "outer", "nested.outer", keep_span=True)
    tracer.wrap(_Nested, "inner", "nested.inner")
    _Nested().outer()
    tracer.uninstall()
    outer, inner = tracer.stats["nested.outer"], tracer.stats["nested.inner"]
    span = tracer.spans[0]
    stats, wrapper_s = tracing.layer_stats(tracer.stats, caller_s=0.25, own_s=0.125)
    return (outer == [1, 1, 1.5, 2] and inner == [2, 2, 4.0, 0]
            and tracer.self_total() == span["end"] - span["start"] == 5.5
            and span["self_s"] == 1.5 and span["parent"] is None
            and _Nested.outer is original
            # the caller pays 0.25 per wrapped call it makes, every call 0.125
            and stats["nested.outer"] == (1, 1, 1.5 - 2 * 0.25 - 0.125)
            and stats["nested.inner"] == (2, 2, 4.0 - 2 * 0.125)
            and sum(v[2] for v in stats.values()) + wrapper_s == 5.5)


class _Chain:
    """A caller whose own work is a loop around many cheap calls, the
    shape of the package's thin composite and pointwise layers."""

    def outer(self, n):
        step = self.step
        acc = 0.0
        for i in range(n):
            acc += step(i)
        return acc

    def step(self, i):
        x = i * 0.5
        return (x * x + 1.0) % 3.0 - x % 1.7 + (x + 2.0) / (x + 1.0)


def test_wrapper_cost_is_taken_off_the_callers():
    """With a real clock, the traced self times less the measured wrapper
    cost come back to the untraced time, while the raw self times do not."""
    import statistics
    import time

    n, chain = 20000, _Chain()
    bare, raw, corrected = [], [], []
    for _ in range(5):
        t0 = time.perf_counter()
        chain.outer(n)
        bare.append(time.perf_counter() - t0)
        caller_s, own_s = tracing.wrapper_cost()
        tracer = tracing.Tracer()
        tracer.wrap(_Chain, "outer", "chain.outer")
        tracer.wrap(_Chain, "step", "chain.step")
        try:
            chain.outer(n)
        finally:
            tracer.uninstall()
        stats, _ = tracing.layer_stats(tracer.stats, caller_s, own_s)
        raw.append(tracer.self_total())
        corrected.append(sum(v[2] for v in stats.values()))
    bare, raw, corrected = (statistics.median(v) for v in (bare, raw, corrected))
    return raw > 1.5 * bare and abs(corrected - bare) < 0.3 * bare


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    printed = [f"{name}.{stat}" for name in tracing.LAYERS for stat in ("calls", "points", "self_s")]
    printed += ["degree.mesh_points"]
    printed += [f"degree.refinement.{b}" for b in tracing.REFINEMENT_BINS]
    printed += ["trace.body_s", "trace.unaccounted_s", "trace.wrapper_s", "trace.overhead_s"]
    return ([m["name"] for m in spec["per_layer"]] == printed
            and [m["name"] for m in spec["end_to_end"]]
            == ["cost_ref", "peak_rss_mb", "setup_s"])


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            ok = fn()
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
