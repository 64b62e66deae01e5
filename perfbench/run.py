"""Run one workload of the homlim benchmark and print its metrics.

    python3 perfbench/run.py --workload cauchy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  Everything runs in this one single-threaded process.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it (``info ...``) holds the detail behind
them, among it the median of the calibration loop.
"""

import os
import sys
import time

# BLAS pools would add threads; pin them before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
CALIBRATION_ITERATIONS = 3000
SETUP_LOOP_ITERATIONS = 100000
# setup_s is given in seconds of a core on which the set-up loop takes this
# long (about its time on an idle core of the 2-vCPU machine the benchmark
# was sized on), so that a slower or busier host does not read as slower
# set-up
SETUP_LOOP_S = 0.011


def setup_loop():
    """A fixed numpy-free loop of interpreter work (float arithmetic and a
    small dict).  It can run before numpy is imported, and its time is the
    unit set-up is measured in."""
    acc, x, d = 0.0, 0.3, {}
    t0 = time.perf_counter()
    for i in range(SETUP_LOOP_ITERATIONS):
        x = (x * 1.0001 + 0.1) % 1.7
        d[i & 15] = x
        acc += x if i & 1 else -0.5 * x
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("set-up loop diverged")
    return elapsed


def import_homlim():
    """Import numpy, then the package from this checkout's ``src`` and
    nowhere else, with a set-up loop before, between and after.  Returns the
    package's modules, the two import times and the import time in loop
    units (each import over the mean of the loops around it)."""
    loops = [setup_loop()]
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - t0
    loops.append(setup_loop())
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import homlim
    from homlim import analysis, composite, degree

    homlim_s = time.perf_counter() - t0
    loops.append(setup_loop())
    if not Path(homlim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"homlim imported from {homlim.__file__}, not from {SRC}")
    units = numpy_s / (0.5 * (loops[0] + loops[1])) + homlim_s / (0.5 * (loops[1] + loops[2]))
    modules = SimpleNamespace(analysis=analysis, composite=composite, degree=degree)
    return modules, {"numpy": numpy_s, "homlim": homlim_s}, units, loops


def clear_caches():
    """Empty every functools cache of the package, so each set-up pays for
    the schedules, move tables and meshes it builds."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("homlim."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def calibration_loop():
    """A fixed single-threaded loop of interpreter work and small numpy
    calls, the same mix as the package's pointwise maps.  Its time is the
    unit of ``cost_ref``."""
    import numpy as np

    v = np.array([0.3, -0.2, 0.1])
    m = np.array([[0.9, 0.1, 0.0], [-0.1, 0.8, 0.2], [0.05, 0.0, 1.1]])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        w = m @ v
        s = float(np.max(np.abs(w)))
        acc += s if i & 1 else -0.5 * math.sqrt(s)
        v = w / (1.0 + s) + 0.01
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop diverged")
    return elapsed


class Run:
    """The operations of one run, with their counts and check failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, op):
        """Run one operation; return its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            print(f"operation failed: {op.label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - t0
        for msg in op.check(out):
            if msg not in self.problems:
                self.problems.append(msg)
        return elapsed


def timed_round(run: Run, loop: float):
    """One round with a calibration loop after every operation.  ``loop`` is
    the time of the loop run just before the round.  Returns the
    operations' wall times, the round's cost (each operation's time over
    the mean of the loops right before and right after it) and the loops'
    times."""
    times, loops, cost = [], [], 0.0
    for op in run.ops:
        elapsed = run.op(op)
        before, loop = loop, calibration_loop()
        times.append(elapsed)
        loops.append(loop)
        cost += elapsed / (0.5 * (before + loop))
    return times, cost, loops


def measure(run: Run, seconds: float):
    """Rounds until ``seconds`` have passed; one calibration loop runs
    before the first round."""
    op_times, rounds = [], []
    loops = [calibration_loop()]
    start = time.perf_counter()
    while True:
        times, cost, loops = timed_round(run, loops[-1])
        op_times += times
        rounds.append((sum(times), cost, statistics.median(loops)))
        if time.perf_counter() - start >= seconds:
            return op_times, rounds


def measure_traced(run: Run, seconds: float):
    """Alternate untraced and traced rounds until ``seconds`` have passed.
    The wrappers' per-call cost is measured before each traced round."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, sums, costs, all_loops = [], [], [], [], []
    loops = [calibration_loop()]
    start = time.perf_counter()
    while True:
        times, plain_cost, loops = timed_round(run, loops[-1])
        all_loops += loops
        costs.append(tracing.wrapper_cost())
        tracing.install(tracer)
        try:
            self_before, spans_from = tracer.self_total(), len(tracer.spans)
            times_traced, traced_cost, loops = timed_round(run, loops[-1])
        finally:
            tracer.uninstall()
        all_loops += loops
        plain.append((sum(times), plain_cost))
        traced.append((sum(times_traced), traced_cost))
        sums.append(tracer.self_total() - self_before)
        if time.perf_counter() - start >= seconds:
            break
    n = len(traced)
    caller_s = statistics.median(c[0] for c in costs)
    own_s = statistics.median(c[1] for c in costs)
    stats, wrapper_s = tracing.layer_stats(tracer.stats, caller_s, own_s)
    metrics = {}
    for name in tracing.LAYERS:
        calls, points, self_s = stats.get(name, (0, 0, 0.0))
        metrics[f"{name}.calls"] = (calls // n, "count")
        metrics[f"{name}.points"] = (points // n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    metrics["degree.mesh_points"] = (tracer.mesh_points // n, "count")
    for level in tracing.REFINEMENT_BINS:
        metrics[f"degree.refinement.{level}"] = (tracer.refinements.get(level, 0) // n, "count")
    metrics["trace.body_s"] = (statistics.median(t[0] for t in traced), "s")
    metrics["trace.unaccounted_s"] = (
        statistics.median(t[0] - s for t, s in zip(traced, sums)), "s")
    metrics["trace.wrapper_s"] = (wrapper_s / n, "s")
    # traced minus untraced cost, in seconds of the run's median loop
    overhead_ref = (statistics.median(t[1] for t in traced)
                    - statistics.median(p[1] for p in plain))
    metrics["trace.overhead_s"] = (overhead_ref * statistics.median(all_loops), "s")
    return metrics, tracer.spans[spans_from:], {
        "traced_rounds": n, "untraced_s": [p[0] for p in plain],
        "traced_s": [t[0] for t in traced], "untraced_ref": [p[1] for p in plain],
        "traced_ref": [t[1] for t in traced],
        "wrapper_cost_us": {"caller": caller_s * 1e6, "own": own_s * 1e6}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        h, import_s, import_units, loops = import_homlim()
    except ImportError as exc:
        print(f"cannot import homlim from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # each set-up over the mean of the set-up loops right before and after it
    setups, setup_units = [], []
    loop = loops[-1]
    for _ in range(SETUP_REPEATS):
        clear_caches()
        workload = WORKLOADS[args.workload](h, args.seed)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        before, loop = loop, setup_loop()
        loops.append(loop)
        setup_units.append(setups[-1] / (0.5 * (before + loop)))
    run = Run(workload.round())

    info = {"workload": args.workload, "seed": args.seed, "import_s": import_s,
            "setup_repeats_s": setups, "import_units": import_units,
            "setup_units": statistics.median(setup_units), "setup_loop_s": loops}
    if args.trace:
        metrics, spans, detail = measure_traced(run, args.seconds)
        info.update(detail)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"metrics": metrics, "spans": spans}, f, indent=1)
    else:
        op_times, rounds = measure(run, args.seconds)
        metrics = {
            "cost_ref": (statistics.median(r[1] for r in rounds), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (SETUP_LOOP_S * (import_units + statistics.median(setup_units)), "s"),
        }
        # raw wall times: what a user waits on this host at this moment
        info.update(rounds=len(rounds), ops_per_round=len(run.ops),
                    wall_s=statistics.median(r[0] for r in rounds),
                    op_p50_s=statistics.median(op_times),
                    setup_wall_s=sum(import_s.values()) + statistics.median(setups),
                    round_wall_s=[r[0] for r in rounds],
                    calibration_loop_median_s=statistics.median(r[2] for r in rounds))

    try:
        for msg in workload.final_checks():
            run.problems.append(msg)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        run.problems.append("a final check raised")
    for msg in run.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    info["check_failures"] = len(run.problems)

    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
