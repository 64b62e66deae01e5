"""Timing wrappers around the public functions of every homlim layer.

The traced run replaces each listed function with a wrapper that keeps a
stack of open spans.  A span's self time is its duration minus the time
covered by the spans it opened.  Instrument-level functions (``analysis``,
``degree`` and ``build_stage``) keep one full span record per call;
factor-map functions, which run millions of times per round, keep
per-function aggregates only: calls, points (rows processed: 1 for a
pointwise call, N for a batch call) and self time.

The wrappers live here, in the benchmark, and are installed from outside
the package; ``Tracer.uninstall`` restores the original functions.

A wrapper does work of its own before and after it reads the clock: most
of it falls outside the wrapped call's span and lands in the caller's self
time, the rest in the call's own.  ``wrapper_cost`` measures both parts
on a wrapped no-op, and ``layer_stats`` takes them off every self time
(the caller's part once per wrapped call it makes) and reports their sum
as the wrapper's time.
"""

from __future__ import annotations

import statistics
import time

# (layer, functions) in the order the metrics are printed
LAYERS = tuple(
    f"{layer}.{fn}"
    for layer, fns in (
        ("cantor_map", ("forward", "inverse", "derivative", "forward_many", "inverse_many")),
        ("tower", ("forward", "inverse", "derivative", "forward_many", "inverse_many")),
        ("tentacles", ("forward", "inverse", "derivative")),
        ("composite", ("forward", "inverse", "derivative", "forward_many", "build_stage")),
        ("analysis", ("cauchy_table", "jacobian_survey", "boundary_identity_check")),
        ("degree", ("degree", "inv_check", "nesting_probe")),
        ("kernels", ("solid_angle_sum", "cantor_map_points")),
    )
    for fn in fns
)
# refinement level at which a degree was certified (degree._cached_degree
# starts at the probe's refinement, 3 here, and gives up after 7)
REFINEMENT_BINS = ("level3", "level4", "level5", "level6", "level7", "indeterminate")


def _one(args):
    return 1


def _rows_of_arg(index):
    def rows(args):
        return len(args[index])

    return rows


class Tracer:
    """Span stack with per-function aggregates and instrument-level spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}       # name -> [calls, points, self_s, child calls]
        self.spans: list[dict] = []            # full records, instrument level
        self.refinements: dict[str, int] = {}  # degree certification levels
        self.mesh_points = 0                   # map evaluations under degree spans
        self._stack: list[list] = []           # [start, child_s, span_id, stats]
        self._degree_depth = 0
        self._patches: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, points=_one, keep_span=False,
             degree_span=False, mesh_eval=False):
        """Replace ``owner.attr`` with a timing wrapper recorded as ``name``."""
        fn = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0])
        stack = self._stack
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            if mesh_eval and tracer._degree_depth:
                tracer.mesh_points += 1
            span_id = None
            if keep_span:
                span_id = len(tracer.spans)
                tracer.spans.append({
                    "id": span_id, "name": name,
                    "parent": stack[-1][2] if stack else None,
                })
            if degree_span:
                tracer._degree_depth += 1
            frame = [clock(), 0.0, span_id if keep_span else (stack[-1][2] if stack else None),
                     stats]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if degree_span:
                    tracer._degree_depth -= 1
                total = end - frame[0]
                stats[0] += 1
                stats[1] += points(args)
                stats[2] += total - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += total
                    parent[3][3] += 1
                if keep_span:
                    tracer.spans[span_id].update(
                        start=frame[0], end=end, self_s=total - frame[1])

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return wrapper

    def record_levels(self, owner, attr: str, indeterminate_error):
        """Count the refinement level at which each degree was certified."""
        fn = getattr(owner, attr)
        levels = self.refinements

        def wrapper(*args, **kwargs):
            try:
                report = fn(*args, **kwargs)
            except indeterminate_error:
                levels["indeterminate"] = levels.get("indeterminate", 0) + 1
                raise
            key = f"level{report.refinements}"
            levels[key] = levels.get(key, 0) + 1
            return report

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def self_total(self) -> float:
        """Sum of the self times of every traced function, as measured."""
        return sum(s[2] for s in self.stats.values())

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


class _NoOp:
    def calls(self, n):
        call = self.noop
        for _ in range(n):
            call()

    def loop(self, n):
        for _ in range(n):
            pass

    def noop(self):
        return None


def wrapper_cost(n=20000, repeats=5, clock=time.perf_counter):
    """Per-call cost of a wrapper: ``(caller_s, own_s)``.

    A wrapped no-op is called ``n`` times from a wrapped caller, and the
    same calls are timed bare.  ``own_s`` is the no-op's traced self time
    per call minus the bare cost of one call (the bare calls minus the bare
    loop); ``caller_s`` is the rest of the traced time per call beyond the
    bare calls, the part charged to the caller.  Medians over ``repeats``.
    """
    caller, own = [], []
    dummy = _NoOp()
    for _ in range(repeats):
        t0 = clock()
        dummy.loop(n)
        t1 = clock()
        dummy.calls(n)
        bare = clock() - t1
        bare_call = (bare - (t1 - t0)) / n
        tracer = Tracer(clock)
        tracer.wrap(_NoOp, "calls", "calls")
        tracer.wrap(_NoOp, "noop", "noop")
        try:
            t0 = clock()
            dummy.calls(n)
            traced = clock() - t0
        finally:
            tracer.uninstall()
        total = (traced - bare) / n
        own_s = tracer.stats["noop"][2] / n - bare_call
        own.append(own_s)
        caller.append(total - own_s)
    return max(statistics.median(caller), 0.0), max(statistics.median(own), 0.0)


def layer_stats(stats: dict, caller_s: float, own_s: float):
    """``{name: (calls, points, self_s)}`` with the wrappers' cost taken off
    every self time, and the wrappers' total cost."""
    out, wrapper_s = {}, 0.0
    for name, (calls, points, self_s, child_calls) in stats.items():
        cost = child_calls * caller_s + calls * own_s
        out[name] = (calls, points, self_s - cost)
        wrapper_s += cost
    return out, wrapper_s


def install(tracer: Tracer):
    """Wrap the public functions of every homlim layer."""
    from homlim import _kernels, analysis, cantor_map, composite, degree, tentacles, tower

    rows0, rows1 = _rows_of_arg(0), _rows_of_arg(1)
    maps = [
        ("cantor_map", cantor_map.CantorHomeomorphism),
        ("tower", tower.TowerMapping),
    ]
    for layer, cls in maps:
        for fn in ("forward", "inverse", "derivative"):
            tracer.wrap(cls, fn, f"{layer}.{fn}")
        for fn in ("forward_many", "inverse_many"):
            tracer.wrap(cls, fn, f"{layer}.{fn}", points=rows1)
    for fn in ("forward", "inverse", "derivative"):
        tracer.wrap(tentacles._TentacleStage, fn, f"tentacles.{fn}")
    tracer.wrap(composite.CompositeStage, "forward", "composite.forward", mesh_eval=True)
    tracer.wrap(composite.CompositeStage, "inverse", "composite.inverse")
    tracer.wrap(composite.CompositeStage, "derivative", "composite.derivative")
    tracer.wrap(composite.CompositeStage, "forward_many", "composite.forward_many",
                points=rows1)
    original_build = composite.build_stage
    build = tracer.wrap(composite, "build_stage", "composite.build_stage", keep_span=True)
    # analysis bound the name at import, before the wrapper existed
    tracer._patches.append((analysis, "build_stage", original_build))
    analysis.build_stage = build
    for fn in ("cauchy_table", "jacobian_survey", "boundary_identity_check"):
        tracer.wrap(analysis, fn, f"analysis.{fn}", keep_span=True)
    for fn in ("degree", "inv_check", "nesting_probe"):
        tracer.wrap(degree, fn, f"degree.{fn}", keep_span=True, degree_span=True)
    tracer.record_levels(degree, "_cached_degree", degree.IndeterminateDegreeError)
    tracer.wrap(_kernels, "solid_angle_sum", "kernels.solid_angle_sum", points=rows0)
    tracer.wrap(_kernels, "cantor_map_points", "kernels.cantor_map_points", points=rows0)
