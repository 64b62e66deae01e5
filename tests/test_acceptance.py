"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Criterion 5 is expected red on its "decreasing rows" clause: with
float-representable demo widths the change-region integrals grow by a
factor ~2^{beta+n-1} per level (see the analysis in the repo notes);
the strict-schedule mechanism that actually drives the decrease is
criterion 4, which passes.
"""

import time

import numpy as np
import pytest

from homlim.analysis import (
    QuadratureConfig,
    boundary_identity_check,
    cauchy_table,
    jacobian_survey,
    make_rng,
)
from homlim.composite import build_stage, continuum_witness
from homlim.degree import (
    SphereProbe,
    degree,
    degree_stability,
    disjointness_probe,
    inv_check,
    nesting_probe,
    signed_preimage_count,
)
from homlim.geometry import (
    Address,
    ParameterSchedule,
    cell_center,
    cube_vertices,
    harmonic_schedule,
    limit_measure,
    stage_measure,
)
from homlim.tentacles import (
    SqueezeStage,
    StretchStage,
    delta_tilde,
    solve_parameters,
    tentacle_seminorm_bound,
)
from homlim.tower import TowerMapping

N, BETA = 3, 4.0
TAME_CENTER = (0.55, 0.09, 0.25)


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return ok


def test_01_measure_convergence():
    t0 = time.time()
    a = ParameterSchedule(n=N, beta=BETA, kind="A")
    b = ParameterSchedule(n=N, beta=BETA, kind="B")
    vals = [stage_measure(a, k) for k in range(11)]
    lim = limit_measure(a)
    decreasing = all(y < x or (y == x == lim) for x, y in zip(vals, vals[1:]))
    close = abs(vals[10] - 1.0) < 1e-3
    thin_null = limit_measure(b) == 0.0
    ok = decreasing and close and lim == 1.0 and thin_null
    elapsed = time.time() - t0
    assert report(1, "measure convergence", ok,
                  f"m_10={vals[10]:.6f}, {elapsed:.2f}s") and elapsed < 1.0


def test_02_roundtrips():
    t0 = time.time()
    rng = make_rng(2024)
    worst = 0.0
    a = ParameterSchedule(n=N, beta=BETA, kind="A")
    b = ParameterSchedule(n=N, beta=BETA, kind="B")

    from homlim.cantor_map import CantorHomeomorphism
    from homlim.tentacles import shift_forward, shift_inverse

    sq = solve_parameters(N, BETA, "demo", "squeeze", 4)
    word = ((0, 0, -7 / 8), (0, 0, 3 / 8), (0, 0, 7 / 8), (0, 0, -1 / 8))

    def err_of(fwd, inv, pts):
        e = 0.0
        for x in pts:
            e = max(e, float(np.max(np.abs(inv(fwd(x)) - x))))
        return e

    for k in (1, 2, 3):
        pts = rng.uniform(-1, 1, (1000, N))
        g = CantorHomeomorphism(a, b, k)
        L = TowerMapping(b, k)
        worst = max(worst, err_of(g.forward, g.inverse, pts))
        worst = max(worst, err_of(L.forward, L.inverse, pts))
        for var in ("T1", "T2", "W"):
            st = build_stage(var, k)
            worst = max(worst, err_of(st.forward, st.inverse, pts[:400]))
    pts = rng.uniform(-1, 1, (10_000, N))
    g = CantorHomeomorphism(a, b, 4)
    L = TowerMapping(b, 4)
    h = SqueezeStage(sq, 4)
    ht = StretchStage(solve_parameters(N, BETA, "demo", "stretch", 4), 4)
    worst = max(worst, err_of(g.forward, g.inverse, pts))
    worst = max(worst, err_of(L.forward, L.inverse, pts))
    worst = max(worst, err_of(h.forward, h.inverse, pts))
    worst = max(worst, err_of(ht.forward, ht.inverse, pts))
    worst = max(worst, err_of(
        lambda x: shift_forward(sq, word, x), lambda y: shift_inverse(sq, word, y), pts
    ))
    for var in ("T1", "T2", "W"):
        st = build_stage(var, 4)
        worst = max(worst, err_of(st.forward, st.inverse, pts))
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    assert report(2, "roundtrips", ok, f"max err {worst:.2e}, {elapsed:.0f}s")
    assert elapsed < 60.0


def test_03_boundary_identity():
    worst = 0.0
    for var in ("T1", "T2"):
        for k in (1, 2, 3):
            st = build_stage(var, k)
            _, dev = boundary_identity_check(st, N, 167, seed=3)
            worst = max(worst, dev)
    ok = worst == 0.0
    assert report(3, "boundary identity", ok, f"max deviation {worst}")


def test_04_sobolev_bound_strict():
    t0 = time.time()
    ok = True
    for mode in ("strict-T1", "strict-T2"):
        sched = solve_parameters(N, BETA, mode, None, 8)
        for k in range(1, 9):
            if tentacle_seminorm_bound(sched, k) > sched.level(k).delta_budget:
                ok = False
    env = [2.0 ** (k * BETA * (N - 1)) * delta_tilde("strict-T1", N, BETA, k)
           for k in range(1, 9)]
    summable = all(e == pytest.approx(1 / k**2) for k, e in enumerate(env, 1))
    tails = [sum(env[i:]) for i in range(len(env))]
    summable = summable and all(t2 < t1 for t1, t2 in zip(tails, tails[1:]))
    elapsed = time.time() - t0
    ok = ok and summable
    assert report(4, "strict-schedule energy bounds", ok,
                  f"envelope k^-2 summable={summable}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_05_sobolev_table_demo():
    t0 = time.time()
    cfg = QuadratureConfig(resolution=6, axial_resolution=4, axial_levels=8,
                           transverse_resolution=4, transverse_levels=5,
                           cells_cap=6, seed=5)
    base = cauchy_table("T1", N - 1, 4, cfg)
    refined = cauchy_table("T1", N - 1, 4, cfg, refine=True)
    positive = all(r.integral > 0 for r in base.rows)
    bounded = all(r.passed for r in base.rows)
    decreasing = base.decreasing()
    consistent = all(
        abs(r2.integral - r1.integral) / abs(r2.integral) < 0.05
        for r1, r2 in zip(base.rows, refined.rows)
    )
    elapsed = time.time() - t0
    rowtxt = " ".join(f"k={r.k}:{r.integral:.3e}" for r in base.rows)
    ok = positive and bounded and decreasing and consistent
    report(5, "demo-schedule Cauchy table", ok,
           f"{rowtxt} decreasing={decreasing} consistent={consistent}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert positive and bounded
    # Expected red, kept faithful to the criterion.  With representable
    # demo widths the change-region integrand is dominated by the fat
    # transverse shell sweeping the full scale cascade of the composed
    # maps: rows grow ~2^{beta+n-1} per level instead of decreasing, and
    # the ridge-dominated integrand defeats grid-refinement consistency.
    # The strict-schedule mechanism that the table is meant to mirror is
    # criterion 4, which passes.  See the repo notes for the analysis.
    assert decreasing, "demo rows do not decrease (spec-level defect, see notes)"
    assert consistent, "ridge-dominated demo integrand defeats 5% grid consistency"


def test_06_jacobian_positivity():
    t0 = time.time()
    ok = True
    detail = []
    for var in ("T1", "T2"):
        for k in (1, 2, 3):
            rep = jacobian_survey(build_stage(var, k), 10_000,
                                  QuadratureConfig(seed=6))
            good = rep.fraction_positive >= 0.999 and not rep.hard_failures
            ok = ok and good
            detail.append(f"{var}k{k}:{rep.fraction_positive:.4f}/{rep.count}exc")
    elapsed = time.time() - t0
    assert report(6, "Jacobian positivity", ok,
                  " ".join(detail) + f", {elapsed:.0f}s")


def test_07_preimage_collapse():
    word = (1, 1, 1)
    ok = True
    detail = []
    for variant in ("T1", "T2"):
        diams = []
        seps = []
        for k in (1, 2, 3, 4):
            wit = continuum_witness([word] * k, k, variant)
            diams.append(wit.image_diameter)
            seps.append(wit.endpoint_separation)
        strict_dec = all(b < a for a, b in zip(diams, diams[1:]))
        ratio = diams[-1] / diams[0]
        ok = ok and strict_dec and min(seps) >= 0.5 and ratio <= 0.2
        detail.append(f"{variant}: ratio={ratio:.3f} sep>={min(seps):.2f}")
    assert report(7, "preimage continuum collapse", ok, " ".join(detail))


def test_08_generalized_inverse():
    rng = make_rng(8)
    worst = 0.0
    for k in (1, 2, 3):
        t2, w = build_stage("T2", k), build_stage("W", k)
        for x in rng.uniform(-1, 1, (1000, N)):
            worst = max(worst, float(np.max(np.abs(w.forward(t2.forward(x)) - x))))
    ok = worst <= 1e-10
    assert report(8, "generalized inverse w(f~(x)) = x", ok, f"max err {worst:.2e}")


def test_09_degree():
    t0 = time.time()
    unit = SphereProbe((0.0, 0.0, 0.0), 1.0, 2)
    box = ((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2))

    def identity(x):
        return np.asarray(x, float)

    fixtures = [
        (identity, (0.0, 0.0, 0.0), unit),
        (lambda x: -np.asarray(x, float), (0.0, 0.0, 0.0), unit),
        (lambda x: 2.0 * np.asarray(x, float), (0.1, 0.0, 0.0), unit),
        (lambda x: np.array([x[0] + 0.05, x[1], -x[2]]), (0.05, 0.0, 0.0), unit),
    ]
    fixtures_ok = True
    for f, y, probe in fixtures:
        got = degree(f, probe, y).degree
        oracle = signed_preimage_count(f, y, box, grid=7)
        fixtures_ok = fixtures_ok and got == oracle
    planar = lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]])
    p2 = SphereProbe((0.0, 0.0), 0.8, 2)
    got2 = degree(planar, p2, (0.1, 0.05)).degree
    fixtures_ok = fixtures_ok and got2 == signed_preimage_count(
        planar, (0.1, 0.05), ((-1, -1), (1, 1)), grid=15) == 2

    stages = [build_stage("T1", k) for k in (1, 2, 3, 4)]
    probe = SphereProbe(TAME_CENTER, 0.05, 3)
    y = stages[0].forward(np.asarray(TAME_CENTER))
    degs = degree_stability(stages, probe, y)
    stage_ok = degs == [1, 1, 1, 1]

    st = stages[1]
    rng = make_rng(9)
    ys = st.forward_many(np.asarray(TAME_CENTER) + 0.04 * rng.uniform(-1, 1, (100, N)))
    nest = nesting_probe(st, TAME_CENTER, 0.1, 0.3, ys)
    disj = disjointness_probe(st, TAME_CENTER, 0.1, (-0.55, -0.09, -0.25), 0.1, ys)
    inv = inv_check(st, TAME_CENTER, 0.05, 12, 12)
    elapsed = time.time() - t0
    ok = fixtures_ok and stage_ok and nest.passed and disj.passed and inv.passed
    assert report(
        9, "topological degree", ok,
        f"fixtures={fixtures_ok} stages={degs} nest={nest} disj={disj} "
        f"inv={inv.passed} {elapsed:.0f}s")
    assert elapsed < 300.0


def test_10_lipschitz_collapse():
    hs = harmonic_schedule(N)
    rng = make_rng(10)
    prev = None
    collapse_ok = True
    for k in (1, 2, 3, 4):
        st = build_stage("FL", k)
        pts = []
        for _ in range(80):
            w = tuple(tuple(cube_vertices(N)[rng.integers(2**N)]) for _ in range(k))
            c = cell_center(hs, Address("setA", w))
            pts.append(c + hs.r(k) * rng.uniform(-0.95, 0.95, N))
        ims = st.forward_many(np.array(pts))
        diam = float(np.sqrt(((ims[:, None] - ims[None]) ** 2).sum(-1)).max())
        if prev is not None and diam > prev / 2:
            collapse_ok = False
        prev = diam
    cap = 2000.0  # pinned k-independent bound, see repo notes
    lip_ok = True
    for k in (1, 2, 3, 4):
        st = build_stage("FL", k)
        p = rng.uniform(-1, 1, (200, N))
        q = np.clip(p + rng.uniform(-1e-3, 1e-3, (200, N)), -1, 1)
        for x1, x2 in zip(p, q):
            d = np.linalg.norm(x1 - x2)
            if d == 0:
                continue
            if np.linalg.norm(st.forward(x1) - st.forward(x2)) / d >= cap:
                lip_ok = False
    ok = collapse_ok and lip_ok
    assert report(10, "Lipschitz collapse", ok,
                  f"halving={collapse_ok} quotients<{cap:.0f}={lip_ok}")


def test_11_determinism(tmp_path):
    import json

    from homlim import cli

    cfg = {
        "n": N, "beta": BETA, "variant": "T1", "schedule_mode": "demo",
        "max_stage": 2, "seed": 17, "out_dir": str(tmp_path / "out"),
        "quadrature": {"resolution": 4, "axial_resolution": 8,
                       "transverse_resolution": 2, "cells_cap": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    ok = True
    for command, name in (("witness", "witness.csv"),
                          ("verify-jacobian", "jacobian.csv"),
                          ("params", "params.csv")):
        assert cli.run(command, str(path)) in (cli.EXIT_OK, cli.EXIT_ASSERT)
        first = (tmp_path / "out" / name).read_bytes()
        assert cli.run(command, str(path)) in (cli.EXIT_OK, cli.EXIT_ASSERT)
        ok = ok and (tmp_path / "out" / name).read_bytes() == first
    assert report(11, "byte-identical reruns", ok)
