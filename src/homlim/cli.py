"""Batch experiment runner: JSON config in, CSV artifacts out.

Commands
--------
params          per-level tentacle parameter table (log-space widths included)
verify-sobolev  strict closed-form bound table and, in demo mode, the
                Cauchy difference table
verify-jacobian finite-difference Jacobian positivity survey
verify-boundary boundary identity deviation
witness         preimage-continuum collapse table
degree          degree probes (fixtures or the configured stage map)
export-slice    image of a planar grid for figure reproduction

Exit codes: 0 ok, 2 config error, 3 assertion failure, 4 numerical
indeterminacy.  Reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, degree as degree_mod
from .composite import VARIANTS, build_stage, continuum_witness
from .errors import (
    IndeterminateDegreeError,
    InfeasibleScheduleError,
    UnsupportedDimensionError,
)
from .tentacles import (
    SQUEEZE,
    STRETCH,
    delta_tilde,
    solve_parameters,
    tentacle_seminorm_bound,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERT = 3
EXIT_INDETERMINATE = 4


class ConfigError(Exception):
    pass


_DEFAULTS = {
    "n": 3,
    "beta": 4.0,
    "variant": "T1",
    "schedule_mode": "demo",
    "max_stage": 3,
    "seed": 0,
    "out_dir": "out",
    "quadrature": {},
    "degree": {},
}
# the degree fields the commands read: cmd_degree, and export-slice's height
_DEGREE_FIELDS = ("center", "y", "radius", "refinement", "fixture", "slice_height")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    _validate(cfg)
    return cfg


def _fail(field, msg):
    raise ConfigError(f"config field '{field}': {msg}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(cfg):
    unknown = sorted(set(cfg) - set(_DEFAULTS))
    if unknown:
        _fail(unknown[0], f"unknown field; the fields are {', '.join(_DEFAULTS)}")
    if not _is_int(cfg["n"]) or cfg["n"] < 2:
        _fail("n", "must be an integer >= 2")
    if cfg["variant"] not in VARIANTS:
        _fail("variant", f"must be one of {VARIANTS}")
    if cfg["schedule_mode"] not in ("demo", "strict"):
        _fail("schedule_mode", "must be 'demo' or 'strict'")
    if cfg["variant"] in ("T1", "T2", "W") and cfg["n"] < 3:
        _fail("n", "tentacle variants need n >= 3")
    beta = cfg["beta"]
    if not (_is_int(beta) or isinstance(beta, float)) or not math.isfinite(beta):
        _fail("beta", "must be a finite number")
    # every variant runs the tower relocation, which needs beta >= n+1
    if beta < cfg["n"] + 1:
        _fail("beta", "need beta >= n+1")
    if not _is_int(cfg["max_stage"]) or not 1 <= cfg["max_stage"] <= 24:
        _fail("max_stage", "must be an integer in 1..24")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        _fail("seed", "must be a non-negative integer")
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        _fail("out_dir", "must be a non-empty string")
    for field in ("quadrature", "degree"):
        if not isinstance(cfg[field], dict):
            _fail(field, "must be a JSON object")
    unknown = sorted(set(cfg["degree"]) - set(_DEGREE_FIELDS))
    if unknown:
        _fail("degree", f"unknown field {unknown[0]!r}; the fields are {', '.join(_DEGREE_FIELDS)}")
    if cfg["degree"].get("fixture", "identity") != "identity":
        _fail("degree", "the only fixture is 'identity'")
    _quad_config(cfg)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, header: str, rows) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fh = open(path, "w", newline="\n")
    except OSError as exc:
        _fail("out_dir", f"cannot write {path}: {exc.strerror or exc}")
    with fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _strict_mode(cfg) -> str:
    return "strict-T2" if cfg["variant"] in ("T2", "W") else "strict-T1"


def _family(cfg) -> str:
    return STRETCH if cfg["variant"] in ("T2", "W") else SQUEEZE


def _quad_config(cfg) -> analysis.QuadratureConfig:
    q = dict(cfg["quadrature"])
    if "transverse_levels" in q:
        _fail("quadrature", "transverse_levels is read by no quadrature; remove it")
    q.setdefault("seed", cfg["seed"])
    try:
        return analysis.QuadratureConfig(**q)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'quadrature': {exc}") from exc


def cmd_params(cfg, out_dir):
    mode = "demo" if cfg["schedule_mode"] == "demo" else _strict_mode(cfg)
    k_max = cfg["max_stage"]
    sched = solve_parameters(cfg["n"], cfg["beta"], mode, _family(cfg), k_max)
    rows = []
    for lv in sched.levels:
        rows.append(
            (lv.k, lv.r_hat, lv.a, lv.c, lv.a_sq, lv.c_sq, lv.u_d, lv.u_b,
             lv.d, lv.b, lv.e_range,
             lv.bend if lv.bend is not None else float("nan"),
             lv.delta_budget if lv.delta_budget is not None else float("nan"))
        )
    write_csv(
        os.path.join(out_dir, "params.csv"),
        "k,r_hat,a,c,a_sq,c_sq,log_inv_d,log_inv_b,d,b,e_range,bend,delta",
        rows,
    )
    return EXIT_OK


def cmd_verify_sobolev(cfg, out_dir):
    n, beta, k_max = cfg["n"], cfg["beta"], cfg["max_stage"]
    code = EXIT_OK
    mode = _strict_mode(cfg)
    sched = solve_parameters(n, beta, mode, _family(cfg), max(k_max, 8))
    rows = []
    ok_all = True
    for k in range(1, max(k_max, 8) + 1):
        bound = tentacle_seminorm_bound(sched, k)
        dk = sched.level(k).delta_budget
        envelope = 2.0 ** (k * beta * (n - 1)) * delta_tilde(mode, n, beta, k)
        ok = bound <= dk
        ok_all = ok_all and ok
        rows.append((k, bound, dk, envelope, int(ok)))
    write_csv(os.path.join(out_dir, "sobolev_strict.csv"),
              "k,bound,delta,cauchy_envelope,pass", rows)
    if not ok_all:
        code = EXIT_ASSERT
    if cfg["schedule_mode"] == "demo" and cfg["variant"] in ("T1", "T2"):
        table = analysis.cauchy_table(cfg["variant"], n - 1, k_max,
                                      _quad_config(cfg), n, beta)
        write_csv(os.path.join(out_dir, "cauchy_table.csv"),
                  "k,integral,envelope,pass",
                  ((r.k, r.integral, r.envelope, int(r.passed)) for r in table.rows))
        if not all(r.passed for r in table.rows):
            code = EXIT_ASSERT
    return code


def cmd_verify_jacobian(cfg, out_dir):
    stage = build_stage(cfg["variant"], cfg["max_stage"], cfg["n"], cfg["beta"])
    rep = analysis.jacobian_survey(stage, 2000, _quad_config(cfg), n=cfg["n"])
    write_csv(os.path.join(out_dir, "jacobian.csv"),
              "fraction_positive,min_det,exceptions,hard_failures",
              [(rep.fraction_positive, rep.min_det, rep.count, len(rep.hard_failures))])
    return EXIT_OK if rep.fraction_positive >= 0.999 and not rep.hard_failures else EXIT_ASSERT


def cmd_verify_boundary(cfg, out_dir):
    stage = build_stage(cfg["variant"], cfg["max_stage"], cfg["n"], cfg["beta"])
    passed, dev = analysis.boundary_identity_check(stage, cfg["n"], 200, cfg["seed"])
    write_csv(os.path.join(out_dir, "boundary.csv"), "max_deviation,pass",
              [(dev, int(passed))])
    return EXIT_OK if passed else EXIT_ASSERT


def cmd_witness(cfg, out_dir):
    variant = cfg["variant"]
    if variant not in ("T1", "T2"):
        _fail("variant", "witnesses exist for variants T1 and T2")
    rows = []
    ok = True
    prev = None
    for k in range(1, cfg["max_stage"] + 1):
        wit = continuum_witness([(1,) * cfg["n"]] * k, k, variant, cfg["n"], cfg["beta"])
        rows.append((k, wit.endpoint_separation, wit.image_diameter))
        if wit.endpoint_separation < 0.5:
            ok = False
        if prev is not None and wit.image_diameter >= prev:
            ok = False
        prev = wit.image_diameter
    write_csv(os.path.join(out_dir, "witness.csv"),
              "k,endpoint_separation,image_diameter", rows)
    return EXIT_OK if ok else EXIT_ASSERT


def cmd_degree(cfg, out_dir):
    dcfg = cfg["degree"]
    n = cfg["n"]
    try:
        center = _point(dcfg.get("center", (0.55, 0.09, 0.25)[:n]), n, "center")
        y_cfg = dcfg.get("y")
        y_fixed = None if y_cfg is None else np.array(_point(y_cfg, n, "y"))
        radius = _real(dcfg.get("radius", 0.1), "radius")
        refinement = dcfg.get("refinement", 3)
        if not _is_int(refinement) or not 0 <= refinement <= degree_mod.MAX_REFINE:
            raise ValueError(f"refinement must be an integer in 0..{degree_mod.MAX_REFINE}, "
                             f"the finest mesh level a degree tries")
        probe = degree_mod.SphereProbe(center, radius, refinement)
        # the stage maps are defined on [-1,1]^n only
        if dcfg.get("fixture") != "identity" and not all(abs(c) + radius <= 1 for c in center):
            raise ValueError("the probe sphere must lie in [-1,1]^n: |c_i| + radius <= 1")
    except (TypeError, ValueError, UnsupportedDimensionError) as exc:
        raise ConfigError(f"config field 'degree': {exc}") from exc
    rows = []
    try:
        if dcfg.get("fixture") == "identity":
            y = np.zeros(len(center))
            rep = degree_mod.degree(lambda x: np.asarray(x, float), probe, y)
            rows.append(("identity", 0, *center, radius, _np_list(y), rep.degree,
                         rep.raw, rep.refinements))
        else:
            stages = range(1, cfg["max_stage"] + 1)
            for k in stages:
                stage = build_stage(cfg["variant"], k, n, cfg["beta"])
                y = y_fixed if y_fixed is not None else stage.forward(np.asarray(center))
                rep = degree_mod.degree(stage, probe, y)
                rows.append((cfg["variant"], k, *center, radius, _np_list(y),
                             rep.degree, rep.raw, rep.refinements))
    except IndeterminateDegreeError:
        return EXIT_INDETERMINATE
    coords = ",".join(f"c{i+1}" for i in range(len(center)))
    write_csv(os.path.join(out_dir, "degree.csv"),
              f"map,k,{coords},r,y,degree,raw,refinements", rows)
    degs = {r[-3] for r in rows}
    return EXIT_OK if len(degs) <= 1 else EXIT_ASSERT


def _real(value, name: str) -> float:
    """A finite JSON number; strings and booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the floats
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _point(value, n: int, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of n = {n} numbers, got {value!r}")
    point = tuple(_real(c, name) for c in value)
    if len(point) != n:
        raise ValueError(f"{name} must have n = {n} coordinates, got {len(point)}")
    return point


def _np_list(y):
    return "[" + " ".join(format(v, ".17g") for v in np.asarray(y)) + "]"


def cmd_export_slice(cfg, out_dir):
    n = cfg["n"]
    res = _quad_config(cfg).resolution * 8
    try:
        zs = _real(cfg["degree"].get("slice_height", 0.0), "slice_height")
    except ValueError as exc:
        raise ConfigError(f"config field 'degree': {exc}") from exc
    if not -1.0 <= zs <= 1.0:
        _fail("degree", "slice_height must lie in [-1, 1], where the stage maps are defined")
    stage = build_stage(cfg["variant"], cfg["max_stage"], n, cfg["beta"])
    axis = np.linspace(-0.999, 0.999, res)
    grid = np.zeros((res * res, n))
    grid[:, 0], grid[:, -1] = np.repeat(axis, res), np.tile(axis, res)
    if n > 2:
        grid[:, 1] = zs
    images = stage.forward_many(grid)
    rows = [(u, v, *q) for u, v, q in zip(grid[:, 0], grid[:, -1], images.tolist())]
    write_csv(os.path.join(out_dir, "slice.csv"),
              "u,v," + ",".join(f"f{i+1}" for i in range(n)), rows)
    return EXIT_OK


# commands that honour schedule_mode 'strict'; the others evaluate the stage
# maps, which exist only on the demo schedule (strict widths underflow)
_STRICT_COMMANDS = ("params", "verify-sobolev")

_COMMANDS = {
    "params": cmd_params,
    "verify-sobolev": cmd_verify_sobolev,
    "verify-jacobian": cmd_verify_jacobian,
    "verify-boundary": cmd_verify_boundary,
    "witness": cmd_witness,
    "degree": cmd_degree,
    "export-slice": cmd_export_slice,
}


def run(command: str, config_path: str, out_dir: str | None = None,
        stage: int | None = None, seed: int | None = None) -> int:
    try:
        cfg = load_config(config_path)
        if stage is not None:
            cfg["max_stage"] = stage
        if seed is not None:
            cfg["seed"] = seed
        _validate(cfg)
        if cfg["schedule_mode"] == "strict" and command not in _STRICT_COMMANDS:
            _fail("schedule_mode", f"'strict' is supported by {', '.join(_STRICT_COMMANDS)} "
                  f"only; {command} evaluates the demo-schedule stage maps")
        out = out_dir or cfg["out_dir"]
        return _COMMANDS[command](cfg, out)
    except (ConfigError, InfeasibleScheduleError, UnsupportedDimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homlim",
        description="construct and verify homeomorphism stages with wild Sobolev limits",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--stage", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.stage, args.seed)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
