import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homlim import analysis, cli


QUADRATURE = {"resolution": 4, "axial_resolution": 8, "transverse_resolution": 2, "cells_cap": 2}


def write_cfg(tmp_path, **overrides):
    cfg = {
        "n": 3,
        "beta": 4.0,
        "variant": "T1",
        "schedule_mode": "demo",
        "max_stage": 2,
        "seed": 11,
        "out_dir": str(tmp_path / "out"),
        "quadrature": dict(QUADRATURE),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_bad_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert cli.run("params", str(p)) == cli.EXIT_CONFIG

    def test_bad_field_is_config_error(self, tmp_path):
        assert cli.run("params", write_cfg(tmp_path, variant="X9")) == cli.EXIT_CONFIG
        assert cli.run("params", write_cfg(tmp_path, beta=2.0)) == cli.EXIT_CONFIG
        assert cli.run("params", write_cfg(tmp_path, n=2)) == cli.EXIT_CONFIG


    @pytest.mark.parametrize("command,overrides", [
        ("verify-boundary", {"variant": "FL", "beta": 3}),
        ("params", {"max_stage": 12}),
        ("params", {"beta": "x"}),
        ("params", {"max_stage": 2.7}),
        ("verify-jacobian", {"quadrature": {"resolution": 2}}),
        ("degree", {"degree": {"radius": -1.0}}),
        ("degree", {"n": 4, "beta": 5}),
        ("degree", {"degree": {"center": [0.1, 0.2]}}),
        ("degree", {"degree": {"y": [0.1]}}),
        ("verify-sobolev", {"quadrature": {"cells_cap": "a"}}),
        ("verify-jacobian", {"quadrature": {"fd_step": "a"}}),
        ("export-slice", {"quadrature": {"resolution": 4.5}}),
        ("verify-jacobian", {"seed": -1}),
        ("verify-jacobian", {"schedule_mode": "strict"}),
        ("verify-boundary", {"schedule_mode": "strict"}),
        ("witness", {"schedule_mode": "strict"}),
        ("degree", {"schedule_mode": "strict"}),
        ("export-slice", {"schedule_mode": "strict"}),
        ("degree", {"degree": {"radius": 0.5}}),
        ("degree", {"degree": {"center": [0.0, 0.0, -0.95]}}),
        ("degree", {"degree": {"radius": math.inf}}),
        ("degree", {"degree": {"radius": math.nan}}),
        ("degree", {"degree": {"refinement": -1}}),
        ("degree", {"degree": {"refinement": 2.7}}),
        ("degree", {"degree": {"refinement": 8}}),
        ("witness", {"variant": "W", "max_stage": 1}),
        ("witness", {"variant": "FL", "max_stage": 1}),
        ("export-slice", {"degree": {"slice_height": 1.5}}),
        ("verify-sobolev", {"quadrature": {"transverse_levels": 3}}),
        ("params", {"out_dir": 5}),
        ("degree", {"out_dir": 5}),
        ("params", {"out_dir": ""}),
        ("params", {"varient": "T2"}),
        ("degree", {"degree": {"centre": [0.1, 0.2, 0.3]}}),
        ("degree", {"degree": {"fixture": "doubling"}}),
        ("params", {"variant": "FL", "n": 2, "beta": 3.0, "max_stage": 1}),
        ("verify-sobolev", {"variant": "FL", "n": 2, "beta": 3.0, "max_stage": 1}),
        # a directory below a regular file (this test file) cannot be made
        ("params", {"out_dir": os.path.join(__file__, "sub")}),
        ("verify-boundary", {"out_dir": os.path.join(__file__, "sub")}),
        # degree targets, centers, radii and slice heights are finite JSON numbers
        ("degree", {"degree": {"y": [math.nan, 0.0, 0.0]}}),
        ("degree", {"degree": {"y": [math.inf, 0.0, 0.0]}}),
        ("degree", {"degree": {"y": [10**400, 0, 0]}}),
        ("degree", {"degree": {"y": "0.1 0.2 0.3"}}),
        ("degree", {"degree": {"y": 0.5}}),
        ("degree", {"degree": {"center": [0.5, "0.1", 0.2]}}),
        ("degree", {"degree": {"y": [0.5, False, 0.2]}}),
        ("degree", {"degree": {"radius": "0.1"}}),
        ("degree", {"degree": {"fixture": "identity", "radius": True}}),
        ("export-slice", {"degree": {"slice_height": "0.5"}}),
        # a 320-digit integer is beyond the floats
        ("params", {"beta": 10**320}),
        ("verify-sobolev", {"beta": 10**320}),
        # a step whose 10 h margin leaves no interior, and one whose h / 8
        # moves no coordinate
        ("verify-jacobian", {"quadrature": {"fd_step": 10}, "max_stage": 1}),
        ("verify-jacobian", {"quadrature": {"fd_step": 1e-320}}),
        # betas whose demo knots collapse or whose strict widths overflow
        ("witness", {"max_stage": 3, "beta": 10}),
        ("export-slice", {"max_stage": 1, "beta": 20}),
        ("witness", {"max_stage": 1, "beta": 20}),
        ("verify-jacobian", {"max_stage": 1, "beta": 60}),
        ("degree", {"max_stage": 1, "beta": 60}),
        ("export-slice", {"max_stage": 1, "beta": 60}),
        ("verify-sobolev", {"beta": 1e10}),
        ("verify-sobolev", {"variant": "T2", "beta": 1e10}),
        ("verify-sobolev", {"variant": "T2", "beta": 300.0}),
        # sizes over the point budget, rejected before anything is allocated
        ("export-slice", {"quadrature": {"resolution": 65}}),
        ("verify-sobolev", {"n": 4, "beta": 5, "quadrature": {"resolution": 23}}),
        ("verify-sobolev", {"quadrature": {"axial_resolution": 2**18}}),
        ("verify-sobolev", {"quadrature": {"cells_cap": 2**18 + 1}}),
        ("params", {"n": 10, "beta": 11}),
        ("degree", {"degree": {"fixture": "identity"}, "n": 4, "beta": 5}),
        # steps whose 10 h margin clips the survey to a sliver around the
        # origin, where the stage maps are near the identity
        ("verify-jacobian", {"quadrature": {"fd_step": 0.099}, "max_stage": 1}),
        ("verify-jacobian", {"quadrature": {"fd_step": 0.05}, "max_stage": 1}),
        # a step whose central differences are rounding noise (68
        # exceptions in the T2 and W surveys at k = 2)
        ("verify-jacobian", {"quadrature": {"fd_step": 2.0**-49}, "max_stage": 1}),
        # the last mesh level has no next one to certify against
        ("degree", {"degree": {"refinement": 7}}),
    ])
    def test_bad_config_exits_2(self, tmp_path, command, overrides):
        assert cli.run(command, write_cfg(tmp_path, **overrides)) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("overrides", [
        {"beta": 5},
        {"beta": 4.5},
        {"variant": "T2", "beta": 5},
        {"n": 4, "beta": 5},
    ])
    def test_strict_table_at_large_beta(self, tmp_path, overrides):
        # the strict table runs to level 8, whose tube end cap is far
        # narrower than one ulp next to 1; stage 1 skips the demo table
        cfg = write_cfg(tmp_path, **overrides)
        assert cli.run("verify-sobolev", cfg, stage=1) in (cli.EXIT_OK, cli.EXIT_ASSERT)
        rows = (tmp_path / "out" / "sobolev_strict.csv").read_text().splitlines()
        assert len(rows) == 9


class TestCommands:
    def test_params_strict_row(self, tmp_path):
        cfg = write_cfg(tmp_path, schedule_mode="strict", max_stage=1)
        assert cli.run("params", cfg) == cli.EXIT_OK
        lines = (tmp_path / "out" / "params.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        # fixd inversion with the production constants
        assert float(row["log_inv_d"]) == pytest.approx(2.351e8, rel=1e-3)
        # the log-space pair satisfies the boundary matching relation
        assert math.log(float(row["log_inv_b"])) == pytest.approx(
            math.log(float(row["log_inv_d"])) + float(row["e_range"])
        )

    def test_verify_jacobian_at_a_deep_stage(self, tmp_path):
        # at k = 8, beta = 4 the derived step 1e-3 2^-40 would fall below
        # the fd_step floor 2^-40, where central differences are rounding
        # noise: 20 of 2000 exceptions and exit 3 on a valid map
        cfg = write_cfg(tmp_path, max_stage=8, seed=0)
        assert cli.run("verify-jacobian", cfg) == cli.EXIT_OK
        row = (tmp_path / "out" / "jacobian.csv").read_text().splitlines()[1].split(",")
        assert row[2:] == ["0", "0"]

    def test_verify_boundary(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.run("verify-boundary", cfg) == cli.EXIT_OK
        text = (tmp_path / "out" / "boundary.csv").read_text()
        assert text.splitlines()[1] == "0,1"

    def test_degree_identity_fixture(self, tmp_path):
        cfg = write_cfg(tmp_path, degree={"fixture": "identity",
                                          "center": [0.0, 0.0, 0.0],
                                          "radius": 0.5})
        assert cli.run("degree", cfg) == cli.EXIT_OK
        lines = (tmp_path / "out" / "degree.csv").read_text().splitlines()
        assert lines[1].split(",")[7] == "1"

    def test_degree_of_an_overflowing_target_is_zero(self, tmp_path):
        # y lies outside the bounding box of every image mesh, so its
        # degree is 0, however the squared offsets overflow; no numpy
        # overflow warning reaches stderr
        for y in ([1e308, 1e308, 1e308], [1e154, 1e154, 1e154]):
            cfg = write_cfg(tmp_path, max_stage=1, degree={"y": y})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.run("degree", cfg) == cli.EXIT_OK
            row = (tmp_path / "out" / "degree.csv").read_text().splitlines()[1].split(",")
            assert row[7] == "0"

    def test_witness(self, tmp_path):
        cfg = write_cfg(tmp_path, max_stage=2)
        assert cli.run("witness", cfg) == cli.EXIT_OK

    def test_export_slice(self, tmp_path):
        cfg = write_cfg(tmp_path, max_stage=1)
        assert cli.run("export-slice", cfg) == cli.EXIT_OK
        lines = (tmp_path / "out" / "slice.csv").read_text().splitlines()
        assert lines[0] == "u,v,f1,f2,f3"
        assert len(lines) > 100

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for command, name in (("witness", "witness.csv"),
                              ("verify-jacobian", "jacobian.csv")):
            assert cli.run(command, cfg) in (cli.EXIT_OK, cli.EXIT_ASSERT)
            first = (tmp_path / "out" / name).read_bytes()
            assert cli.run(command, cfg) in (cli.EXIT_OK, cli.EXIT_ASSERT)
            assert (tmp_path / "out" / name).read_bytes() == first

    def test_stage_override(self, tmp_path):
        cfg = write_cfg(tmp_path, max_stage=2)
        assert cli.run("witness", cfg, stage=1) == cli.EXIT_OK
        lines = (tmp_path / "out" / "witness.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one stage

    def test_main_entrypoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert cli.main(["verify-boundary", "--config", cfg]) == 0


def _table_rows(table, prefix=""):
    for name, spec in table.items():
        if isinstance(spec, dict):
            yield from _table_rows(spec, f"{name}.")
        else:
            yield prefix + name, spec


def test_readme_config_section_states_the_table():
    # the README's field table has one row per field of cli.FIELDS, and
    # states its kind and range as the config errors do
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", section, re.M)
    assert rows == [(name, spec.describe()) for name, spec in _table_rows(cli.FIELDS)]


# --- fuzz of the exit-code contract ----------------------------------------

OVERFLOW = "overflowing float literal"  # written into the JSON text as 1e999
_JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.sampled_from(
        [10**400, -10**400, OVERFLOW, 5e-324, 1e-310, -0.0, math.nan, math.inf, -1, 0.5]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                              max_size=2),
    max_leaves=4,
)
_CAP = analysis.POINT_BUDGET


def _ints(*values):
    return st.sampled_from(values)


def _point(n, bound=0.6):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n)


# per field: (values the field accepts, values it rejects).  The size fields
# draw accepted values at or below the write_cfg ones and rejected ones
# just over the cap; the junk has no other integers above 1.
_FIELDS = {
    "n": (_ints(2, 3), _ints(1, cli.FIELDS["n"].hi + 1)),
    "beta": (st.floats(4.0, 6.0), st.sampled_from([2.0, 10.0, 20.0, 60.0, 1e10, 1e300])),
    "variant": (st.sampled_from(["T1", "T2", "W", "FL"]), st.just("X9")),
    "schedule_mode": (st.just("demo"), st.just("strict")),
    "max_stage": (_ints(1, 2), _ints(0, 25)),
    "seed": (st.integers(0, 2**70), _ints(-1)),
    "out_dir": (st.text(min_size=1, max_size=3), st.just("")),
    "quadrature": {
        "resolution": (_ints(4), _ints(3, 65, 66)),
        "axial_resolution": (_ints(1, 8), _ints(0, _CAP + 1)),
        "axial_levels": (_ints(0, 6), _ints(_CAP + 1)),
        "transverse_resolution": (_ints(1, 2), _ints(0, _CAP + 1)),
        "cells_cap": (_ints(1, 2), _ints(0, _CAP + 1)),
        "fd_step": (st.floats(1e-8, 1e-3) | st.just(2.0**-40),
                    st.sampled_from([10.0, 0.1, 0.099, 0.05, 1e-320, 2.0**-41, 2.0**-49])),
        "seed": (st.integers(0, 2**70), _ints(-1)),
    },
    "degree": {
        "center": (_point(3), _point(2) | _point(3, 0.99)),
        "y": (st.none() | _point(3) | st.just([1e308, 1e308, 1e308]), _point(4)),
        "radius": (st.floats(1e-3, 0.3), st.sampled_from([0.0, -1.0, 2.0])),
        "refinement": (_ints(0, 3), _ints(-1, 7, 8)),
        "fixture": (st.sampled_from(["identity", None]), st.just("doubling")),
        "slice_height": (st.floats(-1.0, 1.0), st.sampled_from([1.5, -2.0])),
    },
}


def _paths(table, prefix=()):
    for name, spec in table.items():
        yield prefix + (name,)
        if isinstance(spec, dict):
            yield from _paths(spec, prefix + (name,))


@st.composite
def _overrides(draw, table=_FIELDS):
    """Accepted values for some fields of ``table``; then, in half the
    draws, one field (or section, or an unknown field) set to a rejected
    value or to junk."""
    def accepted(table):
        out = {}
        for name, spec in table.items():
            if draw(st.booleans()):
                out[name] = accepted(spec) if isinstance(spec, dict) else draw(spec[0])
        return out

    out = accepted(table)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(table)) + [("unknown",), ("degree", "unknown")]))
        spec, where = table, out
        for name in path[:-1]:
            spec, where = spec[name], where.setdefault(name, {})
        bad = spec.get(path[-1])
        junk = _JUNK if isinstance(bad, (dict, type(None))) else bad[1] | _JUNK
        where[path[-1]] = draw(junk)
    return out


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(sorted(cli._COMMANDS)), overrides=_overrides())
def test_fuzzed_configs_exit_with_a_contract_code(tmp_path_factory, command, overrides):
    # every config, however malformed, runs to 0, 2, 3 or 4 and raises
    # nothing; no accepted max_stage is above 2, and drawn quadrature
    # fields go over the write_cfg ones
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    if isinstance(overrides.get("quadrature"), dict):
        overrides["quadrature"] = {**QUADRATURE, **overrides["quadrature"]}
    path = Path(write_cfg(tmp, **overrides))
    path.write_text(path.read_text().replace(json.dumps(OVERFLOW), "1e999"))
    assert cli.run(command, str(path), out_dir=str(tmp / "out")) in (0, 2, 3, 4)
