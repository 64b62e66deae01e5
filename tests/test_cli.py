import json
import math

import pytest

from homlim import cli


def write_cfg(tmp_path, **overrides):
    cfg = {
        "n": 3,
        "beta": 4.0,
        "variant": "T1",
        "schedule_mode": "demo",
        "max_stage": 2,
        "seed": 11,
        "out_dir": str(tmp_path / "out"),
        "quadrature": {
            "resolution": 4,
            "axial_resolution": 8,
            "transverse_resolution": 2,
            "cells_cap": 2,
        },
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
