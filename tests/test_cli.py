"""Tests for config resolution, CSV determinism and the command-line entry point."""

import json
import math

import numpy as np
import pytest

from maxlab.cli import (
    COMMANDS,
    DEFAULT_SEED,
    ConfigError,
    ExperimentConfig,
    _format_cell,
    main,
)


def test_command_roster():
    assert "full-suite" in COMMANDS
    assert len(COMMANDS) == 8


def test_defaults_per_command():
    cfg = ExperimentConfig.from_sources("bip-plan")
    assert cfg.seed == DEFAULT_SEED
    assert cfg.p_list == (4.0,)
    assert cfg.r == 4.0
    assert cfg.psi == pytest.approx(0.1 * math.pi)
    assert cfg.theta is None
    assert cfg.output.endswith("bip-plan")

    cfg = ExperimentConfig.from_sources("maximal")
    assert cfg.theta == 0.6
    assert cfg.d_list == (1, 2, 4, 8, 16)
    assert cfg.trials == 4
    assert cfg.ensemble.count == 8

    cfg = ExperimentConfig.from_sources("hds")
    assert cfg.p_list == (1.5, 2.0, 3.0)
    assert cfg.trials == 2
    assert cfg.ensemble.count == 50

    cfg = ExperimentConfig.from_sources("modulus")
    assert cfg.ensemble.kind == "contraction"
    assert cfg.ensemble.n == 6
    assert cfg.ensemble.count == 25


def test_document_and_override_merge():
    cfg = ExperimentConfig.from_sources(
        "hds",
        document={"ensemble": {"count": 3}, "trials": 5},
        overrides={"seed": 11, "ensemble": {"n": 4}},
    )
    assert cfg.seed == 11
    assert cfg.trials == 5
    # nested sections merge key by key instead of replacing wholesale
    assert cfg.ensemble.count == 3
    assert cfg.ensemble.n == 4
    assert cfg.ensemble.kind == "diffusion"
    echo = cfg.document()
    assert echo["ensemble"] == {"n": 4, "count": 3, "kind": "diffusion", "c": 1.0}
    assert set(echo) == {"command", "seed", "trials", "ensemble", "exponents",
                         "angles", "grids", "tolerances", "output"}


def test_config_rejections():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("no-such-command")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"ensemble": {"shape": 3}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"tolerances": {"abs_tol": 0.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"trials": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"exponents": {"p": [1.0]}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"angles": {"psi": math.pi / 2.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"grids": {"t_min": 1.0, "t_max": 0.5}})


def test_config_preconditions():
    # sector angle beyond the contraction sector for p = 4
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("maximal", document={"angles": {"psi": 0.3 * math.pi}})
    # interpolation weight not strictly above the planner floor
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("bip-plan", document={"angles": {"theta": 0.5}})
    # the same angle is fine for commands without sector preconditions
    ExperimentConfig.from_sources("hds", document={"angles": {"psi": 0.3 * math.pi}})


def test_cell_formatting():
    assert _format_cell(True) == "true"
    assert _format_cell(np.bool_(False)) == "false"
    assert _format_cell(7) == "7"
    assert _format_cell(np.int64(-3)) == "-3"
    assert _format_cell(0.1) == "0.10000000000000001"
    assert _format_cell(1.0) == "1"
    assert _format_cell("label") == "label"


def test_main_bip_plan_end_to_end(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main(["bip-plan", "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "bip-plan: PASS" in out
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["config"]["seed"] == DEFAULT_SEED
    assert manifest["details"]["theta"] == pytest.approx(0.55)
    assert manifest["details"]["q"] == pytest.approx(22.0, rel=1e-9)
    assert manifest["tables"] == ["run.plan.csv"]
    lines = (tmp_path / "run.plan.csv").read_text().splitlines()
    assert lines[0] == "p,r,psi,theta,q,sigma,omega"
    assert len(lines) == 2


def test_main_seed_override_lands_in_manifest(tmp_path):
    prefix = tmp_path / "seeded"
    assert main(["bip-plan", "--seed", "7", "--out", str(prefix)]) == 0
    manifest = json.loads((tmp_path / "seeded.manifest.json").read_text())
    assert manifest["config"]["seed"] == 7


def test_main_config_error_paths(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["hds", "--config", str(bad_json)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["hds", "--config", str(not_object)]) == 2

    assert main(["hds", "--config", str(tmp_path / "missing.json")]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"bogus": 1}')
    assert main(["hds", "--config", str(unknown)]) == 2

    assert main(["bip-plan", "--theta", "0.5", "--out", str(tmp_path / "x")]) == 2
    assert main(["maximal", "--psi", "1.0", "--out", str(tmp_path / "y")]) == 2


def test_main_hds_is_byte_deterministic(tmp_path):
    args = ["hds", "--n", "3", "--count", "2", "--trials", "1", "--p", "2.0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a.hds.csv").read_bytes()
    second = (tmp_path / "b.hds.csv").read_bytes()
    assert first == second
    header, *rows = first.decode("ascii").splitlines()
    assert header == "seed,n,p,ratio,bound,pass"
    assert len(rows) == 2 * 2  # two members, one trial, scalar plus vector rows


def test_main_identity_ensemble_ratios_are_exactly_one(tmp_path):
    prefix = tmp_path / "flat"
    args = ["hds", "--kind", "identity", "--n", "3", "--count", "2",
            "--trials", "1", "--p", "2.0", "--out", str(prefix)]
    assert main(args) == 0
    for line in (tmp_path / "flat.hds.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[3] == "1"
        assert cells[5] == "true"


def test_main_honest_failure_exit_code(tmp_path, capsys):
    # the identity flow never approaches linearly, so the slope check fails
    prefix = tmp_path / "fail"
    rc = main(["pointwise", "--kind", "identity", "--n", "3", "--count", "1",
               "--out", str(prefix)])
    assert rc == 1
    assert "pointwise: FAIL" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "fail.manifest.json").read_text())
    assert manifest["passed"] is False


def test_full_suite_rejects_keys_it_would_ignore(tmp_path, capsys):
    assert main(["full-suite", "--trials", "1", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "ensemble" in err and "trials" in err
    document = tmp_path / "suite.json"
    document.write_text('{"exponents": {"p": [3.0]}}')
    assert main(["full-suite", "--config", str(document)]) == 2
    assert "exponents" in capsys.readouterr().err
    # the keys the battery does use stay valid, from flags and from a document
    cfg = ExperimentConfig.from_sources("full-suite", document={"seed": 3},
                                        overrides={"output": str(tmp_path / "s")})
    assert (cfg.seed, cfg.output) == (3, str(tmp_path / "s"))


def test_full_suite_writes_a_manifest(tmp_path, monkeypatch, capsys):
    # two fast criteria stand in for the battery; the artifact path is the same
    from maxlab import cli

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA",
                        (cli.criterion_gamma, cli.criterion_planner))
    prefix = tmp_path / "suite"
    assert main(["full-suite", "--seed", "7", "--out", str(prefix)]) == 0
    assert "full-suite: PASS" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "suite.manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["passed"] is True
    assert set(manifest["versions"]) == {"maxlab", "numpy", "python"}
    assert manifest["timings"]["seconds"] >= 0.0
    assert manifest["tables"] == ["suite.c03_gamma.csv", "suite.c09_planner.csv"]
    summary = json.loads((tmp_path / "suite.summary.json").read_text())
    assert summary["seed"] == 7
    assert list(summary["criteria"]) == ["01_gamma-identities", "02_interpolation-planner"]


@pytest.mark.parametrize("c", ["1e-8", "1e-4", "1", "1e4", "1e8"])
def test_commands_accept_every_rate_scale(tmp_path, c):
    # rounding in mu-symmetry grows with c; at c = 1e8 it once ended in a traceback
    small = tmp_path / "small.json"
    small.write_text('{"grids": {"n_radii": 3, "n_angles": 3}, "trials": 2}')
    for command in ("hds", "modulus", "verify-semigroup"):
        args = [command, "--c", c, "--count", "2", "--config", str(small),
                "--out", str(tmp_path / command)]
        assert main(args) == 0, command
