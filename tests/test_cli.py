"""Tests for config resolution, CSV determinism and the command-line entry point."""

import csv
import json
import math
import re

import numpy as np
import pytest

from maxlab.cli import (
    COMMANDS,
    DEFAULT_SEED,
    QUAD_TOL,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _format_cell,
    _overrides_from_args,
    _reconstruction_rows,
    _table_text,
    criterion_decomposition,
    main,
)
from maxlab.core import BanachNormDescriptor, BochnerField, bochner_norm
from maxlab.mellin import BipPlanError, maximal_theorem_experiment, truncation_bound
from maxlab.semigroup import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    SectorGrid,
    random_generator,
    sector_contraction_probe,
    stein_angle,
)
from oracles import decomposition_residual_by_parts, reconstruction_rows_by_angle


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
    # hds reads no angles or grids, so its echo holds none
    assert set(echo) == {"command", "seed", "trials", "ensemble", "exponents", "output"}
    assert echo["exponents"] == {"p": [1.5, 2.0, 3.0], "r": 2.0, "d": [4]}


def test_config_rejections():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("no-such-command")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"ensemble": {"shape": 3}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"trials": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("hds", document={"exponents": {"p": [1.0]}})
    with pytest.raises(ConfigError, match="angles.psi must lie in"):
        ExperimentConfig.from_sources("pointwise", document={"angles": {"psi": math.pi / 2.0}})
    with pytest.raises(ConfigError, match="grids need 0 < t_min < t_max"):
        ExperimentConfig.from_sources("verify-semigroup",
                                      document={"grids": {"t_min": 1.0, "t_max": 0.5}})


def test_config_preconditions():
    # sector angle beyond the contraction sector for p = 4
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("maximal", document={"angles": {"psi": 0.3 * math.pi}})
    # interpolation weight not strictly above the planner floor
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources("bip-plan", document={"angles": {"theta": 0.5}})
    # the same angle is fine for commands without sector preconditions
    ExperimentConfig.from_sources("pointwise", document={"angles": {"psi": 0.3 * math.pi}})


# Each override flag, a value for it and the overrides it must produce,
# written out by hand rather than read from the flag table.
FLAG_CASES = (
    (["--seed", "7"], {"seed": 7}),
    (["--trials", "3"], {"trials": 3}),
    (["--psi", "0.2"], {"angles": {"psi": 0.2}}),
    (["--theta", "0.6"], {"angles": {"theta": 0.6}}),
    (["--out", "x/y"], {"output": "x/y"}),
    (["--n", "5"], {"ensemble": {"n": 5}}),
    (["--count", "4"], {"ensemble": {"count": 4}}),
    (["--kind", "contraction"], {"ensemble": {"kind": "contraction"}}),
    (["--c", "2.5"], {"ensemble": {"c": 2.5}}),
    (["--p", "3"], {"exponents": {"p": [3.0]}}),
    (["--r", "1.5"], {"exponents": {"r": 1.5}}),
)


@pytest.mark.parametrize("flag_args,expected", FLAG_CASES, ids=[c[0][0] for c in FLAG_CASES])
def test_each_flag_sets_its_config_key(flag_args, expected):
    args = _build_parser().parse_args(["hds"] + flag_args)
    # JSON text also tells 5 from 5.0
    assert json.dumps(_overrides_from_args(args)) == json.dumps(expected)


def test_flags_combine_and_repeat():
    argv = ["hds"] + [token for flag_args, _ in FLAG_CASES for token in flag_args]
    assert _overrides_from_args(_build_parser().parse_args(argv)) == {
        "seed": 7, "trials": 3, "output": "x/y",
        "angles": {"psi": 0.2, "theta": 0.6},
        "ensemble": {"n": 5, "count": 4, "kind": "contraction", "c": 2.5},
        "exponents": {"p": [3.0], "r": 1.5},
    }
    args = _build_parser().parse_args(["hds", "--p", "1.5", "--p", "2", "--p", "3"])
    assert _overrides_from_args(args) == {"exponents": {"p": [1.5, 2.0, 3.0]}}
    assert _overrides_from_args(_build_parser().parse_args(["hds"])) == {}


def test_bad_flag_value_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hds", "--kind", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_lists_the_flags_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    assert re.findall(r"^  (--?[a-z]+)", options, flags=re.M) == [
        "-h", "--config", "--seed", "--trials", "--psi", "--theta", "--out", "--n",
        "--count", "--kind", "--c", "--p", "--r"]


def test_cell_formatting():
    assert _format_cell(True) == "true"
    assert _format_cell(np.bool_(False)) == "false"
    assert _format_cell(7) == "7"
    assert _format_cell(np.int64(-3)) == "-3"
    assert _format_cell(0.1) == "0.10000000000000001"
    assert _format_cell(1.0) == "1"
    assert _format_cell("label") == "label"


def test_table_text_formats_each_cell_as_format_cell():
    # the exact-type formatters must agree with the isinstance chain on every type
    cells = [True, False, np.bool_(True), np.bool_(False), 0, -7, np.int64(-3), np.int32(4),
             0.1, 1.0, -0.0, math.nan, -math.inf, 1e300, np.float64(1.0 / 3.0),
             np.float64(-0.0), np.float32(0.1), "label", None]
    rows = [cells, cells[::-1]]
    want = "a\n" + "\n".join(",".join(_format_cell(cell) for cell in row) for row in rows) + "\n"
    assert _table_text(("a",), rows) == want


@pytest.mark.parametrize("psi", [0.0, 0.1 * math.pi, 0.25 * math.pi])
def test_reconstruction_rows_match_the_per_angle_loop(psi):
    for U, h in ((40.0, 0.01), (40.0, 0.8), (20.0, 0.01)):
        assert _reconstruction_rows(U, h, psi) == reconstruction_rows_by_angle(U, h, psi)


def test_main_bip_plan_end_to_end(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main(["bip-plan", "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "bip-plan: PASS" in out
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["passed"] is True
    # the planner draws no random numbers, so no seed is echoed
    assert manifest["config"] == {"command": "bip-plan", "exponents": {"p": [4.0], "r": 4.0},
                                  "angles": {"psi": 0.1 * math.pi, "theta": None},
                                  "output": str(prefix)}
    assert manifest["details"]["theta"] == pytest.approx(0.55)
    assert manifest["details"]["q"] == pytest.approx(22.0, rel=1e-9)
    assert manifest["tables"] == ["run.plan.csv"]
    lines = (tmp_path / "run.plan.csv").read_text().splitlines()
    assert lines[0] == "p,r,psi,theta,q,sigma,omega"
    assert len(lines) == 2


def test_main_seed_override_lands_in_manifest(tmp_path):
    prefix = tmp_path / "seeded"
    assert main(["hds", "--seed", "7", "--n", "3", "--count", "2", "--trials", "1",
                 "--p", "2", "--out", str(prefix)]) == 0
    manifest = json.loads((tmp_path / "seeded.manifest.json").read_text())
    assert manifest["config"]["seed"] == 7


def _csv_bytes(prefix) -> dict:
    return {path.name.split(".", 1)[1]: path.read_bytes()
            for path in prefix.parent.glob(prefix.name + ".*.csv")}


def _rerun_from_echo(tmp_path, command, extra=()) -> dict:
    # the manifest's config, minus the command, is a valid --config document
    first = tmp_path / "first"
    assert main([command, *extra, "--out", str(first)]) == 0
    echo = json.loads((tmp_path / "first.manifest.json").read_text())["config"]
    assert echo.pop("command") == command
    document = tmp_path / "echo.json"
    document.write_text(json.dumps(echo))
    second = tmp_path / "second"
    assert main([command, "--config", str(document), "--out", str(second)]) == 0
    assert _csv_bytes(first) and _csv_bytes(first) == _csv_bytes(second)
    return echo


def test_manifest_echo_feeds_back_as_config(tmp_path):
    echo = _rerun_from_echo(tmp_path / "plan", "bip-plan", ["--r", "3"])
    assert echo["exponents"]["r"] == 3.0
    echo = _rerun_from_echo(tmp_path / "hds", "hds", ["--seed", "5", "--n", "3", "--count", "2",
                                                      "--trials", "1", "--p", "2"])
    assert echo["seed"] == 5 and echo["ensemble"]["n"] == 3


def test_every_echo_parses_back_to_the_same_config():
    for command in COMMANDS:
        echo = ExperimentConfig.from_sources(command).document()
        document = json.loads(json.dumps(echo))
        assert document.pop("command") == command
        assert ExperimentConfig.from_sources(command, document=document).document() == echo


def test_full_suite_echo_feeds_back_as_config(tmp_path, monkeypatch):
    # two fast criteria stand in for the battery; the echo holds only what it reads
    from maxlab import cli

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA",
                        (cli.criterion_gamma, cli.criterion_planner))
    echo = _rerun_from_echo(tmp_path, "full-suite", ["--seed", "7"])
    assert echo == {"seed": 7, "output": str(tmp_path / "first")}


def _decomposition_rows_by_triple(seed: int) -> list:
    """Criterion 01's rows as its per-triple loop made them: one residual per (gen, z, F)."""
    rng = np.random.default_rng(seed)
    rows = []
    for index in range(50):
        n = int(rng.integers(2, 17))
        kind = "diffusion" if index % 2 == 0 else "contraction"
        gen = random_generator(n, seed + 101 * index + 1, kind=kind)
        for _ in range(10):
            t = 10.0 ** rng.uniform(-3.0, 2.0)
            angle = rng.uniform(-0.45 * math.pi, 0.45 * math.pi)
            z = t * complex(math.cos(angle), math.sin(angle))
            d = int(rng.integers(1, 9))
            values = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            fld = BochnerField(values, BanachNormDescriptor(d, 2.0))
            residual = decomposition_residual_by_parts(gen, z, fld)
            ratio = residual / bochner_norm(gen.space, fld, 2.0)
            rows.append((index, n, d, z.real, z.imag, residual, ratio))
    return rows


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_criterion_01_table_matches_the_per_triple_loop(seed):
    header, rows = criterion_decomposition(seed).tables["c01_decomposition"]
    want = _decomposition_rows_by_triple(seed)
    assert rows == want
    assert _table_text(header, rows) == _table_text(header, want)


def test_mellin_table_agrees_with_its_certificate(tmp_path):
    prefix = tmp_path / "mellin"
    assert main(["mellin-table", "--out", str(prefix)]) == 0
    manifest = json.loads((tmp_path / "mellin.manifest.json").read_text())
    with open(tmp_path / "mellin.multiplier.csv", newline="") as handle:
        ratios = [float(row["bound_ratio"]) for row in csv.DictReader(handle)]
    assert len(ratios) == 9 * 801
    assert max(ratios) == manifest["details"]["decay_constant"]
    # the tail bound of the widest reconstruction angle, theta = pi/4
    tail = manifest["details"]["max_truncation_bound"]
    assert math.isfinite(tail) and tail > 0.0
    assert tail == truncation_bound(0.25 * math.pi, 40.0, manifest["details"]["decay_constant"])


@pytest.mark.parametrize("document", ['{"ensemble": 3}', '{"grids": null}',
                                      '{"exponents": [2.0]}', '{"angles": "wide"}'])
def test_non_object_section_is_a_config_error(tmp_path, capsys, document):
    # maximal reads all four sections
    section = next(iter(json.loads(document)))
    with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
        ExperimentConfig.from_sources("maximal", document=json.loads(document))
    path = tmp_path / "section.json"
    path.write_text(document)
    assert main(["maximal", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert f"error: {section} must be a JSON object" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


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


# Small runs of each command; mellin-table, bip-plan and full-suite read no ensemble keys.
_SMALL_RUNS = {"verify-semigroup": ["--n", "3", "--count", "2", "--trials", "1"],
               "modulus": ["--n", "3", "--count", "2", "--trials", "1"],
               "hds": ["--n", "3", "--count", "2", "--trials", "1"],
               "maximal": ["--n", "3", "--count", "2", "--trials", "1"],
               "pointwise": ["--n", "3", "--count", "2"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_main_is_byte_deterministic(tmp_path, command):
    args = [command, *_SMALL_RUNS.get(command, [])]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = sorted(path.name[2:] for path in tmp_path.glob("a.*.csv"))
    assert first and first == sorted(path.name[2:] for path in tmp_path.glob("b.*.csv"))
    for name in first:
        assert (tmp_path / f"a.{name}").read_bytes() == (tmp_path / f"b.{name}").read_bytes()


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
    # a coarse quadrature misses the reconstruction tolerance
    coarse = tmp_path / "coarse.json"
    coarse.write_text('{"grids": {"U": 5.0, "h": 0.8}}')
    prefix = tmp_path / "fail"
    rc = main(["mellin-table", "--config", str(coarse), "--out", str(prefix)])
    assert rc == 1
    assert "mellin-table: FAIL" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "fail.manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["details"]["max_reconstruction_error"] > QUAD_TOL


def test_pointwise_rejects_the_identity_ensemble(tmp_path, capsys):
    # L = 0: every approach error is roundoff, so the unit-slope test cannot apply
    with pytest.raises(ConfigError, match="injective"):
        ExperimentConfig.from_sources("pointwise", overrides={"ensemble": {"kind": "identity"}})
    rc = main(["pointwise", "--kind", "identity", "--out", str(tmp_path / "flat")])
    assert rc == 2
    assert "error: pointwise needs an injective generator" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # the other commands still take it
    ExperimentConfig.from_sources("hds", overrides={"ensemble": {"kind": "identity"}})


def test_tolerances_section_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "tol.json"
    path.write_text('{"tolerances": {"abs_tol": 1e-10}}')
    assert main(["modulus", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config keys: tolerances")
    assert not list(tmp_path.glob("x*"))


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import maxlab.cli as cli

    ran = []
    monkeypatch.setattr(cli, "run", lambda config: ran.append(config) or 0)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["full-suite", "--out", str(blocker / "suite")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    # the check comes before the command runs
    assert ran == []
    assert main(["bip-plan", "--out", str(tmp_path / "new" / "dir" / "plan")]) == 0
    assert (tmp_path / "new" / "dir").is_dir()


def test_an_artifact_that_cannot_be_written_exits_2(tmp_path, capsys):
    # the prefix's directory exists, but the manifest path is a directory
    (tmp_path / "plan.manifest.json").mkdir()
    assert main(["bip-plan", "--out", str(tmp_path / "plan")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "bip-plan: PASS" not in captured.out


def test_a_crashing_command_exits_3_and_records_the_error(tmp_path, capsys, monkeypatch):
    import maxlab.cli as cli

    def crash(config):
        raise RuntimeError("injected failure")

    _, defaults, reads = cli._COMMANDS["bip-plan"]
    monkeypatch.setitem(cli._COMMANDS, "bip-plan", (crash, defaults, reads))
    assert main(["bip-plan", "--out", str(tmp_path / "plan")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: bip-plan crashed: RuntimeError: injected failure\n"
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    manifest = json.loads((tmp_path / "plan.manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["error"] == {"type": "RuntimeError", "message": "injected failure"}
    assert manifest["tables"] == []
    # where the manifest cannot be written either, the crash still exits 3 with one line
    (tmp_path / "again.manifest.json").mkdir()
    assert main(["bip-plan", "--out", str(tmp_path / "again")]) == 3
    assert capsys.readouterr().err == "error: bip-plan crashed: RuntimeError: injected failure\n"


def test_hds_fails_when_the_fiber_norms_overflow(tmp_path, capsys):
    # the l^1000 fiber norms of the d = 4 trials overflow, so their ratios are
    # NaN and their rows fail; Python's max drops NaN, so a verdict on the worst
    # ratio passed
    prefix = tmp_path / "big_r"
    with np.errstate(over="ignore"):
        assert main(["hds", "--r", "1000", "--out", str(prefix)]) == 1
    assert "hds: FAIL" in capsys.readouterr().out
    rows = [row.split(",") for row in (tmp_path / "big_r.hds.csv").read_text().splitlines()[1:]]
    failing = [row for row in rows if row[5] == "false"]
    assert len(failing) == 288 and all(row[3] == "nan" for row in failing)
    manifest = json.loads((tmp_path / "big_r.manifest.json").read_text())
    assert manifest["passed"] is False
    assert all(math.isnan(manifest["details"][f"max_ratio_p_{p}"]) for p in ("1.5", "2", "3"))


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
    small.write_text('{"grids": {"n_radii": 3, "n_angles": 3}}')
    for command, extra in (("hds", []), ("modulus", []),
                           ("verify-semigroup", ["--config", str(small)])):
        args = [command, "--c", c, "--count", "2", "--trials", "2", *extra,
                "--out", str(tmp_path / command)]
        assert main(args) == 0, command


def _counting_boyd_rows(monkeypatch):
    """Record the exponent of every matrix the Boyd kernel iterates, one entry per matrix."""
    import maxlab.spectral as spectral

    calls = []
    original = spectral._boyd_block

    def counted(space, mats, p, *args, **kwargs):
        calls.extend([p] * len(mats))
        return original(space, mats, p, *args, **kwargs)

    monkeypatch.setattr(spectral, "_boyd_block", counted)
    return calls


def test_default_verify_semigroup_runs_no_boyd_iteration(tmp_path, monkeypatch):
    calls = _counting_boyd_rows(monkeypatch)
    prefix = tmp_path / "vs"
    assert main(["verify-semigroup", "--out", str(prefix)]) == 0
    assert calls == []
    details = json.loads((tmp_path / "vs.manifest.json").read_text())["details"]
    assert details["sector_nodes"] == {"certified": 8 * 24 * 9, "refuted": 0, "open": 0}
    assert details["worst_sector_upper_bound"] == details["worst_sector_lower_bound"] <= 1.0
    assert 0.0 < details["max_relative_eigen_residual"] < 1e-13
    with open(f"{prefix}.sector.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8 * 24 * 9
    assert all(row["norm_lb"] == row["norm_ub"] and row["status"] == "certified" for row in rows)
    # positive control: away from p = 2 every node's matrix goes through the iteration once
    small = tmp_path / "small.json"
    small.write_text('{"grids": {"n_radii": 3, "n_angles": 3}, "trials": 2}')
    args = ["verify-semigroup", "--p", "4", "--count", "2", "--config", str(small),
            "--out", str(tmp_path / "p4")]
    assert main(args) == 0
    assert calls == [4.0] * 2 * 3 * 3


def test_verify_semigroup_keeps_the_per_node_lower_bounds_away_from_p_two(tmp_path):
    from maxlab.semigroup import build_ensemble, semigroup_matrix
    from maxlab.spectral import operator_norm_lower_bound

    small = tmp_path / "small.json"
    small.write_text('{"grids": {"n_radii": 4, "n_angles": 3}, "trials": 3}')
    prefix = tmp_path / "p4"
    args = ["verify-semigroup", "--p", "4", "--p", "1.5", "--count", "2", "--kind",
            "contraction", "--psi", "0.2", "--config", str(small), "--out", str(prefix)]
    assert main(args) == 0
    config = ExperimentConfig.from_sources("verify-semigroup", document=json.loads(
        small.read_text()), overrides=_overrides_from_args(_build_parser().parse_args(args)))
    with open(f"{prefix}.sector.csv", newline="") as handle:
        rows = iter(list(csv.DictReader(handle)))
    for member_seed, gen in build_ensemble(config.ensemble, config.seed):
        for p in config.p_list:
            # the per-node route: one matrix and one Boyd run per node, one stream per member
            rng = np.random.default_rng(member_seed)
            for z in config.sector_grid().points():
                lb = operator_norm_lower_bound(gen.space, semigroup_matrix(gen, z), p,
                                               trials=3, seed=rng)
                row = next(rows)
                assert (row["seed"], row["p"]) == (str(member_seed), _format_cell(p))
                assert row["norm_lb"] == _format_cell(lb)
                assert row["status"] in ("certified", "open")
    assert next(rows, None) is None


@pytest.mark.parametrize("command, flags", [
    ("hds", ["--trials", "1"]),
    ("maximal", ["--trials", "1"]),
    ("modulus", ["--trials", "1"]),
    ("pointwise", []),
    ("verify-semigroup", []),
])
def test_eigen_residual_lands_in_the_manifest_only(tmp_path, command, flags):
    prefix = tmp_path / command
    assert main([command, "--n", "5", "--count", "2", *flags, "--out", str(prefix)]) == 0
    details = json.loads((tmp_path / f"{command}.manifest.json").read_text())["details"]
    assert 0.0 < details["max_relative_eigen_residual"] < 1e-13
    assert 0.0 <= details["max_orthonormality_defect"] < 1e-13
    paths = list(tmp_path.glob(f"{command}.*.csv"))
    assert paths and not any("eigen" in path.read_text() or "orthonormal" in path.read_text()
                             for path in paths)
    # only the modulus exemplar table has a residual column of its own
    assert not any("residual" in path.read_text() for path in paths
                   if path.name != "modulus.exemplar.csv")


def _verify_semigroup_rows(tmp_path, *flags):
    prefix = tmp_path / "vs"
    assert main(["verify-semigroup", *flags, "--out", str(prefix)]) == 0
    with open(f"{prefix}.contraction.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    manifest = json.loads((tmp_path / "vs.manifest.json").read_text())
    return rows, manifest


def test_contraction_table_reports_the_dominance_margin(tmp_path):
    from maxlab.semigroup import build_ensemble

    rows, manifest = _verify_semigroup_rows(tmp_path)
    config = ExperimentConfig.from_sources("verify-semigroup")
    members = build_ensemble(config.ensemble, config.seed)
    assert len(rows) == len(members) == 12
    assert list(rows[0]) == ["trial", "seed", "n", "kind", "dominance_margin", "pass"]
    margins = []
    for row, (member_seed, gen) in zip(rows, members):
        assert (row["seed"], row["kind"], row["pass"]) == (str(member_seed), "diffusion", "true")
        # diagonal entries are nonnegative, so L_ii - sum_(j != i) |L_ij| = 2 L_ii - sum_j |L_ij|
        a = np.array(gen.matrix)
        want = (2.0 * np.diag(a) - np.abs(a).sum(axis=1)).min() / np.abs(a).max()
        assert float(row["dominance_margin"]) == pytest.approx(want, rel=1e-13)
        margins.append(float(row["dominance_margin"]))
    assert manifest["details"]["worst_dominance_margin"] == min(margins)
    assert 0.06 < min(margins) < max(margins) < 0.3
    assert "worst_endpoint_norm" not in manifest["details"]
    assert "tolerances" not in manifest["config"]


def test_identity_contraction_table_has_margin_zero(tmp_path):
    rows, manifest = _verify_semigroup_rows(tmp_path, "--kind", "identity", "--count", "3")
    assert [(row["dominance_margin"], row["pass"]) for row in rows] == [("0", "true")] * 3
    assert manifest["details"]["worst_dominance_margin"] == 0.0
    assert manifest["passed"] is True


def test_three_entry_points_share_the_sector_rule(tmp_path, capsys):
    p = 4.0
    limit = stein_angle(p)
    past = limit + 1e-9
    gen = random_generator(4, 3)
    spec = EnsembleSpec(n=4, count=1)
    with pytest.raises(ValueError) as probe:
        sector_contraction_probe(gen, p, past, trials=2)
    with pytest.raises(ValueError) as maximal:
        maximal_theorem_experiment(spec, p, p, past, trials=1)
    message = str(probe.value)
    assert "exceeds the contraction sector angle" in message
    assert str(maximal.value) == message
    for command in ("verify-semigroup", "maximal"):
        out = tmp_path / command
        assert main([command, "--p", "4", "--psi", repr(past), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())

    # exactly at the angle the rule accepts
    grid = SectorGrid.default(limit, n_radii=3, n_angles=3)
    assert sector_contraction_probe(gen, p, limit, grid=grid, trials=2).passed
    out = tmp_path / "edge"
    assert main(["verify-semigroup", "--p", "4", "--psi", repr(limit), "--n", "4",
                 "--count", "1", "--trials", "2", "--out", str(out)]) == 0
    # the planner's own hypothesis psi < (pi/2)(1 - theta) fails from Stein's angle on
    with pytest.raises(BipPlanError):
        maximal_theorem_experiment(spec, p, p, limit, trials=1)


def test_kind_flag_offers_the_ensemble_kinds():
    kind = next(action for action in _build_parser()._actions if action.dest == "kind")
    assert tuple(kind.choices) == ENSEMBLE_KINDS
    for name in ENSEMBLE_KINDS:
        assert ExperimentConfig.from_sources("hds", overrides={"ensemble": {"kind": name}})


@pytest.mark.parametrize("command, key, document", [
    ("bip-plan", "exponents.p", {"exponents": {"p": [2.0, 4.0]}}),
    ("maximal", "exponents.p", {"exponents": {"p": [4.0, 1.2]}}),
    ("modulus", "exponents.p", {"exponents": {"p": [2.0, 3.0]}}),
    ("modulus", "exponents.d", {"exponents": {"d": [2, 4]}}),
    ("hds", "exponents.d", {"exponents": {"d": [1, 4]}}),
    ("pointwise", "exponents.d", {"exponents": {"d": [4, 8]}}),
])
def test_one_value_exponent_keys_reject_lists(tmp_path, capsys, command, key, document):
    # these commands read only the first value, so a longer list is a config error
    pattern = f"^{command} reads one value of {re.escape(key)}"
    with pytest.raises(ConfigError, match=pattern):
        ExperimentConfig.from_sources(command, document=document)
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(document))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert re.search(pattern, capsys.readouterr().err.removeprefix("error: "))
    assert not list(tmp_path.glob("x*"))


def test_repeated_p_flag_is_refused_where_one_p_is_read(tmp_path, capsys):
    assert main(["bip-plan", "--p", "2", "--p", "4", "--out", str(tmp_path / "b")]) == 2
    assert "bip-plan reads one value of exponents.p" in capsys.readouterr().err
    assert main(["maximal", "--p", "4", "--p", "1.2", "--out", str(tmp_path / "m")]) == 2
    assert "maximal reads one value of exponents.p" in capsys.readouterr().err
    # commands that read every value still take lists
    assert ExperimentConfig.from_sources("verify-semigroup",
                                         overrides={"exponents": {"p": [4.0, 1.5]}})
    assert ExperimentConfig.from_sources("hds", document={"exponents": {"p": [1.5, 3.0]}})
    assert ExperimentConfig.from_sources("maximal", document={"exponents": {"d": [1, 2]}})


# Every config key with a valid value for it, and the keys each command reads
# besides output, written out by hand rather than read from the source table.
KEY_VALUES = {
    "seed": 3, "trials": 1,
    "ensemble.n": 3, "ensemble.count": 2, "ensemble.kind": "diffusion", "ensemble.c": 1.0,
    "exponents.p": [4.0], "exponents.r": 4.0, "exponents.d": [4],
    "angles.psi": 0.1 * math.pi, "angles.theta": 0.6,
    "grids.t_min": 1e-3, "grids.t_max": 1e2, "grids.n_radii": 3, "grids.n_angles": 3,
    "grids.U": 40.0, "grids.h": 0.01,
}
SAMPLED = {"seed", "trials", "ensemble.n", "ensemble.count", "ensemble.kind", "ensemble.c"}
SECTOR_GRID = {"grids.t_min", "grids.t_max", "grids.n_radii", "grids.n_angles"}
READS = {
    "verify-semigroup": SAMPLED | {"exponents.p", "angles.psi"} | SECTOR_GRID,
    "modulus": SAMPLED | {"exponents.p", "exponents.r", "exponents.d"},
    "hds": SAMPLED | {"exponents.p", "exponents.r", "exponents.d"},
    "mellin-table": {"angles.psi", "grids.n_angles", "grids.U", "grids.h"},
    "maximal": SAMPLED | {"exponents.p", "exponents.r", "exponents.d", "angles.psi",
                          "angles.theta"} | SECTOR_GRID,
    "pointwise": SAMPLED - {"trials"} | {"exponents.r", "exponents.d", "angles.psi",
                                         "grids.n_angles"},
    "bip-plan": {"exponents.p", "exponents.r", "angles.psi", "angles.theta"},
    "full-suite": {"seed"},
}
UNREAD = [(command, key) for command in COMMANDS for key in KEY_VALUES
          if key not in READS[command]]


def _nested(key, value) -> dict:
    section, _, sub = key.rpartition(".")
    return {section: {sub: value}} if section else {key: value}


def test_each_echo_holds_exactly_the_keys_its_command_reads():
    for command in COMMANDS:
        echo = ExperimentConfig.from_sources(command).document()
        keys = {f"{key}.{sub}" if isinstance(value, dict) else key
                for key, value in echo.items()
                for sub in (value if isinstance(value, dict) else [None])}
        assert keys == READS[command] | {"command", "output"}, command
        # every key it reads takes a value from a document
        for key in READS[command]:
            ExperimentConfig.from_sources(command, document=_nested(key, KEY_VALUES[key]))


@pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_a_key_the_command_does_not_read_is_a_config_error(command, key):
    section, _, sub = key.rpartition(".")
    # in a section the command reads the message names the key, otherwise the section
    if any(read.startswith(section + ".") for read in READS[command]):
        where, named = section, sub
    else:
        where, named = "config", key.partition(".")[0]
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_sources(command, document=_nested(key, KEY_VALUES[key]))
    assert str(exc.value).startswith(f"unknown {where} keys: {named} ({command} reads: ")


@pytest.mark.parametrize("argv, message", [
    (["hds", "--theta", "0.9", "--psi", "1.2"], "config keys: angles (hds reads: "),
    (["mellin-table", "--p", "1.1", "--p", "7", "--theta", "0.3"],
     "config keys: exponents (mellin-table reads: "),
    (["verify-semigroup", "--r", "9", "--theta", "0.2"],
     "exponents keys: r (verify-semigroup reads: p)"),
    (["pointwise", "--trials", "7"], "config keys: trials (pointwise reads: "),
    (["bip-plan", "--seed", "5"], "config keys: seed (bip-plan reads: "),
    (["mellin-table", "--seed", "5"], "config keys: seed (mellin-table reads: "),
    (["full-suite", "--trials", "1", "--n", "3"],
     "config keys: ensemble, trials (full-suite reads: seed, output)"),
], ids=["hds", "mellin-table", "verify-semigroup", "pointwise", "bip-plan", "mellin-table-seed",
        "full-suite"])
def test_an_unread_flag_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown {message}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [
    ("seed", True), ("seed", 1.5), ("trials", 2.5), ("ensemble.n", 8.9),
    ("ensemble.count", False), ("exponents.d", 4.5), ("exponents.d", [1, 4.5]),
    ("grids.n_radii", 3.2), ("grids.n_angles", True), ("ensemble.n", "8"),
])
def test_integer_keys_refuse_other_values(tmp_path, capsys, key, value):
    # maximal reads all seven integer keys; int() would have truncated these
    document = _nested(key, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be an integer, got "):
        ExperimentConfig.from_sources("maximal", document=document)
    path = tmp_path / "int.json"
    path.write_text(json.dumps(document))
    assert main(["maximal", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be an integer")
    assert not list(tmp_path.glob("x*"))
    # an integral float is still an integer
    cfg = ExperimentConfig.from_sources("maximal", document={"ensemble": {"n": 5.0}})
    assert cfg.ensemble.n == 5 and isinstance(cfg.ensemble.n, int)


FLOAT_KEYS = ("ensemble.c", "exponents.p", "exponents.r", "angles.psi", "angles.theta",
              "grids.t_min", "grids.t_max", "grids.U", "grids.h")


@pytest.mark.parametrize("value", [True, "3"], ids=["bool", "string"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_float_keys_refuse_bools_and_strings(tmp_path, capsys, key, value):
    # float() would have read True as 1.0 and "3" as 3.0
    command = "mellin-table" if key in ("grids.U", "grids.h") else "maximal"
    document = _nested(key, [value] if key == "exponents.p" else value)
    path = tmp_path / "real.json"
    path.write_text(json.dumps(document))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be a number, got {value!r}\n"
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("command", COMMANDS)
def test_the_default_echo_reads_back_as_the_same_config(command):
    echo = ExperimentConfig.from_sources(command).document()
    document = {key: value for key, value in echo.items() if key != "command"}
    assert ExperimentConfig.from_sources(command, document=document).document() == echo


def test_a_huge_integer_never_ends_in_a_traceback(tmp_path, capsys):
    huge = 10 ** 400
    assert ExperimentConfig.from_sources("hds", overrides={"seed": huge}).seed == huge
    prefix = tmp_path / "hds"
    assert main(["hds", "--n", "3", "--count", "1", "--trials", "1",
                 "--seed", str(huge), "--out", str(prefix)]) == 0
    assert json.loads((tmp_path / "hds.manifest.json").read_text())["config"]["seed"] == huge
    # a float key cannot hold it: a config error, not an OverflowError
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ensemble": {"c": huge}}))
    assert main(["hds", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: int too large to convert to float")
    assert not list(tmp_path.glob("x*"))
