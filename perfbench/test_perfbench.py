"""Self-tests of the benchmark's scoring and tracing.

    python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

from maxlab import WeightedSpace, operator_norm_lower_bound  # noqa: E402


def _row(trial, seed, z, lb, p=2.0):
    return {"trial": str(trial), "seed": str(seed), "z_re": repr(z.real), "z_im": repr(z.imag),
            "p": repr(p), "norm_lb": repr(lb)}


def test_score_sector_on_a_diagonal_generator():
    # exp(-z L) for L = diag(lam) is diagonal, so its L^2(mu) norm is
    # max_k |exp(-z lam_k)| for any weights, and the basis-vector starts of
    # the Boyd search already attain it.
    lam = np.array([0.25, 0.5, 2.0, 9.0])
    space = WeightedSpace(np.array([0.5, 1.0, 1.5, 2.0]))
    nodes = [t * complex(math.cos(a), math.sin(a))
             for t in (1e-3, 0.3, 2.0, 8.0) for a in (-0.7, 0.0, 0.7)]
    rows = []
    for z in nodes:
        matrix = np.diag(np.exp(-z * lam))
        rows.append(_row(0, 11, z, operator_norm_lower_bound(space, matrix, 2.0, trials=3)))
    score = checks.score_sector(rows, [(11, lam)])
    assert score["violations"] == 0
    assert score["nodes"] == len(nodes)
    assert score["cert_gap"] <= 1e-12


def test_score_sector_separates_tiny_norms_and_flags_bad_rows():
    lam = np.array([1.0, 3.0])
    big = 0.1 + 0.0j   # exact norm exp(-0.1)
    tiny = 10.0 + 0.0j  # exact norm exp(-10) < 1e-3
    rows = [
        _row(0, 5, big, 0.75 * math.exp(-0.1)),
        _row(0, 5, tiny, 0.5 * math.exp(-10.0)),
        _row(0, 5, big, 0.9 * math.exp(-0.1), p=4.0),  # other exponents are not scored
    ]
    score = checks.score_sector(rows, [(5, lam)])
    assert score["cert_gap"] == pytest.approx(0.25)
    assert score["gap_tiny"] == pytest.approx(0.5)
    assert (score["nodes"], score["tiny_nodes"], score["violations"]) == (1, 1, 0)

    over = [_row(0, 5, big, 1.01 * math.exp(-0.1))]
    wrong_seed = [_row(0, 6, big, 0.5)]
    assert checks.score_sector(over, [(5, lam)])["violations"] == 1
    assert checks.score_sector(wrong_seed, [(5, lam)])["violations"] == 1


def test_self_times_account_for_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = tracer.wrap("core.leaf", leaf)

    def middle():
        leaf()
        leaf()
        time.sleep(0.002)

    middle = tracer.wrap("spectral.middle", middle)
    root = tracer.wrap("cli.root", lambda: [middle() for _ in range(3)])
    root()
    spans = tracer.spans()
    assert list(spans["parent"][:3]) == [-1, 0, 1]
    wall = (spans["end_ns"][0] - spans["start_ns"][0]) * 1e-9
    out = tracer.metrics(wall)
    assert out["trace.spans"] == 1 + 3 + 6
    assert out["trace.accounted_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert out["core.self_s"] >= 6 * 0.002
    assert out["spectral.self_s"] >= 3 * 0.002


def test_each_segment_is_scaled_by_the_probe_at_its_end():
    import run

    # readings 0..4 cut the run into four segments; probes were taken at
    # readings 1 and 3, the second one while the host ran at half speed
    segments = {"wall_ns": [10, 20, 30, 40], "probe_at": [1, 3],
                "probe_ns": [run.REFERENCE_PROBE_NS, 2 * run.REFERENCE_PROBE_NS]}
    assert run.at_reference_speed(segments, "wall_ns") == pytest.approx((10 + 10 + 15 + 20) * 1e-9)


def _child(tmp_path, mode, args):
    result = tmp_path / f"{mode}.json"
    prefix = str(tmp_path / mode)
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, "1", str(result), "--",
                           *args, "--out", prefix], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == f"{args[0]}: PASS"
    return json.loads(result.read_text()), prefix


def test_traced_child_counts_calls_through_every_binding(tmp_path):
    # decompose is reached only through maxlab.semigroup's own binding and
    # random_generator only through build_ensemble's module global.
    args = ["maximal", "--n", "4", "--count", "1", "--trials", "1"]
    plain, plain_prefix = _child(tmp_path, "run", args)
    traced, traced_prefix = _child(tmp_path, "trace", args)
    assert "trace" not in plain
    # the checkpoint segments and the speed probes of a plain run tile its
    # cli.main call
    segments = plain["segments"]
    main_ns = plain["main_end_ns"] - plain["main_start_ns"]
    assert len(segments["wall_ns"]) == len(segments["cpu_ns"]) > 2
    assert segments["probe_at"][0] == 0 and len(segments["probe_ns"]) >= 1
    assert sum(segments["wall_ns"]) + sum(segments["probe_ns"]) <= main_ns
    assert sum(segments["wall_ns"]) + sum(segments["probe_ns"]) == pytest.approx(main_ns, rel=2e-3)
    assert checks.csv_digests(traced_prefix) == checks.csv_digests(plain_prefix)
    layer = traced["trace"]
    assert layer["spectral.decompose.calls"] == 1
    assert layer["semigroup.random_generator.calls"] == 1
    assert layer["spectral.decompose.per_generator"] == 1.0
    # 5 fiber dimensions x 1 member x 1 trial, 216 sector and 216 multiplier
    # nodes, 24 ergodic radii
    assert layer["mellin.nodes"] == 5 * 2 * 216
    assert layer["ergodic.nodes"] == 5 * 24
    assert layer["spectral.eig_residual_max"] < 1e-12
    assert layer["trace.accounted_ratio"] == pytest.approx(1.0, abs=1e-3)
    spans = np.load(str(tmp_path / "trace.json") + ".spans.npz")
    assert spans["names"][spans["name"][0]] == "cli.main"
    assert set(spans["run_id"]) == {1}
