"""Acceptance battery: every criterion prints one pass/fail line and must hold.

The criterion implementations live in maxlab.cli so that `maxlab full-suite`
and this module exercise exactly the same code.  Lines are written with
capture suspended so they stay visible in the pytest output.
"""

import filecmp
import json
import time
from types import SimpleNamespace

import pytest

from maxlab.cli import (
    DEFAULT_SEED,
    criterion_decay,
    criterion_decomposition,
    criterion_dimension_uniformity,
    criterion_gamma,
    criterion_hds,
    criterion_imaginary_powers,
    criterion_mellin,
    criterion_modulus,
    criterion_planner,
    criterion_pointwise,
    criterion_subpositivity,
    main,
)


def _report(capfd, index: int, result, elapsed: float) -> None:
    status = "PASS" if result.passed else "FAIL"
    with capfd.disabled():
        print(f"ACCEPTANCE {index:02d} {result.name}: {status} ({elapsed:.2f}s) "
              f"{result.detail}", flush=True)


def _run(capfd, index: int, criterion, budget: float | None = None):
    started = time.perf_counter()
    result = criterion(DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    _report(capfd, index, result, elapsed)
    assert result.passed, f"{result.name}: {result.detail}"
    if budget is not None:
        assert elapsed < budget, f"{result.name} took {elapsed:.1f}s, budget {budget}s"
    return result


def test_acceptance_01_decomposition_identity(capfd):
    _run(capfd, 1, criterion_decomposition, budget=10.0)


def test_acceptance_02_maximal_ergodic_bound(capfd):
    _run(capfd, 2, criterion_hds, budget=30.0)


def test_acceptance_03_gamma_identities(capfd):
    _run(capfd, 3, criterion_gamma)


def test_acceptance_04_mellin_reconstruction(capfd):
    _run(capfd, 4, criterion_mellin, budget=20.0)


def test_acceptance_05_decay_certificate(capfd):
    _run(capfd, 5, criterion_decay)


def test_acceptance_06_modulus_semigroup(capfd):
    _run(capfd, 6, criterion_modulus)


def test_acceptance_07_subpositivity(capfd):
    _run(capfd, 7, criterion_subpositivity)


def test_acceptance_08_imaginary_powers(capfd):
    _run(capfd, 8, criterion_imaginary_powers)


def test_acceptance_09_interpolation_planner(capfd):
    _run(capfd, 9, criterion_planner)


def test_acceptance_10_dimension_uniformity(capfd):
    _run(capfd, 10, criterion_dimension_uniformity, budget=120.0)


def test_acceptance_11_pointwise_convergence(capfd):
    _run(capfd, 11, criterion_pointwise)


def test_acceptance_12_determinism(tmp_path, capfd):
    # two full runs from the same seed must agree byte for byte on every CSV
    started = time.perf_counter()
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    assert main(["full-suite", "--out", str(first_dir / "suite")]) == 0
    assert main(["full-suite", "--out", str(second_dir / "suite")]) == 0
    names = sorted(p.name for p in first_dir.glob("*.csv"))
    assert names == sorted(p.name for p in second_dir.glob("*.csv"))
    assert names, "the suite wrote no tables"
    mismatched = [
        name for name in names
        if not filecmp.cmp(first_dir / name, second_dir / name, shallow=False)
    ]
    elapsed = time.perf_counter() - started
    # criterion 12's own verdict, as the first run reported it
    entry = json.loads((first_dir / "suite.summary.json").read_text())["criteria"]["12_determinism"]
    result = SimpleNamespace(name="determinism", passed=entry["passed"], detail=entry["detail"])
    _report(capfd, 12, result, elapsed)
    assert result.passed
    assert not mismatched, f"tables differ between reruns: {mismatched}"
