"""Tests for ergodic averages and the maximal-ergodic bound."""

import math

import numpy as np
import pytest

from maxlab.core import BanachNormDescriptor, BochnerField, WeightedSpace, lp_norm, \
    pointwise_banach_norm
from maxlab.spectral import MuSymmetricOperator
from maxlab.semigroup import DiffusionGenerator, EnsembleSpec, evolve, random_generator
from maxlab.ergodic import (
    DEFAULT_ERGODIC_T_GRID,
    averaged_modulus_matrix,
    default_time_grid,
    ergodic_average,
    hds_bound,
    hds_experiment,
    maximal_ergodic,
)


def test_ergodic_average_against_midpoint_riemann_sum():
    rng = np.random.default_rng(70)
    for trial in range(3):
        gen = random_generator(4, 7100 + trial, kind="contraction")
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        t = float(rng.uniform(0.5, 1.5))
        panels = 4096
        mids = (np.arange(panels) + 0.5) * (t / panels)
        quad = sum(evolve(gen, s, f) for s in mids) * (t / panels) / t
        np.testing.assert_allclose(ergodic_average(gen, t, f), quad, atol=2e-6)


def test_ergodic_average_spot_values_on_eigenvectors():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.diag([1.3, 0.5])))
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    # (1 - exp(-t lambda)) / (t lambda) at the two eigenvalues
    assert ergodic_average(gen, 0.7, e1)[0] == pytest.approx(0.65656678677622422597,
                                                             abs=1e-15)
    assert ergodic_average(gen, 2.0, e2)[1] == pytest.approx(0.6321205588285576784,
                                                             abs=1e-15)


def test_ergodic_average_short_time_limit():
    gen = random_generator(5, 72, kind="diffusion")
    f = np.random.default_rng(2).standard_normal(5)
    np.testing.assert_allclose(ergodic_average(gen, 1e-9, f), f, atol=1e-6)


def test_kernel_directions_are_fixed():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(
        MuSymmetricOperator(sp, np.array([[1.0, -1.0], [-1.0, 1.0]])), validate=True)
    c = np.array([0.8, 0.8])
    for t in (1e-3, 1.0, 1e3):
        np.testing.assert_allclose(ergodic_average(gen, t, c), c, atol=1e-12)
    np.testing.assert_allclose(maximal_ergodic(gen, c), c, atol=1e-12)


def test_time_validation():
    gen = random_generator(3, 73, kind="diffusion")
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            ergodic_average(gen, bad, np.ones(3))
    with pytest.raises(ValueError):
        maximal_ergodic(gen, np.ones(3), t_grid=np.array([]))
    with pytest.raises(ValueError):
        maximal_ergodic(gen, np.ones(3), t_grid=np.array([0.0, 1.0]))


def test_tensor_average_factorises_over_simple_tensors():
    gen = random_generator(5, 74, kind="contraction")
    rng = np.random.default_rng(3)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    field = BochnerField(f[:, None] * u[None, :], BanachNormDescriptor(3, 2.0))
    out = ergodic_average(gen, 0.8, field)
    assert out.norm == field.norm
    want = ergodic_average(gen, 0.8, f)[:, None] * u[None, :]
    np.testing.assert_allclose(out.values, want, atol=1e-12)
    with pytest.raises(ValueError):
        ergodic_average(random_generator(4, 75), 0.8, field)


def test_default_time_grid_refinement():
    assert default_time_grid(0).size == 57
    assert default_time_grid(2).size == 56 * 4 + 1
    coarse = default_time_grid(0)
    fine = default_time_grid(1)
    # refinement keeps every node, so grid suprema cannot decrease
    np.testing.assert_allclose(fine[::2], coarse, rtol=1e-12)
    gen = random_generator(4, 76, kind="diffusion")
    f = np.random.default_rng(4).standard_normal(4)
    m_coarse = maximal_ergodic(gen, f, coarse)
    m_fine = maximal_ergodic(gen, f, fine)
    assert np.all(m_fine >= m_coarse - 1e-12)
    assert DEFAULT_ERGODIC_T_GRID.size == 57


def test_vector_maximal_dominated_by_averaged_modulus():
    # |A(t) F|_B <= A_hat(t) |F|_B pointwise, so the sups are ordered too
    rng = np.random.default_rng(77)
    for trial in range(4):
        gen = random_generator(5, 7700 + trial, kind="contraction")
        values = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        field = BochnerField(values, BanachNormDescriptor(3, 3.0))
        grid = np.geomspace(1e-2, 1e2, 9)
        lhs = maximal_ergodic(gen, field, grid)
        h = pointwise_banach_norm(field)
        rhs = np.max([averaged_modulus_matrix(gen, t) @ h for t in grid], axis=0)
        assert np.all(lhs <= rhs + 1e-10)


def test_averaged_modulus_matrix_is_nonnegative_and_validated():
    gen = random_generator(4, 78, kind="contraction")
    m = averaged_modulus_matrix(gen, 2.5)
    assert m.min() >= -1e-12
    with pytest.raises(ValueError):
        averaged_modulus_matrix(gen, 0.0)


def test_hds_bound_values():
    assert hds_bound(1.5) == pytest.approx(4.1601676461038082291, abs=1e-12)
    assert hds_bound(2.0) == pytest.approx(2.8284271247461900976, abs=1e-12)
    assert hds_bound(3.0) == pytest.approx(2.2894284851066637356, abs=1e-12)
    for bad in (1.0, 0.5, math.inf):
        with pytest.raises(ValueError):
            hds_bound(bad)


def test_hds_experiment_rows_and_reports():
    spec = EnsembleSpec(n=4, count=3, kind="diffusion")
    result = hds_experiment(spec, [1.5, 2.0], trials=2, seed=5)
    assert result.passed
    # scalar and vector trials both contribute one row per draw
    assert len(result.rows) == 2 * 3 * 2 * 2
    for member_seed, n, p, ratio, bound, ok in result.rows:
        assert n == 4
        assert p in (1.5, 2.0)
        assert 0.0 < ratio <= bound + 1e-9
        assert ok
    assert {r.p for r in result.reports} == {1.5, 2.0}


def test_hds_experiment_identity_ensemble_saturates_at_one():
    spec = EnsembleSpec(n=3, count=2, kind="identity")
    result = hds_experiment(spec, [2.0], trials=2, seed=6)
    for row in result.rows:
        assert row[3] == pytest.approx(1.0, abs=1e-12)


def test_hds_experiment_adversarial_search_stays_bounded():
    spec = EnsembleSpec(n=4, count=2, kind="contraction")
    result = hds_experiment(spec, [2.0], trials=1, seed=7, adversarial=True)
    assert result.passed
    worst = max(r for _, _, _, r, _, _ in result.rows)
    assert worst <= hds_bound(2.0) + 1e-9


def test_hds_experiment_rejects_sup_fiber():
    with pytest.raises(ValueError):
        hds_experiment(EnsembleSpec(n=3, count=1), [2.0],
                       descriptor=BanachNormDescriptor(2, math.inf))
