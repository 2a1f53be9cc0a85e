"""Tests for ergodic averages and the maximal-ergodic bound."""

import math

import numpy as np
import pytest

from maxlab.core import BanachNormDescriptor, BochnerField, WeightedSpace, bochner_norm, fiber_norm, \
    lp_norm
from maxlab.spectral import MuSymmetricOperator
from maxlab.semigroup import DiffusionGenerator, EnsembleSpec, build_ensemble, random_generator
from maxlab.ergodic import (
    DEFAULT_ERGODIC_T_GRID,
    hds_bound,
    hds_experiment,
    maximal_ergodic,
)
from maxlab.modulus import modulus_generator
from oracles import ergodic_average, evolve, scalar_field, time_grid


def test_ergodic_average_against_midpoint_riemann_sum():
    rng = np.random.default_rng(70)
    for trial in range(3):
        gen = random_generator(4, 7100 + trial, kind="contraction")
        f = scalar_field(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        t = float(rng.uniform(0.5, 1.5))
        panels = 4096
        mids = (np.arange(panels) + 0.5) * (t / panels)
        quad = sum(evolve(gen, s, f).values for s in mids) * (t / panels) / t
        np.testing.assert_allclose(ergodic_average(gen, t, f).values, quad, atol=2e-6)


def test_ergodic_average_spot_values_on_eigenvectors():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.diag([1.3, 0.5])))
    e1 = scalar_field([1.0, 0.0])
    e2 = scalar_field([0.0, 1.0])
    # (1 - exp(-t lambda)) / (t lambda) at the two eigenvalues
    assert ergodic_average(gen, 0.7, e1).values[0, 0] == pytest.approx(0.65656678677622422597,
                                                                       abs=1e-15)
    assert ergodic_average(gen, 2.0, e2).values[1, 0] == pytest.approx(0.6321205588285576784,
                                                                       abs=1e-15)


def test_ergodic_average_short_time_limit():
    gen = random_generator(5, 72, kind="diffusion")
    f = scalar_field(np.random.default_rng(2).standard_normal(5))
    np.testing.assert_allclose(ergodic_average(gen, 1e-9, f).values, f.values, atol=1e-6)


def test_kernel_directions_are_fixed():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(
        MuSymmetricOperator(sp, np.array([[1.0, -1.0], [-1.0, 1.0]])))
    c = scalar_field([0.8, 0.8])
    for t in (1e-3, 1.0, 1e3):
        np.testing.assert_allclose(ergodic_average(gen, t, c).values, c.values, atol=1e-12)
    np.testing.assert_allclose(maximal_ergodic(gen, c), c.values[:, 0], atol=1e-12)


def test_time_validation():
    gen = random_generator(3, 73, kind="diffusion")
    f = scalar_field(np.ones(3))
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            ergodic_average(gen, bad, f)
    with pytest.raises(ValueError):
        maximal_ergodic(gen, f, t_grid=np.array([]))
    with pytest.raises(ValueError):
        maximal_ergodic(gen, f, t_grid=np.array([0.0, 1.0]))


def test_tensor_average_factorises_over_simple_tensors():
    gen = random_generator(5, 74, kind="contraction")
    rng = np.random.default_rng(3)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    field = BochnerField(f[:, None] * u[None, :], BanachNormDescriptor(3, 2.0))
    out = ergodic_average(gen, 0.8, field)
    assert out.norm == field.norm
    want = ergodic_average(gen, 0.8, scalar_field(f)).values * u[None, :]
    np.testing.assert_allclose(out.values, want, atol=1e-12)
    with pytest.raises(ValueError):
        ergodic_average(random_generator(4, 75), 0.8, field)


def test_default_time_grid_refinement():
    assert time_grid(2).size == 56 * 4 + 1
    coarse = time_grid(0)
    fine = time_grid(1)
    # refinement keeps every node, so grid suprema cannot decrease
    np.testing.assert_allclose(fine[::2], coarse, rtol=1e-12)
    gen = random_generator(4, 76, kind="diffusion")
    f = scalar_field(np.random.default_rng(4).standard_normal(4))
    m_coarse = maximal_ergodic(gen, f, coarse)
    m_fine = maximal_ergodic(gen, f, fine)
    assert np.all(m_fine >= m_coarse - 1e-12)
    assert DEFAULT_ERGODIC_T_GRID.size == 57
    assert np.array_equal(coarse, DEFAULT_ERGODIC_T_GRID)


def _averaged_modulus_matrix(gen, t):
    """Matrix of the time-averaged modulus semigroup A(S, t): the average of every unit vector."""
    basis = BochnerField(np.eye(gen.n), BanachNormDescriptor(gen.n, 2.0))
    return ergodic_average(modulus_generator(gen), t, basis).values.real


def test_vector_maximal_dominated_by_averaged_modulus():
    # |A(t) F|_B <= A_hat(t) |F|_B pointwise, so the sups are ordered too
    rng = np.random.default_rng(77)
    for trial in range(4):
        gen = random_generator(5, 7700 + trial, kind="contraction")
        values = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        field = BochnerField(values, BanachNormDescriptor(3, 3.0))
        grid = np.geomspace(1e-2, 1e2, 9)
        lhs = maximal_ergodic(gen, field, grid)
        h = fiber_norm(field.values, field.norm.r)
        rhs = np.max([_averaged_modulus_matrix(gen, t) @ h for t in grid], axis=0)
        assert np.all(lhs <= rhs + 1e-10)


def test_averaged_modulus_matrix_is_nonnegative_and_validated():
    gen = random_generator(4, 78, kind="contraction")
    m = _averaged_modulus_matrix(gen, 2.5)
    assert m.min() >= -1e-12
    with pytest.raises(ValueError):
        _averaged_modulus_matrix(gen, 0.0)


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
    # a gradient-free hill climb from the experiment's first scalar draws
    # finds no field whose maximal ratio exceeds the bound
    def ratio(gen, values):
        f = scalar_field(values)
        return lp_norm(gen.space, maximal_ergodic(gen, f), 2.0) / bochner_norm(gen.space, f, 2.0)

    for member_seed, gen in build_ensemble(EnsembleSpec(n=4, count=2, kind="contraction"), 7):
        rng = np.random.default_rng(member_seed + 7)
        best_f = rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n)
        best = ratio(gen, best_f)
        scale = 0.5
        for step in range(60):
            candidate = best_f + scale * (rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n))
            value = ratio(gen, candidate)
            if value > best:
                best, best_f = value, candidate
            elif step % 10 == 9:
                scale *= 0.5
        assert best <= hds_bound(2.0) + 1e-9


def test_hds_report_fails_on_a_nan_ratio():
    # the l^1000 fiber norms overflow to a NaN ratio, which max() would drop
    with np.errstate(over="ignore"):
        result = hds_experiment(EnsembleSpec(n=4, count=2), [2.0], trials=1, seed=5,
                                descriptor=BanachNormDescriptor(4, 1000.0))
    (report,) = result.reports
    assert any(math.isnan(ratio) for ratio in report.ratios)
    assert max(report.ratios) <= report.bound
    assert not report.passed and not result.passed
    assert [row[5] for row in result.rows] == [not math.isnan(ratio) for ratio in report.ratios]


def test_hds_experiment_rejects_sup_fiber():
    with pytest.raises(ValueError):
        hds_experiment(EnsembleSpec(n=3, count=1), [2.0],
                       descriptor=BanachNormDescriptor(2, math.inf))


def test_hds_experiment_rejects_zero_trials():
    # with no trial the worst ratio was taken over an empty list
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            hds_experiment(EnsembleSpec(n=4, count=2), [2.0], trials=trials)


def _reference_hds_rows(spec, p_list, trials, seed, descriptor):
    """The per-p loop the experiment replaced: every field's sup recomputed for each p."""
    rows = []
    for p in p_list:
        bound = hds_bound(p)
        for member_seed, gen in build_ensemble(spec, seed):
            rng = np.random.default_rng(member_seed + 7)
            for _ in range(trials):
                f = scalar_field(rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n))
                values = rng.standard_normal((gen.n, descriptor.d)) + 1j * rng.standard_normal(
                    (gen.n, descriptor.d))
                for field in (f, BochnerField(values, descriptor)):
                    ratio = (lp_norm(gen.space, maximal_ergodic(gen, field), p)
                             / bochner_norm(gen.space, field, p))
                    rows.append((member_seed, gen.n, p, ratio, bound, ratio <= bound + 1e-9))
    return tuple(rows)


@pytest.mark.parametrize("n, kind, d, r", [(4, "diffusion", 4, 2.0), (9, "contraction", 3, 1.5),
                                           (2, "identity", 1, 4.0)])
def test_hds_experiment_rows_equal_the_per_p_loop(n, kind, d, r):
    spec = EnsembleSpec(n=n, count=3, kind=kind)
    descriptor = BanachNormDescriptor(d, r)
    p_list = (1.5, 2.0, 3.0)
    result = hds_experiment(spec, p_list, trials=2, seed=41, descriptor=descriptor)
    assert result.rows == _reference_hds_rows(spec, p_list, 2, 41, descriptor)
    assert [report.ratios for report in result.reports] == [
        tuple(row[3] for row in result.rows if row[2] == p) for p in p_list]
    assert 0.0 <= result.max_relative_eigen_residual < 1e-13
    assert 0.0 <= result.max_orthonormality_defect < 1e-13


def test_hds_experiment_computes_each_maximal_function_once(monkeypatch):
    from maxlab import ergodic

    calls = []
    maximal = ergodic.maximal_ergodic

    def counting(gen, f, t_grid=None):
        calls.append(f)
        return maximal(gen, f, t_grid)

    monkeypatch.setattr(ergodic, "maximal_ergodic", counting)
    count, trials = 3, 2
    result = hds_experiment(EnsembleSpec(n=4, count=count), (1.5, 2.0, 3.0), trials=trials,
                            seed=43)
    # one scalar and one vector field per (member, trial), whatever the number of exponents
    assert len(calls) == 2 * count * trials
    assert len(result.rows) == 3 * len(calls)
