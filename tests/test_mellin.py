"""Tests for the multiplier calculus, its Fourier dual and the sector experiments."""

import json
import math
import pathlib

import numpy as np
import pytest

from maxlab.core import BanachNormDescriptor, BochnerField, WeightedSpace, \
    pointwise_banach_norm
from maxlab.spectral import MuSymmetricOperator
from maxlab.semigroup import (
    DiffusionGenerator,
    EnsembleSpec,
    SectorGrid,
    evolve,
    random_generator,
    stein_angle,
)
from maxlab.mellin import (
    BipPlanError,
    apply_m_theta,
    bip_plan,
    decay_constant,
    decomposition_residual,
    imaginary_power_estimate,
    m_theta,
    m_theta_maximal,
    maximal_theorem_experiment,
    mellin_reconstruct,
    n_hat,
    pointwise_convergence_profile,
    sector_maximal,
    truncation_bound,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_multiplier_spot_values():
    # closed form exp(-e^{i theta}) + expm1(-1) at lambda = 1, high precision
    assert m_theta(0.0, 1.0) == pytest.approx(2.0 / math.e - 1.0, abs=1e-15)
    z = m_theta(math.pi / 4.0, 1.0)
    assert z.real == pytest.approx(-0.25726775020817537847, abs=1e-15)
    assert z.imag == pytest.approx(-0.3203156354342154995, abs=1e-15)
    assert m_theta(0.3, 0.0) == 0.0


def test_multiplier_validation():
    with pytest.raises(ValueError):
        m_theta(math.pi / 2.0, 1.0)
    with pytest.raises(ValueError):
        m_theta(0.0, -0.5)


def test_n_hat_spot_values():
    v = n_hat(0.0, 1.0)
    assert v.real == pytest.approx(-0.32648274821008336392, abs=1e-14)
    assert v.imag == pytest.approx(0.17153291990827267879, abs=1e-14)
    assert abs(v) == pytest.approx(0.3688014743612972346, abs=1e-14)
    # removable singularity
    assert n_hat(0.7, 0.0) == pytest.approx(-(1.0 + 0.7j), abs=1e-15)


def test_n_hat_is_the_fourier_transform_of_the_log_multiplier():
    # oracle: trapezoid integral of m_theta(e^x) e^{-iux} dx on a wide window
    x = np.arange(-35.0, 35.0 + 1e-12, 0.01)
    for theta in (0.0, 0.6):
        values = np.array([m_theta(theta, math.exp(xi)) for xi in x])
        for u in (0.5, 1.0, 3.0):
            integrand = values * np.exp(-1j * u * x)
            quad = 0.01 * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
            assert abs(quad - n_hat(theta, u)) <= 1e-8


def test_decay_certificate():
    cert = decay_constant(math.pi / 4.0)
    assert cert.stable
    assert cert.rel_change < 0.05
    assert 1.9 < cert.constant < 2.1
    base = decay_constant(0.0)
    assert base.constant == pytest.approx(1.7741111504816938, rel=1e-9)
    assert base.constant <= cert.constant
    # the certificate is exactly |n_hat_0(0)| when only u = 0 is sampled
    single = decay_constant(0.0, u_grid=np.array([0.0]), n_theta=1)
    assert single.constant == 1.0
    assert single.rel_change == 0.0


def test_decay_constant_validation():
    with pytest.raises(ValueError):
        decay_constant(math.pi / 2.0)
    with pytest.raises(ValueError):
        decay_constant(0.1, u_grid=np.array([]))
    with pytest.raises(ValueError):
        decay_constant(0.1, n_theta=0)


def test_mellin_reconstruction_at_defaults():
    for theta in (0.0, math.pi / 8.0, -math.pi / 4.0):
        for lam in (0.2, 1.0, 5.0):
            rec = mellin_reconstruct(theta, lam)
            assert abs(rec - m_theta(theta, lam)) <= 1e-6


def test_mellin_reconstruction_validation():
    with pytest.raises(ValueError):
        mellin_reconstruct(0.0, 0.0)
    with pytest.raises(ValueError):
        mellin_reconstruct(0.0, -1.0)
    with pytest.raises(ValueError):
        mellin_reconstruct(math.pi / 2.0, 1.0)
    with pytest.raises(ValueError):
        mellin_reconstruct(0.0, 1.0, h=0.0)
    with pytest.raises(ValueError):
        mellin_reconstruct(0.0, 1.0, U=-1.0)


def test_mellin_step_refinement():
    # aliasing decays like exp(-2 pi / h), so halving h crushes the error
    target = m_theta(0.0, 1.0)
    coarse = abs(mellin_reconstruct(0.0, 1.0, h=0.8) - target)
    fine = abs(mellin_reconstruct(0.0, 1.0, h=0.4) - target)
    assert coarse > 1e-5
    assert fine <= 0.5 * coarse


def test_mellin_truncation_refinement_and_tail_bound():
    # at theta = pi/4 the tail decays slowly enough to sit above roundoff
    theta = math.pi / 4.0
    target = m_theta(theta, 1.0)
    e20 = abs(mellin_reconstruct(theta, 1.0, U=20.0) - target)
    e30 = abs(mellin_reconstruct(theta, 1.0, U=30.0) - target)
    assert e30 < e20
    cert = decay_constant(theta)
    assert e20 <= truncation_bound(theta, 20.0, cert.constant)
    with pytest.raises(ValueError):
        truncation_bound(math.pi / 2.0, 20.0, 1.0)


def test_apply_m_theta_scales_eigenvectors():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.diag([2.0, 3.0])))
    u = np.array([1.0 - 0.5j, 0.25j, 2.0])
    values = np.zeros((2, 3), dtype=complex)
    values[0] = u
    field = BochnerField(values, BanachNormDescriptor(3, 2.0))
    out = apply_m_theta(gen, 0.0, 0.5, field)
    np.testing.assert_allclose(out.values[0], m_theta(0.0, 1.0) * u, atol=1e-14)
    np.testing.assert_allclose(out.values[1], 0.0, atol=1e-14)


def test_apply_m_theta_kills_the_kernel():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.zeros((2, 2))))
    field = BochnerField(np.ones((2, 2), dtype=complex), BanachNormDescriptor(2, 2.0))
    out = apply_m_theta(gen, 0.2, 1.0, field)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-15)


def test_apply_m_theta_validation():
    gen = random_generator(3, 30, kind="diffusion")
    field = BochnerField(np.ones((3, 2), dtype=complex), BanachNormDescriptor(2, 2.0))
    with pytest.raises(ValueError):
        apply_m_theta(gen, math.pi / 2.0, 1.0, field)
    with pytest.raises(ValueError):
        apply_m_theta(gen, 0.0, 0.0, field)
    with pytest.raises(ValueError):
        apply_m_theta(random_generator(4, 31), 0.0, 1.0, field)


def test_decomposition_residual_is_roundoff():
    rng = np.random.default_rng(80)
    for trial in range(6):
        gen = random_generator(5, 8000 + trial,
                               kind="diffusion" if trial % 2 == 0 else "contraction")
        values = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        field = BochnerField(values, BanachNormDescriptor(3, 2.0))
        for z in (0.7, 0.5 + 0.3j, 2.0 - 1.5j):
            assert decomposition_residual(gen, z, field) <= 1e-10
    with pytest.raises(ValueError):
        decomposition_residual(gen, 0.0, field)
    with pytest.raises(ValueError):
        decomposition_residual(gen, -1.0 + 0.5j, field)


def test_sector_maximal_dominates_grid_nodes_and_refines_monotonely():
    gen = random_generator(5, 33, kind="diffusion")
    rng = np.random.default_rng(9)
    values = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    field = BochnerField(values, BanachNormDescriptor(2, 3.0))
    grid = SectorGrid(0.2, np.geomspace(0.1, 10.0, 5), np.linspace(-0.2, 0.2, 3))
    best = sector_maximal(gen, field, grid)
    for z in grid.points():
        node = pointwise_banach_norm(evolve(gen, z, field))
        assert np.all(node <= best + 1e-12)
    finer = sector_maximal(gen, field, grid.refine())
    assert np.all(finer >= best - 1e-12)
    with pytest.raises(ValueError):
        sector_maximal(random_generator(4, 34), field, grid)


def test_m_theta_maximal_dominates_grid_nodes():
    gen = random_generator(4, 35, kind="contraction")
    rng = np.random.default_rng(10)
    values = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    field = BochnerField(values, BanachNormDescriptor(2, 2.0))
    grid = SectorGrid(0.25, np.geomspace(0.5, 2.0, 3), np.linspace(-0.25, 0.25, 3))
    best = m_theta_maximal(gen, field, grid)
    for t in grid.radii:
        for theta in grid.angles:
            node = pointwise_banach_norm(apply_m_theta(gen, theta, t, field))
            assert np.all(node <= best + 1e-12)


def test_bip_plan_reference_points():
    plan = bip_plan(2.0, 2.0, 0.0, theta=0.5)
    assert plan.q == pytest.approx(2.0, abs=1e-15)
    assert plan.sigma == pytest.approx(0.75 * math.pi, abs=1e-15)
    assert plan.omega == pytest.approx(0.375 * math.pi, abs=1e-15)

    plan = bip_plan(4.0, 4.0, 0.1 * math.pi, theta=0.6)
    assert plan.q == pytest.approx(12.0, rel=1e-12)
    assert plan.omega == pytest.approx(0.35 * math.pi, rel=1e-12)

    plan = bip_plan(4.0, 4.0, 0.1 * math.pi)
    assert plan.theta == pytest.approx(0.55, abs=1e-15)
    assert plan.q == pytest.approx(22.0, rel=1e-9)
    assert plan.sigma / math.pi == pytest.approx(0.6136363636363636, rel=1e-12)
    assert plan.omega / math.pi == pytest.approx(0.3375, rel=1e-12)


def test_bip_plan_caps_the_default_theta():
    # margin would overshoot the sector cap, so the midpoint is used
    plan = bip_plan(4.0, 4.0, 0.24 * math.pi)
    assert plan.theta == pytest.approx(0.51, abs=1e-12)


def test_bip_plan_rejections():
    with pytest.raises(BipPlanError):
        bip_plan(1.0, 2.0, 0.1)
    with pytest.raises(BipPlanError):
        bip_plan(2.0, math.inf, 0.1)
    with pytest.raises(BipPlanError):
        bip_plan(2.0, 2.0, math.pi / 2.0)
    with pytest.raises(BipPlanError):
        bip_plan(4.0, 4.0, 0.1, theta=0.5)  # not strictly above |2/p - 1|
    with pytest.raises(BipPlanError):
        bip_plan(2.0, 2.0, 0.1, theta=1.0)
    with pytest.raises(BipPlanError):
        bip_plan(2.0, 2.0, 0.45 * math.pi, theta=0.2)  # no sector room
    with pytest.raises(BipPlanError):
        bip_plan(4.0, 4.0, 0.45 * math.pi)  # infeasible even without theta


def test_bip_plan_invariants_hold_on_feasible_draws():
    rng = np.random.default_rng(90)
    found = 0
    while found < 25:
        p = float(rng.uniform(1.1, 8.0))
        r = float(rng.uniform(1.1, 8.0))
        psi = float(rng.uniform(0.0, 0.45 * math.pi))
        try:
            plan = bip_plan(p, r, psi)
        except BipPlanError:
            continue
        found += 1
        assert 1.0 / p == pytest.approx((1.0 - plan.theta) / 2.0 + plan.theta / plan.q,
                                        abs=1e-12)
        assert plan.omega == pytest.approx(plan.sigma * plan.theta, abs=1e-12)
        assert plan.omega < math.pi / 2.0 - psi
        assert plan.theta > max(abs(2.0 / p - 1.0), abs(2.0 / r - 1.0))


def test_maximal_experiment_matches_recorded_profile():
    profile = json.loads((FIXTURES / "default_maximal_profile.json").read_text())
    spec = EnsembleSpec(**profile["ensemble"])
    report = maximal_theorem_experiment(
        spec, profile["p"], profile["r"], profile["psi_over_pi"] * math.pi,
        d_list=profile["d"], trials=profile["trials"], seed=profile["seed"],
        theta=profile["theta"],
    )
    assert report.passed
    assert report.uniformity_ratio <= 2.0
    assert report.max_triangle_excess <= 0.0
    want = [float(v) for v in profile["c_emp"]]
    np.testing.assert_allclose(np.array(report.c_emp), np.array(want), rtol=1e-9)
    assert report.uniformity_ratio == pytest.approx(float(profile["uniformity_ratio"]),
                                                    rel=1e-9)


def test_maximal_experiment_validation():
    spec = EnsembleSpec(n=4, count=1)
    with pytest.raises(ValueError):
        maximal_theorem_experiment(spec, 4.0, 4.0, 0.3 * math.pi, theta=0.6)
    with pytest.raises(ValueError):
        maximal_theorem_experiment(spec, 4.0, math.inf, 0.1 * math.pi)
    with pytest.raises(ValueError):
        maximal_theorem_experiment(spec, 4.0, 4.0, 0.1 * math.pi, d_list=[])
    with pytest.raises(BipPlanError):
        maximal_theorem_experiment(spec, 4.0, 4.0, 0.45 * math.pi)


def test_pointwise_profile_identity_flow_has_no_error():
    sp = WeightedSpace(np.ones(3))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.zeros((3, 3))))
    field = BochnerField(np.ones((3, 2), dtype=complex), BanachNormDescriptor(2, 2.0))
    profile = pointwise_convergence_profile(gen, field, 0.1 * math.pi)
    assert np.all(profile.errors == 0.0)
    assert math.isnan(profile.slope)


def test_pointwise_profile_linear_approach():
    rng = np.random.default_rng(91)
    for trial in range(5):
        gen = random_generator(5, 9100 + trial, kind="diffusion")
        values = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        field = BochnerField(values, BanachNormDescriptor(3, 2.0))
        profile = pointwise_convergence_profile(gen, field, 0.1 * math.pi)
        assert 0.8 <= profile.slope <= 1.2
        assert np.all(np.diff(profile.errors) <= 1e-15)


def test_pointwise_profile_validation():
    gen = random_generator(3, 37, kind="diffusion")
    field = BochnerField(np.ones((3, 1), dtype=complex), BanachNormDescriptor(1, 2.0))
    with pytest.raises(ValueError):
        pointwise_convergence_profile(gen, field, math.pi / 2.0)
    with pytest.raises(ValueError):
        pointwise_convergence_profile(gen, field, 0.1, radii=np.array([1e-3, 1e-2]))
    with pytest.raises(ValueError):
        pointwise_convergence_profile(gen, field, 0.1, radii=np.array([]))


def test_imaginary_power_estimate_at_p_two_is_flat():
    gen = random_generator(5, 38, kind="diffusion")
    est = imaginary_power_estimate(gen, 2.0, trials=10, seed=0)
    assert est.K == pytest.approx(1.0, abs=1e-9)
    assert est.omega <= 1e-9
    by_u = dict(est.rows)
    assert by_u[0.0] == 1.0


def test_imaginary_power_estimate_grows_subexponentially():
    gen = random_generator(6, 39, kind="diffusion")
    est = imaginary_power_estimate(gen, 4.0, trials=10, seed=1)
    assert est.omega < math.pi / 2.0
    assert est.K >= 1.0 - 1e-12


def test_imaginary_power_estimate_requires_injectivity():
    sp = WeightedSpace(np.ones(2))
    gen = DiffusionGenerator(
        MuSymmetricOperator(sp, np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert not gen.injective
    with pytest.raises(ValueError):
        imaginary_power_estimate(gen, 2.0)
    good = random_generator(3, 40, kind="diffusion")
    with pytest.raises(ValueError):
        imaginary_power_estimate(good, 1.0)
    with pytest.raises(ValueError):
        imaginary_power_estimate(good, 2.0, u_grid=np.array([]))
