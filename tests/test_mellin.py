"""Tests for the multiplier calculus, its Fourier dual and the sector experiments."""

import json
import math
import pathlib

import numpy as np
import pytest

from maxlab.core import (
    BanachNormDescriptor,
    BochnerField,
    WeightedSpace,
    bochner_norm,
    fiber_norm,
    lp_norm,
)
from maxlab.ergodic import maximal_ergodic
from maxlab.spectral import (
    FAMILY_BLOCK_ELEMENTS,
    MuSymmetricOperator,
    family_sup,
    operator_norm_lower_bound,
)
from maxlab.semigroup import (
    DiffusionGenerator,
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
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
    decomposition_residuals,
    imaginary_power_estimate,
    m_theta,
    m_theta_maximal,
    maximal_theorem_experiment,
    mellin_reconstruct,
    n_hat,
    n_hat_table,
    pointwise_convergence_profile,
    sector_maximal,
    truncation_bound,
)
from oracles import (
    decomposition_residual_by_parts,
    imaginary_power_matrix,
    refine_sector_grid,
    scalar_field,
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


def test_n_hat_table_matches_the_scalar_dual():
    thetas = np.linspace(-0.3 * math.pi, 0.3 * math.pi, 5)
    us = np.linspace(-12.0, 12.0, 49)
    values, ratios = n_hat_table(thetas, us)
    assert values.shape == ratios.shape == (5, 49)
    for i, theta in enumerate(thetas):
        for j, u in enumerate(us):
            expected = n_hat(theta, u)
            assert values[i, j] == expected
            weight = math.exp((math.pi / 2.0 - abs(theta)) * abs(u))
            assert ratios[i, j] == pytest.approx(abs(expected) * weight, rel=1e-14)


def test_decay_constant_is_the_largest_table_ratio():
    # the certificate scans the table it certifies, so the two agree exactly
    us = np.linspace(-40.0, 40.0, 801)
    for psi in (0.0, 0.25 * math.pi):
        cert = decay_constant(psi, u_grid=us, n_theta=9)
        thetas = np.zeros(1) if psi == 0.0 else np.linspace(-psi, psi, 9)
        assert cert.constant == n_hat_table(thetas, us)[1].max()


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


def _reconstruct_one(nhat, u, h, lam):
    """The trapezoid sum of one lambda, as mellin_reconstruct computed it per call."""
    integrand = nhat * np.exp(1j * u * math.log(lam))
    integral = h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    return complex(integral / (2.0 * math.pi))


def _counted_gamma(monkeypatch) -> list:
    """Record every argument passed to mellin.gamma_values from now on."""
    import maxlab.mellin as mellin

    calls = []
    gamma_values = mellin.gamma_values
    monkeypatch.setattr(mellin, "gamma_values", lambda z: calls.append(z) or gamma_values(z))
    return calls


def test_mellin_reconstruct_takes_an_array_of_lambdas(monkeypatch):
    lams = np.geomspace(1e-2, 1e2, 25).reshape(5, 5)
    gamma_calls = _counted_gamma(monkeypatch)
    for theta in (0.0, -math.pi / 8.0, math.pi / 4.0):
        gamma_calls.clear()
        got = mellin_reconstruct(theta, lams, U=8.0, h=0.05)
        assert len(gamma_calls) == 1
        assert got.shape == (5, 5)
        # each lambda keeps its own sum, so batching changes no bit
        u = 0.05 * np.arange(-160, 161)
        nhat = np.array([n_hat(theta, x) for x in u])
        want = [_reconstruct_one(nhat, u, 0.05, float(lam)) for lam in lams.ravel()]
        np.testing.assert_array_equal(got.ravel(), want)
        assert mellin_reconstruct(theta, float(lams[2, 3]), U=8.0, h=0.05) == got[2, 3]
    assert type(mellin_reconstruct(0.0, 1.0)) is complex
    with pytest.raises(ValueError):
        mellin_reconstruct(0.0, np.array([1.0, 0.0, 2.0]))


def test_mellin_reconstruct_takes_an_array_of_angles(monkeypatch):
    gamma_calls = _counted_gamma(monkeypatch)
    thetas = np.array([0.0, math.pi / 8.0, -math.pi / 8.0, math.pi / 4.0, -math.pi / 4.0])
    lams = np.geomspace(1e-2, 1e2, 12).reshape(3, 4)
    for U, h in ((8.0, 0.05), (40.0, 0.8)):
        gamma_calls.clear()
        got = mellin_reconstruct(thetas, lams, U=U, h=h)
        assert len(gamma_calls) == 1
        assert got.shape == (5, 3, 4)
        for theta, row in zip(thetas, got):
            # each angle keeps its own sum, so sharing the phase rows changes no bit
            assert row.tobytes() == mellin_reconstruct(float(theta), lams, U=U, h=h).tobytes()
    assert mellin_reconstruct(thetas[:1], 2.0).shape == (1,)
    assert mellin_reconstruct(thetas[3:], 2.0)[0] == mellin_reconstruct(thetas[3], 2.0)


def test_mellin_reconstruct_refuses_any_angle_out_of_range():
    for bad in (math.pi / 2.0, -2.0, math.nan):
        for position in range(3):
            thetas = [0.0, 0.3, -0.3]
            thetas[position] = bad
            with pytest.raises(ValueError, match="pi/2"):
                mellin_reconstruct(np.array(thetas), np.array([0.5, 2.0]))
    with pytest.raises(ValueError, match="1-d"):
        mellin_reconstruct(np.zeros((2, 2)), 1.0)


def _apply_m_theta_at(theta):
    field = BochnerField(np.ones((3, 2), dtype=complex), BanachNormDescriptor(2, 2.0))
    return apply_m_theta(random_generator(3, 30, kind="diffusion"), theta, 1.0, field)


@pytest.mark.parametrize("check", [
    lambda theta: m_theta(theta, 1.0),
    _apply_m_theta_at,
    lambda theta: truncation_bound(theta, 10.0, 1.0),
], ids=["m_theta", "apply_m_theta", "truncation_bound"])
def test_the_angle_checks_refuse_a_nan_angle(check):
    # |nan| >= pi/2 is False, so each check asks for |theta| < pi/2 instead
    with pytest.raises(ValueError, match="pi/2"):
        check(math.nan)
    check(0.3)


def test_decay_constant_makes_two_gamma_calls(monkeypatch):
    # one per scan: the thetas of a table share their Gamma row
    gamma_calls = _counted_gamma(monkeypatch)
    decay_constant(math.pi / 4.0)
    assert len(gamma_calls) == 2
    gamma_calls.clear()
    values, _ = n_hat_table(np.linspace(-0.5, 0.5, 7), np.linspace(-3.0, 3.0, 13))
    assert len(gamma_calls) == 1
    assert values.shape == (7, 13)


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


def _conservative_generator(n: int, seed: int) -> DiffusionGenerator:
    """Random diffusion generator whose rows sum to 0, so lambda = 0 is an eigenvalue."""
    rng = np.random.default_rng(seed)
    sp = WeightedSpace(rng.uniform(0.5, 2.0, n))
    w = rng.uniform(0.0, 1.0, (n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    ell = (np.diag(w.sum(axis=1)) - w) / sp.mu[:, None]
    return DiffusionGenerator(MuSymmetricOperator(sp, ell))


# real z, |arg z| = 0.45 pi on both sides, and radii from 1e-3 to 1e2
_DECOMPOSITION_ZS = (0.7, 1e-3, 1e2,
                     2.5 * complex(math.cos(0.45 * math.pi), math.sin(0.45 * math.pi)),
                     2.5 * complex(math.cos(0.45 * math.pi), -math.sin(0.45 * math.pi)),
                     0.3 + 0.2j, 40.0 - 25.0j)


def test_decomposition_residuals_match_the_per_term_oracle():
    rng = np.random.default_rng(81)
    gens = [random_generator(1, 8100), random_generator(2, 8101, kind="contraction"),
            random_generator(16, 8102, kind="contraction"),
            DiffusionGenerator(MuSymmetricOperator(WeightedSpace(np.array([1.3])),
                                                   np.zeros((1, 1)))),
            _conservative_generator(2, 8103), _conservative_generator(16, 8104)]
    # the last three have the kernel eigenvalue lambda = 0
    assert [gen.injective for gen in gens] == [True, True, True, False, False, False]
    for gen in gens:
        zs, fields = [], []
        for z in _DECOMPOSITION_ZS:
            for d in (1, 8):
                values = rng.standard_normal((gen.n, d)) + 1j * rng.standard_normal((gen.n, d))
                zs.append(z)
                fields.append(BochnerField(values, BanachNormDescriptor(d, 2.0 if d == 1 else 3.0)))
            zs.append(z)
            fields.append(
                scalar_field(rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n)))
        got = decomposition_residuals(gen, zs, fields)
        assert got.shape == (len(zs),)
        want = [decomposition_residual_by_parts(gen, z, f) for z, f in zip(zs, fields)]
        assert got.tolist() == want
        scales = np.array([bochner_norm(gen.space, f, 2.0) for f in fields])
        assert np.all(got <= 1e-13 * scales)


def test_a_batch_of_one_is_the_single_call():
    gen = _conservative_generator(6, 8105)
    rng = np.random.default_rng(82)
    for z in _DECOMPOSITION_ZS:
        for d in (1, 3):
            field = BochnerField(rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d)),
                                 BanachNormDescriptor(d, 2.0))
            single = decomposition_residual(gen, z, field)
            assert type(single) is float
            assert decomposition_residuals(gen, [z], [field]).tolist() == [single]


def test_decomposition_residual_refuses_z_off_the_open_right_half_plane():
    gen = random_generator(4, 8106)
    field = BochnerField(np.ones((4, 2)), BanachNormDescriptor(2, 2.0))
    refusals = ((0.0, "z != 0"), (1j, r"\|arg z\| < pi/2"), (-1j, r"\|arg z\| < pi/2"),
                (-1.0 + 0.5j, r"\|arg z\| < pi/2"), (-2.0, r"\|arg z\| < pi/2"),
                # arg z rounds to pi/2, where m_theta is not defined
                (1e-300 + 1j, r"\|arg z\| < pi/2"),
                (complex(math.nan, 0.0), "finite z"), (complex(1.0, math.inf), "finite z"))
    for z, message in refusals:
        with pytest.raises(ValueError, match=message):
            decomposition_residual(gen, z, field)
        # a bad z anywhere in a batch refuses the batch
        with pytest.raises(ValueError, match=message):
            decomposition_residuals(gen, [0.5, z, 1.0 + 1.0j], [field] * 3)


def test_decomposition_residuals_validate_the_batch():
    gen = random_generator(4, 8107)
    field = BochnerField(np.ones((4, 2)), BanachNormDescriptor(2, 2.0))
    with pytest.raises(ValueError, match="at least one"):
        decomposition_residuals(gen, [], [])
    with pytest.raises(ValueError, match="one field per z"):
        decomposition_residuals(gen, [0.5, 1.0], [field])
    with pytest.raises(ValueError, match="one field per z"):
        decomposition_residuals(gen, [0.5], [field, field])
    with pytest.raises(ValueError, match="takes one"):
        decomposition_residuals(gen, [0.5], [[field, field]])
    with pytest.raises(ValueError):
        decomposition_residuals(gen, [0.5],
                                [BochnerField(np.ones((5, 2)), BanachNormDescriptor(2, 2.0))])
    # the coefficients of a field near the float limit overflow; a NaN residual
    # would read as a pass under a Python max
    huge = BochnerField(np.full((4, 2), 1e308), BanachNormDescriptor(2, 2.0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="not finite"):
        decomposition_residuals(gen, [0.5, 0.5], [field, huge])


def test_sector_maximal_dominates_grid_nodes_and_refines_monotonely():
    gen = random_generator(5, 33, kind="diffusion")
    rng = np.random.default_rng(9)
    values = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    field = BochnerField(values, BanachNormDescriptor(2, 3.0))
    grid = SectorGrid(0.2, np.geomspace(0.1, 10.0, 5), np.linspace(-0.2, 0.2, 3))
    best = sector_maximal(gen, field, grid)
    for z in grid.points():
        node = fiber_norm(evolve(gen, z, field).values, field.norm.r)
        assert np.all(node <= best + 1e-12)
    finer = sector_maximal(gen, field, refine_sector_grid(grid))
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
            node = fiber_norm(apply_m_theta(gen, theta, t, field).values, field.norm.r)
            assert np.all(node <= best + 1e-12)


def _per_node_m_theta_rows(lam, grid):
    # the oracle: one m_theta row per grid node, radius-major, with the
    # phase e^{i theta} from the math module
    rows = []
    for t in grid.radii:
        for theta in grid.angles:
            tl = t * lam
            row = np.zeros(lam.shape, dtype=complex)
            nz = tl > 0.0
            phase = complex(math.cos(theta), math.sin(theta))
            row[nz] = np.exp(-phase * tl[nz]) + np.expm1(-tl[nz]) / tl[nz]
            rows.append(row)
    return np.array(rows)


ORACLE_GRIDS = {
    "psi=0": SectorGrid.default(0.0),
    "psi=0.1pi": SectorGrid.default(0.1 * math.pi),
    # angles not symmetric about 0, so a conjugated phase would show
    "lopsided": SectorGrid(0.1 * math.pi, np.geomspace(1e-2, 1e1, 5),
                           np.array([-0.1 * math.pi, 0.02, 0.05])),
}


@pytest.mark.parametrize("n", [2, 8, 48])
@pytest.mark.parametrize("grid_name", list(ORACLE_GRIDS))
@pytest.mark.parametrize("kind", ["diffusion", "identity"])
def test_m_theta_maximal_matches_the_per_node_rows(n, grid_name, kind):
    gen = build_ensemble(EnsembleSpec(n=n, count=1, kind=kind), 1400 + n)[0][1]
    grid = ORACLE_GRIDS[grid_name]
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    field = BochnerField(values, BanachNormDescriptor(3, 4.0))
    rows = _per_node_m_theta_rows(gen.decomposition.eigenvalues, grid)
    assert rows.shape == (grid.radii.size * grid.angles.size, n)
    best = m_theta_maximal(gen, field, grid)
    assert np.array_equal(best, family_sup(gen.decomposition, rows, values, 4.0))
    if kind == "identity":
        # the spectrum is all zero, where m_theta vanishes
        assert not np.any(rows) and not np.any(best)
    for theta in (0.0, 0.3, -1.2):
        assert m_theta(theta, 0.0) == 0


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
    # past Stein's angle the sector rule answers before the planner, whose
    # hypotheses fail there too; the planner still rejects a theta at its floor
    with pytest.raises(ValueError, match="exceeds the contraction sector angle"):
        maximal_theorem_experiment(spec, 4.0, 4.0, 0.45 * math.pi)
    with pytest.raises(BipPlanError):
        maximal_theorem_experiment(spec, 4.0, 4.0, 0.1 * math.pi, theta=0.4)


def test_maximal_experiment_rejects_zero_trials():
    # with no trial the profile would be all zeros and pass without checking a field
    spec = EnsembleSpec(n=4, count=2)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            maximal_theorem_experiment(spec, 4.0, 4.0, 0.1 * math.pi, trials=trials)


_MAXIMAL_FUNCTIONS = (
    (sector_maximal, lambda grid: grid),
    (m_theta_maximal, lambda grid: grid),
    (maximal_ergodic, lambda grid: grid.radii),
)


@pytest.mark.parametrize("n", [2, 8, 48])
def test_batched_maximal_functions_equal_per_field_calls(n):
    gen = random_generator(n, 2200 + n)
    grid = SectorGrid.default(0.1 * math.pi)
    # 216 rows over 4 x 16 columns cross many block boundaries
    assert len(grid.points()) == 216 and FAMILY_BLOCK_ELEMENTS // 64 < 216
    rng = np.random.default_rng(2300 + n)
    for trials in (1, 4):
        for d in (1, 3, 16):
            for r in (1.5, 2.0, 4.0, math.inf):
                descriptor = BanachNormDescriptor(d, r)
                fields = [BochnerField(rng.standard_normal((n, d))
                                       + 1j * rng.standard_normal((n, d)), descriptor)
                          for _ in range(trials)]
                for maximal, nodes in _MAXIMAL_FUNCTIONS:
                    batch = maximal(gen, fields, nodes(grid))
                    assert batch.shape == (n, trials)
                    for j, field in enumerate(fields):
                        assert np.array_equal(batch[:, j], maximal(gen, field, nodes(grid)))


def test_maximal_functions_reject_bad_batches():
    gen = random_generator(4, 2400)
    grid = SectorGrid.default(0.1 * math.pi)
    rng = np.random.default_rng(2401)
    field = BochnerField(rng.standard_normal((4, 2)), BanachNormDescriptor(2, 2.0))
    other_r = BochnerField(rng.standard_normal((4, 2)), BanachNormDescriptor(2, 4.0))
    other_n = BochnerField(rng.standard_normal((5, 2)), BanachNormDescriptor(2, 2.0))
    for maximal, nodes in _MAXIMAL_FUNCTIONS:
        for bad in ([], [field, other_r], [field, other_n], [field, rng.standard_normal(4)]):
            with pytest.raises(ValueError):
                maximal(gen, bad, nodes(grid))
        # nor is a bare (n,) array a field
        with pytest.raises(ValueError, match="a BochnerField"):
            maximal(gen, np.ones(4, dtype=complex), nodes(grid))


@pytest.mark.parametrize("kind, message", [("list", "takes one"), ("bare", "a BochnerField")])
def test_other_field_functions_reject_a_list_of_fields_and_a_bare_array(kind, message):
    # a field is a BochnerField: neither a list of them nor a bare (n,) array,
    # the scalar field of d = 1 written without its fiber axis
    from maxlab.ergodic import ergodic_average
    from maxlab.semigroup import imaginary_power
    from maxlab.spectral import apply_to_field

    gen = random_generator(4, 2500)
    field = BochnerField(np.ones((4, 2)), BanachNormDescriptor(2, 2.0))
    fields = [field, field] if kind == "list" else np.ones(4, dtype=complex)
    calls = (
        lambda: evolve(gen, 0.5 + 0.1j, fields),
        lambda: imaginary_power(gen, 0.5, fields),
        lambda: ergodic_average(gen, 0.5, fields),
        lambda: apply_m_theta(gen, 0.2, 0.5, fields),
        lambda: apply_to_field(gen.decomposition, np.ones(4), fields),
        lambda: decomposition_residual(gen, 0.5 + 0.1j, fields),
        lambda: pointwise_convergence_profile(gen, fields, 0.2),
        lambda: bochner_norm(gen.space, fields, 2.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def _reference_maximal_profile(spec, p, r, psi, d_list, trials, seed):
    """The per-trial loop the batched experiment replaced: (c_emp, max_triangle_excess)."""
    grid = SectorGrid.default(psi)
    members = build_ensemble(spec, seed)
    c_emp = []
    max_excess = -math.inf
    for d in d_list:
        descriptor = BanachNormDescriptor(d, r)
        worst = 0.0
        for member_seed, gen in members:
            rng = np.random.default_rng(member_seed + 13)
            for _ in range(trials):
                values = rng.standard_normal((gen.n, d)) + 1j * rng.standard_normal((gen.n, d))
                field = BochnerField(values, descriptor)
                denom = bochner_norm(gen.space, field, p)
                maximal = lp_norm(gen.space, sector_maximal(gen, field, grid), p)
                worst = max(worst, maximal / denom)
                ergodic_part = lp_norm(gen.space, maximal_ergodic(gen, field, grid.radii), p)
                multiplier_part = lp_norm(gen.space, m_theta_maximal(gen, field, grid), p)
                excess = maximal - ergodic_part - multiplier_part - 1e-9 * denom
                max_excess = max(max_excess, excess)
        c_emp.append(worst)
    return tuple(c_emp), max_excess


@pytest.mark.parametrize("n, count, d_list, trials, theta", [
    (8, 8, (1, 2, 4, 8, 16), 4, 0.6),
    (48, 1, (1, 16), 3, None),
    (3, 2, (2,), 1, None),
])
def test_maximal_experiment_equals_the_per_trial_loop(n, count, d_list, trials, theta):
    spec = EnsembleSpec(n=n, count=count, kind="diffusion")
    psi = 0.1 * math.pi
    report = maximal_theorem_experiment(spec, 4.0, 4.0, psi, d_list=d_list, trials=trials,
                                        seed=31, theta=theta)
    c_emp, max_excess = _reference_maximal_profile(spec, 4.0, 4.0, psi, d_list, trials, 31)
    assert report.c_emp == c_emp
    assert report.max_triangle_excess == max_excess
    assert 0.0 < report.max_relative_eigen_residual < 1e-13
    assert 0.0 <= report.max_orthonormality_defect < 1e-13


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


def test_imaginary_power_estimate_at_p_two_is_flat(monkeypatch):
    import maxlab.spectral as spectral

    def no_boyd(*args, **kwargs):
        raise AssertionError("the p = 2 norm has a closed form")

    monkeypatch.setattr(spectral, "_boyd_block", no_boyd)
    gen = random_generator(5, 38, kind="diffusion")
    est = imaginary_power_estimate(gen, 2.0, trials=10, seed=0)
    assert est.K == pytest.approx(1.0, abs=1e-9)
    assert est.omega <= 1e-9
    assert est.omega_ub <= 1e-9
    by_u = {u: (lb, ub) for u, lb, ub in est.rows}
    assert by_u[0.0] == (1.0, 1.0)
    # ||L^{iu}||_2 = 1: the exact rows, up to the rounding of |e^{i u log lambda}|
    for lb, ub in by_u.values():
        assert lb == ub == pytest.approx(1.0, abs=1e-15)


def test_imaginary_power_estimate_grows_subexponentially():
    gen = random_generator(6, 39, kind="diffusion")
    est = imaginary_power_estimate(gen, 4.0, trials=10, seed=1)
    assert est.omega <= est.omega_ub < math.pi / 2.0
    assert est.K >= 1.0 - 1e-12
    rng = np.random.default_rng(1)
    for u, lb, ub in est.rows:
        assert lb <= ub * (1.0 + 1e-14)
        assert ub <= math.exp(est.omega_ub * abs(u)) * (1.0 + 1e-14)
        if u != 0.0:
            # the lower bounds of the per-node route, one shared stream over the grid
            m = imaginary_power_matrix(gen, u)
            assert lb == operator_norm_lower_bound(gen.space, m, 4.0, trials=10, seed=rng)


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
