"""Tests for generators, semigroup evolution, sector probes and imaginary powers."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from maxlab.core import BanachNormDescriptor, BochnerField, WeightedSpace, lp_norm
from maxlab.spectral import MuSymmetricOperator, operator_norm, operator_norm_lower_bound
from maxlab.semigroup import (
    ContractionSemigroupGenerator,
    DiffusionGenerator,
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    evolve,
    exemplar_contraction_generator,
    imaginary_power,
    imaginary_power_matrix,
    random_generator,
    sector_contraction_probe,
    semigroup_matrix,
    stein_angle,
    verify_contraction_property,
)


def test_random_generator_structure():
    for seed in range(10):
        gen = random_generator(6, seed, kind="diffusion")
        a = gen.matrix
        off = a - np.diag(np.diag(a))
        assert np.all(off <= 1e-14)
        assert np.all(a.sum(axis=1) >= -1e-12)
        assert np.all(gen.decomposition.eigenvalues >= 0.0)
        assert gen.injective
        # contraction draw is a sign conjugate, so endpoint norms agree
        con = random_generator(6, seed, kind="contraction")
        for p in (1.0, math.inf):
            assert operator_norm(con.space, semigroup_matrix(con, 0.7), p) \
                == pytest.approx(operator_norm(gen.space, semigroup_matrix(gen, 0.7), p),
                                 rel=1e-12)


def test_random_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_generator(0, 1)
    with pytest.raises(ValueError):
        random_generator(4, 1, kind="markov")
    with pytest.raises(ValueError):
        random_generator(4, 1, c=-2.0)


def test_diffusion_validation_rejects_sign_violations():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    # positive off-diagonal entries are not a diffusion generator
    with pytest.raises(ValueError):
        DiffusionGenerator(MuSymmetricOperator(sp, np.array([[1.0, 1.0], [1.0, 1.0]])))
    # but they are an admissible plain contraction generator
    ContractionSemigroupGenerator(MuSymmetricOperator(sp, np.array([[1.0, 1.0], [1.0, 1.0]])))


def test_contraction_validation_rejects_indefinite_generator():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    op = MuSymmetricOperator(sp, np.array([[0.2, -1.0], [-1.0, 0.2]]))
    with pytest.raises(ValueError):
        ContractionSemigroupGenerator(op)
    gen = ContractionSemigroupGenerator(op, validate=False)
    assert not verify_contraction_property(gen).passed


def test_positive_semidefinite_generator_can_still_break_contraction():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    # spectrum is positive but e^{-tL} inflates the sup norm for small t
    op = MuSymmetricOperator(sp, np.array([[1.0, -2.0], [-2.0, 4.2]]))
    assert np.all(np.linalg.eigvalsh(op.entries) > 0.0)
    with pytest.raises(ValueError):
        ContractionSemigroupGenerator(op)
    gen = ContractionSemigroupGenerator(op, validate=False)
    report = verify_contraction_property(gen)
    assert not report.passed
    assert report.worst_norm > 1.0


def test_semigroup_matrix_against_dense_exponential():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        kind = "diffusion" if trial % 2 == 0 else "contraction"
        gen = random_generator(n, 4000 + trial, kind=kind)
        t = float(rng.uniform(0.05, 3.0))
        np.testing.assert_allclose(semigroup_matrix(gen, t), expm(-t * gen.matrix),
                                   atol=1e-11)
        z = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        np.testing.assert_allclose(semigroup_matrix(gen, z), expm(-z * gen.matrix),
                                   atol=1e-11)


def test_semigroup_law():
    rng = np.random.default_rng(43)
    for trial in range(10):
        gen = random_generator(5, 5000 + trial, kind="contraction")
        s, t = rng.uniform(0.05, 2.0, 2)
        left = semigroup_matrix(gen, s + t)
        right = semigroup_matrix(gen, s) @ semigroup_matrix(gen, t)
        np.testing.assert_allclose(left, right, atol=1e-12)
    assert np.allclose(semigroup_matrix(gen, 0.0), np.eye(5), atol=1e-14)


def test_exemplar_closed_form():
    gen = exemplar_contraction_generator()
    np.testing.assert_array_equal(gen.matrix, np.ones((2, 2)))
    t = 0.5 * math.log(2.0)
    # eigenvalues 0 and 2; the flow mixes the projections exactly
    want = np.array([[0.75, -0.25], [-0.25, 0.75]])
    np.testing.assert_allclose(semigroup_matrix(gen, t), want, atol=1e-14)


def test_evolve_matches_matrix_action():
    gen = random_generator(6, 77, kind="diffusion")
    rng = np.random.default_rng(0)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(evolve(gen, 0.9, f), semigroup_matrix(gen, 0.9) @ f,
                               atol=1e-12)


def test_tensor_evolve_is_columnwise():
    gen = random_generator(5, 78, kind="contraction")
    rng = np.random.default_rng(1)
    values = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    field = BochnerField(values, BanachNormDescriptor(3, 4.0))
    out = evolve(gen, 0.4 + 0.2j, field)
    assert out.norm == field.norm
    for j in range(3):
        np.testing.assert_allclose(out.values[:, j], evolve(gen, 0.4 + 0.2j, values[:, j]),
                                   atol=1e-12)


def test_ensemble_is_reproducible():
    spec = EnsembleSpec(n=5, count=4, kind="diffusion")
    first = build_ensemble(spec, 99)
    second = build_ensemble(spec, 99)
    assert [s for s, _ in first] == [99, 99 + 1000003, 99 + 2 * 1000003, 99 + 3 * 1000003]
    for (_, a), (_, b) in zip(first, second):
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.space.mu, b.space.mu)


def test_identity_ensemble_kind():
    members = build_ensemble(EnsembleSpec(n=3, count=2, kind="identity"), 7)
    for _, gen in members:
        np.testing.assert_array_equal(gen.matrix, np.zeros((3, 3)))
        np.testing.assert_allclose(semigroup_matrix(gen, 5.0), np.eye(3), atol=1e-15)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n=0)
    with pytest.raises(ValueError):
        EnsembleSpec(count=0)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="other")


def test_contraction_property_over_ensemble():
    for _, gen in build_ensemble(EnsembleSpec(n=6, count=10, kind="contraction"), 31):
        report = verify_contraction_property(gen)
        assert report.passed
        assert report.worst_norm <= 1.0 + 1e-10


def test_stein_angle_values():
    assert stein_angle(2.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert stein_angle(4.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert stein_angle(4.0 / 3.0) == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert stein_angle(1.01) == pytest.approx(0.5 * math.pi * (1.0 - abs(2.0 / 1.01 - 1.0)),
                                              abs=1e-15)
    with pytest.raises(ValueError):
        stein_angle(1.0)


def test_sector_grid_structure():
    grid = SectorGrid.default(0.1 * math.pi)
    points = grid.points()
    assert len(points) == 24 * 9
    for z in points:
        assert abs(np.angle(z)) <= 0.1 * math.pi + 1e-12
        assert 1e-3 * (1 - 1e-12) <= abs(z) <= 1e2 * (1 + 1e-12)
    fine = grid.refine()
    assert fine.radii.size == 2 * grid.radii.size - 1
    assert fine.angles.size == 2 * grid.angles.size - 1
    # refinement keeps every original node
    for r in grid.radii:
        assert np.min(np.abs(fine.radii - r)) <= 1e-12 * r
    zero = SectorGrid.default(0.0)
    assert zero.angles.size == 1 and zero.angles[0] == 0.0


def test_sector_grid_validation():
    with pytest.raises(ValueError):
        SectorGrid.default(math.pi / 2.0)
    with pytest.raises(ValueError):
        SectorGrid.default(-0.1)
    with pytest.raises(ValueError):
        SectorGrid(0.1, np.array([2.0, 1.0]), np.array([0.0]))


def test_sector_probe_respects_stein_angle():
    gen = random_generator(5, 8, kind="diffusion")
    with pytest.raises(ValueError):
        sector_contraction_probe(gen, 4.0, 0.9, trials=2, seed=0)
    report = sector_contraction_probe(gen, 4.0, 0.1 * math.pi, trials=6, seed=0)
    assert report.passed
    assert report.worst_norm <= 1.0 + 1e-9
    assert len(report.rows) == 24 * 9


def test_sector_probe_at_p_two_allows_the_full_half_plane():
    gen = random_generator(4, 9, kind="diffusion")
    report = sector_contraction_probe(gen, 2.0, 0.45 * math.pi, trials=6, seed=1)
    assert report.passed


def test_imaginary_power_is_l2_isometry():
    rng = np.random.default_rng(55)
    for trial in range(10):
        gen = random_generator(7, 6000 + trial, kind="diffusion")
        f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        base = lp_norm(gen.space, f, 2.0)
        for u in (-4.0, -0.5, 0.0, 1.0, 3.3):
            assert abs(lp_norm(gen.space, imaginary_power(gen, u, f), 2.0) - base) \
                <= 1e-10 * base


def test_imaginary_power_group_law():
    gen = random_generator(6, 61, kind="diffusion")
    assert gen.injective
    u, v = 0.8, -2.3
    left = imaginary_power_matrix(gen, u) @ imaginary_power_matrix(gen, v)
    right = imaginary_power_matrix(gen, u + v)
    np.testing.assert_allclose(left, right, atol=1e-12)
    np.testing.assert_allclose(imaginary_power_matrix(gen, 0.0), np.eye(6), atol=1e-12)


def test_imaginary_power_kernel_convention():
    # the zero generator is fixed pointwise for every u
    sp = WeightedSpace(np.array([1.0, 2.0]))
    gen = DiffusionGenerator(MuSymmetricOperator(sp, np.zeros((2, 2))))
    f = np.array([1.0 + 2.0j, -0.5])
    np.testing.assert_allclose(imaginary_power(gen, 1.7, f), f, atol=1e-14)


def test_p2_operator_norm_of_imaginary_power_is_one():
    for trial in range(5):
        gen = random_generator(5, 7000 + trial, kind="diffusion")
        for u in (-2.0, 0.7):
            m = imaginary_power_matrix(gen, u)
            lb = operator_norm_lower_bound(gen.space, m, 2.0, trials=20, seed=trial)
            assert lb == pytest.approx(1.0, abs=1e-10)
