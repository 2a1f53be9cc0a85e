"""Tests for the modulus semigroup in closed form, its dyadic oracle and the domination checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from maxlab.core import BanachNormDescriptor, WeightedSpace
from maxlab.spectral import MuSymmetricOperator
from maxlab.semigroup import (
    ContractionSemigroupGenerator,
    exemplar_contraction_generator,
    random_generator,
    semigroup_matrix,
)
from maxlab.modulus import (
    modulus_generator,
    subpositivity_suite,
    verify_domination,
)
from oracles import (
    dyadic_modulus_product,
    dyadic_modulus_semigroup,
    positivity_min_by_angle,
    subpositivity_suite_by_trial,
    verify_domination_by_trial,
)

TIMES = (0.01, 0.1, 1.0, 10.0)


def _frustrated(n: int, seed: int) -> ContractionSemigroupGenerator:
    """A diffusion draw D with symmetric random off-diagonal signs: signs o D, frustrated.

    The signs keep D's moduli, so its mu-symmetry and diagonal dominance, but
    (unlike the conjugations of random_generator) not the modulus semigroup:
    exp(-t L_hat) lies strictly above |exp(-t L)|.
    """
    diffusion = random_generator(n, seed, kind="diffusion")
    rng = np.random.default_rng(seed)
    signs = np.triu(rng.choice([-1.0, 1.0], size=(n, n)), 1)
    signs = signs + signs.T + np.eye(n)
    return ContractionSemigroupGenerator(MuSymmetricOperator(diffusion.space,
                                                             signs * diffusion.matrix))


FRUSTRATED = [_frustrated(6, 7000 + index) for index in range(10)]


def test_closed_form_matches_expm_on_frustrated_signs():
    for gen in FRUSTRATED:
        hat = modulus_generator(gen)
        for t in TIMES:
            np.testing.assert_allclose(semigroup_matrix(hat, t), expm(-t * hat.matrix),
                                       rtol=0.0, atol=1e-12)


def test_dyadic_oracle_rises_and_halves_its_error_per_level():
    # the chain tends to exp(-t L_hat) from below at rate 2^-m: each level about halves the gap
    for gen in FRUSTRATED:
        limit = semigroup_matrix(modulus_generator(gen), 0.01)
        prev = dyadic_modulus_semigroup(gen, 0.01, 0)
        prev_err = float(np.abs(prev - limit).max())
        for level in range(1, 9):
            cur = dyadic_modulus_semigroup(gen, 0.01, level)
            assert np.all(cur >= prev - 1e-15)
            err = float(np.abs(cur - limit).max())
            assert 1.9 < prev_err / err < 2.1
            prev, prev_err = cur, err


def test_closed_form_lies_strictly_above_the_modulus_of_t():
    for gen in FRUSTRATED:
        hat = modulus_generator(gen)
        for t in TIMES:
            gap = semigroup_matrix(hat, t) - np.abs(semigroup_matrix(gen, t))
            assert gap.min() >= -1e-14
            if t == 1.0:
                assert gap.max() > 1e-6


def test_closed_form_is_a_semigroup():
    for gen in FRUSTRATED:
        hat = modulus_generator(gen)
        for s, t in ((0.01, 0.1), (0.1, 1.0), (1.0, 10.0), (0.3, 0.3)):
            np.testing.assert_allclose(semigroup_matrix(hat, s + t),
                                       semigroup_matrix(hat, s) @ semigroup_matrix(hat, t),
                                       rtol=0.0, atol=1e-13)


def test_closed_form_is_the_modulus_of_t_under_sign_conjugation():
    # contraction draws conjugate a diffusion by signs, so S_t is |T_t| itself
    for seed in range(8):
        gen = random_generator(int(2 + seed % 6), 1400 + seed, kind="contraction")
        hat = modulus_generator(gen)
        for t in TIMES:
            np.testing.assert_allclose(semigroup_matrix(hat, t), np.abs(semigroup_matrix(gen, t)),
                                       rtol=0.0, atol=1e-14)


def test_closed_form_at_the_time_the_chain_failed_to_stabilise():
    # at t = 1 the chain's increments stayed above its old 1e-8 stopping rule up to level 20
    gen = FRUSTRATED[0]
    hat = modulus_generator(gen)
    limit = semigroup_matrix(hat, 1.0)
    np.testing.assert_allclose(limit, expm(-hat.matrix), rtol=0.0, atol=1e-12)
    level_19 = dyadic_modulus_semigroup(gen, 1.0, 19)
    level_20 = dyadic_modulus_semigroup(gen, 1.0, 20)
    assert np.abs(level_20 - level_19).max() > 1e-8
    assert np.all(level_20 <= limit + 1e-12)
    report = verify_domination(gen, trials=10, seed=0)
    assert report.passed and report.max_violation <= 1e-10


def test_dyadic_product_matches_the_chain():
    gen = random_generator(5, 11, kind="contraction")
    f = np.array([0.3, 1.2, 0.0, 2.0, 0.7])
    for level in range(4):
        np.testing.assert_allclose(dyadic_modulus_product(gen, 1.3, level, f),
                                   dyadic_modulus_semigroup(gen, 1.3, level) @ f, atol=1e-12)


def test_dyadic_product_increases_under_refinement():
    # the triangle inequality makes dyadic refinement entrywise monotone
    for seed in range(5):
        gen = random_generator(4, 900 + seed, kind="contraction")
        f = np.abs(np.random.default_rng(seed).standard_normal(4))
        prev = dyadic_modulus_product(gen, 0.8, 0, f)
        for level in range(1, 5):
            cur = dyadic_modulus_product(gen, 0.8, level, f)
            assert np.all(cur >= prev - 1e-12)
            prev = cur


def test_modulus_exemplar():
    hat = modulus_generator(exemplar_contraction_generator())
    np.testing.assert_allclose(semigroup_matrix(hat, 0.5 * math.log(2.0)),
                               np.array([[0.75, 0.25], [0.25, 0.75]]), atol=1e-14)


def test_modulus_semigroup_of_diffusion_is_the_semigroup():
    for seed in range(5):
        gen = random_generator(5, 1300 + seed, kind="diffusion")
        hat = modulus_generator(gen)
        for t in (0.05, 1.0, 20.0):
            np.testing.assert_allclose(semigroup_matrix(hat, t), semigroup_matrix(gen, t),
                                       atol=1e-12)


def test_modulus_generator_structure():
    gen = random_generator(6, 17, kind="contraction")
    hat = modulus_generator(gen)
    ell = gen.matrix
    off = ~np.eye(6, dtype=bool)
    np.testing.assert_array_equal(np.diag(hat.matrix), np.diag(ell))
    np.testing.assert_array_equal(hat.matrix[off], -np.abs(ell[off]))
    assert hat.kind == "diffusion"
    # already a diffusion generator: taking the modulus again changes nothing
    diff = random_generator(6, 17, kind="diffusion")
    np.testing.assert_array_equal(modulus_generator(diff).matrix, diff.matrix)


def test_sign_conjugation_shares_its_modulus_generator():
    # contraction draws conjugate a diffusion by signs, so L_hat recovers it
    diff = random_generator(5, 18, kind="diffusion")
    con = random_generator(5, 18, kind="contraction")
    np.testing.assert_allclose(modulus_generator(con).matrix, diff.matrix, atol=1e-14)


def test_verify_domination_over_ensemble():
    for seed in range(8):
        gen = random_generator(5, 1900 + seed,
                               kind="diffusion" if seed % 2 == 0 else "contraction")
        for member in (gen, _frustrated(5, 1900 + seed)):
            report = verify_domination(member, trials=10, seed=seed)
            assert report.passed
            assert report.max_violation <= 1e-10
            assert report.max_norm_excess <= 1e-10
            assert report.checked == 4 * 10
            assert 0.0 <= report.eigen_residual < 1e-13
            assert 0.0 <= report.orthonormality_defect < 1e-13


def test_verify_domination_custom_grid_count(monkeypatch):
    import maxlab.modulus as modulus

    gen = random_generator(4, 20, kind="contraction")
    monkeypatch.setattr(modulus, "DOMINATION_T_GRID", np.array([0.1, 1.0]))
    report = verify_domination(gen, trials=3, seed=0)
    assert report.checked == 6


def test_subpositivity_pair_passes():
    for gen in (random_generator(5, 21, kind="contraction"), _frustrated(5, 21)):
        t = semigroup_matrix(gen, 0.6)
        s = semigroup_matrix(modulus_generator(gen), 0.6)
        report = subpositivity_suite(gen.space, t, s, 2.5, BanachNormDescriptor(3, 4.0),
                                     trials=10, seed=1)
        assert report.passed
        assert report.sup_margin <= 0.0
        assert report.tensor_margin <= 0.0
        assert report.positivity_min >= -1e-12


def test_subpositivity_negative_control():
    # doubling is not a contraction, and every implication should notice
    sp = WeightedSpace(np.ones(3))
    t = 2.0 * np.eye(3)
    report = subpositivity_suite(sp, t, np.abs(t), 2.0, BanachNormDescriptor(2, 2.0),
                                 trials=5, seed=2)
    assert not report.passed
    assert not report.sup_passed
    assert not report.tensor_passed


def test_subpositivity_rejects_negative_majorant():
    sp = WeightedSpace(np.ones(2))
    with pytest.raises(ValueError):
        subpositivity_suite(sp, np.eye(2), -np.eye(2), 2.0, BanachNormDescriptor(1, 2.0))


def test_positivity_min_matches_the_angle_loop():
    rng = np.random.default_rng(23)
    descriptor = BanachNormDescriptor(2, 2.0)
    for trial in range(6):
        gen = random_generator(6, 2300 + trial, kind="contraction")
        real_t = semigroup_matrix(gen, 0.4)
        complex_t = 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        # |T| passes with minimum 0 or rounding below; half of it fails with a negative one
        for t in (real_t, complex_t):
            for s in (np.abs(t), 0.5 * np.abs(t)):
                report = subpositivity_suite(gen.space, t, s, 2.0, descriptor, trials=1, seed=0)
                assert report.positivity_min == positivity_min_by_angle(t, s)
                assert report.positivity_passed == (report.positivity_min >= -1e-10)
        assert positivity_min_by_angle(complex_t, 0.5 * np.abs(complex_t)) < -1e-3


def test_subpositivity_refuses_non_finite_matrices():
    sp = WeightedSpace(np.ones(3))
    descriptor = BanachNormDescriptor(1, 2.0)
    s = np.eye(3)
    s[0, 1] = s[2, 0] = math.nan
    # a NaN majorant used to pass, its positivity minimum reading inf
    with pytest.raises(ValueError, match="T and S must have finite entries"):
        subpositivity_suite(sp, 0.5 * np.eye(3), s, 2.0, descriptor)
    t = 0.5 * np.eye(3)
    t[1, 2] = math.nan
    with pytest.raises(ValueError, match="T and S must have finite entries"):
        subpositivity_suite(sp, t, np.eye(3), 2.0, descriptor)
    with pytest.raises(ValueError, match="T and S must have finite entries"):
        subpositivity_suite(sp, 0.5 * np.eye(3), np.full((3, 3), math.inf), 2.0, descriptor)


def _seeded_contractions(count: int, seed: int):
    """``count`` seeded contraction generators of 2 to 8 points, each with a time t."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(2, 9))
        yield random_generator(n, seed + 571 * index + 3, kind="contraction"), float(
            rng.uniform(0.1, 2.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 3])
def test_subpositivity_suite_matches_the_per_trial_loop(p, d):
    for index, (gen, t) in enumerate(_seeded_contractions(20, 41 + d)):
        t_matrix = semigroup_matrix(gen, t)
        descriptor = BanachNormDescriptor(d, (2.0, 3.0, 1.5, math.inf)[index % 4])
        for s_matrix in (np.abs(t_matrix), 0.5 * np.abs(t_matrix)):
            for trials in (1, 6):
                args = (gen.space, t_matrix, s_matrix, p, descriptor)
                assert (subpositivity_suite(*args, trials=trials, seed=index)
                        == subpositivity_suite_by_trial(*args, trials=trials, seed=index))


def test_subpositivity_control_and_rejections_match_the_per_trial_loop():
    sp = WeightedSpace(np.array([0.5, 1.0, 2.0]))
    descriptor = BanachNormDescriptor(3, 2.0)
    control = (sp, 2.0 * np.eye(3), 2.0 * np.eye(3), 2.0, descriptor)
    report = subpositivity_suite(*control, trials=6, seed=1)
    assert report == subpositivity_suite_by_trial(*control, trials=6, seed=1)
    assert not report.sup_passed and not report.tensor_passed
    nan_majorant = np.eye(3)
    nan_majorant[0, 2] = math.nan
    overflowing = np.full((3, 3), 1e308)
    for t_matrix, s_matrix in ((0.5 * np.eye(3), nan_majorant), (0.5 * np.eye(3), -np.eye(3)),
                               (np.full((3, 3), math.inf), np.eye(3)),
                               (overflowing, overflowing)):
        for suite in (subpositivity_suite, subpositivity_suite_by_trial):
            with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
                suite(sp, t_matrix, s_matrix, 2.0, descriptor, trials=3, seed=0)


def test_verify_domination_matches_the_per_trial_loop():
    for index, (gen, _) in enumerate(_seeded_contractions(20, 31)):
        for trials in (1, 5):
            report = verify_domination(gen, trials=trials, seed=index)
            assert report == verify_domination_by_trial(gen, trials=trials, seed=index)
            assert report.checked == trials * 4
    for gen in (random_generator(6, 33, kind="diffusion"), _frustrated(6, 33)):
        assert verify_domination(gen, 3, 2) == verify_domination_by_trial(gen, 3, 2)


def test_modulus_checks_refuse_no_trials():
    gen = random_generator(3, 34, kind="contraction")
    t_matrix = semigroup_matrix(gen, 0.5)
    with pytest.raises(ValueError, match="trials"):
        verify_domination(gen, trials=0)
    with pytest.raises(ValueError, match="trials"):
        subpositivity_suite(gen.space, t_matrix, np.abs(t_matrix), 2.0,
                            BanachNormDescriptor(1, 2.0), trials=0)
