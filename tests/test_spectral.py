"""Tests for the Jacobi eigensolver, the multiplier kernel and Gamma evaluation."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from maxlab.core import BanachNormDescriptor, BochnerField, WeightedSpace, pointwise_banach_norm
from maxlab.semigroup import EnsembleSpec, SectorGrid, build_ensemble, random_generator
from maxlab.spectral import (
    FAMILY_BLOCK,
    GammaPoleError,
    MuSymmetricOperator,
    apply_multiplier,
    complex_gamma,
    decompose,
    family_sup,
    gamma_values,
    operator_norm,
    operator_norm_lower_bound,
    spectral_matrix,
)


def random_mu_symmetric(rng, n):
    mu = rng.uniform(0.5, 2.0, n)
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    # A = D^{-1/2} S D^{1/2} is mu-selfadjoint for symmetric S
    w = np.sqrt(mu)
    a = s / w[:, None] * w[None, :]
    return WeightedSpace(mu), a


def test_operator_rejects_non_symmetric():
    sp = WeightedSpace(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        MuSymmetricOperator(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    # mu_1 * 1.0 == mu_2 * 0.5 makes this one admissible
    MuSymmetricOperator(sp, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        MuSymmetricOperator(sp, np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        MuSymmetricOperator(sp, np.eye(3))


def test_mu_symmetry_check_scales_with_the_operator():
    rng = np.random.default_rng(150)
    sp, a = random_mu_symmetric(rng, 6)
    for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        # rounding leaves a skew near 1e-16 * c in D A, far above 1e-10 at c = 1e8
        MuSymmetricOperator(sp, c * a)
    # a relative skew of 1e-6 is still an asymmetry at every scale
    for c in (1.0, 1e8):
        bad = c * a
        bad[0, 1] += 1e-6 * np.abs(sp.mu[:, None] * bad).max() / sp.mu[0]
        with pytest.raises(ValueError):
            MuSymmetricOperator(sp, bad)


def test_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        sp, a = random_mu_symmetric(rng, n)
        dec = decompose(MuSymmetricOperator(sp, a))
        w = np.sqrt(sp.mu)
        m = 0.5 * ((a * w[:, None] / w[None, :]) + (a * w[:, None] / w[None, :]).T)
        ref = eigh(m, eigvals_only=True)
        worst = max(worst, float(np.abs(dec.eigenvalues - ref).max()))
    scale = 16.0
    assert worst <= 1e-12 * scale


def test_eigenvectors_are_mu_orthonormal():
    rng = np.random.default_rng(200)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        sp, a = random_mu_symmetric(rng, n)
        dec = decompose(MuSymmetricOperator(sp, a))
        gram = dec.eigenvectors.T @ (sp.mu[:, None] * dec.eigenvectors)
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)
        # eigenvalues come out sorted
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        # deterministic sign convention: largest component positive
        for k in range(n):
            v = dec.eigenvectors[:, k]
            assert v[int(np.argmax(np.abs(v)))] > 0.0


def test_spectral_reconstruction():
    rng = np.random.default_rng(300)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        sp, a = random_mu_symmetric(rng, n)
        dec = decompose(MuSymmetricOperator(sp, a))
        np.testing.assert_allclose(spectral_matrix(dec, dec.eigenvalues), a,
                                   atol=1e-11 * max(1.0, np.abs(a).max()))


def test_diagonal_matrix_needs_no_rotations():
    sp = WeightedSpace(np.array([1.0, 1.0, 1.0]))
    dec = decompose(MuSymmetricOperator(sp, np.diag([3.0, -1.0, 2.0])))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-15)


def test_kernel_eigenvalue_is_snapped_exactly():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    dec = decompose(MuSymmetricOperator(sp, np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert dec.eigenvalues[0] == 0.0
    assert dec.eigenvalues[1] == pytest.approx(2.0, rel=1e-14)


def test_apply_multiplier_identity_and_square():
    rng = np.random.default_rng(400)
    sp, a = random_mu_symmetric(rng, 7)
    op = MuSymmetricOperator(sp, a)
    dec = decompose(op)
    f = rng.standard_normal(7)
    np.testing.assert_allclose(apply_multiplier(dec, dec.eigenvalues, f), a @ f, atol=1e-12)
    # polynomial check: g(lam) = lam^2 equals A(Af)
    np.testing.assert_allclose(apply_multiplier(dec, dec.eigenvalues**2, f), a @ (a @ f),
                               atol=1e-11)


def test_apply_multiplier_rejects_nonfinite_multiplier():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    dec = decompose(MuSymmetricOperator(sp, np.array([[1.0, -1.0], [-1.0, 1.0]])))
    with np.errstate(divide="ignore"):
        gvals = 1.0 / dec.eigenvalues
    with pytest.raises(ValueError):
        apply_multiplier(dec, gvals, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        apply_multiplier(dec, np.ones(3), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        apply_multiplier(dec, np.ones(2), np.ones(3))


def test_columnwise_application_matches_scalar():
    rng = np.random.default_rng(500)
    sp, a = random_mu_symmetric(rng, 6)
    dec = decompose(MuSymmetricOperator(sp, a))
    cols = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    gvals = np.exp(-0.3 * dec.eigenvalues)
    got = apply_multiplier(dec, gvals, cols)
    matrix = spectral_matrix(dec, gvals)
    for j in range(4):
        np.testing.assert_allclose(got[:, j], apply_multiplier(dec, gvals, cols[:, j]),
                                   atol=1e-12)
        np.testing.assert_allclose(got[:, j], matrix @ cols[:, j], atol=1e-12)
    # a family of rows gives one field per row, each equal to its own application
    family = np.exp(-np.outer([0.1, 0.3, 2.0], dec.eigenvalues))
    stacked = apply_multiplier(dec, family, cols)
    assert stacked.shape == (3, 6, 4)
    for k in range(3):
        np.testing.assert_allclose(stacked[k], apply_multiplier(dec, family[k], cols),
                                   atol=1e-12)


def _reference_family_sup(dec, gvals, values, r):
    """The per-node loop the kernel replaced: one Bochner field per row."""
    scalar = values.ndim == 1
    cols = values[:, None] if scalar else values
    field = BochnerField(cols, BanachNormDescriptor(cols.shape[1], 2.0 if scalar else r))
    coeff = dec.eigenvectors.T @ (dec.space.mu[:, None] * field.values)
    best = np.zeros(dec.n)
    for g in gvals:
        out = dec.eigenvectors @ (g[:, None] * coeff)
        norm = np.abs(out[:, 0]) if scalar else pointwise_banach_norm(field.replace_values(out))
        best = np.maximum(best, norm)
    return best


def _families(dec, count, rng):
    """Sector rows exp(-z lambda), random rows, and rows growing with k (the last one wins)."""
    nodes = SectorGrid.default(0.3).points()[:count]
    shape = (count, dec.n)
    base = rng.standard_normal(dec.n) + 1j * rng.standard_normal(dec.n)
    return (np.exp(np.multiply.outer(-nodes, dec.eigenvalues)),
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            np.multiply.outer(np.arange(1.0, count + 1.0), base))


@pytest.mark.parametrize("n", [2, 8, 48])
def test_family_sup_matches_per_node_loop(n):
    rng = np.random.default_rng(1100 + n)
    gens = [random_generator(n, 1200 + n, kind="contraction"),
            build_ensemble(EnsembleSpec(n=n, count=1, kind="identity"), 1300 + n)[0][1]]
    assert np.all(gens[1].decomposition.eigenvalues == 0.0)
    for gen in gens:
        dec = gen.decomposition
        for count in (1, FAMILY_BLOCK - 1, FAMILY_BLOCK, FAMILY_BLOCK + 1, 216):
            for gvals in _families(dec, count, rng):
                assert gvals.shape == (count, n)
                scalar = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                want = _reference_family_sup(dec, gvals, scalar, None)
                np.testing.assert_allclose(family_sup(dec, gvals, scalar, None), want,
                                           rtol=1e-14, atol=0.0)
                for d in (1, 4, 16):
                    values = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
                    for r in (2.0, 4.0):
                        want = _reference_family_sup(dec, gvals, values, r)
                        np.testing.assert_allclose(family_sup(dec, gvals, values, r), want,
                                                   rtol=1e-14, atol=0.0)


def test_family_sup_rejects_nonfinite_rows():
    gen = random_generator(4, 1400)
    gvals = np.ones((FAMILY_BLOCK + 5, 4), dtype=complex)
    gvals[FAMILY_BLOCK + 2, 1] = np.nan
    with pytest.raises(ValueError):
        family_sup(gen.decomposition, gvals, np.ones(4), None)
    gvals[FAMILY_BLOCK + 2, 1] = np.inf
    with pytest.raises(ValueError):
        family_sup(gen.decomposition, gvals, np.ones((4, 2)), 2.0)
    # one row is a family of one
    f = np.arange(4.0) + 1j
    np.testing.assert_array_equal(family_sup(gen.decomposition, np.full(4, 0.5), f, None),
                                  np.abs(apply_multiplier(gen.decomposition, np.full(4, 0.5), f)))


# Gamma values frozen from a 30-digit multiprecision evaluation.
GAMMA_TABLE = [
    (1.0 + 0.0j, 1.0 + 0.0j),
    (0.5 + 0.0j, 1.7724538509055160273 + 0.0j),
    (5.0 + 0.0j, 24.0 + 0.0j),
    (1.0 + 2.0j, 0.15190400267003613745 + 0.019804880161854981972j),
    (0.5 + 14.0j, -4.0537030780372814884e-10 - 5.7732998345536051632e-10j),
    (-2.5 + 0.0j, -0.94530872048294188123 + 0.0j),
]


def test_gamma_frozen_values():
    for z, want in GAMMA_TABLE:
        got = complex_gamma(z)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_gamma_modulus_identity_on_imaginary_axis():
    # |Gamma(iu)|^2 = pi / (u sinh(pi u))
    for u in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        value = abs(complex_gamma(1j * u)) ** 2 * u * math.sinh(math.pi * u) / math.pi
        assert abs(value - 1.0) <= 1e-9


def test_gamma_recurrence_property():
    rng = np.random.default_rng(600)
    for _ in range(200):
        z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-30.0, 30.0))
        if min(abs(z + k) for k in range(9)) < 1e-2:
            continue
        lhs = complex_gamma(z + 1.0)
        rhs = z * complex_gamma(z)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)


def test_gamma_conjugate_symmetry():
    rng = np.random.default_rng(700)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-20.0, 20.0))
        assert abs(complex_gamma(z.conjugate()) - complex_gamma(z).conjugate()) \
            <= 1e-12 * abs(complex_gamma(z))


def test_gamma_poles_raise():
    for z in (0.0, -1.0, -3.0):
        with pytest.raises(GammaPoleError):
            complex_gamma(z)


def test_gamma_values_vectorised_matches_scalar():
    rng = np.random.default_rng(800)
    zs = rng.uniform(-5, 5, 25) + 1j * rng.uniform(-25, 25, 25)
    got = gamma_values(zs)
    want = np.array([complex_gamma(z) for z in zs])
    np.testing.assert_array_equal(got, want)


def test_endpoint_operator_norms():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    a = np.diag([2.0, 1.0])
    assert operator_norm(sp, a, math.inf) == 2.0
    assert operator_norm(sp, a, 1.0) == 2.0
    # weighted space: the p = 1 norm weighs columns by mass ratios
    sp2 = WeightedSpace(np.array([0.5, 2.0]))
    a2 = np.array([[0.2, 0.3], [0.075, 0.4]])
    assert operator_norm(sp2, a2, math.inf) == pytest.approx(0.5, rel=1e-15)
    assert operator_norm(sp2, a2, 1.0) == pytest.approx(
        max(0.5 * 0.2 / 0.5 + 2.0 * 0.075 / 0.5, 0.5 * 0.3 / 2.0 + 2.0 * 0.4 / 2.0), rel=1e-15)
    with pytest.raises(ValueError):
        operator_norm(sp, a, 2.0)


def test_lower_bound_finds_diagonal_norm():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    a = np.diag([2.0, 1.0])
    # basis vectors certify the exact norm for every exponent
    for p in (1.5, 2.0, 3.0, 7.0):
        assert operator_norm_lower_bound(sp, a, p, trials=8, seed=0) \
            == pytest.approx(2.0, rel=1e-12)


def test_lower_bound_reaches_spectral_norm_at_p_two():
    rng = np.random.default_rng(900)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        mu = rng.uniform(0.5, 2.0, n)
        sp = WeightedSpace(mu)
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        w = np.sqrt(mu)
        a = s / w[:, None] * w[None, :]
        lb = operator_norm_lower_bound(sp, a, 2.0, trials=40, seed=trial)
        spectral = float(np.abs(np.linalg.eigvalsh(s)).max())
        # always a certified lower bound, and nearly sharp after iteration
        assert lb <= spectral * (1.0 + 1e-12)
        assert lb >= spectral * (1.0 - 1e-4)


def test_lower_bound_never_exceeds_interpolated_endpoints():
    rng = np.random.default_rng(1000)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        sp = WeightedSpace(rng.uniform(0.5, 2.0, n))
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        w = np.sqrt(sp.mu)
        a = s / w[:, None] * w[None, :]
        hi = max(operator_norm(sp, a, 1.0), operator_norm(sp, a, math.inf))
        for p in (1.5, 3.0):
            # Riesz-Thorin: every intermediate norm sits below the endpoint max
            assert operator_norm_lower_bound(sp, a, p, trials=10, seed=trial) <= hi + 1e-12


def test_lower_bound_accepts_generator_instance():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    a = np.diag([2.0, 1.0])
    rng = np.random.default_rng(5)
    first = operator_norm_lower_bound(sp, a, 3.0, trials=4, seed=rng)
    second = operator_norm_lower_bound(sp, a, 3.0, trials=4, seed=5)
    assert first == pytest.approx(2.0, rel=1e-12)
    assert second == pytest.approx(2.0, rel=1e-12)
