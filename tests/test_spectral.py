"""Tests for the eigen layer against a Jacobi oracle, the multiplier kernel and Gamma evaluation."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from maxlab.core import BanachNormDescriptor, BochnerField, WeightedSpace, fiber_norm, lp_norm
from maxlab.semigroup import (
    DiffusionGenerator,
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    random_generator,
)
from maxlab.spectral import (
    FAMILY_BLOCK_ELEMENTS,
    KERNEL_SNAP_REL,
    GammaPoleError,
    MuSymmetricOperator,
    SpectralDecomposition,
    apply_multiplier,
    complex_gamma,
    decompose,
    family_sup,
    eigen_residual,
    gamma_values,
    multiplier_norm_bounds,
    operator_norm,
    operator_norm_lower_bound,
    orthonormality_defect,
    spectral_matrix,
)
from oracles import complex_multiplier_product


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


def test_mu_symmetry_check_is_relative_below_unit_scale():
    sp = WeightedSpace(np.ones(2))
    # a 1% asymmetry at scale 1e-8 once passed an absolute 1e-10 test
    with pytest.raises(ValueError, match="not mu-selfadjoint"):
        MuSymmetricOperator(sp, 1e-8 * np.array([[1.0, 0.5], [0.495, 1.0]]))
    MuSymmetricOperator(sp, 1e-8 * np.array([[1.0, 0.5], [0.5, 1.0]]))
    MuSymmetricOperator(sp, np.zeros((2, 2)))


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


def test_diagonal_matrix_eigenvalues_are_exact():
    sp = WeightedSpace(np.array([1.0, 1.0, 1.0]))
    dec = decompose(MuSymmetricOperator(sp, np.diag([3.0, -1.0, 2.0])))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-15)


def test_kernel_eigenvalue_is_snapped_exactly():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    dec = decompose(MuSymmetricOperator(sp, np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert dec.eigenvalues[0] == 0.0
    assert dec.eigenvalues[1] == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# Cyclic Jacobi, the independent route that decompose's LAPACK eigh is
# checked against.  Jacobi stays accurate on graded and near-kernel spectra
# (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).

# Jacobi termination: off-diagonal Frobenius mass below this multiple of
# the initial Frobenius norm counts as diagonal.
JACOBI_REL_THRESHOLD = 1e-13
JACOBI_SWEEP_CAP = 100


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reach the off-diagonal threshold within the sweep cap."""


def _jacobi_eigh(m: np.ndarray, sweep_cap: int = JACOBI_SWEEP_CAP,
                 rel_threshold: float = JACOBI_REL_THRESHOLD) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalisation of a symmetric matrix.

    Sweeps the strict upper triangle row by row, zeroing each pivot with
    a Givens rotation, until the off-diagonal Frobenius mass drops below
    ``rel_threshold`` times the initial Frobenius norm.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return np.zeros(n), v
    threshold = rel_threshold * fro

    def off_norm() -> float:
        off = a - np.diag(a.diagonal())
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(sweep_cap):
        if off_norm() <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # columns, then rows, of the congruence J^T A J
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    if not converged and off_norm() > threshold:
        raise JacobiConvergenceError(
            f"off-diagonal norm {off_norm():.3e} still above {threshold:.3e} after {sweep_cap} sweeps"
        )
    return a.diagonal().copy(), v


def _jacobi_oracle(op):
    """Snapped eigenvalues, the matrix map g -> g(A) and eigenvector columns, all via Jacobi.

    g(A) = D^(-1/2) Q diag(g) Q^T D^(1/2) with Q from Jacobi on the
    symmetrised matrix; the columns are Q pulled back by D^(-1/2) with the
    largest-magnitude component made positive.
    """
    s = np.sqrt(op.space.mu)
    m = (s[:, None] * op.entries) / s[None, :]
    w, q = _jacobi_eigh(0.5 * (m + m.T))
    order = np.argsort(w)
    w, q = w[order], q[:, order]
    scale = np.abs(w).max(initial=0.0)
    w = np.where(np.abs(w) < KERNEL_SNAP_REL * scale, 0.0, w)
    cols = q / s[:, None]
    cols *= np.sign(cols[np.abs(cols).argmax(axis=0), np.arange(w.size)])
    return w, (lambda g: ((q * g) @ q.T) / s[:, None] * s[None, :]), cols


def _rotated(rng, mu, eigenvalues):
    """mu-selfadjoint D^(-1/2) Q diag(eigenvalues) Q^T D^(1/2) with a random orthogonal Q."""
    q, _ = np.linalg.qr(rng.standard_normal((mu.size, mu.size)))
    w = np.sqrt(mu)
    return WeightedSpace(mu), ((q * eigenvalues) @ q.T) / w[:, None] * w[None, :]


def _oracle_cases():
    rng = np.random.default_rng(1500)
    for n in (1, 2, 8, 16, 48):
        yield f"random n={n}", random_mu_symmetric(rng, n)
    for n in (8, 16):
        yield f"graded n={n}", _rotated(rng, rng.uniform(0.5, 2.0, n), np.geomspace(1e-10, 1.0, n))
        graded = rng.permutation(np.geomspace(1e-10, 1.0, n))
        yield f"graded diagonal n={n}", (WeightedSpace(rng.uniform(0.5, 2.0, n)), np.diag(graded))
    # diffusion generators D^(-1) (diag(W 1) - W): an exact kernel, and two
    # clusters coupled at 1e-8 whose spectral gap sits far above the snap
    for label, coupling in (("kernel", 1.0), ("near-kernel", 1e-8)):
        mu = rng.uniform(0.5, 2.0, 12)
        wts = rng.uniform(0.0, 1.0, (12, 12))
        wts = 0.5 * (wts + wts.T)
        wts[:6, 6:] *= coupling
        wts[6:, :6] *= coupling
        np.fill_diagonal(wts, 0.0)
        yield f"{label} generator", (WeightedSpace(mu), (np.diag(wts.sum(axis=1)) - wts) / mu[:, None])
    yield "zero", (WeightedSpace(rng.uniform(0.5, 2.0, 5)), np.zeros((5, 5)))
    yield "identity", (WeightedSpace(rng.uniform(0.5, 2.0, 6)), 2.0 * np.eye(6))
    yield "repeated", _rotated(rng, rng.uniform(0.5, 2.0, 9), np.array([0, 0, 1, 1, 1, 2, 3, 3, 5.0]))


@pytest.mark.parametrize("label, case", list(_oracle_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_decompose_matches_the_jacobi_oracle(label, case):
    sp, a = case
    dec = decompose(MuSymmetricOperator(sp, a))
    w, matrix_of, cols = _jacobi_oracle(MuSymmetricOperator(sp, a))
    # both routes are backward stable: eigenvalues agree to n eps ||A||, and
    # an eigenvector or spectral projector to n eps ||A|| / gap
    scale = max(float(np.abs(w).max(initial=0.0)), 1e-300)
    eps = 1e-14 * sp.n * scale
    np.testing.assert_allclose(dec.eigenvalues, w, rtol=0.0, atol=eps)
    np.testing.assert_array_equal(dec.eigenvalues == 0.0, w == 0.0)
    # functions of the operator do not depend on the basis chosen inside an
    # eigenspace; the kernel projector is as sensitive as the kernel's gap
    kernel_gap = float(np.abs(w[w != 0.0]).min(initial=scale))
    f = np.random.default_rng(1600).standard_normal((sp.n, 3))
    for g, tol in ((lambda lam: lam, 1e-12), (lambda lam: np.exp(-lam / scale), 1e-12),
                   (lambda lam: (lam == 0.0) * 1.0, max(1e-12, eps / kernel_gap))):
        want = matrix_of(g(w))
        np.testing.assert_allclose(spectral_matrix(dec, g(dec.eigenvalues)), want,
                                   rtol=0.0, atol=tol * max(1.0, np.abs(want).max()))
        np.testing.assert_allclose(apply_multiplier(dec, g(dec.eigenvalues), f), want @ f,
                                   rtol=0.0, atol=tol * max(1.0, np.abs(want @ f).max()))
    # a simple eigenvalue fixes its eigenvector up to sign, and the sign
    # convention (largest-magnitude component positive) fixes the sign
    gaps = np.diff(np.concatenate(([-np.inf], w, [np.inf])))
    gap = np.minimum(gaps[:-1], gaps[1:])
    simple = gap > 1e-6 * scale
    assert simple.any() or label in ("zero", "identity")
    err = np.abs(dec.eigenvectors - cols).max(axis=0)
    assert np.all(err[simple] <= 1e-12 + eps / gap[simple]), (err[simple], gap[simple])


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
    field = BochnerField(values, BanachNormDescriptor(values.shape[1], r))
    coeff = dec.eigenvectors.T @ (dec.space.mu[:, None] * field.values)
    best = np.zeros(dec.n)
    for g in gvals:
        out = dec.eigenvectors @ (g[:, None] * coeff)
        best = np.maximum(best, fiber_norm(field.replace_values(out).values, field.norm.r))
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
    # the row block of a d = 16 field
    block = FAMILY_BLOCK_ELEMENTS // 16
    for gen in gens:
        dec = gen.decomposition
        for count in (1, block - 1, block, block + 1, 216):
            for gvals in _families(dec, count, rng):
                assert gvals.shape == (count, n)
                # the kernel squares moduli, so check it far from 1 as well,
                # on one block and across a block boundary
                for scale in (1.0, 1e-60, 1e60) if count in (1, block + 1) else (1.0,):
                    # the scalar field, d = 1 with the l^2 fiber norm, the modulus
                    scalar = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    want = _reference_family_sup(dec, gvals, scalar[:, None], 2.0)
                    np.testing.assert_allclose(family_sup(dec, gvals, scalar[:, None], 2.0), want,
                                               rtol=1e-14, atol=0.0)
                    for d in (1, 4, 16):
                        values = scale * (rng.standard_normal((n, d))
                                          + 1j * rng.standard_normal((n, d)))
                        for r in (1.5, 2.0, 4.0, math.inf):
                            want = _reference_family_sup(dec, gvals, values, r)
                            np.testing.assert_allclose(family_sup(dec, gvals, values, r), want,
                                                       rtol=1e-14, atol=0.0)


def test_family_sup_on_real_rows_and_values():
    # a real block has one plane of squared moduli, written where g * coeff was
    rng = np.random.default_rng(1150)
    dec = random_generator(8, 1250, kind="contraction").decomposition
    block = FAMILY_BLOCK_ELEMENTS // 4
    for count in (1, block, block + 1):
        gvals = rng.standard_normal((count, 8))
        values = rng.standard_normal((8, 4))
        for r in (1.5, 2.0, 4.0, math.inf):
            got = family_sup(dec, gvals, values, r)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, _reference_family_sup(dec, gvals, values, r),
                                       rtol=1e-14, atol=0.0)


def test_family_sup_rejects_nonfinite_rows():
    gen = random_generator(4, 1400)
    gvals = np.ones((FAMILY_BLOCK_ELEMENTS + 5, 4), dtype=complex)
    gvals[FAMILY_BLOCK_ELEMENTS + 2, 1] = np.nan
    with pytest.raises(ValueError):
        family_sup(gen.decomposition, gvals, np.ones((4, 1)), 2.0)
    gvals[FAMILY_BLOCK_ELEMENTS + 2, 1] = np.inf
    with pytest.raises(ValueError):
        family_sup(gen.decomposition, gvals, np.ones((4, 2)), 2.0)
    # one row is a family of one
    f = (np.arange(4.0) + 1j)[:, None]
    image = apply_multiplier(gen.decomposition, np.full(4, 0.5), f)
    np.testing.assert_array_equal(family_sup(gen.decomposition, np.full(4, 0.5), f, 2.0),
                                  np.abs(image[:, 0]))


def test_family_sup_refuses_values_without_a_fiber_axis():
    # read as one point with an n-dimensional fiber, a 1-d array would make
    # the sup sum over the points, so it is refused, not reduced
    gen = random_generator(4, 1410)
    for r in (2.0, 3.0, math.inf):
        with pytest.raises(ValueError, match="fiber axis"):
            family_sup(gen.decomposition, np.ones((3, 4)), np.arange(4.0) + 1j, r)


def test_family_sup_rejects_an_empty_family():
    # a sup over no rows is not 0, so an empty family is refused, not reduced
    gen = random_generator(4, 1420)
    for values, r in (((np.arange(4.0) + 1j)[:, None], 2.0), (np.ones((4, 2), dtype=complex), 2.0)):
        with pytest.raises(ValueError, match="at least one row"):
            family_sup(gen.decomposition, np.empty((0, 4)), values, r)


def test_family_sup_blocks_follow_the_element_budget(monkeypatch):
    from maxlab import spectral

    gen = random_generator(6, 1450)
    gvals = np.exp(np.multiply.outer(-SectorGrid.default(0.3).points(), gen.decomposition.eigenvalues))
    assert gvals.shape == (216, 6)
    sizes = []
    product = spectral._product

    def recording(dec, rows, coeff, work):
        sizes.append(len(rows))
        return product(dec, rows, coeff, work)

    monkeypatch.setattr(spectral, "_product", recording)
    rng = np.random.default_rng(1451)
    # columns per point -> rows per block: 512 // columns, at least 1
    for shape, rows in (((6, 1), 216), ((6, 16), 32), ((6, 4, 16), 8), ((6, 4, 1), 128),
                        ((6, 600), 1)):
        sizes.clear()
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        family_sup(gen.decomposition, gvals, values, 2.0)
        assert max(sizes) == rows and sum(sizes) == 216


@pytest.mark.parametrize("n", [2, 8, 48])
def test_product_agrees_with_the_complex_oracle(n):
    # both routes round within n eps sum_k |V_jk| |s_kc| <= n eps ||V|| ||s_c|| of V s
    from maxlab.spectral import _product

    dec = random_generator(n, 1452).decomposition
    v = dec.eigenvectors
    bound = 4.0 * n * np.finfo(float).eps * np.linalg.norm(v, 2)
    rng = np.random.default_rng(1453)
    for rows in (1, 8, 27):
        gvals = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        for width in (1, 3, 64):
            coeff = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
            for g in (gvals, gvals[0], gvals.real):
                want = complex_multiplier_product(dec, g, coeff)
                # the planes (..., 2C, n) as the complex image (..., n, C)
                got = np.ascontiguousarray(_product(dec, g, coeff).swapaxes(-1, -2)).view(complex)
                assert got.shape == want.shape
                tol = bound * np.linalg.norm(g[..., None] * coeff, axis=-2, keepdims=True)
                assert np.all(np.abs(got - want) <= tol)
    # a real g on real coefficients gives the real image
    g, coeff = rng.standard_normal(n), rng.standard_normal((n, 3))
    got = _product(dec, g, coeff)
    assert got.dtype == np.float64 and got.shape == (3, n)
    assert np.all(np.abs(got.T - complex_multiplier_product(dec, g, coeff))
                  <= bound * np.linalg.norm(g[:, None] * coeff, axis=0))


@pytest.mark.parametrize("n", [2, 8, 48])
def test_kernel_rows_do_not_depend_on_the_row_count(n):
    # from two rows on, a row of the real product has the same bits whatever
    # the number of rows, so a column comes out alone as it does among others
    from maxlab.spectral import _coefficients, _product

    dec = random_generator(n, 1454).decomposition
    rng = np.random.default_rng(1455)
    values = rng.standard_normal((n, 64)) + 1j * rng.standard_normal((n, 64))
    coeff = _coefficients(dec, values)
    gvals = rng.standard_normal((27, n)) + 1j * rng.standard_normal((27, n))
    for g in (gvals[0], gvals[0].real):
        full = _product(dec, g, coeff)
        for width in range(1, 65):
            assert _coefficients(dec, values[:, :width]).tobytes() == coeff[:, :width].tobytes()
            assert _product(dec, g, coeff[:, :width]).tobytes() == full[:2 * width].tobytes()
        for width in (1, 3):
            for first in range(0, 64, 7):
                cols = slice(first, first + width)
                assert _coefficients(dec, values[:, cols]).tobytes() == coeff[:, cols].tobytes()
                part = _product(dec, g, coeff[:, cols])
                assert part.tobytes() == full[2 * first:2 * (first + width)].tobytes()
    for width in (1, 3, 64):
        stacked = _product(dec, gvals, coeff[:, :width])
        for k, g in enumerate(gvals):
            assert stacked[k].tobytes() == _product(dec, g, coeff[:, :width]).tobytes()
        # the work arrays family_sup reuses across its blocks change no bit
        work = (np.empty((27, n, width), complex), np.empty((27, 2 * width, n)))
        assert _product(dec, gvals, coeff[:, :width], work).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("n", [1, 8])
def test_kernel_results_are_c_ordered(n):
    # fiber_norm sums over d in memory order, so a strided image would round differently
    dec = random_generator(n, 1456).decomposition
    rng = np.random.default_rng(1457)
    family = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for shape in ((n,), (n, 1), (n, 3), (n, 4, 1), (n, 4, 3)):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for gvals, vals in ((family, values), (family[0], values), (family.real, values.real),
                            (family[0].real, values.real)):
            out = apply_multiplier(dec, gvals, vals)
            assert out.flags.c_contiguous and out.shape == gvals.shape[:-1] + shape
            assert out.dtype == np.result_type(gvals, vals)
            if len(shape) > 1:
                assert family_sup(dec, gvals, vals, 3.0).flags.c_contiguous


def test_family_sup_computes_the_coefficients_once(monkeypatch):
    from maxlab import spectral

    gen = random_generator(8, 1455)
    dec = gen.decomposition
    gvals = np.exp(np.multiply.outer(-SectorGrid.default(0.3).points(), dec.eigenvalues))
    rng = np.random.default_rng(1456)
    # a d = 16 batch of 4 fields: 216 rows in 27 blocks of 8
    values = rng.standard_normal((8, 4, 16)) + 1j * rng.standard_normal((8, 4, 16))
    want = family_sup(dec, gvals, values, 2.0)
    calls = []
    coefficients = spectral._coefficients

    def counting(dec, values):
        calls.append(values.shape)
        return coefficients(dec, values)

    monkeypatch.setattr(spectral, "_coefficients", counting)
    assert np.array_equal(family_sup(dec, gvals, values, 2.0), want)
    assert calls == [(8, 4, 16)]


@pytest.mark.parametrize("d", [1, 3])
def test_apply_multiplier_on_a_batch_equals_each_field_alone(d):
    gen = random_generator(8, 1460)
    dec = gen.decomposition
    rng = np.random.default_rng(1461)
    batch = rng.standard_normal((8, 4, d)) + 1j * rng.standard_normal((8, 4, d))
    family = np.exp(-np.outer([0.1, 0.3, 2.0], dec.eigenvalues))
    for gvals in (family, family[1]):
        out = apply_multiplier(dec, gvals, batch)
        assert out.shape == gvals.shape[:-1] + (8, 4, d)
        for j in range(4):
            assert np.array_equal(out[..., j, :], apply_multiplier(dec, gvals, batch[:, j]))
        # a field in Fortran order, such as the transpose of a stack of fields
        fortran = np.asfortranarray(batch[:, 0])
        assert np.array_equal(out[..., 0, :], apply_multiplier(dec, gvals, fortran))
    with pytest.raises(ValueError):
        apply_multiplier(dec, family, np.ones((7, 4, d)))


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


# ---------------------------------------------------------------------------
# The per-start Boyd loop, the oracle the block iteration in
# operator_norm_lower_bound is checked against: every basis vector in
# weighted coordinates, then each seeded start refined on its own by the
# Boyd/Higham p-norm power iteration (Higham, Numer. Math. 62, 1992).

def _oracle_dual_sign_power(y: np.ndarray, e: float) -> np.ndarray:
    """Direction of the duality map ``y -> |y|^e * phase(y)``, overflow-guarded."""
    mags = np.abs(y)
    top = mags.max()
    if top == 0.0:
        return np.zeros_like(y)
    scaled = mags / top
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(mags > 0.0, y / np.where(mags > 0.0, mags, 1.0), 0.0)
    return scaled**e * phase


def _boyd_refine(b: np.ndarray, x0: np.ndarray, p: float, max_iter: int = 30) -> float:
    """Boyd/Higham power iteration for the unweighted p-norm of ``b``.

    Every iterate yields a genuine ratio ||Bx||_p / ||x||_p, so the
    running maximum is a certified lower bound.
    """
    q = p / (p - 1.0)
    x = x0 / np.linalg.norm(x0, ord=p)
    best = 0.0
    for _ in range(max_iter):
        y = b @ x
        gamma = float(np.linalg.norm(y, ord=p))
        if gamma <= best + 1e-15 * max(best, 1.0):
            best = max(best, gamma)
            break
        best = gamma
        z = b.conj().T @ _oracle_dual_sign_power(y, p - 1.0)
        direction = _oracle_dual_sign_power(z, q - 1.0)
        scale = np.linalg.norm(direction, ord=p)
        if scale == 0.0:
            break
        x = direction / scale
    return best


def _per_start_lower_bound(space, a, p, trials, seed):
    rng = np.random.default_rng(seed)
    w = space.mu ** (1.0 / p)
    b = (w[:, None] * a) / w[None, :]
    best = 0.0
    for j in range(space.n):
        e = np.zeros(space.n)
        e[j] = 1.0
        f = e / w  # basis vector in field coordinates, so the ratio is exact for diagonals
        best = max(best, lp_norm(space, a @ f, p) / lp_norm(space, f, p))
    for _ in range(trials):
        x0 = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        best = max(best, _boyd_refine(b, x0, p))
    return best


def _norm_upper_bound(space, a, p):
    """The exact norm at p = 2, else the Riesz-Thorin bound ||A||_1^(1/p) ||A||_inf^(1-1/p)."""
    if p == 2.0:
        w = np.sqrt(space.mu)
        return float(np.linalg.norm((w[:, None] * a) / w[None, :], ord=2))
    return operator_norm(space, a, 1.0) ** (1.0 / p) * operator_norm(space, a, math.inf) ** (1.0 - 1.0 / p)


def _norm_bound_cases():
    rng = np.random.default_rng(1700)
    for n in (1, 2, 8, 16):
        sp, a = random_mu_symmetric(rng, n)
        yield f"mu-symmetric n={n}", sp, a
        sp = WeightedSpace(rng.uniform(0.5, 2.0, n))
        yield f"complex n={n}", sp, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sp = WeightedSpace(rng.uniform(0.5, 2.0, 6))
    yield "zero", sp, np.zeros((6, 6))
    yield "diagonal", sp, np.diag([0.5, -3.0, 2.0, 1e-3, 0.0, 2.5])
    kernel = rng.standard_normal((6, 6))
    kernel[:, 2] = 0.0
    yield "kernel column", sp, kernel


@pytest.mark.parametrize("label, sp, a", list(_norm_bound_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 7.0))
def test_block_lower_bound_against_the_per_start_oracle(label, sp, a, p):
    for trials in (1, 8, 40):
        with np.errstate(divide="raise", invalid="raise"):
            got = operator_norm_lower_bound(sp, a, p, trials=trials, seed=trials)
        # the block takes every iterate the per-start loop takes, and more
        # the oracle's complex division by a subnormal magnitude overflows
        # into NaN iterates, which its Python max drops
        with np.errstate(over="ignore", invalid="ignore"):
            want = _per_start_lower_bound(sp, a, p, trials, trials)
        assert got >= want * (1.0 - 1e-13)
        assert got <= _norm_upper_bound(sp, a, p) * (1.0 + 1e-12)
    if label == "zero":
        assert got == 0.0
    if label == "diagonal":
        # basis vectors give the exact norm of a diagonal matrix at every p
        assert got == pytest.approx(3.0, rel=1e-14)


def test_block_lower_bound_leaves_a_shared_generator_where_the_oracle_does():
    rng = np.random.default_rng(1800)
    sp = WeightedSpace(rng.uniform(0.5, 2.0, 8))
    a = rng.standard_normal((8, 8))
    block_rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
    for p, trials in ((2.0, 1), (3.0, 8), (1.5, 40)):
        operator_norm_lower_bound(sp, a, p, trials=trials, seed=block_rng)
        _per_start_lower_bound(sp, a, p, trials, oracle_rng)
        assert block_rng.random() == oracle_rng.random()


# ---------------------------------------------------------------------------
# multiplier_norm_bounds: the closed form max_k |g(lambda_k)| at p = 2,
# checked against the block Boyd iteration and the spectral norm of the
# conjugated matrix; Riesz-Thorin upper bounds elsewhere, checked against
# the lower bounds and the cruder bound of _norm_upper_bound.

def _bound_generators():
    for n in (2, 8, 16):
        yield f"diffusion n={n}", random_generator(n, 1900 + n)
        yield f"contraction n={n}", random_generator(n, 1950 + n, kind="contraction")
    mu = np.random.default_rng(1900).uniform(0.5, 2.0, 6)
    diagonal = np.diag([0.0, 0.3, 1.0, 2.5, 1e-3, 7.0])
    yield "diagonal", DiffusionGenerator(MuSymmetricOperator(WeightedSpace(mu), diagonal))


def _multiplier_rows(dec, seed):
    """Semigroup rows on a sector grid, imaginary powers and random complex rows."""
    lam = dec.eigenvalues
    nodes = SectorGrid.default(0.2 * math.pi, n_radii=6, n_angles=5).points()
    log = np.log(np.where(lam > 0.0, lam, 1.0))
    powers = np.exp(1j * np.multiply.outer(np.array([-3.0, 0.5, 2.0]), log))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((3, lam.size)) + 1j * rng.standard_normal((3, lam.size))
    return np.vstack([np.exp(np.multiply.outer(-nodes, lam)), powers, noise])


_BOUND_GENERATORS = list(_bound_generators())
_ids = [label for label, _ in _BOUND_GENERATORS]


@pytest.mark.parametrize("label, gen", _BOUND_GENERATORS, ids=_ids)
def test_p2_norm_is_exact_against_the_boyd_oracle_and_the_spectral_norm(label, gen):
    dec = gen.decomposition
    rows = _multiplier_rows(dec, 1901)
    lower, upper = multiplier_norm_bounds(dec, rows, 2.0)
    assert np.array_equal(lower, upper)
    w = np.sqrt(dec.space.mu)
    rounding = 16.0 * dec.n * np.finfo(float).eps
    for g, exact in zip(rows, lower):
        assert exact == np.abs(g).max()
        m = spectral_matrix(dec, g)
        assert exact >= operator_norm_lower_bound(dec.space, m, 2.0, trials=8, seed=0) \
            * (1.0 - 1e-13)
        spectral = np.linalg.norm((w[:, None] * m) / w[None, :], ord=2)
        assert abs(exact - spectral) <= rounding * exact


@pytest.mark.parametrize("label, gen", _BOUND_GENERATORS, ids=_ids)
@pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 4.0))
def test_norm_bounds_bracket_every_row_below_the_crude_interpolation(label, gen, p):
    dec = gen.decomposition
    rows = _multiplier_rows(dec, 1902)
    lower, upper = multiplier_norm_bounds(dec, rows, p, trials=4, seed=3)
    # both bounds are exact up to the rounding of the matrix g(L)
    assert np.all(lower <= upper * (1.0 + 16.0 * dec.n * np.finfo(float).eps))
    # log-convexity of the Riesz-Thorin bound: interpolating through p = 2
    # is never worse than interpolating between the endpoints
    crude = np.array([_norm_upper_bound(dec.space, spectral_matrix(dec, g), p) for g in rows])
    assert np.all(upper <= crude * (1.0 + 1e-12))
    if label == "diagonal":
        # g(L) is diagonal: every bound is the exact norm max|g|
        np.testing.assert_allclose(lower, np.abs(rows).max(axis=1), rtol=1e-14)
        np.testing.assert_allclose(upper, np.abs(rows).max(axis=1), rtol=1e-14)


@pytest.mark.parametrize("p", (1.5, 3.0))
def test_norm_bounds_keep_the_per_node_lower_bounds(p):
    gen = random_generator(8, 1903, kind="contraction")
    dec = gen.decomposition
    rows = _multiplier_rows(dec, 1904)
    rows[0] = rows[0].real  # a real row is applied as a real matrix
    lower, _ = multiplier_norm_bounds(dec, rows, p, trials=3, seed=5)
    rng, shared = np.random.default_rng(5), np.random.default_rng(5)
    multiplier_norm_bounds(dec, rows, p, trials=3, seed=shared)
    for g, got in zip(rows, lower):
        m = spectral_matrix(dec, g if np.any(g.imag) else g.real)
        assert got == operator_norm_lower_bound(dec.space, m, p, trials=3, seed=rng)
    assert rng.random() == shared.random()


def _mixed_family(n, seed):
    """Rows whose matrices are zero, real diagonal, and dense real or complex, interleaved.

    The eigenbasis ``V = D^(-1/2) Q`` keeps the weighted basis vector e_0 /
    sqrt(mu_0) as its first column, so a row that vanishes off the first
    eigenvalue gives a real diagonal matrix diag(c, 0, ..., 0).
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 2.0, n)
    q = np.eye(n)
    q[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
    dec = SpectralDecomposition(WeightedSpace(mu), np.linspace(0.0, 3.0, n),
                                q / np.sqrt(mu)[:, None])
    diagonal = np.zeros(n)
    diagonal[0] = 2.5

    def dense():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    rows = [dense(), np.zeros(n), rng.standard_normal(n), diagonal, dense(),
            rng.standard_normal(n)]
    return dec, np.array(rows, dtype=complex)


@pytest.mark.parametrize("n", (1, 6))
@pytest.mark.parametrize("trials", (1, 8))
@pytest.mark.parametrize("p", (1.5, 4.0))
def test_family_iteration_matches_the_one_matrix_oracle_row_by_row(monkeypatch, n, trials, p):
    import maxlab.spectral as spectral

    dec, rows = _mixed_family(n, 1909)
    dual = spectral._dual_sign_power
    stacks = []
    monkeypatch.setattr(spectral, "_dual_sign_power",
                        lambda y, e: stacks.append(y.shape[0]) or dual(y, e))
    shared, oracle = np.random.default_rng(11), np.random.default_rng(11)
    with np.errstate(divide="raise", invalid="raise"):
        lower, upper = multiplier_norm_bounds(dec, rows, p, trials=trials, seed=shared)
    monkeypatch.undo()
    theta = abs(2.0 / p - 1.0)
    endpoint = 1.0 if p < 2.0 else math.inf
    with np.errstate(divide="raise", invalid="raise"):
        for g, got_lower, got_upper in zip(rows, lower, upper):
            m = spectral_matrix(dec, g)
            assert got_lower == operator_norm_lower_bound(dec.space, m, p, trials=trials,
                                                          seed=oracle)
            assert got_upper == np.abs(g).max() ** (1.0 - theta) \
                * operator_norm(dec.space, m, endpoint) ** theta
    assert shared.random() == oracle.random()
    assert lower[1] == upper[1] == 0.0
    # matrices still iterating at each step, two dual maps per step, all six
    # in one block
    active = stacks[::2]
    if n == 6:
        # the zero matrix froze at the first step, the diagonal one soon after,
        # and a dense real and a dense complex matrix ran to the 30-step cap
        assert active[0] == 5 and min(active) < 5 and len(active) == 29
        assert active == sorted(active, reverse=True) and active[-1] >= 2


@pytest.mark.parametrize("p", (1.5, 4.0))
def test_a_real_matrix_row_equals_the_one_matrix_bound(p):
    dec, rows = _mixed_family(6, 1909)
    # the zero, real dense, diagonal and real dense rows, as real rows
    real_rows = rows.real[[1, 2, 3, 5]]
    shared, oracle = np.random.default_rng(12), np.random.default_rng(12)
    lower, _ = multiplier_norm_bounds(dec, real_rows, p, trials=4, seed=shared)
    for g, got in zip(real_rows, lower):
        m = spectral_matrix(dec, g)
        assert m.dtype == float
        assert got == operator_norm_lower_bound(dec.space, m, p, trials=4, seed=oracle)
    assert shared.random() == oracle.random()


def test_norm_bounds_validate_rows():
    dec = random_generator(4, 1905).decomposition
    with pytest.raises(ValueError):
        multiplier_norm_bounds(dec, np.ones((2, 3)), 2.0)
    with pytest.raises(ValueError, match="finite"):
        multiplier_norm_bounds(dec, np.array([1.0, np.inf, 0.0, 0.0]), 2.0)
    lower, upper = multiplier_norm_bounds(dec, np.full(4, -0.5), 3.0, trials=2)
    assert lower.shape == upper.shape == (1,)


def test_eigen_residual_is_relative_and_small():
    rng = np.random.default_rng(1906)
    for c in (1e-8, 1.0, 1e8):
        sp, a = random_mu_symmetric(rng, 8)
        op = MuSymmetricOperator(sp, c * a)
        assert eigen_residual(op, decompose(op)) <= 1e-13
    zero = MuSymmetricOperator(WeightedSpace(np.ones(3)), np.zeros((3, 3)))
    assert eigen_residual(zero, decompose(zero)) == 0.0
    # a wrong eigenvalue shows up at its own scale
    op = MuSymmetricOperator(WeightedSpace(np.ones(2)), np.diag([1.0, 2.0]))
    dec = decompose(op)
    shifted = type(dec)(dec.space, dec.eigenvalues + np.array([0.0, 1e-3]), dec.eigenvectors)
    assert eigen_residual(op, shifted) == pytest.approx(5e-4)


def test_orthonormality_defect_is_small_and_sees_a_perturbed_basis():
    cases = dict(_oracle_cases())
    sp, a = cases["near-kernel generator"]
    dec = decompose(MuSymmetricOperator(sp, a))
    assert 0.0 < orthonormality_defect(dec) <= 1e-14 * sp.n
    # a column stretched by 1 + e has squared norm (1 + e)^2, off by 2e + e^2
    stretched = dec.eigenvectors.copy()
    stretched[:, 3] *= 1.0 + 1e-6
    defect = orthonormality_defect(SpectralDecomposition(sp, dec.eigenvalues, stretched))
    assert defect == pytest.approx(2e-6 + 1e-12, rel=1e-8)
    # a column tilted toward its neighbour by e has inner product e with it
    tilted = dec.eigenvectors.copy()
    tilted[:, 0] += 1e-3 * tilted[:, 1]
    defect = orthonormality_defect(SpectralDecomposition(sp, dec.eigenvalues, tilted))
    assert defect == pytest.approx(1e-3, rel=1e-8)
