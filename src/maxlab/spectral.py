"""Spectral calculus for mu-selfadjoint operators on weighted spaces.

A real matrix A is mu-selfadjoint when ``mu_i A_ij == mu_j A_ji``.
Conjugating by ``D^(1/2)`` with ``D = diag(mu)`` turns A into an ordinary
symmetric matrix, which LAPACK's ``eigh`` diagonalises; pulling the
eigenvectors back gives a mu-orthonormal eigenbasis, whose defect
orthonormality_defect reports.  Every function of the operator acting on
a field goes through one kernel, apply_multiplier, and every maximal
function through its pointwise sup, family_sup.  Both take the (n, d)
values of one field, d = 1 for a scalar one, or a batch (n, T, d) of T
fields, and share the kernel's two halves: the coefficients V^T D F,
which family_sup computes once per family, and the product with V,
which it makes for blocks of at most FAMILY_BLOCK_ELEMENTS (512) rows x
columns, reducing each block to fiber norms from the squared moduli and
taking one root per point after the sup.  Each half is one real matrix
product on the float view of its complex operand, with the real and
imaginary parts of the columns on its rows, so the real V is never cast
to complex.

The module also carries a Lanczos evaluation of the complex Gamma
function (needed by the multiplier transforms downstream) and exact
endpoint operator norms, randomized certified lower bounds for the
intermediate exponents, and two-sided bounds on the norms of functions of
the operator: exact at p = 2, where they are normal in L^2(mu), and
Riesz-Thorin upper bounds elsewhere.  The lower bounds of a family of K
matrices come from one Boyd/Higham iteration over a (K, n, n + trials)
block, in which each matrix stops on its own; operator_norm_lower_bound
is that iteration for one matrix, and each family row equals it bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ABS_TOL, WeightedSpace, _gaussian_batch

__all__ = [
    "MuSymmetricOperator",
    "SpectralDecomposition",
    "GammaPoleError",
    "decompose",
    "eigen_residual",
    "orthonormality_defect",
    "apply_multiplier",
    "family_sup",
    "spectral_matrix",
    "complex_gamma",
    "gamma_values",
    "operator_norm",
    "operator_norm_lower_bound",
    "multiplier_norm_bounds",
]

# Eigenvalues below this relative threshold are snapped to exact zero so
# that kernel conventions (g(0) := 1 for imaginary powers, phi_t(0) := 1
# for ergodic averages) fire deterministically.
KERNEL_SNAP_REL = 1e-12

# Budget of rows x columns per block applied by family_sup, so a block holds
# at most 512 complex columns of n values, 1024 real planes, whatever the
# batch width: 32 rows of a d = 16 field, 8 rows of four stacked ones.  With
# the complex product it replaced, and against 39.0 MB for one field per
# call, `maxlab maximal --n 48` peaked at 43.3 MB RSS with 32-row blocks over
# 4 x 16 stacked columns, and at 40.0 MB with this budget; with the real
# product it peaks at 38.5 MB.
FAMILY_BLOCK_ELEMENTS = 512


class GammaPoleError(ValueError):
    """Gamma evaluated too close to a pole at a non-positive integer."""


@dataclass(frozen=True)
class MuSymmetricOperator:
    """Real matrix acting on fields over ``space``, selfadjoint in the mu inner product."""

    space: WeightedSpace
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        n = self.space.n
        if a.shape != (n, n):
            raise ValueError(f"entries must have shape ({n}, {n}), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("operator entries must be finite")
        # relative to the scale of W = D A, so that rounding is not taken for asymmetry
        w = self.space.mu[:, None] * a
        skew = np.abs(w - w.T).max()
        scale = float(np.abs(w).max())
        if skew > ABS_TOL * scale:
            raise ValueError(f"operator is not mu-selfadjoint: max |mu_i A_ij - mu_j A_ji| = "
                             f"{skew:.3e} at scale max |mu_i A_ij| = {scale:.3e}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and mu-orthonormal eigenvector columns."""

    space: WeightedSpace
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    # a C-ordered copy of V^T, the right operand of the multiplier product
    eigenvectors_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvectors_t", np.ascontiguousarray(self.eigenvectors.T))

    @property
    def n(self) -> int:
        return self.space.n


def decompose(op: MuSymmetricOperator) -> SpectralDecomposition:
    """Diagonalise a mu-selfadjoint operator.

    The operator is symmetrised by conjugation with ``diag(sqrt(mu))``,
    run through ``np.linalg.eigh``, and the eigenvectors are pulled back so
    the columns are mu-orthonormal.  Eigenvalues whose magnitude falls below
    ``1e-12 * max|lambda|`` are snapped to exact zero.
    """
    s = np.sqrt(op.space.mu)
    m = (s[:, None] * op.entries) / s[None, :]
    m = 0.5 * (m + m.T)
    w, vecs = np.linalg.eigh(m)  # eigenvalues already ascending
    vecs = vecs / s[:, None]
    # deterministic sign: make the largest-magnitude component positive
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs *= np.where(top < 0.0, -1.0, 1.0)
    scale = float(np.abs(w).max(initial=0.0))
    if scale > 0.0:
        w[np.abs(w) < KERNEL_SNAP_REL * scale] = 0.0
    return SpectralDecomposition(op.space, w, vecs)


def eigen_residual(op: MuSymmetricOperator, dec: SpectralDecomposition) -> float:
    """Relative residual ``max|L V - V Lambda| / max|L|`` of a decomposition (0 for L = 0)."""
    a = op.entries
    scale = float(np.abs(a).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    v = dec.eigenvectors
    return float(np.abs(a @ v - v * dec.eigenvalues).max()) / scale


def orthonormality_defect(dec: SpectralDecomposition) -> float:
    """mu-orthonormality defect ``max|V^T D V - I|`` of the eigenvector columns."""
    v = dec.eigenvectors
    return float(np.abs(v.T @ (dec.space.mu[:, None] * v) - np.eye(dec.n)).max())


def _checked(dec: SpectralDecomposition, gvals, values) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier rows (n,) or (K, n) of finite values and a field with n rows, as arrays."""
    gvals = np.asarray(gvals)
    values = np.asarray(values)
    n = dec.n
    if gvals.ndim not in (1, 2) or gvals.shape[-1] != n:
        raise ValueError(f"need rows of {n} multiplier values, got shape {gvals.shape}")
    if values.ndim < 1 or values.shape[0] != n:
        raise ValueError(f"field values must have {n} rows, got shape {values.shape}")
    if not np.all(np.isfinite(gvals)):
        raise ValueError("spectral multiplier values must be finite")
    return gvals, values


def _coefficients(dec: SpectralDecomposition, values: np.ndarray) -> np.ndarray:
    """Coefficients ``V^T D F`` of a field's columns, (n, C).

    One real matrix product with the columns on its rows: the transpose of
    the float view of ``D F``, made C-ordered whatever the layout of F,
    (2C, n) for complex values, times V.  Row 2c of the result holds the
    real part of column c's coefficients and row 2c + 1 the imaginary part,
    and it is copied back to complex (n, C).
    """
    weighted = np.multiply(dec.space.mu[:, None], values.reshape(dec.n, -1), order="C")
    planes = weighted.view(float).T @ dec.eigenvectors
    return np.ascontiguousarray(planes.T).view(weighted.dtype)


def _product(dec: SpectralDecomposition, gvals: np.ndarray, coeff: np.ndarray,
             work=(None, None)) -> np.ndarray:
    """``V (g * coeff)`` for rows ``gvals`` (n,) or (K, n), as planes (..., 2C, n).

    The transpose of the float view of ``g * coeff`` (..., n, C), which is
    (..., 2C, n) when it is complex, times the C-ordered V^T is one real
    matrix product per row g, so no multiplication by a zero imaginary part
    of V is made.  Row 2c of the result holds the real part of column c of
    the image and row 2c + 1 its imaginary part; a real g on real
    coefficients gives the C rows of the real image.  ``work`` may hold two C-ordered arrays, of
    shapes ``gvals.shape[:-1] + coeff.shape`` and of the result, to receive
    ``g * coeff`` and the product, so that a caller applying many blocks
    reuses them.
    """
    scaled = np.multiply(gvals[..., None], coeff, out=work[0])
    return np.matmul(scaled.view(float).swapaxes(-1, -2), dec.eigenvectors_t, out=work[1])


def apply_multiplier(dec: SpectralDecomposition, gvals, values) -> np.ndarray:
    """Apply spectral multipliers to a field: ``V (g * V^T D F)`` with ``D = diag(mu)``.

    ``gvals`` holds one value per eigenvalue, as one row (n,) or a family
    of rows (K, n); ``values`` is an array (n, ...) of any trailing shape,
    such as a vector (n,), the (n, d) columns of a field or a batch
    (n, T, d), which is applied as one set of columns.  The result is a
    C-ordered array of shape ``gvals.shape[:-1] + values.shape``, one field
    per row, complex unless both g and the values are real.

    The work has two halves, which family_sup shares: the coefficients
    ``V^T D F`` of the columns, and the product ``V (g * coeff)`` for the
    rows.  Each is one real matrix product with the 2C real and imaginary
    parts of the C columns on its rows, and from two rows on a row of a
    real matrix product comes out the same whatever the number of rows.
    So every field of a batch comes out bit for bit as it does alone.  Real
    values, which no Bochner field holds, give one row per column, and a
    single real column is a matrix-vector product, which rounds
    differently.
    """
    gvals, values = _checked(dec, gvals, values)
    coeff = _coefficients(dec, values)
    planes = _product(dec, gvals, coeff)
    out = np.ascontiguousarray(planes.swapaxes(-1, -2)).view(np.result_type(gvals, coeff))
    return out.reshape(gvals.shape[:-1] + values.shape)


def family_sup(dec: SpectralDecomposition, gvals, values, r) -> np.ndarray:
    """Pointwise sup over the rows g of a family of the fiber norms of g(L) F.

    ``gvals`` is (K, n) with K >= 1, or one row (n,); ``values`` is
    (n, ..., d) with the l^r fiber norm over the last axis, for instance
    the (n, d) columns of one field or a batch (n, T, d) of T fields; the
    result is a C-ordered array of shape ``values.shape[:-1]``.  A 1-d
    ``values`` is refused: it has no fiber axis, and read as one point it
    would sum the points.

    One pass per family: the coefficients ``V^T D F`` are computed once,
    then the rows are applied in blocks of at most FAMILY_BLOCK_ELEMENTS
    rows x columns, where a point holds ``values[0].size`` columns, each
    block by apply_multiplier's own product, so every value of g(L) F is
    bit for bit apply_multiplier's.  Each block is reduced at once from
    its planes, the squared modulus ``s = re^2 + im^2`` of each entry being
    the sum of two squared rows: ``sum_d s`` for r = 2, ``max_d s`` for
    r = inf, ``sum_d s^(r/2)`` otherwise, each in order of d; the block max
    over rows is kept, and one root per point, ``sqrt`` or ``**(1/r)``, is
    taken after the sup.

    The kernel is accurate while the entries of g(L) F have moduli between
    about 1.5e-154 and 1.3e154: the squared modulus overflows above and
    loses digits to underflow below.  The norm it replaces, the modulus of
    each entry raised to the power r, overflowed no later for r >= 2, but
    later for r < 2 and r = inf.
    """
    gvals, values = _checked(dec, np.atleast_2d(gvals), values)
    if gvals.shape[0] == 0:
        raise ValueError("a family needs at least one row")
    if values.ndim < 2:
        raise ValueError(f"field values need a fiber axis, (n, ..., d), got shape {values.shape}")
    coeff = _coefficients(dec, values)
    n, columns = coeff.shape
    rows = min(gvals.shape[0], max(1, FAMILY_BLOCK_ELEMENTS // max(1, columns)))
    # One allocation serves every block: g * coeff, the planes of the
    # product, and then, in the memory of g * coeff, the squared moduli.
    # Allocated anew for each block, these temporaries made `maxlab maximal
    # --n 48` up to a sixth slower in some heap layouts (set by the code's
    # size and even by the checkout's path), which fixing glibc's trim and
    # mmap thresholds also cured.
    scaled, product = np.empty((2, rows) + coeff.shape, np.result_type(gvals, coeff))
    planes = product.view(float).reshape(rows, -1, n)
    squares = scaled.reshape(-1).view(float)[:rows * columns * n].reshape(rows, columns, n)
    best = np.zeros(values.shape[1:-1] + (n,))
    for start in range(0, gvals.shape[0], rows):
        count = min(rows, gvals.shape[0] - start)
        block = _product(dec, gvals[start:start + count], coeff, (scaled[:count], planes[:count]))
        s = np.square(block, out=block)
        if np.iscomplexobj(scaled):
            s = np.add(block[:, 0::2], block[:, 1::2], out=squares[:count])
        s = s.reshape((count,) + values.shape[1:] + (n,))
        if math.isinf(r):
            s = s.max(axis=-2)
        else:
            if r != 2.0:
                s **= r / 2.0
            s = s.sum(axis=-2)
        np.maximum(best, s.max(axis=0), out=best)
    best = np.sqrt(best) if r in (2.0, math.inf) else best ** (1.0 / r)
    return np.ascontiguousarray(np.moveaxis(best, -1, 0))


def spectral_matrix(dec: SpectralDecomposition, gvals: np.ndarray) -> np.ndarray:
    """Matrix of ``g`` of the operator: ``V diag(g) V^T D`` with ``D = diag(mu)``."""
    gvals = np.asarray(gvals)
    if gvals.shape != dec.eigenvalues.shape:
        raise ValueError("need one multiplier value per eigenvalue")
    if not np.all(np.isfinite(gvals)):
        raise ValueError("spectral multiplier values must be finite")
    return (dec.eigenvectors * gvals[None, :]) @ (dec.eigenvectors.T * dec.space.mu[None, :])


# ---------------------------------------------------------------------------
# Complex Gamma via the Lanczos approximation, g = 7 with 9 coefficients.
# Below Re z = 1/2 the reflection formula is applied first.

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_POLE_RADIUS = 1e-8


def _lanczos_gamma(z: np.ndarray) -> np.ndarray:
    """Lanczos sum for Re z >= 1/2 (no reflection), vectorised."""
    zm1 = z - 1.0
    x = np.full(z.shape, _LANCZOS_COEFFS[0], dtype=complex)
    for i in range(1, len(_LANCZOS_COEFFS)):
        x = x + _LANCZOS_COEFFS[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (zm1 + 0.5) * np.exp(-t) * x


def gamma_values(z) -> np.ndarray:
    """Vectorised complex Gamma.  Inputs must stay clear of the poles."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    reflect = z.real < 0.5
    if np.any(reflect):
        zr = z[reflect]
        out[reflect] = math.pi / (np.sin(math.pi * zr) * _lanczos_gamma(1.0 - zr))
    if np.any(~reflect):
        out[~reflect] = _lanczos_gamma(z[~reflect])
    return out


def complex_gamma(z) -> complex:
    """Gamma(z) for a single complex argument.

    Raises GammaPoleError when z sits within 1e-8 of a pole (the
    non-positive integers).
    """
    z = complex(z)
    if abs(z.imag) < _POLE_RADIUS:
        k = round(z.real)
        if k <= 0 and abs(z - k) < _POLE_RADIUS:
            raise GammaPoleError(f"Gamma pole at {k}: |z - ({k})| = {abs(z - k):.2e}")
    return complex(gamma_values(np.asarray([z]))[0])


# ---------------------------------------------------------------------------
# Operator norms on weighted L^p.

def operator_norm(space: WeightedSpace, a: np.ndarray, p: float) -> float:
    """Exact weighted operator norm at the endpoints ``p in {1, inf}``.

    For p = inf this is the max weighted row sum (weights cancel); for
    p = 1 it is the max over columns j of ``sum_i mu_i |A_ij| / mu_j``.
    """
    a = np.asarray(a)
    n = space.n
    if a.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {a.shape}")
    p = float(p)
    mags = np.abs(a)
    if math.isinf(p):
        return float(mags.sum(axis=1).max())
    if p == 1.0:
        return float(((space.mu @ mags) / space.mu).max())
    raise ValueError("exact operator norms are available only at p = 1 and p = inf")


def _dual_sign_power(y: np.ndarray, e: float) -> np.ndarray:
    """Columnwise duality map ``y -> |y|^e * phase(y)``, each column scaled by its top magnitude.

    ``y`` is one matrix (n, m) or a stack (K, n, m); columns run along axis -2.
    """
    mags = np.abs(y)
    top = mags.max(axis=-2, keepdims=True)
    safe = np.where(mags > 0.0, mags, 1.0)
    # real divisions: a complex one by a subnormal magnitude overflows
    phase = y.real / safe + 1j * (y.imag / safe)
    return (mags / np.where(top > 0.0, top, 1.0)) ** e * phase


def _boyd_block(space: WeightedSpace, mats, p: float, trials: int, rng) -> np.ndarray:
    """Boyd/Higham lower bounds for a family of K matrices (n, n), one per matrix.

    Each matrix is conjugated to ``B = D^(1/p) A D^(-1/p)``, as complex, and
    iterated on a block of n + trials columns: the standard basis and the
    matrix's own ``trials`` seeded complex starts, drawn for the matrices in
    turn.  The family runs as one (K, n, n + trials) iteration.  A matrix is
    frozen once none of its columns grows, so it takes the steps, and gives
    the bits, it would alone; later steps work only on the matrices still
    active.
    """
    n = space.n
    for a in mats:
        if np.shape(a) != (n, n):
            raise ValueError(f"matrix must have shape ({n}, {n}), got {np.shape(a)}")
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"lower bounds need 1 < p < inf, got {p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    q = p / (p - 1.0)
    w = space.mu ** (1.0 / p)
    rows = np.arange(len(mats))
    starts = _gaussian_batch(rng, rows.size * trials, (n,)).reshape(-1, trials, n).swapaxes(1, 2)
    starts = starts / np.linalg.norm(starts, ord=p, axis=-2, keepdims=True)
    best = np.zeros((rows.size, n + trials))
    b = (w[:, None] * np.array(mats, dtype=complex).reshape(-1, n, n)) / w[None, :]
    x = np.concatenate([np.broadcast_to(np.eye(n), (rows.size, n, n)), starts], axis=-1)
    for step in range(30):
        y = b @ x
        gamma = np.linalg.norm(y, ord=p, axis=-2)
        seen = best[rows]
        grew = (gamma > seen + 1e-15 * np.maximum(seen, 1.0)).any(axis=-1)
        best[rows] = np.maximum(seen, gamma)
        if step == 29 or not grew.any():
            break
        rows, b, y = rows[grew], b[grew], y[grew]
        direction = _dual_sign_power(b.conj().swapaxes(-1, -2) @ _dual_sign_power(y, p - 1.0),
                                     q - 1.0)
        scale = np.linalg.norm(direction, ord=p, axis=-2, keepdims=True)
        x = direction / np.where(scale > 0.0, scale, 1.0)
    return best.max(axis=-1)


def operator_norm_lower_bound(space: WeightedSpace, a: np.ndarray, p: float,
                              trials: int = 100, seed=0) -> float:
    """Certified lower bound for the weighted L^p -> L^p operator norm.

    Works on the unweighted conjugate ``B = D^(1/p) A D^(-1/p)``.  The
    starts are the n standard basis vectors (exact for diagonal matrices)
    and ``trials`` seeded complex Gaussian vectors, iterated together as
    the columns of one block by the Boyd/Higham p-norm power iteration.
    Every iterate yields a genuine ratio ``||B x||_p / ||x||_p``, so the
    best one seen is never an overestimate.  The iteration stops once no
    column grows, or after 30 steps.  This is the family kernel of
    multiplier_norm_bounds run on one matrix.
    """
    return float(_boyd_block(space, [a], p, trials, np.random.default_rng(seed))[0])


def multiplier_norm_bounds(dec: SpectralDecomposition, gvals, p: float,
                           trials: int = 100, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the weighted L^p norm of g(L), one pair per row g.

    ``gvals`` holds rows (K, n) of multiplier values on the spectrum.  A
    function of a mu-selfadjoint L is normal in L^2(mu), so at p = 2 both
    bounds are the exact norm ``max_k |g(lambda_k)|`` and no matrix is
    built.  Elsewhere the rows' matrices share one Boyd/Higham iteration,
    _boyd_block, whose lower bound for each row equals, bit for bit,
    operator_norm_lower_bound on that row's matrix with the rows drawing
    in turn from one generator made from ``seed``.  The upper bound is
    Riesz-Thorin between 2 and the nearer endpoint e in {1, inf},
    ``||T||_2^(1 - theta) ||T||_e^theta`` with ``theta = |2/p - 1|``.  Each
    row's matrix is built from the row as given, complex for complex rows.
    """
    gvals = np.atleast_2d(gvals)
    p = float(p)
    if gvals.ndim != 2 or gvals.shape[1] != dec.n:
        raise ValueError(f"need rows of {dec.n} multiplier values, got shape {gvals.shape}")
    if not np.all(np.isfinite(gvals)):
        raise ValueError("spectral multiplier values must be finite")
    exact = np.abs(gvals).max(axis=1)
    if p == 2.0:
        return exact, exact.copy()
    theta = abs(2.0 / p - 1.0)
    endpoint = 1.0 if p < 2.0 else math.inf
    mats = [spectral_matrix(dec, g) for g in gvals]
    lower = _boyd_block(dec.space, mats, p, trials, np.random.default_rng(seed))
    # one scalar pow per row: numpy's vectorised pow rounds differently
    upper = np.array([exact[k] ** (1.0 - theta) * operator_norm(dec.space, m, endpoint) ** theta
                      for k, m in enumerate(mats)])
    return lower, upper
