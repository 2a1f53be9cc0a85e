"""Spectral calculus for mu-selfadjoint operators on weighted spaces.

A real matrix A is mu-selfadjoint when ``mu_i A_ij == mu_j A_ji``.
Conjugating by ``D^(1/2)`` with ``D = diag(mu)`` turns A into an ordinary
symmetric matrix, which a cyclic Jacobi sweep diagonalises; pulling the
eigenvectors back gives a mu-orthonormal eigenbasis.  Every function of
the operator acting on a field goes through one kernel, apply_multiplier,
and every maximal function through its pointwise sup, family_sup.

The module also carries a Lanczos evaluation of the complex Gamma
function (needed by the multiplier transforms downstream) and exact
endpoint operator norms plus randomized certified lower bounds for the
intermediate exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    BochnerField,
    ToleranceConfig,
    WeightedSpace,
    fiber_norm,
    field_parts,
    lp_norm,
)

__all__ = [
    "MuSymmetricOperator",
    "SpectralDecomposition",
    "JacobiConvergenceError",
    "GammaPoleError",
    "decompose",
    "apply_multiplier",
    "apply_to_field",
    "family_sup",
    "spectral_matrix",
    "complex_gamma",
    "gamma_values",
    "operator_norm",
    "operator_norm_lower_bound",
]

# Eigenvalues below this relative threshold are snapped to exact zero so
# that kernel conventions (g(0) := 1 for imaginary powers, phi_t(0) := 1
# for ergodic averages) fire deterministically.
KERNEL_SNAP_REL = 1e-12

# Jacobi termination: off-diagonal Frobenius mass below this multiple of
# the initial Frobenius norm counts as diagonal.
JACOBI_REL_THRESHOLD = 1e-13
JACOBI_SWEEP_CAP = 100

# Multiplier rows applied at a time by family_sup.  A block holds
# (32, n, d) complex values; one block for all 216 sector nodes raised the
# peak RSS of `maxlab maximal --n 48` by 18%, 32-row blocks by 5%.
FAMILY_BLOCK = 32


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reach the off-diagonal threshold within the sweep cap."""


class GammaPoleError(ValueError):
    """Gamma evaluated too close to a pole at a non-positive integer."""


@dataclass(frozen=True)
class MuSymmetricOperator:
    """Real matrix acting on fields over ``space``, selfadjoint in the mu inner product."""

    space: WeightedSpace
    entries: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

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
        scale = max(1.0, float(np.abs(w).max()))
        if skew > self.tol.abs_tol * scale:
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

    @property
    def n(self) -> int:
        return self.space.n


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


def decompose(op: MuSymmetricOperator) -> SpectralDecomposition:
    """Diagonalise a mu-selfadjoint operator.

    The operator is symmetrised by conjugation with ``diag(sqrt(mu))``,
    run through cyclic Jacobi, and the eigenvectors are pulled back so the
    columns are mu-orthonormal.  Eigenvalues whose magnitude falls below
    ``1e-12 * max|lambda|`` are snapped to exact zero.
    """
    s = np.sqrt(op.space.mu)
    m = (s[:, None] * op.entries) / s[None, :]
    m = 0.5 * (m + m.T)
    w, vecs = _jacobi_eigh(m)
    order = np.argsort(w, kind="stable")
    w = w[order]
    vecs = vecs[:, order] / s[:, None]
    # deterministic sign: make the largest-magnitude component positive
    for k in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[i, k] < 0.0:
            vecs[:, k] = -vecs[:, k]
    scale = float(np.abs(w).max(initial=0.0))
    if scale > 0.0:
        w[np.abs(w) < KERNEL_SNAP_REL * scale] = 0.0
    return SpectralDecomposition(op.space, w, vecs)


def apply_multiplier(dec: SpectralDecomposition, gvals, values) -> np.ndarray:
    """Apply spectral multipliers to a field: ``V (g * V^T D F)`` with ``D = diag(mu)``.

    ``gvals`` holds one value per eigenvalue, as one row (n,) or a family
    of rows (K, n); ``values`` is a scalar field (n,) or an (n, d) array
    of columns.  The result has shape ``gvals.shape[:-1] + values.shape``,
    one field per row.
    """
    gvals = np.asarray(gvals)
    values = np.asarray(values)
    n = dec.n
    if gvals.ndim not in (1, 2) or gvals.shape[-1] != n:
        raise ValueError(f"need rows of {n} multiplier values, got shape {gvals.shape}")
    if values.ndim not in (1, 2) or values.shape[0] != n:
        raise ValueError(f"field values must have {n} rows, got shape {values.shape}")
    if not np.all(np.isfinite(gvals)):
        raise ValueError("spectral multiplier values must be finite")
    cols = values.reshape(n, -1)
    coeff = dec.eigenvectors.T @ (dec.space.mu[:, None] * cols)
    out = dec.eigenvectors @ (gvals[..., None] * coeff)
    return out.reshape(gvals.shape[:-1] + values.shape)


def apply_to_field(dec: SpectralDecomposition, gvals, f):
    """apply_multiplier with one row on a scalar or Bochner field; returns the same kind."""
    values, _ = field_parts(dec.space, f)
    out = apply_multiplier(dec, gvals, values)
    return f.replace_values(out) if isinstance(f, BochnerField) else out


def family_sup(dec: SpectralDecomposition, gvals, values, r) -> np.ndarray:
    """Pointwise sup over the rows g of a family of the fiber norms of g(L) F.

    ``gvals`` is (K, n), or one row (n,); ``values`` is a scalar field (n,),
    whose fiber norm is the modulus (``r`` is unused), or (n, d) columns
    with the l^r fiber norm.  Rows are applied FAMILY_BLOCK at a time.
    """
    gvals = np.atleast_2d(gvals)
    best = np.zeros(dec.n)
    for start in range(0, gvals.shape[0], FAMILY_BLOCK):
        block = apply_multiplier(dec, gvals[start:start + FAMILY_BLOCK], values)
        norms = np.abs(block) if block.ndim == 2 else fiber_norm(block, r)
        best = np.maximum(best, norms.max(axis=0))
    return best


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
        z = b.conj().T @ _dual_sign_power(y, p - 1.0)
        direction = _dual_sign_power(z, q - 1.0)
        scale = np.linalg.norm(direction, ord=p)
        if scale == 0.0:
            break
        x = direction / scale
    return best


def operator_norm_lower_bound(space: WeightedSpace, a: np.ndarray, p: float,
                              trials: int = 100, seed=0) -> float:
    """Certified lower bound for the weighted L^p -> L^p operator norm.

    Works on the unweighted conjugate ``B = D^(1/p) A D^(-1/p)``.  Every
    standard basis vector is tried, then ``trials`` seeded complex
    Gaussian starts are refined by the p-norm power iteration; the
    returned value is the best Rayleigh-type ratio seen, hence never an
    overestimate.
    """
    a = np.asarray(a)
    n = space.n
    if a.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {a.shape}")
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"lower bounds need 1 < p < inf, got {p}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    w = space.mu ** (1.0 / p)
    b = (w[:, None] * a) / w[None, :]

    best = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        f = e / w  # basis vector in field coordinates, so the ratio is exact for diagonals
        best = max(best, lp_norm(space, a @ f, p) / lp_norm(space, f, p))
    for _ in range(trials):
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        best = max(best, _boyd_refine(b, x0, p))
    return best
