"""Reference constructions that only the tests use.

``scalar_field`` builds the tests' scalar fields, the Bochner fields of
fiber dimension d = 1.  The field maps (evolve, imaginary_power,
ergodic_average, apply_m_theta, each through apply_to_field) and the
scalar multipliers m_theta and n_hat apply one multiplier or take one
value at a time; the library computes the same quantities in batches.
Most of the rest are a second route to a quantity that `maxlab`
computes another way: the dyadic chain of increment moduli to the closed
form exp(-t L_hat) of the modulus semigroup, the product of increment
moduli to the chain's repeated squaring, the dense L^(iu) matrix to the
spectral calculus on fields, a complex matrix product with V cast to
complex to the multiplier kernel's real product on the float view, the
three terms of the sector decomposition applied one at a time to its
batched residuals, and the per-trial and per-angle loops that the
modulus checks and the Mellin quadrature table replaced with one array
pass.  The grid refinements check that grid suprema never decrease as
nodes are added.
"""

import math

import numpy as np

from maxlab.core import (
    ABS_TOL,
    BanachNormDescriptor,
    BochnerField,
    bochner_norm,
    field_parts,
    lp_norm,
    random_field,
)
from maxlab.ergodic import _averaging_values
from maxlab.mellin import _m_theta_values, _n_hat_values, mellin_reconstruct
from maxlab.modulus import (
    DOMINATION_T_GRID,
    SUBPOSITIVITY_THETAS,
    DominationReport,
    SubpositivityReport,
    modulus_generator,
)
from maxlab.semigroup import SectorGrid, _imaginary_power_values, semigroup_matrix
from maxlab.spectral import (
    apply_multiplier,
    eigen_residual,
    orthonormality_defect,
    spectral_matrix,
)


def scalar_field(values) -> BochnerField:
    """The scalar field ``values`` (n,) as a Bochner field of fiber dimension d = 1 (l^2)."""
    return BochnerField(np.asarray(values)[:, None], BanachNormDescriptor(1, 2.0))


def apply_to_field(dec, gvals, f) -> BochnerField:
    """apply_multiplier with one row on a Bochner field; returns a field of the same descriptor."""
    values, _ = field_parts(dec.space, f)
    return f.replace_values(apply_multiplier(dec, gvals, values))


def evolve(gen, z, f) -> BochnerField:
    """Apply exp(-z L) columnwise to a Bochner field; needs Re z >= 0."""
    z = complex(z)
    if z.real < 0.0:
        raise ValueError(f"evolution requires Re z >= 0, got z = {z}")
    return apply_to_field(gen.decomposition, np.exp(-z * gen.decomposition.eigenvalues), f)


def imaginary_power(gen, u: float, f) -> BochnerField:
    """Apply L^(iu) to a Bochner field; an isometry of weighted L^2."""
    gvals = _imaginary_power_values(gen.decomposition.eigenvalues, float(u))
    return apply_to_field(gen.decomposition, gvals, f)


def ergodic_average(gen, t: float, f) -> BochnerField:
    """Closed-form time average (1/t) int_0^t exp(-s L) f ds of a Bochner field."""
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"averaging time must be positive and finite, got {t}")
    return apply_to_field(gen.decomposition, _averaging_values(gen.decomposition.eigenvalues, t), f)


def m_theta(theta: float, lam: float) -> complex:
    """Multiplier exp(-e^{i theta} lambda) - (1 - e^{-lambda})/lambda, 0 at lambda = 0."""
    theta = float(theta)
    if not abs(theta) < math.pi / 2.0:
        raise ValueError(f"multiplier angle must satisfy |theta| < pi/2, got {theta}")
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"multiplier argument must be nonnegative, got {lam}")
    return complex(_m_theta_values(theta, np.asarray([lam]))[0])


def n_hat(theta: float, u: float) -> complex:
    """Fourier dual of the multiplier; the removable singularity at u = 0 is -(1 + i theta)."""
    return complex(_n_hat_values(float(theta), np.asarray([float(u)]))[0])


def apply_m_theta(gen, theta: float, t: float, field) -> BochnerField:
    """m_theta(t L) on a Bochner field, via the direct formula.

    The direct formula is defined on the whole spectrum including the
    kernel (m_theta(0) = 0), so no Mellin representation is involved here.
    """
    theta = float(theta)
    if not abs(theta) < math.pi / 2.0:
        raise ValueError(f"multiplier angle must satisfy |theta| < pi/2, got {theta}")
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be positive and finite, got {t}")
    gvals = _m_theta_values(theta, t * gen.decomposition.eigenvalues)
    return apply_to_field(gen.decomposition, gvals, field)


def dyadic_modulus_semigroup(gen, t: float, level: int) -> np.ndarray:
    """Level ``level`` of the dyadic chain: |exp(-dt L)|^(2^level), dt = t / 2^level.

    The power is taken by ``level`` squarings.  The levels rise entrywise
    and tend to exp(-t L_hat) at rate 2^(-level); no stopping rule is applied.
    """
    out = np.abs(semigroup_matrix(gen, t / 2.0**level))
    for _ in range(level):
        out = out @ out
    return out


def dyadic_modulus_product(gen, t: float, level: int, f) -> np.ndarray:
    """Product of |exp(-dt L)| over the 2^level equal steps dt of [0, t], applied to f >= 0.

    The step of the first interval acts last.  Refining can only increase
    the result entrywise.
    """
    out = np.asarray(f, dtype=float)
    for dt in np.diff(np.linspace(0.0, float(t), 2**level + 1))[::-1]:
        out = np.abs(semigroup_matrix(gen, dt)) @ out
    return out


def imaginary_power_matrix(gen, u: float) -> np.ndarray:
    """Matrix of L^(iu) under the kernel convention 0^(iu) := 1."""
    lam = gen.decomposition.eigenvalues
    gvals = np.ones(lam.shape, dtype=complex)
    pos = lam > 0.0
    gvals[pos] = np.exp(1j * float(u) * np.log(lam[pos]))
    return spectral_matrix(gen.decomposition, gvals)


def complex_multiplier_product(dec, gvals, coeff) -> np.ndarray:
    """``V (g * coeff)`` as one complex matrix product: ``gvals.shape[:-1] + coeff.shape``.

    For complex rows or coefficients the real V is cast to complex, so the
    product is a zgemm, half of whose multiplications are by the zero
    imaginary part of V.
    """
    scaled = np.asarray(gvals)[..., None] * coeff
    return np.asarray(dec.eigenvectors, dtype=scaled.dtype) @ scaled


def total_mass(space) -> float:
    """mu(X), the sum of the point masses."""
    return float(space.mu.sum())


def refine_sector_grid(grid: SectorGrid) -> SectorGrid:
    """Twice the density, same endpoints; every node of ``grid`` is kept."""
    radii = np.geomspace(grid.radii[0], grid.radii[-1], 2 * grid.radii.size - 1)
    if grid.angles.size == 1:
        angles = grid.angles
    else:
        angles = np.linspace(grid.angles[0], grid.angles[-1], 2 * grid.angles.size - 1)
    return SectorGrid(grid.psi, radii, angles)


def time_grid(refinement: int) -> np.ndarray:
    """Geometric grid on [1e-4, 1e3] with 56 * 2^refinement + 1 nodes.

    Refinement 0 is ``ergodic.DEFAULT_ERGODIC_T_GRID``; each refinement
    doubles the density and keeps every node.
    """
    return np.geomspace(1e-4, 1e3, 56 * 2**refinement + 1)


def decomposition_residual_by_parts(gen, z, field) -> float:
    """Bochner 2-norm of exp(-zL)F - A_t F - m_theta(tL)F, t = |z|, theta = arg z.

    Each term is its own multiplier call (evolve, ergodic_average,
    apply_m_theta), as the decomposition residual was computed before the
    residuals of a generator were batched.  ``field`` is one Bochner field.
    """
    z = complex(z)
    t = abs(z)
    theta = math.atan2(z.imag, z.real)
    parts = [evolve(gen, z, field), ergodic_average(gen, t, field),
             apply_m_theta(gen, theta, t, field)]
    lhs, avg, mpart = (part.values for part in parts)
    return bochner_norm(gen.space, field.replace_values(lhs - avg - mpart), 2.0)


def verify_domination_by_trial(gen, trials: int = 20, seed: int = 0) -> DominationReport:
    """verify_domination with one field drawn, moved and measured at a time.

    Each field is two draws, real then imaginary parts, T and S act by
    ``T @ f`` and every norm is one lp_norm call.
    """
    hat = modulus_generator(gen)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    worst_norm = -math.inf
    checked = 0
    for t in DOMINATION_T_GRID:
        t_matrix = semigroup_matrix(gen, t)
        s_matrix = semigroup_matrix(hat, t)
        for _ in range(trials):
            f = rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n)
            f /= np.abs(f).max()
            lhs = np.abs(t_matrix @ f)
            rhs = s_matrix @ np.abs(f)
            worst = max(worst, float((lhs - rhs).max()))
            for p in (1.5, 2.0, 3.0):
                excess = lp_norm(gen.space, t_matrix @ f, p) - lp_norm(gen.space, rhs, p)
                worst_norm = max(worst_norm, excess)
            checked += 1
    passed = worst <= ABS_TOL and worst_norm <= ABS_TOL
    return DominationReport(passed=bool(passed), max_violation=float(worst),
                            max_norm_excess=float(worst_norm), checked=checked,
                            eigen_residual=eigen_residual(hat.operator, hat.decomposition),
                            orthonormality_defect=orthonormality_defect(hat.decomposition))


def subpositivity_suite_by_trial(space, t_matrix, s_matrix, p: float, descriptor,
                                 trials: int = 20, seed: int = 0) -> SubpositivityReport:
    """subpositivity_suite with one family and one tensor field at a time.

    Every family member and field is moved by its own ``T @ f``, the
    tensor field through a BochnerField, and every norm is one lp_norm or
    bochner_norm call.  The input checks are subpositivity_suite's.
    """
    t_matrix = np.asarray(t_matrix)
    s_matrix = np.asarray(s_matrix)
    n = space.n
    if t_matrix.shape != (n, n) or s_matrix.shape != (n, n):
        raise ValueError(f"T and S must both have shape ({n}, {n})")
    if not (np.all(np.isfinite(t_matrix)) and np.all(np.isfinite(s_matrix))):
        raise ValueError("T and S must have finite entries")
    if s_matrix.min() < -ABS_TOL:
        raise ValueError("candidate majorant S must be entrywise nonnegative")
    rng = np.random.default_rng(seed)

    sup_margin = -math.inf
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        family = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        lhs = lp_norm(space, np.maximum.reduce([np.abs(t_matrix @ g) for g in family]), p)
        rhs = lp_norm(space, np.maximum.reduce([np.abs(g) for g in family]), p)
        sup_margin = max(sup_margin, lhs - rhs - ABS_TOL * max(1.0, rhs))

    tensor_margin = -math.inf
    for _ in range(trials):
        field = random_field(rng, n, descriptor)
        lhs = bochner_norm(space, field.replace_values(t_matrix @ field.values), p)
        rhs = bochner_norm(space, field, p)
        tensor_margin = max(tensor_margin, lhs - rhs - ABS_TOL * max(1.0, rhs))

    positivity_min = positivity_min_by_angle(t_matrix, s_matrix)

    sup_passed = sup_margin <= 0.0
    tensor_passed = tensor_margin <= 0.0
    positivity_passed = positivity_min >= -ABS_TOL
    return SubpositivityReport(
        passed=bool(sup_passed and tensor_passed and positivity_passed),
        sup_margin=float(sup_margin), tensor_margin=float(tensor_margin),
        positivity_min=float(positivity_min), sup_passed=bool(sup_passed),
        tensor_passed=bool(tensor_passed), positivity_passed=bool(positivity_passed))


def positivity_min_by_angle(t_matrix, s_matrix) -> float:
    """Least entry of S + Re(e^{i theta} T), one angle of SUBPOSITIVITY_THETAS at a time."""
    least = math.inf
    for theta in SUBPOSITIVITY_THETAS:
        least = min(least, float((s_matrix + (np.exp(1j * theta) * t_matrix).real).min()))
    return least


def reconstruction_rows_by_angle(U: float, h: float, psi: float = math.pi / 4.0) -> list:
    """The rows of cli._reconstruction_rows with one quadrature call per angle.

    Each direct value is one m_theta call.
    """
    thetas = [t for t in (0.0, math.pi / 8.0, -math.pi / 8.0, math.pi / 4.0, -math.pi / 4.0)
              if abs(t) <= psi + 1e-15]
    lams = np.geomspace(1e-2, 1e2, 25)
    return [(theta, float(lam), abs(complex(rec) - m_theta(theta, float(lam))))
            for theta in thetas
            for lam, rec in zip(lams, mellin_reconstruct(theta, lams, U=U, h=h))]
