"""Reference constructions that only the tests use.

``scalar_field`` builds the tests' scalar fields, the Bochner fields of
fiber dimension d = 1.  Most of the rest are a second route to a
quantity that `maxlab` computes another way: the modulus generator to
the dyadic modulus semigroup, the product of increment moduli to its
repeated squaring, the dense L^(iu) matrix to the spectral calculus on
fields, a complex matrix product with V cast to complex to the
multiplier kernel's real product on the float view, the three terms of
the sector decomposition applied one at a time to its batched
residuals, and the per-trial and per-angle loops that the modulus
checks and the Mellin quadrature table replaced with one array pass.
The grid refinements check that grid suprema never decrease as nodes
are added.
"""

import math

import numpy as np

from maxlab.core import (
    ABS_TOL,
    BanachNormDescriptor,
    BochnerField,
    bochner_norm,
    lp_norm,
    random_field,
)
from maxlab.ergodic import ergodic_average
from maxlab.mellin import apply_m_theta, m_theta, mellin_reconstruct
from maxlab.modulus import (
    DOMINATION_T_GRID,
    SUBPOSITIVITY_THETAS,
    DominationReport,
    SubpositivityReport,
    modulus_semigroup,
)
from maxlab.semigroup import DiffusionGenerator, SectorGrid, evolve, semigroup_matrix
from maxlab.spectral import MuSymmetricOperator, spectral_matrix


def scalar_field(values) -> BochnerField:
    """The scalar field ``values`` (n,) as a Bochner field of fiber dimension d = 1 (l^2)."""
    return BochnerField(np.asarray(values)[:, None], BanachNormDescriptor(1, 2.0))


def modulus_generator(gen) -> DiffusionGenerator:
    """Diffusion generator of the modulus semigroup.

    Keeps the diagonal of L and replaces every off-diagonal entry by minus
    its absolute value; the dyadic construction stabilises on the
    semigroup of this generator.
    """
    ell = gen.matrix.copy()
    off = ~np.eye(gen.n, dtype=bool)
    ell[off] = -np.abs(ell[off])
    return DiffusionGenerator(MuSymmetricOperator(gen.space, ell))


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
    rng = np.random.default_rng(seed)
    worst = -math.inf
    worst_norm = -math.inf
    checked = 0
    for t in DOMINATION_T_GRID:
        t_matrix = semigroup_matrix(gen, t)
        s_matrix = modulus_semigroup(gen, t).S_t
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
                            max_norm_excess=float(worst_norm), checked=checked)


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
