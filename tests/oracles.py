"""Reference constructions that only the tests use.

``scalar_field`` builds the tests' scalar fields, the Bochner fields of
fiber dimension d = 1.  Most of the rest are a second route to a
quantity that `maxlab` computes another way: the modulus generator to
the dyadic modulus semigroup, the product of increment moduli to its
repeated squaring, the dense L^(iu) matrix to the spectral calculus on
fields, and the three terms of the sector decomposition applied one at
a time to its batched residuals.  The grid refinements check that grid
suprema never decrease as nodes are added.
"""

import math

import numpy as np

from maxlab.core import BanachNormDescriptor, BochnerField, bochner_norm
from maxlab.ergodic import ergodic_average
from maxlab.mellin import apply_m_theta
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
    apply_m_theta), as decomposition_residual computed it before the
    residuals of a generator were batched.  ``field`` is one Bochner field.
    """
    z = complex(z)
    t = abs(z)
    theta = math.atan2(z.imag, z.real)
    parts = [evolve(gen, z, field), ergodic_average(gen, t, field),
             apply_m_theta(gen, theta, t, field)]
    lhs, avg, mpart = (part.values for part in parts)
    return bochner_norm(gen.space, field.replace_values(lhs - avg - mpart), 2.0)
