"""Contraction semigroups generated by mu-selfadjoint matrices.

A diffusion generator is ``L = c (I - P)`` with P entrywise nonnegative,
mu-symmetric and substochastic; the semigroup ``exp(-t L)`` is then
positivity preserving and an endpoint contraction for every t >= 0.
Dropping the sign constraint on the off-diagonal entries gives the wider
contraction-only class, realised here by conjugating a diffusion
generator with a diagonal sign matrix (which leaves all endpoint norms
unchanged but flips off-diagonal signs).

Holomorphic evolution ``exp(-z L)``, imaginary powers ``L^(iu)`` and the
sector geometry used by the probes all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    ToleranceConfig,
    WeightedSpace,
)
from .spectral import (
    MuSymmetricOperator,
    SpectralDecomposition,
    apply_to_field,
    decompose,
    operator_norm,
    operator_norm_lower_bound,
    spectral_matrix,
)

__all__ = [
    "ContractionSemigroupGenerator",
    "DiffusionGenerator",
    "ContractionReport",
    "SectorProbeReport",
    "SectorGrid",
    "EnsembleSpec",
    "DEFAULT_T_GRID",
    "random_generator",
    "build_ensemble",
    "exemplar_contraction_generator",
    "semigroup_matrix",
    "evolve",
    "imaginary_power",
    "imaginary_power_matrix",
    "stein_angle",
    "verify_contraction_property",
    "sector_contraction_probe",
]

# Contract grid on which the contraction property of every generator is
# checked: 24 geometric times spanning [1e-3, 1e2].
DEFAULT_T_GRID = np.geomspace(1e-3, 1e2, 24)


class ContractionSemigroupGenerator:
    """Positive semidefinite mu-selfadjoint generator of an endpoint-contractive semigroup.

    No sign pattern is imposed on the matrix; the contraction property at
    p = 1 and p = infinity over the documented time grid is part of the
    contract and is checked at construction unless ``validate=False``.
    """

    kind = "contraction"

    def __init__(self, operator: MuSymmetricOperator, tol: ToleranceConfig = DEFAULT_TOL,
                 validate: bool = True):
        self.operator = operator
        self.tol = tol
        if validate:
            self._validate()

    @property
    def space(self) -> WeightedSpace:
        return self.operator.space

    @property
    def n(self) -> int:
        return self.operator.space.n

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.entries

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        return decompose(self.operator)

    @property
    def injective(self) -> bool:
        return bool(np.all(self.decomposition.eigenvalues > 0.0))

    def _validate(self) -> None:
        lam_min = float(self.decomposition.eigenvalues.min())
        if lam_min < -self.tol.abs_tol:
            raise ValueError(f"generator is not positive semidefinite: min eigenvalue {lam_min:.3e}")
        report = verify_contraction_property(self, tol=self.tol)
        if not report.passed:
            raise ValueError(
                f"semigroup is not an endpoint contraction on the contract grid: "
                f"worst norm {report.worst_norm:.12f} at t = {report.worst_t:.3e}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, injective={self.injective})"


class DiffusionGenerator(ContractionSemigroupGenerator):
    """Generator c(I - P) with P nonnegative, mu-symmetric and substochastic.

    Equivalently: nonpositive off-diagonal entries, nonnegative row sums
    and weighted column sums, positive semidefinite.  The semigroup is
    positivity preserving on top of the endpoint contraction property.
    """

    kind = "diffusion"

    def _validate(self) -> None:
        a = self.operator.entries
        tol = self.tol.abs_tol
        off = a - np.diag(a.diagonal())
        worst_off = float(off.max(initial=0.0))
        if worst_off > tol:
            raise ValueError(f"diffusion generator needs nonpositive off-diagonal entries, max {worst_off:.3e}")
        row_min = float(a.sum(axis=1).min())
        if row_min < -tol:
            raise ValueError(f"diffusion generator needs nonnegative row sums, min {row_min:.3e}")
        # mu-symmetry makes the weighted column sums mu_j times the row sums,
        # so no separate check is needed.
        super()._validate()


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of an endpoint contraction check over a time grid."""

    passed: bool
    worst_norm: float
    worst_t: float
    worst_p: float


@dataclass(frozen=True)
class SectorProbeReport:
    """Outcome of a sector contraction probe; rows are (z_re, z_im, p, norm_lb)."""

    passed: bool
    worst_norm: float
    rows: tuple


@dataclass(frozen=True)
class SectorGrid:
    """Finite probe grid in the closed sector |arg z| <= psi.

    Radii are geometric and strictly increasing, angles uniform over
    [-psi, psi].  ``refine`` doubles the density while keeping every
    existing node, so suprema over the refined grid never decrease.
    """

    psi: float
    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        psi = float(self.psi)
        if not (0.0 <= psi < math.pi / 2.0):
            raise ValueError(f"sector half-angle must lie in [0, pi/2), got {psi}")
        radii = np.asarray(self.radii, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if radii.ndim != 1 or radii.size == 0 or not np.all(radii > 0.0):
            raise ValueError("radii must be a non-empty 1-d array of positive times")
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles must be a non-empty 1-d array")
        if np.any(np.abs(angles) > psi + 1e-15):
            raise ValueError("all angles must lie in [-psi, psi]")
        if angles.size > 1 and np.any(np.diff(angles) <= 0.0):
            raise ValueError("angles must be strictly increasing")
        object.__setattr__(self, "psi", psi)
        radii = radii.copy()
        radii.setflags(write=False)
        angles = angles.copy()
        angles.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)

    @classmethod
    def default(cls, psi: float, t_min: float = 1e-3, t_max: float = 1e2,
                n_radii: int = 24, n_angles: int = 9) -> "SectorGrid":
        if not (0.0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        if n_radii < 1 or n_angles < 1:
            raise ValueError("need at least one radius and one angle")
        radii = np.geomspace(t_min, t_max, n_radii)
        if psi == 0.0:
            angles = np.zeros(1)
        else:
            angles = np.linspace(-psi, psi, n_angles)
        return cls(psi, radii, angles)

    def refine(self) -> "SectorGrid":
        """Twice the density, same endpoints; the node set grows monotonically."""
        radii = np.geomspace(self.radii[0], self.radii[-1], 2 * self.radii.size - 1)
        if self.angles.size == 1:
            angles = self.angles
        else:
            angles = np.linspace(self.angles[0], self.angles[-1], 2 * self.angles.size - 1)
        return SectorGrid(self.psi, radii, angles)

    def points(self) -> np.ndarray:
        """All grid nodes z = t * exp(i theta), radius-major order."""
        return np.asarray([t * complex(math.cos(th), math.sin(th))
                           for t in self.radii for th in self.angles])


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a seeded family of generators."""

    n: int = 8
    count: int = 50
    kind: str = "diffusion"
    c: float = 1.0
    injective: bool = True

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"ensemble size n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.count, (int, np.integer)) and self.count >= 1):
            raise ValueError(f"ensemble count must be a positive integer, got {self.count!r}")
        if self.kind not in ("diffusion", "contraction", "identity"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not (float(self.c) > 0.0 and math.isfinite(float(self.c))):
            raise ValueError(f"rate scale c must be positive and finite, got {self.c!r}")


# Seeds of ensemble members are spread out deterministically from the base
# seed; the stride is an arbitrary odd prime so members never collide.
_SEED_STRIDE = 1000003


def random_generator(n: int, seed, kind: str = "diffusion", c: float = 1.0,
                     injective: bool = True):
    """Draw a seeded generator on a random weighted space.

    The masses are uniform in [0.5, 2], the kernel is a symmetric uniform
    matrix scaled so the largest row sum of P lands in [0.6, 0.95], which
    keeps the generator injective by construction.  ``kind="contraction"``
    conjugates the diffusion draw by random signs, producing positive
    off-diagonal entries while preserving every endpoint norm.  If a
    kernel is detected and ``injective`` is requested, the floor
    ``L + 1e-3 I`` is applied.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("diffusion", "contraction"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"rate scale c must be positive and finite, got {c!r}")
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 2.0, n)
    space = WeightedSpace(mu)
    q = rng.uniform(0.0, 1.0, (n, n))
    q = 0.5 * (q + q.T)
    p = q / mu[:, None]
    target = rng.uniform(0.6, 0.95)
    p *= target / p.sum(axis=1).max()
    ell = c * (np.eye(n) - p)

    signs = None
    if kind == "contraction" and n >= 2:
        signs = rng.choice(np.array([-1.0, 1.0]), size=n)
        if np.all(signs == signs[0]):
            signs[int(rng.integers(n))] *= -1.0

    gen = DiffusionGenerator(MuSymmetricOperator(space, ell))
    if injective and not gen.injective:
        ell = ell + 1e-3 * np.eye(n)
        gen = DiffusionGenerator(MuSymmetricOperator(space, ell))
    if signs is None:
        return gen
    flipped = signs[:, None] * gen.matrix * signs[None, :]
    return ContractionSemigroupGenerator(MuSymmetricOperator(space, flipped))


def build_ensemble(spec: EnsembleSpec, seed: int) -> list:
    """Seeded list of (member_seed, generator) pairs."""
    members = []
    for i in range(spec.count):
        member_seed = int(seed) + _SEED_STRIDE * i
        if spec.kind == "identity":
            rng = np.random.default_rng(member_seed)
            space = WeightedSpace(rng.uniform(0.5, 2.0, spec.n))
            gen = DiffusionGenerator(MuSymmetricOperator(space, np.zeros((spec.n, spec.n))))
        else:
            gen = random_generator(spec.n, member_seed, kind=spec.kind, c=spec.c,
                                   injective=spec.injective)
        members.append((member_seed, gen))
    return members


def exemplar_contraction_generator() -> ContractionSemigroupGenerator:
    """The 2x2 all-ones generator: contractive but not positivity preserving."""
    space = WeightedSpace(np.ones(2))
    return ContractionSemigroupGenerator(MuSymmetricOperator(space, np.ones((2, 2))))


def semigroup_matrix(gen, z) -> np.ndarray:
    """Matrix of exp(-z L); real for real nonnegative z."""
    z = complex(z)
    if z.real < 0.0:
        raise ValueError(f"evolution requires Re z >= 0, got z = {z}")
    lam = gen.decomposition.eigenvalues
    if z.imag == 0.0:
        return spectral_matrix(gen.decomposition, np.exp(-z.real * lam))
    return spectral_matrix(gen.decomposition, np.exp(-z * lam))


def evolve(gen, z, f):
    """Apply exp(-z L) to a scalar field, or columnwise to a Bochner field; needs Re z >= 0."""
    z = complex(z)
    if z.real < 0.0:
        raise ValueError(f"evolution requires Re z >= 0, got z = {z}")
    return apply_to_field(gen.decomposition, np.exp(-z * gen.decomposition.eigenvalues), f)


def _imaginary_power_values(lam: np.ndarray, u: float) -> np.ndarray:
    """lambda^(iu) on the snapped spectrum, with the kernel convention 0^(iu) := 1."""
    out = np.ones(lam.shape, dtype=complex)
    pos = lam > 0.0
    out[pos] = np.exp(1j * u * np.log(lam[pos]))
    return out


def imaginary_power(gen, u: float, f):
    """Apply L^(iu) to a scalar or Bochner field; an isometry of weighted L^2."""
    gvals = _imaginary_power_values(gen.decomposition.eigenvalues, float(u))
    return apply_to_field(gen.decomposition, gvals, f)


def imaginary_power_matrix(gen, u: float) -> np.ndarray:
    """Matrix of L^(iu) under the kernel convention 0^(iu) := 1."""
    gvals = _imaginary_power_values(gen.decomposition.eigenvalues, float(u))
    return spectral_matrix(gen.decomposition, gvals)


def stein_angle(p: float) -> float:
    """Half-angle pi * (1/2 - |1/p - 1/2|) of the contraction sector at exponent p."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    return math.pi * (0.5 - abs(1.0 / p - 0.5))


def verify_contraction_property(gen, t_grid=None, tol: ToleranceConfig | None = None) -> ContractionReport:
    """Check ||exp(-t L)|| <= 1 + abs_tol at p = 1 and p = inf over a time grid."""
    if t_grid is None:
        t_grid = DEFAULT_T_GRID
    if tol is None:
        tol = getattr(gen, "tol", DEFAULT_TOL)
    worst = -math.inf
    worst_t = float(t_grid[0])
    worst_p = 1.0
    for t in np.asarray(t_grid, dtype=float):
        if t < 0.0:
            raise ValueError("contraction checks need t >= 0")
        m = semigroup_matrix(gen, t)
        for p in (1.0, math.inf):
            norm = operator_norm(gen.space, m, p)
            if norm > worst:
                worst = norm
                worst_t = float(t)
                worst_p = p
    return ContractionReport(passed=bool(worst <= 1.0 + tol.abs_tol),
                             worst_norm=float(worst), worst_t=worst_t, worst_p=worst_p)


def sector_contraction_probe(gen, p: float, psi: float, grid: SectorGrid | None = None,
                             trials: int = 40, seed: int = 0) -> SectorProbeReport:
    """Probe ||exp(-z L)||_p <= 1 on a sector grid via certified lower bounds.

    The half-angle must not exceed the contraction sector angle for the
    exponent; pass tolerance is fixed at 1e-9.
    """
    limit = stein_angle(p)
    psi = float(psi)
    if psi < 0.0:
        raise ValueError("sector half-angle must be nonnegative")
    if psi > limit + 1e-15:
        raise ValueError(
            f"half-angle {psi:.6f} exceeds the contraction sector angle {limit:.6f} at p = {p}"
        )
    if grid is None:
        grid = SectorGrid.default(psi)
    rng = np.random.default_rng(seed)
    rows = []
    worst = -math.inf
    for z in grid.points():
        m = semigroup_matrix(gen, z)
        lb = operator_norm_lower_bound(gen.space, m, p, trials=trials, seed=rng)
        rows.append((float(z.real), float(z.imag), float(p), float(lb)))
        worst = max(worst, lb)
    return SectorProbeReport(passed=bool(worst <= 1.0 + 1e-9),
                             worst_norm=float(worst), rows=tuple(rows))
