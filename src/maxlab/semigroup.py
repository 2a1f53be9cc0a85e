"""Contraction semigroups generated by mu-selfadjoint matrices.

A diffusion generator is ``L = c (I - P)`` with P entrywise nonnegative,
mu-symmetric and substochastic; the semigroup ``exp(-t L)`` is then
positivity preserving and an endpoint contraction for every t >= 0.
Dropping the sign constraint on the off-diagonal entries gives the wider
contraction-only class, realised here by conjugating a diffusion
generator with a diagonal sign matrix (which leaves all endpoint norms
unchanged but flips off-diagonal signs).  Construction checks the
endpoint contraction property exactly, by weak diagonal dominance, and
keeps its relative margin as ``dominance_margin``.

The matrix of the holomorphic evolution ``exp(-z L)``, the multiplier
values of the imaginary powers ``L^(iu)`` and the sector geometry used by
the probes all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ABS_TOL, WeightedSpace
from .spectral import (
    MuSymmetricOperator,
    SpectralDecomposition,
    decompose,
    eigen_residual,
    multiplier_norm_bounds,
    orthonormality_defect,
    spectral_matrix,
)

__all__ = [
    "ContractionSemigroupGenerator",
    "DiffusionGenerator",
    "SectorProbeReport",
    "SectorGrid",
    "sector_angles",
    "EnsembleSpec",
    "ENSEMBLE_KINDS",
    "random_generator",
    "build_ensemble",
    "ensemble_diagnostics",
    "exemplar_contraction_generator",
    "semigroup_matrix",
    "stein_angle",
    "check_sector_angle",
    "sector_status",
    "sector_contraction_probe",
]

class ContractionSemigroupGenerator:
    """Positive semidefinite mu-selfadjoint generator of an endpoint-contractive semigroup.

    No sign pattern is imposed.  Construction checks weak diagonal dominance
    ``L_ii >= sum_(j != i) |L_ij|`` up to rounding: for real mu-selfadjoint L
    this is exactly ``||exp(-t L)|| <= 1`` at p = 1 and p = inf for all
    t >= 0 (Lumer-Phillips in l^inf).  It also bounds the spectrum, which is
    real: by Gershgorin every eigenvalue is at least
    ``dominance_margin * max|L|``, where ``dominance_margin`` is
    ``min_i (L_ii - sum_(j != i) |L_ij|) / max|L|`` (0 for L = 0).  The
    decomposition is computed on first use.
    """

    kind = "contraction"

    def __init__(self, operator: MuSymmetricOperator):
        self.operator = operator
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
        a = self.operator.entries
        off = np.abs(a)
        scale = float(off.max())
        np.fill_diagonal(off, 0.0)
        margin = float((a.diagonal() - off.sum(axis=1)).min())
        # rounding level: a row sum accumulates n roundings of entries <= max|L|
        if margin < -4.0 * self.n * np.finfo(float).eps * scale:
            raise ValueError(f"semigroup is not an endpoint contraction: min_i L_ii - "
                             f"sum_(j != i) |L_ij| = {margin:.3e} at max|L| = {scale:.3e}")
        self.dominance_margin = margin / scale if scale > 0.0 else 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, injective={self.injective})"


class DiffusionGenerator(ContractionSemigroupGenerator):
    """Generator c(I - P) with P nonnegative, mu-symmetric and substochastic.

    Equivalently: nonpositive off-diagonal entries, nonnegative row sums
    and positive semidefinite.  The semigroup is positivity preserving on
    top of the endpoint contraction property.
    """

    kind = "diffusion"

    def _validate(self) -> None:
        a = self.operator.entries
        off = a - np.diag(a.diagonal())
        worst_off = float(off.max(initial=0.0))
        if worst_off > ABS_TOL * float(np.abs(a).max()):
            raise ValueError(f"diffusion generator needs nonpositive off-diagonal entries, max {worst_off:.3e}")
        super()._validate()


@dataclass(frozen=True)
class SectorProbeReport:
    """Outcome of a sector contraction probe.

    Rows are (z_re, z_im, p, norm_lb, norm_ub, status); ``worst_norm`` and
    ``worst_upper`` are the largest lower and upper bounds.
    """

    passed: bool
    worst_norm: float
    worst_upper: float
    rows: tuple


# Slack of the contraction verdict ||exp(-z L)||_p <= 1 at a sector node.
SECTOR_SLACK = 1e-9


def sector_status(norm_lb: float, norm_ub: float) -> str:
    """'certified' when the upper bound shows a contraction, 'refuted' when the lower
    bound shows none, else 'open' (both within SECTOR_SLACK)."""
    if norm_ub <= 1.0 + SECTOR_SLACK:
        return "certified"
    if norm_lb > 1.0 + SECTOR_SLACK:
        return "refuted"
    return "open"


def sector_angles(psi: float, count: int) -> np.ndarray:
    """``count`` uniform angles over [-psi, psi]; the single angle 0 when psi = 0."""
    return np.zeros(1) if psi == 0.0 else np.linspace(-psi, psi, count)


@dataclass(frozen=True)
class SectorGrid:
    """Finite probe grid in the closed sector |arg z| <= psi.

    Radii are geometric and strictly increasing, angles uniform over
    [-psi, psi].
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
        return cls(psi, radii, sector_angles(psi, n_angles))

    def points(self) -> np.ndarray:
        """All grid nodes z = t * exp(i theta), radius-major order."""
        units = [complex(math.cos(th), math.sin(th)) for th in self.angles]
        return np.multiply.outer(self.radii, units).ravel()


# Generator families an EnsembleSpec can name.
ENSEMBLE_KINDS = ("diffusion", "contraction", "identity")


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a seeded family of generators."""

    n: int = 8
    count: int = 50
    kind: str = "diffusion"
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"ensemble size n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.count, (int, np.integer)) and self.count >= 1):
            raise ValueError(f"ensemble count must be a positive integer, got {self.count!r}")
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not (float(self.c) > 0.0 and math.isfinite(float(self.c))):
            raise ValueError(f"rate scale c must be positive and finite, got {self.c!r}")


# Seeds of ensemble members are spread out deterministically from the base
# seed; the stride is an arbitrary odd prime so members never collide.
_SEED_STRIDE = 1000003


def random_generator(n: int, seed, kind: str = "diffusion", c: float = 1.0):
    """Draw a seeded generator on a random weighted space.

    The masses are uniform in [0.5, 2], the kernel is a symmetric uniform
    matrix scaled so the largest row sum of P lands in [0.6, 0.95], which
    keeps the spectrum inside [0.05 c, 1.95 c], so the generator is
    injective by construction.  ``kind="contraction"`` conjugates the
    diffusion matrix by random signs, with both signs present, producing
    positive off-diagonal entries while preserving every endpoint norm.
    Either way the draw is built and validated once; it is decomposed on
    first use.
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
    if kind == "diffusion" or n == 1:
        return DiffusionGenerator(MuSymmetricOperator(space, ell))
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    if np.all(signs == signs[0]):
        signs[int(rng.integers(n))] *= -1.0
    flipped = signs[:, None] * ell * signs[None, :]
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
            gen = random_generator(spec.n, member_seed, kind=spec.kind, c=spec.c)
        members.append((member_seed, gen))
    return members


def ensemble_diagnostics(members) -> dict:
    """Largest eigen residual and mu-orthonormality defect over (seed, generator) members."""
    gens = [gen for _, gen in members]
    return {"max_relative_eigen_residual": max(eigen_residual(g.operator, g.decomposition)
                                               for g in gens),
            "max_orthonormality_defect": max(orthonormality_defect(g.decomposition) for g in gens)}


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


def _imaginary_power_values(lam: np.ndarray, u) -> np.ndarray:
    """lambda^(iu) on the snapped spectrum, with the kernel convention 0^(iu) := 1.

    An array of u gives one row per u.
    """
    u = np.asarray(u, dtype=float)
    out = np.ones(u.shape + lam.shape, dtype=complex)
    pos = lam > 0.0
    out[..., pos] = np.exp(np.multiply.outer(1j * u, np.log(lam[pos])))
    return out


def stein_angle(p: float) -> float:
    """Half-angle pi * (1/2 - |1/p - 1/2|) of the contraction sector at exponent p."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    return math.pi * (0.5 - abs(1.0 / p - 0.5))


def check_sector_angle(p: float, psi: float) -> None:
    """Raise ValueError unless the half-angle psi lies within stein_angle(p), up to rounding."""
    limit = stein_angle(p)
    if not psi <= limit + 1e-15:
        raise ValueError(f"sector half-angle psi = {float(psi)!r} exceeds the contraction "
                         f"sector angle {limit!r} at p = {float(p):g}")


def sector_contraction_probe(gen, p: float, psi: float, grid: SectorGrid | None = None,
                             trials: int = 40, seed: int = 0) -> SectorProbeReport:
    """Bound ||exp(-z L)||_p from both sides on a sector grid (multiplier_norm_bounds).

    The half-angle must pass check_sector_angle for the exponent.  Each node
    gets a sector_status; the probe passes when no node is refuted.
    """
    psi = float(psi)
    if psi < 0.0:
        raise ValueError("sector half-angle must be nonnegative")
    check_sector_angle(p, psi)
    if grid is None:
        grid = SectorGrid.default(psi)
    nodes = grid.points()
    lam = gen.decomposition.eigenvalues
    gvals = np.exp(np.multiply.outer(-nodes, lam))
    # real times take the real exponential, as semigroup_matrix does
    real = nodes.imag == 0.0
    gvals[real] = np.exp(np.multiply.outer(-nodes.real[real], lam))
    lower, upper = multiplier_norm_bounds(gen.decomposition, gvals, p, trials=trials, seed=seed)
    rows = tuple((float(z.real), float(z.imag), float(p), float(lb), float(ub),
                  sector_status(lb, ub)) for z, lb, ub in zip(nodes, lower, upper))
    worst = float(lower.max())
    return SectorProbeReport(passed=bool(worst <= 1.0 + SECTOR_SLACK), worst_norm=worst,
                             worst_upper=float(upper.max()), rows=rows)
