"""Linear modulus and the subdivision construction of the modulus semigroup.

The linear modulus of a matrix operator on a finite weighted space is the
entrywise absolute value; it shares the weighted endpoint norms of the
operator and dominates it pointwise.  Stacking moduli of small evolution
steps along a subdivision of [0, t] and refining dyadically produces the
smallest positive semigroup dominating the original one.  Only the
uniform dyadic chain is enumerated; the distance to the directed-set
supremum is monitored through the stabilisation residual.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    BanachNormDescriptor,
    BochnerField,
    ToleranceConfig,
    WeightedSpace,
    bochner_norm,
    lp_norm,
    pointwise_sup,
)
from .semigroup import ContractionSemigroupGenerator, DiffusionGenerator, semigroup_matrix
from .spectral import MuSymmetricOperator

__all__ = [
    "Subdivision",
    "ModulusResult",
    "StabilizationError",
    "DominationReport",
    "SubpositivityReport",
    "linear_modulus",
    "phi",
    "modulus_semigroup",
    "modulus_generator",
    "verify_domination",
    "subpositivity_suite",
]

MODULUS_LEVEL_CAP = 20


class StabilizationError(RuntimeError):
    """Dyadic refinement failed to stabilise within the level cap."""


@dataclass(frozen=True)
class Subdivision:
    """Partition 0 = s_0 < s_1 < ... < s_n = t of the interval [0, t]."""

    t: float
    points: np.ndarray

    def __post_init__(self) -> None:
        t = float(self.t)
        if not (t > 0.0 and math.isfinite(t)):
            raise ValueError(f"subdivision length must be positive and finite, got {t}")
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a subdivision needs at least the two endpoints")
        if pts[0] != 0.0 or pts[-1] != t:
            raise ValueError("subdivision endpoints must be exactly 0 and t")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("subdivision points must be strictly increasing")
        object.__setattr__(self, "t", t)
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform_dyadic(cls, t: float, level: int) -> "Subdivision":
        """2^level equal increments; level 0 is the single interval [0, t]."""
        if level < 0:
            raise ValueError("dyadic level must be >= 0")
        return cls(t, np.linspace(0.0, float(t), 2**level + 1))

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.points)


@dataclass(frozen=True)
class ModulusResult:
    """Stabilised dyadic limit matrix with its level and last increment."""

    S_t: np.ndarray
    depth: int
    residual: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth,
                "residual": self.residual,
                "S_t": [[float(v) for v in row] for row in self.S_t],
            }
        )


@dataclass(frozen=True)
class DominationReport:
    """Outcome of the pointwise domination check |T_t f| <= S_t |f|."""

    passed: bool
    max_violation: float
    max_norm_excess: float
    checked: int


@dataclass(frozen=True)
class SubpositivityReport:
    """Outcomes of the three testable subpositivity implications."""

    passed: bool
    sup_margin: float
    tensor_margin: float
    positivity_min: float
    sup_passed: bool
    tensor_passed: bool
    positivity_passed: bool


def linear_modulus(space: WeightedSpace, t_matrix: np.ndarray) -> np.ndarray:
    """Entrywise absolute value: the linear modulus of the operator.

    It has the same weighted operator norm as the operator at p = 1 and
    p = infinity and dominates it: |T f| <= |T| |f| entrywise.
    """
    t_matrix = np.asarray(t_matrix)
    n = space.n
    if t_matrix.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {t_matrix.shape}")
    return np.abs(t_matrix)


def phi(gen: ContractionSemigroupGenerator, s: Subdivision, f) -> np.ndarray:
    """Product of increment moduli along the subdivision, applied to f >= 0.

    The factors are ordered as written: the modulus of the first increment
    acts last.  Refining the subdivision can only increase the result
    entrywise.
    """
    f = np.asarray(f)
    if np.iscomplexobj(f):
        if np.any(f.imag != 0):
            raise ValueError("phi expects a real nonnegative field")
        f = f.real
    f = f.astype(float)
    if f.shape != (gen.n,):
        raise ValueError(f"field must have shape ({gen.n},), got {f.shape}")
    if f.min(initial=0.0) < -DEFAULT_TOL.abs_tol:
        raise ValueError(f"phi requires f >= 0, min entry {f.min():.3e}")
    out = f.copy()
    for dt in s.increments[::-1]:
        out = linear_modulus(gen.space, semigroup_matrix(gen, dt)) @ out
    return out


def modulus_semigroup(gen: ContractionSemigroupGenerator, t: float,
                      tol: float | None = None,
                      level_cap: int = MODULUS_LEVEL_CAP) -> ModulusResult:
    """Dyadic-limit modulus semigroup matrix at time t.

    Level m applies phi with the uniform dyadic subdivision of 2^m
    increments to every standard basis vector, which amounts to the
    2^m-th power of the modulus of one increment step (computed by
    repeated squaring).  Iteration stops when consecutive levels differ
    by less than ``tol`` in the max norm.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be positive and finite, got {t}")
    if tol is None:
        tol = getattr(gen, "tol", DEFAULT_TOL).stab_tol
    prev = linear_modulus(gen.space, semigroup_matrix(gen, t))
    residual = math.inf
    for level in range(1, level_cap + 1):
        step = linear_modulus(gen.space, semigroup_matrix(gen, t / 2.0**level))
        current = step
        for _ in range(level):
            current = current @ current
        residual = float(np.abs(current - prev).max())
        if residual < tol:
            return ModulusResult(S_t=current, depth=level, residual=residual)
        prev = current
    raise StabilizationError(
        f"dyadic refinement did not stabilise below {tol:.3e} within {level_cap} levels "
        f"(last increment {residual:.3e})"
    )


def modulus_generator(gen: ContractionSemigroupGenerator) -> DiffusionGenerator:
    """Diffusion generator of the modulus semigroup.

    Keeps the diagonal of L and replaces every off-diagonal entry by minus
    its absolute value; the dyadic construction stabilises on the
    semigroup of this generator.
    """
    ell = gen.matrix.copy()
    off = ~np.eye(gen.n, dtype=bool)
    ell[off] = -np.abs(ell[off])
    return DiffusionGenerator(MuSymmetricOperator(gen.space, ell, tol=gen.tol), tol=gen.tol)


def verify_domination(gen: ContractionSemigroupGenerator, t_grid=None, trials: int = 20,
                      seed: int = 0, tol: ToleranceConfig | None = None) -> DominationReport:
    """Check |e^{-tL} f| <= S_t |f| entrywise for seeded complex fields.

    Fields are normalised to unit sup norm so the comparison tolerance is
    scale-free.  The L^p transfer of the domination (p in {1.5, 2, 3}) is
    checked alongside.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-2, 1e1, 4)
    if tol is None:
        tol = getattr(gen, "tol", DEFAULT_TOL)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    worst_norm = -math.inf
    checked = 0
    for t in np.asarray(t_grid, dtype=float):
        t_matrix = semigroup_matrix(gen, t)
        s_matrix = modulus_semigroup(gen, t, tol=tol.stab_tol).S_t
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
    passed = worst <= tol.abs_tol and worst_norm <= tol.abs_tol
    return DominationReport(passed=bool(passed), max_violation=float(worst),
                            max_norm_excess=float(worst_norm), checked=checked)


def subpositivity_suite(space: WeightedSpace, t_matrix: np.ndarray, s_matrix: np.ndarray,
                        p: float, descriptor: BanachNormDescriptor, trials: int = 20,
                        seed: int = 0, tol: ToleranceConfig | None = None,
                        n_theta: int = 64) -> SubpositivityReport:
    """Check the testable implications of subpositivity for (T, S).

    (a -> b): families of fields satisfy ||sup_k |T f_k|||_p <= ||sup_k |f_k|||_p.
    (a -> c): the tensor extension contracts Bochner norms.
    (a -> d): S + Re(e^{i theta} T) is entrywise nonnegative on a theta grid.
    """
    if tol is None:
        tol = DEFAULT_TOL
    t_matrix = np.asarray(t_matrix)
    s_matrix = np.asarray(s_matrix)
    n = space.n
    if t_matrix.shape != (n, n) or s_matrix.shape != (n, n):
        raise ValueError(f"T and S must both have shape ({n}, {n})")
    if np.asarray(s_matrix).min() < -tol.abs_tol:
        raise ValueError("candidate majorant S must be entrywise nonnegative")
    rng = np.random.default_rng(seed)

    sup_margin = -math.inf
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        family = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        lhs = lp_norm(space, pointwise_sup([np.abs(t_matrix @ g) for g in family]), p)
        rhs = lp_norm(space, pointwise_sup([np.abs(g) for g in family]), p)
        sup_margin = max(sup_margin, lhs - rhs - tol.abs_tol * max(1.0, rhs))

    tensor_margin = -math.inf
    for _ in range(trials):
        values = rng.standard_normal((n, descriptor.d)) + 1j * rng.standard_normal((n, descriptor.d))
        field = BochnerField(values, descriptor)
        lhs = bochner_norm(space, field.replace_values(t_matrix @ values), p)
        rhs = bochner_norm(space, field, p)
        tensor_margin = max(tensor_margin, lhs - rhs - tol.abs_tol * max(1.0, rhs))

    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    positivity_min = math.inf
    for theta in thetas:
        entrywise = s_matrix + (np.exp(1j * theta) * t_matrix).real
        positivity_min = min(positivity_min, float(entrywise.min()))

    sup_passed = sup_margin <= 0.0
    tensor_passed = tensor_margin <= 0.0
    positivity_passed = positivity_min >= -tol.abs_tol
    return SubpositivityReport(
        passed=bool(sup_passed and tensor_passed and positivity_passed),
        sup_margin=float(sup_margin),
        tensor_margin=float(tensor_margin),
        positivity_min=float(positivity_min),
        sup_passed=bool(sup_passed),
        tensor_passed=bool(tensor_passed),
        positivity_passed=bool(positivity_passed),
    )
