"""Linear modulus and the dyadic construction of the modulus semigroup.

The linear modulus of a matrix operator on a finite weighted space is the
entrywise absolute value; it shares the weighted endpoint norms of the
operator and dominates it pointwise.  Multiplying the moduli of 2^m equal
evolution steps of [0, t] and refining dyadically produces the smallest
positive semigroup dominating the original one.  Only the uniform dyadic
chain is enumerated; the distance to the directed-set supremum is
monitored through the stabilisation residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ABS_TOL,
    BanachNormDescriptor,
    WeightedSpace,
    _gaussian_batch,
    fiber_norm,
    lp_norms,
)
from .semigroup import ContractionSemigroupGenerator, semigroup_matrix

__all__ = [
    "ModulusResult",
    "StabilizationError",
    "DominationReport",
    "SubpositivityReport",
    "linear_modulus",
    "modulus_semigroup",
    "verify_domination",
    "subpositivity_suite",
]

# Dyadic refinement stops once consecutive levels differ by less than
# MODULUS_STAB_TOL in the max norm, and gives up after MODULUS_LEVEL_CAP levels.
MODULUS_STAB_TOL = 1e-8
MODULUS_LEVEL_CAP = 20

# Times of verify_domination and angles of the positivity test in subpositivity_suite.
DOMINATION_T_GRID = np.geomspace(1e-2, 1e1, 4)
SUBPOSITIVITY_THETAS = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)


class StabilizationError(RuntimeError):
    """Dyadic refinement failed to stabilise within the level cap."""


@dataclass(frozen=True)
class ModulusResult:
    """Stabilised dyadic limit matrix with its level and last increment."""

    S_t: np.ndarray
    depth: int
    residual: float


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


def modulus_semigroup(gen: ContractionSemigroupGenerator, t: float) -> ModulusResult:
    """Dyadic-limit modulus semigroup matrix at time t.

    Level m is the product of the moduli of the 2^m equal increments of
    [0, t], that is the 2^m-th power of the modulus of one increment step
    (computed by repeated squaring).  Iteration stops when consecutive
    levels differ by less than MODULUS_STAB_TOL in the max norm.  The limit
    is exp(-t L_hat), where L_hat keeps the diagonal of L and replaces each
    off-diagonal entry by minus its absolute value.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be positive and finite, got {t}")
    prev = linear_modulus(gen.space, semigroup_matrix(gen, t))
    residual = math.inf
    for level in range(1, MODULUS_LEVEL_CAP + 1):
        step = linear_modulus(gen.space, semigroup_matrix(gen, t / 2.0**level))
        current = step
        for _ in range(level):
            current = current @ current
        residual = float(np.abs(current - prev).max())
        if residual < MODULUS_STAB_TOL:
            return ModulusResult(S_t=current, depth=level, residual=residual)
        prev = current
    raise StabilizationError(
        f"dyadic refinement did not stabilise below {MODULUS_STAB_TOL:.3e} within "
        f"{MODULUS_LEVEL_CAP} levels (last increment {residual:.3e})"
    )


def verify_domination(gen: ContractionSemigroupGenerator, trials: int = 20,
                      seed: int = 0) -> DominationReport:
    """Check |e^{-tL} f| <= S_t |f| entrywise for seeded complex fields at DOMINATION_T_GRID.

    Fields are normalised to unit sup norm so the comparison tolerance is
    scale-free.  The L^p transfer of the domination (p in {1.5, 2, 3}) is
    checked alongside.  The ``trials`` fields of one t are one (trials, n)
    draw, the stream of drawing them in turn, and T and S act on them as
    stacked matrix-vector products, each bit for bit ``T @ f``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    worst_norm = -math.inf
    for t in DOMINATION_T_GRID:
        t_matrix = semigroup_matrix(gen, t)
        s_matrix = modulus_semigroup(gen, t).S_t
        f = _gaussian_batch(rng, trials, (gen.n,))
        f /= np.abs(f).max(axis=1, keepdims=True)
        moved = (t_matrix @ f[:, :, None])[..., 0]
        rhs = (s_matrix @ np.abs(f)[:, :, None])[..., 0]
        worst = max(worst, float((np.abs(moved) - rhs).max()))
        for p in (1.5, 2.0, 3.0):
            excess = lp_norms(gen.space, moved, p) - lp_norms(gen.space, rhs, p)
            worst_norm = max(worst_norm, float(excess.max()))
    passed = worst <= ABS_TOL and worst_norm <= ABS_TOL
    return DominationReport(passed=bool(passed), max_violation=float(worst),
                            max_norm_excess=float(worst_norm),
                            checked=trials * DOMINATION_T_GRID.size)


def _worst_margin(space: WeightedSpace, lhs: np.ndarray, rhs: np.ndarray, p: float) -> float:
    """Largest ||lhs_j||_p - ||rhs_j||_p - ABS_TOL max(1, ||rhs_j||_p) over the rows j."""
    lhs = lp_norms(space, lhs, p)
    rhs = lp_norms(space, rhs, p)
    return float((lhs - rhs - ABS_TOL * np.maximum(1.0, rhs)).max())


def subpositivity_suite(space: WeightedSpace, t_matrix: np.ndarray, s_matrix: np.ndarray,
                        p: float, descriptor: BanachNormDescriptor, trials: int = 20,
                        seed: int = 0) -> SubpositivityReport:
    """Check the testable implications of subpositivity for (T, S).

    (a -> b): families of fields satisfy ||sup_k |T f_k|||_p <= ||sup_k |f_k|||_p.
    (a -> c): the tensor extension contracts Bochner norms.
    (a -> d): S + Re(e^{i theta} T) is entrywise nonnegative at SUBPOSITIVITY_THETAS,
    checked as one minimum over every angle and entry.

    T and S must have finite entries, and S no entry below -ABS_TOL.  Each
    trial draws its family size and its family in turn; the tensor trials'
    fields are then one (trials, n, d) draw, the stream of random_field
    called in turn.  T acts on every family member and field at once, as
    stacked products bit for bit ``T @ f``, and the norms are lp_norms.
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    families = []
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        families.append(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    starts = np.cumsum([0] + [len(family) for family in families[:-1]])
    members = np.concatenate(families)
    moved = np.abs(t_matrix @ members[:, :, None])[..., 0]
    sup_margin = _worst_margin(space, np.maximum.reduceat(moved, starts),
                               np.maximum.reduceat(np.abs(members), starts), p)

    fields = _gaussian_batch(rng, trials, (n, descriptor.d))
    extended = t_matrix @ fields
    if not np.all(np.isfinite(extended)):
        raise ValueError("the tensor extension of T gave non-finite field values")
    tensor_margin = _worst_margin(space, fiber_norm(extended, descriptor.r),
                                  fiber_norm(fields, descriptor.r), p)

    rotated = (np.exp(1j * SUBPOSITIVITY_THETAS)[:, None, None] * t_matrix).real
    positivity_min = float((s_matrix + rotated).min())

    sup_passed = sup_margin <= 0.0
    tensor_passed = tensor_margin <= 0.0
    positivity_passed = positivity_min >= -ABS_TOL
    return SubpositivityReport(
        passed=bool(sup_passed and tensor_passed and positivity_passed),
        sup_margin=float(sup_margin),
        tensor_margin=float(tensor_margin),
        positivity_min=float(positivity_min),
        sup_passed=bool(sup_passed),
        tensor_passed=bool(tensor_passed),
        positivity_passed=bool(positivity_passed),
    )
