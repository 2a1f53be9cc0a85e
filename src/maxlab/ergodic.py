"""Ergodic averages and the Hopf-Dunford-Schwartz maximal bound.

The time average of the semigroup is evaluated in closed form through
the spectral function ``phi_t(lambda) = (1 - exp(-t lambda))/(t lambda)``
(with ``phi_t(0) = 1``), so no integration error enters the inequality
tests; quadrature appears only as an oracle in the test-suite.  Maximal
functions are grid surrogates of the supremum over t > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BanachNormDescriptor,
    BochnerField,
    bochner_norm,
    field_parts,
    lp_norm,
)
from .modulus import modulus_generator
from .semigroup import EnsembleSpec, build_ensemble
from .spectral import apply_to_field, family_sup, spectral_matrix

__all__ = [
    "ErgodicReport",
    "HdsResult",
    "DEFAULT_ERGODIC_T_GRID",
    "default_time_grid",
    "ergodic_average",
    "maximal_ergodic",
    "averaged_modulus_matrix",
    "hds_bound",
    "hds_experiment",
]


def default_time_grid(refinement: int = 0) -> np.ndarray:
    """Geometric grid on [1e-4, 1e3]; each refinement doubles the density.

    Refined grids keep every existing node, so grid suprema are monotone
    under refinement.
    """
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    n_points = 56 * 2**refinement + 1
    return np.geomspace(1e-4, 1e3, n_points)


DEFAULT_ERGODIC_T_GRID = default_time_grid()


def _averaging_values(lam: np.ndarray, t) -> np.ndarray:
    """phi_t on the snapped spectrum: (1 - exp(-t lambda))/(t lambda), value 1 at 0.

    An array of times gives one row per time.
    """
    x = np.multiply.outer(t, lam)
    out = np.ones(x.shape)
    nz = x != 0.0
    out[nz] = -np.expm1(-x[nz]) / x[nz]
    return out


def ergodic_average(gen, t: float, f):
    """Closed-form time average (1/t) int_0^t exp(-s L) f ds of a scalar or Bochner field."""
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"averaging time must be positive and finite, got {t}")
    return apply_to_field(gen.decomposition, _averaging_values(gen.decomposition.eigenvalues, t), f)


def maximal_ergodic(gen, f, t_grid=None) -> np.ndarray:
    """Pointwise sup over the time grid of |A(t) f|_B; the modulus for a scalar field."""
    if t_grid is None:
        t_grid = DEFAULT_ERGODIC_T_GRID
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must be nonempty")
    if np.any(t_grid <= 0.0):
        raise ValueError("time grid must be strictly positive")
    values, r = field_parts(gen.space, f)
    dec = gen.decomposition
    return family_sup(dec, _averaging_values(dec.eigenvalues, t_grid), values, r)


def averaged_modulus_matrix(gen, t: float) -> np.ndarray:
    """Matrix of the time-averaged modulus semigroup A(S, t).

    The dyadic modulus construction stabilises on the semigroup of the
    modulus generator, so its time average is again a closed-form
    spectral function; used by the domination chain checks.
    """
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"averaging time must be positive and finite, got {t}")
    hat = modulus_generator(gen)
    return spectral_matrix(hat.decomposition, _averaging_values(hat.decomposition.eigenvalues, t))


def hds_bound(p: float) -> float:
    """The maximal-ergodic constant 2 (p/(p-1))^(1/p) for 1 < p < inf."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"the bound requires 1 < p < inf, got {p}")
    return 2.0 * (p / (p - 1.0)) ** (1.0 / p)


@dataclass(frozen=True)
class ErgodicReport:
    """Maximal-ergodic ratios of one experiment exponent against the bound."""

    p: float
    ratios: tuple
    bound: float
    passed: bool


@dataclass(frozen=True)
class HdsResult:
    """Reports per exponent plus flat CSV rows (seed, n, p, ratio, bound, pass)."""

    reports: tuple
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _maximal_ratio(gen, f, p: float, t_grid) -> float:
    """||maximal_ergodic(f)||_p / ||f||_p for a scalar or Bochner field."""
    return lp_norm(gen.space, maximal_ergodic(gen, f, t_grid), p) / bochner_norm(gen.space, f, p)


def _hill_climb_ratio(gen, f0: np.ndarray, p: float, t_grid, rng, steps: int = 60) -> float:
    """Gradient-free search for a worse field, starting from f0."""
    best_f = f0
    best = _maximal_ratio(gen, f0, p, t_grid)
    scale = 0.5
    for step in range(steps):
        candidate = best_f + scale * (rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n))
        value = _maximal_ratio(gen, candidate, p, t_grid)
        if value > best:
            best = value
            best_f = candidate
        elif step % 10 == 9:
            scale *= 0.5
    return best


def hds_experiment(spec: EnsembleSpec, p_list, t_grid=None, trials: int = 4,
                   seed: int = 0, descriptor: BanachNormDescriptor | None = None,
                   adversarial: bool = False) -> HdsResult:
    """Scalar and vector maximal-ergodic ratios over a seeded ensemble.

    Every ratio ||sup_t |A(t) f|||_p / ||f||_p is compared against
    hds_bound(p) + 1e-9; the vector trials use the given fiber descriptor
    (default l^2 of dimension 4).
    """
    if t_grid is None:
        t_grid = DEFAULT_ERGODIC_T_GRID
    if descriptor is None:
        descriptor = BanachNormDescriptor(4, 2.0)
    if descriptor.is_sup:
        raise ValueError("maximal experiments require a finite fiber exponent r")
    p_list = [float(p) for p in np.atleast_1d(p_list)]
    members = build_ensemble(spec, seed)
    reports = []
    rows = []
    for p in p_list:
        bound = hds_bound(p)
        ratios = []
        for member_seed, gen in members:
            rng = np.random.default_rng(member_seed + 7)
            for _ in range(trials):
                f = rng.standard_normal(gen.n) + 1j * rng.standard_normal(gen.n)
                scalar = _maximal_ratio(gen, f, p, t_grid)
                if adversarial:
                    scalar = max(scalar, _hill_climb_ratio(gen, f, p, t_grid, rng))
                values = rng.standard_normal((gen.n, descriptor.d)) + 1j * rng.standard_normal(
                    (gen.n, descriptor.d))
                vector = _maximal_ratio(gen, BochnerField(values, descriptor), p, t_grid)
                for ratio in (scalar, vector):
                    ratios.append(ratio)
                    rows.append((member_seed, gen.n, p, ratio, bound, ratio <= bound + 1e-9))
        worst = max(ratios)
        reports.append(ErgodicReport(p=p, ratios=tuple(ratios), bound=bound,
                                     passed=bool(worst <= bound + 1e-9)))
    return HdsResult(reports=tuple(reports), rows=tuple(rows))
