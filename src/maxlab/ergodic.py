"""Ergodic averages and the Hopf-Dunford-Schwartz maximal bound.

The time average of the semigroup is evaluated in closed form through
the spectral function ``phi_t(lambda) = (1 - exp(-t lambda))/(t lambda)``
(with ``phi_t(0) = 1``), so no integration error enters the inequality
tests; quadrature appears only as an oracle in the test-suite.  Maximal
functions are grid surrogates of the supremum over t > 0.  Every field
is a Bochner field; the scalar Hopf-Dunford-Schwartz case is the fiber
of dimension d = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BanachNormDescriptor,
    bochner_norm,
    field_parts,
    lp_norm,
    random_field,
)
from .semigroup import EnsembleSpec, build_ensemble, ensemble_diagnostics
from .spectral import family_sup

__all__ = [
    "ErgodicReport",
    "HdsResult",
    "DEFAULT_ERGODIC_T_GRID",
    "HDS_SLACK",
    "maximal_ergodic",
    "hds_bound",
    "hds_experiment",
]


# Geometric time grid on [1e-4, 1e3] over which the maximal functions take
# their supremum.
DEFAULT_ERGODIC_T_GRID = np.geomspace(1e-4, 1e3, 57)

# Slack above hds_bound(p) up to which a measured maximal-ergodic ratio passes.
HDS_SLACK = 1e-9


def _averaging_values(lam: np.ndarray, t) -> np.ndarray:
    """phi_t on the snapped spectrum: (1 - exp(-t lambda))/(t lambda), value 1 at 0.

    An array of times gives one row per time.
    """
    x = np.multiply.outer(t, lam)
    out = np.ones(x.shape)
    nz = x != 0.0
    out[nz] = -np.expm1(-x[nz]) / x[nz]
    return out


def maximal_ergodic(gen, f, t_grid=None) -> np.ndarray:
    """Pointwise sup over the time grid of |A(t) f|_B; the modulus for d = 1.

    ``f`` may also be a list of T Bochner fields sharing one descriptor;
    the result is then (n, T), column j being the sup for ``f[j]``, equal
    to a call on ``f[j]`` alone.
    """
    if t_grid is None:
        t_grid = DEFAULT_ERGODIC_T_GRID
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must be nonempty")
    if np.any(t_grid <= 0.0):
        raise ValueError("time grid must be strictly positive")
    values, r = field_parts(gen.space, f, batch=True)
    dec = gen.decomposition
    return family_sup(dec, _averaging_values(dec.eigenvalues, t_grid), values, r)


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
    """Reports per exponent plus flat CSV rows (seed, n, p, ratio, bound, pass).

    ``max_relative_eigen_residual`` and ``max_orthonormality_defect`` are
    ensemble_diagnostics of the ensemble's members.
    """

    reports: tuple
    rows: tuple
    max_relative_eigen_residual: float
    max_orthonormality_defect: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def hds_experiment(spec: EnsembleSpec, p_list, t_grid=None, trials: int = 4,
                   seed: int = 0, descriptor: BanachNormDescriptor | None = None) -> HdsResult:
    """Maximal-ergodic ratios of d = 1 and d-dimensional trials over a seeded ensemble.

    Every ratio ||sup_t |A(t) f|||_p / ||f||_p is compared against
    hds_bound(p) + HDS_SLACK, and a report passes when all its rows do.  Each
    trial draws a d = 1 field, the scalar case, then one of the given descriptor
    (default l^2 of dimension 4); its maximal function is computed once, before
    the loop over exponents, since the sup does not depend on p.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if t_grid is None:
        t_grid = DEFAULT_ERGODIC_T_GRID
    if descriptor is None:
        descriptor = BanachNormDescriptor(4, 2.0)
    if descriptor.is_sup:
        raise ValueError("maximal experiments require a finite fiber exponent r")
    p_list = [float(p) for p in np.atleast_1d(p_list)]
    bounds = [hds_bound(p) for p in p_list]
    members = build_ensemble(spec, seed)
    # (member seed, generator, field, its maximal function), d = 1 then the descriptor
    sups = []
    for member_seed, gen in members:
        rng = np.random.default_rng(member_seed + 7)
        for _ in range(trials):
            for fiber in (BanachNormDescriptor(1, 2.0), descriptor):
                field = random_field(rng, gen.n, fiber)
                sups.append((member_seed, gen, field, maximal_ergodic(gen, field, t_grid)))
    reports = []
    rows = []
    for p, bound in zip(p_list, bounds):
        ratios = []
        for member_seed, gen, f, sup in sups:
            ratio = lp_norm(gen.space, sup, p) / bochner_norm(gen.space, f, p)
            ratios.append(ratio)
            rows.append((member_seed, gen.n, p, ratio, bound, ratio <= bound + HDS_SLACK))
        # the conjunction of the row verdicts, which a NaN ratio fails
        reports.append(ErgodicReport(p=p, ratios=tuple(ratios), bound=bound,
                                     passed=all(row[-1] for row in rows[-len(sups):])))
    return HdsResult(reports=tuple(reports), rows=tuple(rows), **ensemble_diagnostics(members))
