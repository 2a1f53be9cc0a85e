"""Sector multiplier pipeline and the interpolation planner.

The holomorphic semigroup at z = t e^{i theta} splits exactly into the
time average over [0, t] plus the spectral multiplier

    m_theta(lambda) = exp(-e^{i theta} lambda) - (1 - exp(-lambda))/lambda

evaluated at t lambda.  On the Fourier/Mellin side m_theta is recovered
from n_hat_theta(u) = (e^{-theta u} - (1+iu)^{-1}) Gamma(iu), whose decay
e^{(|theta| - pi/2)|u|} makes the truncated trapezoid reconstruction
converge fast.  The sector maximal function, the dimension-uniformity
experiment, the pointwise convergence profile and the imaginary-power
probe all build on this decomposition; the planner derives the
interpolation parameters (theta, q, sigma, omega) used to state the
vector-valued bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BanachNormDescriptor,
    BochnerField,
    bochner_norm,
    fiber_norm,
    field_parts,
    lp_norm,
)
from .ergodic import ergodic_average, maximal_ergodic
from .semigroup import (
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    evolve,
    imaginary_power_matrix,
    stein_angle,
)
from .spectral import (
    apply_multiplier,
    apply_to_field,
    family_sup,
    gamma_values,
    operator_norm_lower_bound,
)

__all__ = [
    "BipPlan",
    "BipPlanError",
    "BipEstimate",
    "DecayCertificate",
    "ConvergenceProfile",
    "MaximalReport",
    "m_theta",
    "n_hat",
    "decay_constant",
    "apply_m_theta",
    "m_theta_maximal",
    "mellin_reconstruct",
    "truncation_bound",
    "decomposition_residual",
    "sector_maximal",
    "maximal_theorem_experiment",
    "bip_plan",
    "pointwise_convergence_profile",
    "imaginary_power_estimate",
]

DEFAULT_QUAD_U = 40.0
DEFAULT_QUAD_H = 0.01


class BipPlanError(ValueError):
    """The requested (p, r, psi, theta) violate the planner hypotheses."""


@dataclass(frozen=True)
class BipPlan:
    """Interpolation parameters for the vector-valued sector bounds.

    theta is the interpolation weight, q the auxiliary exponent solving
    1/p = (1-theta)/2 + theta/q, sigma the calculus angle (arithmetic mean
    of pi/2 and (pi/2 - psi)/theta) and omega = sigma * theta the power
    angle, strictly below pi/2 - psi.
    """

    p: float
    r: float
    psi: float
    theta: float
    q: float
    sigma: float
    omega: float


@dataclass(frozen=True)
class DecayCertificate:
    """Empirical decay constant for |n_hat| against e^{(|theta|-pi/2)|u|}."""

    psi: float
    constant: float
    refined_constant: float
    rel_change: float
    stable: bool


@dataclass(frozen=True)
class ConvergenceProfile:
    """Sector approach errors e(rho) on a decreasing radius ladder."""

    radii: np.ndarray
    errors: np.ndarray
    slope: float


@dataclass(frozen=True)
class MaximalReport:
    """Dimension profile of the sector maximal experiment."""

    plan: BipPlan
    d_list: tuple
    c_emp: tuple
    uniformity_ratio: float
    max_triangle_excess: float
    passed: bool


@dataclass(frozen=True)
class BipEstimate:
    """Lower-bound table for ||L^{iu}||_p with the fitted envelope (K, omega)."""

    p: float
    rows: tuple
    K: float
    omega: float


def _m_theta_values(theta: float, lam: np.ndarray) -> np.ndarray:
    """Vectorised m_theta on a nonnegative spectrum; the value at 0 is 0."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    nz = lam > 0.0
    lnz = lam[nz]
    phase = complex(math.cos(theta), math.sin(theta))
    out[nz] = np.exp(-phase * lnz) + np.expm1(-lnz) / lnz
    return out


def m_theta(theta: float, lam: float) -> complex:
    """Multiplier exp(-e^{i theta} lambda) - (1 - e^{-lambda})/lambda, 0 at lambda = 0."""
    theta = float(theta)
    if abs(theta) >= math.pi / 2.0:
        raise ValueError(f"multiplier angle must satisfy |theta| < pi/2, got {theta}")
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"multiplier argument must be nonnegative, got {lam}")
    return complex(_m_theta_values(theta, np.asarray([lam]))[0])


def _n_hat_values(theta: float, u: np.ndarray) -> np.ndarray:
    """Vectorised n_hat_theta.

    The closed form (e^{-theta u} - (1+iu)^{-1}) Gamma(-iu) is the Mellin
    transform of m_theta at s = -iu, which is what the reconstruction
    integral (1/2 pi) int n_hat(u) lambda^{iu} du inverts.  It is
    rewritten as -(expm1(-theta u)/(iu) + 1/(1+iu)) Gamma(1-iu), which is
    finite at u = 0 (value -(1 + i theta)) and avoids the cancellation
    between the two terms for small u.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape, dtype=complex)
    zero = u == 0.0
    out[zero] = -(1.0 + 1j * theta)
    unz = u[~zero]
    if unz.size:
        iu = 1j * unz
        bracket = np.expm1(-theta * unz) / iu + 1.0 / (1.0 + iu)
        out[~zero] = -bracket * gamma_values(1.0 - iu)
    return out


def n_hat(theta: float, u: float) -> complex:
    """Fourier dual of the multiplier; the removable singularity at u = 0 is -(1 + i theta)."""
    return complex(_n_hat_values(float(theta), np.asarray([float(u)]))[0])


def decay_constant(psi: float, u_grid=None, n_theta: int = 9) -> DecayCertificate:
    """Empirical constant C with |n_hat_theta(u)| <= C e^{(|theta|-pi/2)|u|}.

    Scans a theta grid over [-psi, psi] and the u grid, then repeats on
    grids of doubled density; the certificate is flagged unstable when the
    two scans differ by 5 percent or more.
    """
    psi = float(psi)
    if not (0.0 <= psi < math.pi / 2.0):
        raise ValueError(f"psi must lie in [0, pi/2), got {psi}")
    if u_grid is None:
        u_grid = np.linspace(-40.0, 40.0, 801)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValueError("u grid must be nonempty")
    if n_theta < 1:
        raise ValueError("need at least one theta sample")

    def scan(us: np.ndarray, thetas: np.ndarray) -> float:
        best = 0.0
        for theta in thetas:
            weights = np.exp((math.pi / 2.0 - abs(theta)) * np.abs(us))
            best = max(best, float((np.abs(_n_hat_values(theta, us)) * weights).max()))
        return best

    def theta_grid(count: int) -> np.ndarray:
        if psi == 0.0:
            return np.zeros(1)
        return np.linspace(-psi, psi, count)

    def refine(grid: np.ndarray) -> np.ndarray:
        if grid.size == 1:
            return grid
        return np.linspace(grid[0], grid[-1], 2 * grid.size - 1)

    coarse = scan(u_grid, theta_grid(n_theta))
    fine = scan(refine(u_grid), refine(theta_grid(n_theta)))
    rel_change = abs(fine - coarse) / max(coarse, fine)
    return DecayCertificate(psi=psi, constant=coarse, refined_constant=fine,
                            rel_change=float(rel_change), stable=bool(rel_change < 0.05))


def apply_m_theta(gen, theta: float, t: float, field):
    """m_theta(t L) on a scalar or Bochner field, via the direct formula.

    The direct formula is defined on the whole spectrum including the
    kernel (m_theta(0) = 0), so no Mellin representation is involved here.
    """
    theta = float(theta)
    if abs(theta) >= math.pi / 2.0:
        raise ValueError(f"multiplier angle must satisfy |theta| < pi/2, got {theta}")
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be positive and finite, got {t}")
    gvals = _m_theta_values(theta, t * gen.decomposition.eigenvalues)
    return apply_to_field(gen.decomposition, gvals, field)


def m_theta_maximal(gen, field: BochnerField, grid: SectorGrid) -> np.ndarray:
    """Pointwise sup over (t, theta) grid nodes of |m_theta(t L) F|_B."""
    values, r = field_parts(gen.space, field)
    lam = gen.decomposition.eigenvalues
    gvals = [_m_theta_values(theta, t * lam) for t in grid.radii for theta in grid.angles]
    return family_sup(gen.decomposition, gvals, values, r)


def mellin_reconstruct(theta: float, lam: float, U: float = DEFAULT_QUAD_U,
                       h: float = DEFAULT_QUAD_H) -> complex:
    """Trapezoid quadrature of (1/2 pi) integral_{-U}^{U} n_hat(u) lambda^{iu} du.

    Valid only for strictly positive lambda (the kernel is excluded from
    every Mellin representation).  The realised truncation is N h with
    N = round(U/h).
    """
    theta = float(theta)
    if abs(theta) >= math.pi / 2.0:
        raise ValueError(f"multiplier angle must satisfy |theta| < pi/2, got {theta}")
    lam = float(lam)
    if not (lam > 0.0):
        raise ValueError(f"Mellin reconstruction requires lambda > 0, got {lam}")
    if not (h > 0.0 and U > 0.0):
        raise ValueError("quadrature needs U > 0 and h > 0")
    n_half = max(1, int(round(U / h)))
    u = h * np.arange(-n_half, n_half + 1)
    integrand = _n_hat_values(theta, u) * np.exp(1j * u * math.log(lam))
    integral = h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    return complex(integral / (2.0 * math.pi))


def truncation_bound(theta: float, U: float, constant: float) -> float:
    """Analytic tail estimate for the truncated Mellin integral.

    Both tails of |n_hat| <= C e^{(|theta|-pi/2)|u|} integrate to
    (C/pi) e^{(|theta|-pi/2) U} / (pi/2 - |theta|).
    """
    a = math.pi / 2.0 - abs(float(theta))
    if a <= 0.0:
        raise ValueError("tail bound needs |theta| < pi/2")
    return constant / math.pi * math.exp(-a * float(U)) / a


def decomposition_residual(gen, z: complex, field: BochnerField) -> float:
    """Residual of the exact two-term decomposition at z, in the Bochner 2-norm.

    exp(-z L) F must equal the time average at t = |z| plus
    m_theta(t L) F with theta = arg z; the identity holds eigenvalue by
    eigenvalue, so the residual is roundoff-level.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("the decomposition needs z != 0")
    if z.real < 0.0:
        raise ValueError(f"z must lie in the closed right half-plane, got {z}")
    t = abs(z)
    theta = math.atan2(z.imag, z.real)
    lhs = evolve(gen, z, field)
    avg = ergodic_average(gen, t, field)
    mpart = apply_m_theta(gen, theta, t, field)
    diff = field.replace_values(lhs.values - avg.values - mpart.values)
    return bochner_norm(gen.space, diff, 2.0)


def sector_maximal(gen, field: BochnerField, grid: SectorGrid) -> np.ndarray:
    """Pointwise sup over the sector grid of |exp(-z L) F|_B.

    Refining the grid never decreases the result (the node set only
    grows).
    """
    values, r = field_parts(gen.space, field)
    dec = gen.decomposition
    return family_sup(dec, np.exp(np.multiply.outer(-grid.points(), dec.eigenvalues)), values, r)


def bip_plan(p: float, r: float, psi: float, theta: float | None = None,
             margin: float = 0.05) -> BipPlan:
    """Interpolation plan (theta, q, sigma, omega) for the sector bounds.

    Without an explicit theta the minimal admissible value
    max(|2/p - 1|, |2/r - 1|) plus the margin is chosen, capped so that
    psi < (pi/2)(1 - theta) still holds.  All plan invariants are
    verified; impossible hypotheses raise BipPlanError naming the
    violated inequality.
    """
    p = float(p)
    r = float(r)
    psi = float(psi)
    if not (1.0 < p < math.inf):
        raise BipPlanError(f"exponent p must satisfy 1 < p < inf, got {p}")
    if not (1.0 < r < math.inf):
        raise BipPlanError(f"fiber exponent r must satisfy 1 < r < inf, got {r}")
    if not (0.0 <= psi < math.pi / 2.0):
        raise BipPlanError(f"target angle psi must lie in [0, pi/2), got {psi}")
    theta_min = max(abs(2.0 / p - 1.0), abs(2.0 / r - 1.0))
    theta_cap = 1.0 - 2.0 * psi / math.pi
    if theta is not None:
        theta = float(theta)
        if theta <= theta_min:
            raise BipPlanError(
                f"interpolation weight theta = {theta} violates "
                f"max(|2/p - 1|, |2/r - 1|) = {theta_min} < theta"
            )
        if theta >= 1.0:
            raise BipPlanError(f"interpolation weight theta = {theta} must be < 1")
        if theta >= theta_cap:
            raise BipPlanError(
                f"theta = {theta} leaves no sector room: psi = {psi} >= (pi/2)(1 - theta)"
            )
    else:
        if theta_min >= theta_cap:
            raise BipPlanError(
                f"no admissible theta: max(|2/p - 1|, |2/r - 1|) = {theta_min} "
                f">= 1 - 2 psi/pi = {theta_cap}"
            )
        theta = theta_min + margin
        if theta >= theta_cap:
            theta = 0.5 * (theta_min + theta_cap)
    q = theta / (1.0 / p - (1.0 - theta) / 2.0)
    if not (1.0 < q < math.inf):
        raise BipPlanError(f"auxiliary exponent q = {q} fell outside (1, inf)")
    sigma = 0.5 * (math.pi / 2.0 + (math.pi / 2.0 - psi) / theta)
    omega = sigma * theta
    if not (omega < math.pi / 2.0 - psi):
        raise BipPlanError(f"power angle omega = {omega} is not below pi/2 - psi = {math.pi / 2.0 - psi}")
    return BipPlan(p=p, r=r, psi=psi, theta=theta, q=q, sigma=sigma, omega=omega)


def maximal_theorem_experiment(spec: EnsembleSpec, p: float, r: float, psi: float,
                               d_list=(1, 2, 4, 8, 16), trials: int = 4, seed: int = 0,
                               grid: SectorGrid | None = None,
                               theta: float | None = None) -> MaximalReport:
    """Dimension profile C_emp(d) of the sector maximal function.

    For every fiber dimension d the worst ratio
    ||sector_maximal(F)||_p / ||F||_p over the seeded ensemble is
    recorded; the pass criterion combines dimension-uniformity
    (C_emp(d_max)/C_emp(d_min) <= 2) with the per-trial triangle bound
    against the ergodic and multiplier parts.
    """
    p = float(p)
    r = float(r)
    if math.isinf(r):
        raise ValueError("maximal experiments require a finite fiber exponent r")
    plan = bip_plan(p, r, psi, theta=theta)
    if psi > stein_angle(p) + 1e-15:
        raise ValueError(
            f"psi = {psi} exceeds the contraction sector angle {stein_angle(p)} at p = {p}"
        )
    d_list = [int(d) for d in d_list]
    if not d_list or min(d_list) < 1:
        raise ValueError("d list must be nonempty with positive dimensions")
    if grid is None:
        grid = SectorGrid.default(psi)
    members = build_ensemble(spec, seed)
    if not members:
        raise ValueError("empty ensemble")

    c_emp = []
    max_excess = -math.inf
    for d in d_list:
        descriptor = BanachNormDescriptor(d, r)
        worst = 0.0
        for member_seed, gen in members:
            rng = np.random.default_rng(member_seed + 13)
            for _ in range(trials):
                values = rng.standard_normal((gen.n, d)) + 1j * rng.standard_normal((gen.n, d))
                field = BochnerField(values, descriptor)
                denom = bochner_norm(gen.space, field, p)
                maximal = lp_norm(gen.space, sector_maximal(gen, field, grid), p)
                worst = max(worst, maximal / denom)
                ergodic_part = lp_norm(gen.space, maximal_ergodic(gen, field, grid.radii), p)
                multiplier_part = lp_norm(gen.space, m_theta_maximal(gen, field, grid), p)
                excess = maximal - ergodic_part - multiplier_part - 1e-9 * denom
                max_excess = max(max_excess, excess)
        c_emp.append(worst)
    top = c_emp[int(np.argmax(d_list))]
    low = c_emp[int(np.argmin(d_list))]
    if low > 0.0:
        ratio = top / low
    else:
        ratio = 1.0 if top == 0.0 else math.inf
    passed = bool(ratio <= 2.0 and max_excess <= 0.0)
    return MaximalReport(plan=plan, d_list=tuple(d_list), c_emp=tuple(c_emp),
                         uniformity_ratio=float(ratio), max_triangle_excess=float(max_excess),
                         passed=passed)


def pointwise_convergence_profile(gen, field: BochnerField, psi: float,
                                  radii=None, n_angles: int = 9) -> ConvergenceProfile:
    """Approach errors e(rho) of exp(-z L) F toward F along shrinking sectors.

    e(rho) is the worst pointwise fiber-norm deviation over all grid
    nodes with |z| <= rho; the table is non-increasing by construction
    and for an injective generator decays linearly in rho, so the
    log-log slope over the last decade sits near 1.
    """
    psi = float(psi)
    if not (0.0 <= psi < math.pi / 2.0):
        raise ValueError(f"psi must lie in [0, pi/2), got {psi}")
    if radii is None:
        radii = np.geomspace(1e-1, 1e-6, 6)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    if np.any(np.diff(radii) >= 0.0):
        raise ValueError("radii must be strictly decreasing")
    if field.n != gen.n:
        raise ValueError(f"field has {field.n} points, generator has {gen.n}")
    if psi == 0.0:
        angles = np.zeros(1)
    else:
        angles = np.linspace(-psi, psi, n_angles)
    nodes = np.asarray([rho * complex(math.cos(angle), math.sin(angle))
                        for rho in radii for angle in angles])
    dec = gen.decomposition
    flowed = apply_multiplier(dec, np.exp(np.multiply.outer(-nodes, dec.eigenvalues)), field.values)
    deviation = fiber_norm(flowed - field.values, field.norm.r)
    per_radius = deviation.reshape(radii.size, -1).max(axis=1)
    errors = np.maximum.accumulate(per_radius[::-1])[::-1]
    window = radii <= radii[-1] * 10.0 * (1.0 + 1e-12)
    if window.sum() >= 2 and np.all(errors[window] > 0.0):
        slope = float(np.polyfit(np.log(radii[window]), np.log(errors[window]), 1)[0])
    else:
        slope = math.nan
    return ConvergenceProfile(radii=radii, errors=errors, slope=slope)


def imaginary_power_estimate(gen, p: float, u_grid=None, trials: int = 40,
                             seed: int = 0) -> BipEstimate:
    """Randomized lower bounds on ||L^{iu}||_p with a fitted growth envelope.

    The generator must be injective (the Mellin representation behind the
    estimate presumes strictly positive spectrum).  The fit reports the
    least exponential envelope through the exact value 1 at u = 0:
    omega = max over nonzero grid u of log(norm_lb(u))/|u| (clamped at 0)
    and K = max over the grid of norm_lb(u) e^{-omega |u|}.
    """
    if not gen.injective:
        raise ValueError("imaginary-power estimates require an injective generator")
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    if u_grid is None:
        u_grid = np.linspace(-5.0, 5.0, 21)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValueError("u grid must be nonempty")
    rng = np.random.default_rng(seed)
    rows = []
    for u in u_grid:
        if u == 0.0:
            rows.append((0.0, 1.0))
            continue
        matrix = imaginary_power_matrix(gen, float(u))
        lb = operator_norm_lower_bound(gen.space, matrix, p, trials=trials, seed=rng)
        rows.append((float(u), float(lb)))
    omega = 0.0
    for u, lb in rows:
        if u != 0.0 and lb > 0.0:
            omega = max(omega, math.log(lb) / abs(u))
    big_k = max(lb * math.exp(-omega * abs(u)) for u, lb in rows)
    return BipEstimate(p=p, rows=tuple(rows), K=float(big_k), omega=float(omega))
