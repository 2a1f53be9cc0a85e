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
    lp_norms,
    random_field,
)
from .ergodic import _averaging_values, maximal_ergodic
from .semigroup import (
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    check_sector_angle,
    ensemble_diagnostics,
    _imaginary_power_values,
    sector_angles,
)
from .spectral import (
    apply_multiplier,
    family_sup,
    gamma_values,
    multiplier_norm_bounds,
)

__all__ = [
    "BipPlan",
    "BipPlanError",
    "BipEstimate",
    "DecayCertificate",
    "ConvergenceProfile",
    "MaximalReport",
    "n_hat_table",
    "decay_constant",
    "m_theta_maximal",
    "mellin_reconstruct",
    "truncation_bound",
    "decomposition_residuals",
    "sector_maximal",
    "maximal_theorem_experiment",
    "bip_plan",
    "pointwise_convergence_profile",
    "imaginary_power_estimate",
]

# Default quadrature window: the Mellin integral runs over [-U, U] with step h,
# and the decay scan samples the same window at DECAY_U_NODES points.
DEFAULT_QUAD_U = 40.0
DEFAULT_QUAD_H = 0.01
DECAY_U_NODES = 801

# The decay certificate is stable when doubling the grids changes it by less than this share.
DECAY_STABLE_REL = 0.05

# Largest C_emp(d_max)/C_emp(d_min) of a dimension profile that passes.
UNIFORMITY_MAX = 2.0

# Distance of the planner's default theta above its floor max(|2/p - 1|, |2/r - 1|).
BIP_THETA_MARGIN = 0.05


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
    max_relative_eigen_residual: float
    max_orthonormality_defect: float


@dataclass(frozen=True)
class BipEstimate:
    """Two-sided table (u, norm_lb, norm_ub) for ||L^{iu}||_p with fitted envelopes.

    (K, omega) is fitted to the lower bounds; ``omega_ub`` is the same fit's
    angle through the upper bounds, so ||L^{iu}||_p <= e^{omega_ub |u|} at
    every grid node.
    """

    p: float
    rows: tuple
    K: float
    omega: float
    omega_ub: float


def _m_theta_values(theta, lam) -> np.ndarray:
    """Vectorised m_theta, exp(-e^{i theta} lambda) - phi(lambda), theta and lam broadcast.

    phi is _averaging_values at t = 1, so m_theta is 0 at 0.  It is added negated, not
    subtracted, so an imaginary part -0 of the exponential (at theta = 0) becomes +0.
    """
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return np.exp(-(np.cos(theta) + 1j * np.sin(theta)) * lam) + -_averaging_values(lam, 1.0)


def _n_hat_values(theta, u: np.ndarray) -> np.ndarray:
    """Vectorised n_hat_theta, of shape ``theta.shape + u.shape``.

    The closed form (e^{-theta u} - (1+iu)^{-1}) Gamma(-iu) is the Mellin
    transform of m_theta at s = -iu, which is what the reconstruction
    integral (1/2 pi) int n_hat(u) lambda^{iu} du inverts.  It is
    rewritten as -(expm1(-theta u)/(iu) + 1/(1+iu)) Gamma(1-iu), which is
    finite at u = 0 (value -(1 + i theta)) and avoids the cancellation
    between the two terms for small u.  Gamma and 1/(1+iu) do not depend
    on theta, so an array of angles shares one gamma_values call; each
    angle's row is bit for bit that of a call on the angle alone.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty(theta.shape + u.shape, dtype=complex)
    zero = u == 0.0
    unz = u[~zero]
    iu = 1j * unz
    if unz.size:
        gamma = gamma_values(1.0 - iu)
        pole = 1.0 / (1.0 + iu)
    # one angle at a time, so the temporaries stay one u row long
    for index, angle in np.ndenumerate(theta):
        angle = float(angle)
        row = out[index]
        row[zero] = -(1.0 + 1j * angle)
        if unz.size:
            row[~zero] = -(np.expm1(-angle * unz) / iu + pole) * gamma
    return out


def n_hat_table(thetas, us) -> tuple[np.ndarray, np.ndarray]:
    """n_hat_theta(u) and its ratio to e^{(|theta|-pi/2)|u|}, each (len(thetas), len(us)).

    The largest ratio is the decay constant on the grid."""
    thetas = np.asarray(thetas, dtype=float)
    us = np.asarray(us, dtype=float)
    values = _n_hat_values(thetas, us)
    ratios = np.abs(values) * np.exp(np.multiply.outer(math.pi / 2.0 - np.abs(thetas), np.abs(us)))
    return values, ratios


def decay_constant(psi: float, u_grid=None, n_theta: int = 9) -> DecayCertificate:
    """Empirical constant C with |n_hat_theta(u)| <= C e^{(|theta|-pi/2)|u|}.

    Scans a theta grid over [-psi, psi] and the u grid, then repeats on
    grids of doubled density; the certificate is flagged unstable when the
    two scans differ by DECAY_STABLE_REL or more.
    """
    psi = float(psi)
    if not (0.0 <= psi < math.pi / 2.0):
        raise ValueError(f"psi must lie in [0, pi/2), got {psi}")
    if u_grid is None:
        u_grid = np.linspace(-DEFAULT_QUAD_U, DEFAULT_QUAD_U, DECAY_U_NODES)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValueError("u grid must be nonempty")
    if n_theta < 1:
        raise ValueError("need at least one theta sample")

    def refine(grid: np.ndarray) -> np.ndarray:
        if grid.size == 1:
            return grid
        return np.linspace(grid[0], grid[-1], 2 * grid.size - 1)

    thetas = sector_angles(psi, n_theta)
    coarse = float(n_hat_table(thetas, u_grid)[1].max())
    fine = float(n_hat_table(refine(thetas), refine(u_grid))[1].max())
    rel_change = abs(fine - coarse) / max(coarse, fine)
    return DecayCertificate(psi=psi, constant=coarse, refined_constant=fine,
                            rel_change=float(rel_change),
                            stable=bool(rel_change < DECAY_STABLE_REL))


def m_theta_maximal(gen, field, grid: SectorGrid) -> np.ndarray:
    """Pointwise sup over (t, theta) grid nodes of |m_theta(t L) F|_B.

    ``field`` is one Bochner field, giving (n,), or a list of T sharing one
    descriptor, giving (n, T) whose column j equals a call on ``field[j]``.
    """
    values, r = field_parts(gen.space, field, batch=True)
    lam = gen.decomposition.eigenvalues
    t_lam = np.multiply.outer(grid.radii, lam)[:, None, :]
    gvals = _m_theta_values(grid.angles[:, None], t_lam).reshape(-1, lam.size)
    return family_sup(gen.decomposition, gvals, values, r)


def mellin_reconstruct(theta, lam, U: float = DEFAULT_QUAD_U, h: float = DEFAULT_QUAD_H):
    """Trapezoid quadrature of (1/2 pi) integral_{-U}^{U} n_hat(u) lambda^{iu} du.

    ``lam`` is one eigenvalue, giving a complex, or an array of them,
    giving an array of the same shape.  ``theta`` is one angle or a 1-d
    array of them, which prepends its axis: the result has shape
    ``(len(theta),) + lam.shape``.  n_hat is sampled once per call and the
    phase row lambda^{iu} once per lambda, shared by every angle; each
    value is bit for bit that of a call on its angle and lambda alone.
    Valid only for strictly positive lambda (the kernel is excluded from
    every Mellin representation).  The realised truncation is N h with
    N = round(U/h).
    """
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1:
        raise ValueError(f"theta must be one angle or a 1-d array of them, got shape {thetas.shape}")
    if not np.all(np.abs(thetas) < math.pi / 2.0):
        raise ValueError(f"multiplier angle must satisfy |theta| < pi/2, got {theta}")
    lams = np.asarray(lam, dtype=float)
    if not np.all(lams > 0.0):
        raise ValueError(f"Mellin reconstruction requires lambda > 0, got {lam}")
    if not (h > 0.0 and U > 0.0):
        raise ValueError("quadrature needs U > 0 and h > 0")
    n_half = max(1, int(round(U / h)))
    u = h * np.arange(-n_half, n_half + 1)
    nhat = _n_hat_values(thetas, u)
    iu = 1j * u
    out = np.empty(thetas.shape + lams.shape, dtype=complex)
    for index, value in np.ndenumerate(lams):
        integrand = nhat * np.exp(iu * math.log(value))
        integral = h * (integrand.sum(axis=-1) - 0.5 * (integrand[..., 0] + integrand[..., -1]))
        out[(...,) + index] = integral / (2.0 * math.pi)
    return complex(out) if out.ndim == 0 else out


def truncation_bound(theta: float, U: float, constant: float) -> float:
    """Analytic tail estimate for the truncated Mellin integral.

    Both tails of |n_hat| <= C e^{(|theta|-pi/2)|u|} integrate to
    (C/pi) e^{(|theta|-pi/2) U} / (pi/2 - |theta|).
    """
    a = math.pi / 2.0 - abs(float(theta))
    if not a > 0.0:
        raise ValueError("tail bound needs |theta| < pi/2")
    return constant / math.pi * math.exp(-a * float(U)) / a


def decomposition_residuals(gen, zs, fields) -> np.ndarray:
    """Residuals of the two-term decomposition, one per pair (z, field), in the Bochner 2-norm.

    exp(-z L) F must equal the time average at t = |z| plus m_theta(t L) F
    with theta = arg z, for z in the open right half-plane |arg z| < pi/2
    (m_theta needs |theta| < pi/2); the identity holds eigenvalue by
    eigenvalue, so each residual is roundoff-level.  ``zs`` and ``fields``
    are equal-length, nonempty sequences; each field is one Bochner field,
    and the residual uses its own fiber norm.

    One pass per generator: the three rows exp(-z lambda), phi(t lambda)
    and m_theta(t lambda) of every z are built in one vectorised step, with
    t and theta taken per z by Python's abs and math.atan2 (numpy's round
    differently); then each field gets its three rows in one
    apply_multiplier call.  Each residual is bit for bit that of applying
    the three terms one at a time, the test-suite's route.
    """
    zs = [complex(z) for z in zs]
    fields = list(fields)
    if not zs:
        raise ValueError("a decomposition batch needs at least one (z, field) pair")
    if len(zs) != len(fields):
        raise ValueError(f"need one field per z, got {len(zs)} z and {len(fields)} fields")
    ts = [abs(z) for z in zs]
    thetas = [math.atan2(z.imag, z.real) for z in zs]
    for z, t, theta in zip(zs, ts, thetas):
        if t == 0.0:
            raise ValueError("the decomposition needs z != 0")
        if not math.isfinite(t):
            raise ValueError(f"the decomposition needs a finite z, got {z}")
        if not abs(theta) < math.pi / 2.0:
            raise ValueError(f"z must satisfy |arg z| < pi/2, got {z}")
    dec = gen.decomposition
    lam = dec.eigenvalues
    ts = np.array(ts)
    thetas = np.array(thetas)
    rows = np.stack([np.exp(np.multiply.outer(-np.array(zs), lam)),
                     _averaging_values(lam, ts),
                     _m_theta_values(thetas[:, None], np.multiply.outer(ts, lam))], axis=1)
    out = np.empty(len(zs))
    for k, field in enumerate(fields):
        values, r = field_parts(gen.space, field)
        lhs, avg, mpart = apply_multiplier(dec, rows[k], values)
        diff = lhs - avg - mpart
        out[k] = lp_norm(gen.space, fiber_norm(diff, r), 2.0)
    if not np.all(np.isfinite(out)):
        raise ValueError("decomposition residual is not finite")
    return out


def sector_maximal(gen, field, grid: SectorGrid) -> np.ndarray:
    """Pointwise sup over the sector grid of |exp(-z L) F|_B.

    Refining the grid never decreases the result (the node set only
    grows).  ``field`` is one Bochner field, giving (n,), or a list of T
    sharing one descriptor, giving (n, T) whose column j equals a call on
    ``field[j]``.
    """
    values, r = field_parts(gen.space, field, batch=True)
    dec = gen.decomposition
    return family_sup(dec, np.exp(np.multiply.outer(-grid.points(), dec.eigenvalues)), values, r)


def bip_plan(p: float, r: float, psi: float, theta: float | None = None) -> BipPlan:
    """Interpolation plan (theta, q, sigma, omega) for the sector bounds.

    Without an explicit theta the minimal admissible value
    max(|2/p - 1|, |2/r - 1|) plus BIP_THETA_MARGIN is chosen, capped so that
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
        theta = theta_min + BIP_THETA_MARGIN
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
    (C_emp(d_max)/C_emp(d_min) <= UNIFORMITY_MAX) with the per-trial triangle bound
    against the ergodic and multiplier parts.  A member's trials at one d
    are one batch: each of the three maximal functions is called once on
    the list of its fields, and their L^p norms are one lp_norms call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = float(p)
    r = float(r)
    if math.isinf(r):
        raise ValueError("maximal experiments require a finite fiber exponent r")
    check_sector_angle(p, psi)
    plan = bip_plan(p, r, psi, theta=theta)
    d_list = [int(d) for d in d_list]
    if not d_list or min(d_list) < 1:
        raise ValueError("d list must be nonempty with positive dimensions")
    if grid is None:
        grid = SectorGrid.default(psi)
    members = build_ensemble(spec, seed)

    c_emp = []
    max_excess = -math.inf
    for d in d_list:
        descriptor = BanachNormDescriptor(d, r)
        worst = 0.0
        for member_seed, gen in members:
            rng = np.random.default_rng(member_seed + 13)
            fields = [random_field(rng, gen.n, descriptor) for _ in range(trials)]
            sector = sector_maximal(gen, fields, grid)
            ergodic = maximal_ergodic(gen, fields, grid.radii)
            multiplier = m_theta_maximal(gen, fields, grid)
            denom = np.array([bochner_norm(gen.space, field, p) for field in fields])
            maximal, ergodic_part, multiplier_part = lp_norms(
                gen.space, np.stack([sector, ergodic, multiplier]).swapaxes(-1, -2), p)
            worst = max(worst, float((maximal / denom).max()))
            excess = maximal - ergodic_part - multiplier_part - 1e-9 * denom
            max_excess = max(max_excess, float(excess.max()))
        c_emp.append(worst)
    top = c_emp[int(np.argmax(d_list))]
    low = c_emp[int(np.argmin(d_list))]
    if low > 0.0:
        ratio = top / low
    else:
        ratio = 1.0 if top == 0.0 else math.inf
    passed = bool(ratio <= UNIFORMITY_MAX and max_excess <= 0.0)
    return MaximalReport(plan=plan, d_list=tuple(d_list), c_emp=tuple(c_emp),
                         uniformity_ratio=float(ratio), max_triangle_excess=float(max_excess),
                         passed=passed, **ensemble_diagnostics(members))


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
    values, r = field_parts(gen.space, field)
    angles = sector_angles(psi, n_angles)
    nodes = np.asarray([rho * complex(math.cos(angle), math.sin(angle))
                        for rho in radii for angle in angles])
    dec = gen.decomposition
    flowed = apply_multiplier(dec, np.exp(np.multiply.outer(-nodes, dec.eigenvalues)), values)
    deviation = fiber_norm(flowed - values, r)
    per_radius = deviation.reshape(radii.size, -1).max(axis=1)
    errors = np.maximum.accumulate(per_radius[::-1])[::-1]
    window = radii <= radii[-1] * 10.0 * (1.0 + 1e-12)
    if window.sum() >= 2 and np.all(errors[window] > 0.0):
        slope = float(np.polyfit(np.log(radii[window]), np.log(errors[window]), 1)[0])
    else:
        slope = math.nan
    return ConvergenceProfile(radii=radii, errors=errors, slope=slope)


def _growth_angle(us, norms) -> float:
    """Least omega >= 0 with norm <= e^{omega |u|} at every nonzero node."""
    omega = 0.0
    for u, norm in zip(us, norms):
        if u != 0.0 and norm > 0.0:
            omega = max(omega, math.log(norm) / abs(u))
    return omega


def imaginary_power_estimate(gen, p: float, u_grid=None, trials: int = 40,
                             seed: int = 0) -> BipEstimate:
    """Two-sided bounds on ||L^{iu}||_p (multiplier_norm_bounds) with growth envelopes.

    The generator must be injective (the Mellin representation behind the
    estimate presumes strictly positive spectrum).  At p = 2 both bounds
    are the exact norm.  The fit reports the least exponential envelope
    through the exact value 1 at u = 0:
    omega = max over nonzero grid u of log(norm_lb(u))/|u| (clamped at 0)
    and K = max over the grid of norm_lb(u) e^{-omega |u|}; omega_ub is
    the same angle through norm_ub.
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
    moving = u_grid != 0.0
    lower, upper = np.ones(u_grid.size), np.ones(u_grid.size)
    if moving.any():
        gvals = _imaginary_power_values(gen.decomposition.eigenvalues, u_grid[moving])
        lower[moving], upper[moving] = multiplier_norm_bounds(gen.decomposition, gvals, p,
                                                              trials=trials, seed=seed)
    rows = tuple((float(u), float(lb), float(ub)) for u, lb, ub in zip(u_grid, lower, upper))
    omega = _growth_angle(u_grid, lower)
    big_k = max(lb * math.exp(-omega * abs(u)) for u, lb in zip(u_grid, lower))
    return BipEstimate(p=p, rows=rows, K=float(big_k), omega=float(omega),
                       omega_ub=float(_growth_angle(u_grid, upper)))
