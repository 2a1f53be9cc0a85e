"""Configuration-driven experiment runner.

One JSON document describes a run: seed, ensemble, exponents, angles,
grids and the output prefix; verdict slacks are module constants, not
config keys.  Each command executes a named experiment, writes
``<prefix>.<table>.csv`` result tables plus a ``<prefix>.manifest.json``
echoing the inputs, and exits 0 when every pass criterion holds, 1 on a
numeric failure, 2 on a config or usage error or an artifact that cannot
be written, and 3 when the command raises, printing one ``error:`` line
and writing, where it can, a manifest with ``passed: false`` and an
``error`` record.  CSV bodies are deterministic functions of the config
(17 significant digits, '.' decimal, no timing columns); timings live
only in the manifest.

Each command takes and echoes only the config keys it reads (``_COMMANDS``).
``full-suite`` runs the whole acceptance battery; it writes the criterion
tables, the manifest and a ``<prefix>.summary.json``.  The per-criterion
functions are also imported directly by the test-suite.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from . import __version__
from .core import (ABS_TOL, BanachNormDescriptor, _gaussian_batch, bochner_norm, lp_norms,
                   random_field)
from .ergodic import HDS_SLACK, hds_bound, hds_experiment
from .mellin import (
    DECAY_STABLE_REL,
    DECAY_U_NODES,
    DEFAULT_QUAD_H,
    DEFAULT_QUAD_U,
    UNIFORMITY_MAX,
    BipPlanError,
    bip_plan,
    decay_constant,
    decomposition_residuals,
    imaginary_power_estimate,
    maximal_theorem_experiment,
    mellin_reconstruct,
    _m_theta_values,
    n_hat_table,
    pointwise_convergence_profile,
    truncation_bound,
)
from .modulus import modulus_generator, subpositivity_suite, verify_domination
from .semigroup import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    check_sector_angle,
    ensemble_diagnostics,
    _imaginary_power_values,
    exemplar_contraction_generator,
    random_generator,
    sector_angles,
    sector_contraction_probe,
    semigroup_matrix,
)
from .spectral import apply_multiplier, complex_gamma

__all__ = ["ExperimentConfig", "ConfigError", "run", "main",
           "COMMANDS", "DEFAULT_SEED", "ACCEPTANCE_CRITERIA"]

DEFAULT_SEED = 20260817

# Largest reconstruction error of the Mellin quadrature that passes, in
# `mellin-table` and criterion 04.
QUAD_TOL = 1e-6

# Window of the log-log slope of the pointwise approach error that passes, in
# `pointwise` and criterion 11.
SLOPE_WINDOW = (0.8, 1.2)

# Largest error of the 2x2 modulus exemplar against its closed form, and of
# its semigroup law, that passes, in `modulus` and criterion 06.
EXEMPLAR_TOL = 1e-8
EXEMPLAR_SEMIGROUP_TOL = 1e-6


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_BASE_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "trials": 8,
    "ensemble": {"n": 8, "count": 50, "kind": "diffusion", "c": 1.0},
    "exponents": {"p": [2.0], "r": 2.0, "d": 4},
    "angles": {"psi": 0.25 * math.pi, "theta": None},
    "grids": {"t_min": 1e-3, "t_max": 1e2, "n_radii": 24, "n_angles": 9,
              "U": DEFAULT_QUAD_U, "h": DEFAULT_QUAD_H},
    "output": None,
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _require_keys(command: str, section: str, given: dict, allowed: tuple) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {', '.join(unknown)} "
                          f"({command} reads: {', '.join(allowed)})")


def _integer(key: str, value) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _real(key: str, value) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted description of one run."""

    command: str
    seed: int
    trials: int
    ensemble: EnsembleSpec
    p_list: tuple
    r: float
    d_list: tuple
    psi: float
    theta: float | None
    t_min: float
    t_max: float
    n_radii: int
    n_angles: int
    quad_U: float
    quad_h: float
    output: str

    @classmethod
    def from_sources(cls, command: str, document: dict | None = None,
                     overrides: dict | None = None) -> "ExperimentConfig":
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
        _, command_defaults, reads = _COMMANDS[command]
        merged = defaults = _deep_merge(_BASE_DEFAULTS, command_defaults)
        for source in (document or {}, overrides or {}):
            _require_keys(command, "config", source, tuple(reads))
            for section in (key for key, keys in reads.items() if keys and key in source):
                _require_keys(command, section, source[section], reads[section])
            merged = _deep_merge(merged, source)

        try:
            seed = _integer("seed", merged["seed"])
            trials = _integer("trials", merged["trials"])
            if trials < 1:
                raise ValueError("trials must be >= 1")
            ens = merged["ensemble"]
            ensemble = EnsembleSpec(n=_integer("ensemble.n", ens["n"]),
                                    count=_integer("ensemble.count", ens["count"]),
                                    kind=str(ens["kind"]), c=_real("ensemble.c", ens["c"]))
            raw_p = merged["exponents"]["p"]
            p_list = tuple(_real("exponents.p", p)
                           for p in (raw_p if isinstance(raw_p, (list, tuple)) else [raw_p]))
            if not p_list:
                raise ValueError("exponents.p must contain at least one exponent")
            for p in p_list:
                if not (1.0 < p < math.inf):
                    raise ValueError(f"every exponent p must satisfy 1 < p < inf, got {p}")
            r = _real("exponents.r", merged["exponents"]["r"])
            if not (1.0 < r < math.inf):
                raise ValueError(f"fiber exponent r must satisfy 1 < r < inf, got {r}")
            raw_d = merged["exponents"]["d"]
            d_list = tuple(_integer("exponents.d", d)
                           for d in (raw_d if isinstance(raw_d, (list, tuple)) else [raw_d]))
            if not d_list or min(d_list) < 1:
                raise ValueError("exponents.d must be a nonempty list of positive dimensions")
            psi = _real("angles.psi", merged["angles"]["psi"])
            if not (0.0 <= psi < math.pi / 2.0):
                raise ValueError(f"angles.psi must lie in [0, pi/2), got {psi}")
            theta = merged["angles"]["theta"]
            theta = None if theta is None else _real("angles.theta", theta)
            grids = merged["grids"]
            t_min = _real("grids.t_min", grids["t_min"])
            t_max = _real("grids.t_max", grids["t_max"])
            if not (0.0 < t_min < t_max):
                raise ValueError(f"grids need 0 < t_min < t_max, got ({t_min}, {t_max})")
            n_radii = _integer("grids.n_radii", grids["n_radii"])
            n_angles = _integer("grids.n_angles", grids["n_angles"])
            if n_radii < 1 or n_angles < 1:
                raise ValueError("grids need n_radii >= 1 and n_angles >= 1")
            quad_u = _real("grids.U", grids["U"])
            quad_h = _real("grids.h", grids["h"])
            if not (quad_u > 0.0 and quad_h > 0.0):
                raise ValueError("quadrature grids need U > 0 and h > 0")
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
        for key, values in (("p", p_list), ("d", d_list)):
            if len(values) > 1 and not isinstance(defaults["exponents"][key], list):
                raise ConfigError(f"{command} reads one value of exponents.{key}, "
                                  f"got {len(values)}: {list(values)}")

        output = merged["output"] or os.path.join("maxlab-out", command)
        config = cls(command=command, seed=seed, trials=trials, ensemble=ensemble,
                     p_list=p_list, r=r, d_list=d_list, psi=psi, theta=theta,
                     t_min=t_min, t_max=t_max, n_radii=n_radii, n_angles=n_angles,
                     quad_U=quad_u, quad_h=quad_h, output=str(output))
        config._validate_preconditions()
        return config

    def _validate_preconditions(self) -> None:
        if self.command == "pointwise" and self.ensemble.kind == "identity":
            raise ConfigError("pointwise needs an injective generator, since its unit-slope "
                              "test assumes ker L = 0; ensemble.kind = identity gives L = 0")
        try:
            if self.command in ("verify-semigroup", "maximal"):
                for p in self.p_list:
                    check_sector_angle(p, self.psi)
            if self.command in ("maximal", "bip-plan"):
                bip_plan(self.p_list[0], self.r, self.psi, theta=self.theta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def document(self) -> dict:
        """Config echo for the manifest: the keys the command reads."""
        echo = {
            "command": self.command,
            "seed": self.seed,
            "trials": self.trials,
            "ensemble": {"n": self.ensemble.n, "count": self.ensemble.count,
                         "kind": self.ensemble.kind, "c": self.ensemble.c},
            "exponents": {"p": list(self.p_list), "r": self.r, "d": list(self.d_list)},
            "angles": {"psi": self.psi, "theta": self.theta},
            "grids": {"t_min": self.t_min, "t_max": self.t_max, "n_radii": self.n_radii,
                      "n_angles": self.n_angles, "U": self.quad_U, "h": self.quad_h},
            "output": self.output,
        }
        return {"command": self.command, **{
            key: {sub: echo[key][sub] for sub in keys} if keys else echo[key]
            for key, keys in _COMMANDS[self.command][2].items()}}

    def sector_grid(self) -> SectorGrid:
        return SectorGrid.default(self.psi, t_min=self.t_min, t_max=self.t_max,
                                  n_radii=self.n_radii, n_angles=self.n_angles)


# ---------------------------------------------------------------------------
# Deterministic CSV serialisation.

def _bool_text(value) -> str:
    return "true" if value else "false"


def _float_text(value) -> str:
    return "%.17g" % value


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return _bool_text(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    return str(value)


# _format_cell's formatter for each exact type a table holds, so the common
# cells skip its isinstance chain; any other type falls back to it.
_CELL_FORMATTERS = {bool: _bool_text, np.bool_: _bool_text, int: str,
                    np.int64: str, float: _float_text,
                    np.float64: _float_text, str: str}


def _table_text(header: tuple, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_CELL_FORMATTERS.get(type(cell), _format_cell)(cell) for cell in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> str:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)
    return path


def _json_text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _write_artifacts(output: str, manifest: dict, tables: dict) -> list:
    written = [_write_text(f"{output}.{name}.csv", _table_text(*table))
               for name, table in tables.items()]
    manifest = dict(manifest, tables=[os.path.basename(p) for p in written])
    written.append(_write_text(f"{output}.manifest.json", _json_text(manifest)))
    return written


# ---------------------------------------------------------------------------
# Commands.  Each returns (passed, details, tables).

def _cmd_verify_semigroup(config: ExperimentConfig):
    # construction checks the endpoint contraction property exactly, so every
    # member built passes it; the table reports how close each came to failing
    members = build_ensemble(config.ensemble, config.seed)
    contraction_rows = [(index, member_seed, gen.n, gen.kind, gen.dominance_margin, True)
                        for index, (member_seed, gen) in enumerate(members)]
    passed = True

    grid = config.sector_grid()
    sector_rows = []
    probe_limit = min(len(members), 8)
    worst_lb = worst_ub = -math.inf
    for index, (member_seed, gen) in enumerate(members[:probe_limit]):
        for p in config.p_list:
            report = sector_contraction_probe(gen, p, config.psi, grid=grid,
                                              trials=config.trials, seed=member_seed)
            passed = passed and report.passed
            worst_lb = max(worst_lb, report.worst_norm)
            worst_ub = max(worst_ub, report.worst_upper)
            sector_rows.extend((index, member_seed) + row for row in report.rows)
    statuses = [row[-1] for row in sector_rows]
    details = {"worst_dominance_margin": min(gen.dominance_margin for _, gen in members),
               "worst_sector_lower_bound": worst_lb,
               "worst_sector_upper_bound": worst_ub, "probed_members": probe_limit,
               "sector_nodes": {status: statuses.count(status)
                                for status in ("certified", "refuted", "open")},
               **ensemble_diagnostics(members[:probe_limit])}
    tables = {
        "contraction": (("trial", "seed", "n", "kind", "dominance_margin", "pass"),
                        contraction_rows),
        "sector": (("trial", "seed", "z_re", "z_im", "p", "norm_lb", "norm_ub", "status"),
                   sector_rows),
    }
    return passed, details, tables


def _cmd_modulus(config: ExperimentConfig):
    t_star, exemplar_err, deviation, passed = _modulus_exemplar()
    exemplar_rows = [(t_star, exemplar_err, deviation)]

    members = build_ensemble(config.ensemble, config.seed)
    domination_rows = []
    suite_rows = []
    reports = []
    for index, (member_seed, gen) in enumerate(members):
        report = verify_domination(gen, trials=config.trials, seed=member_seed + 1)
        reports.append(report)
        passed = passed and report.passed
        domination_rows.append((index, member_seed, gen.n, report.max_violation,
                                report.max_norm_excess, report.passed))
        rng = np.random.default_rng(member_seed + 3)
        t = float(rng.uniform(0.1, 2.0))
        t_matrix = semigroup_matrix(gen, t)
        s_matrix = np.abs(t_matrix)
        suite = subpositivity_suite(gen.space, t_matrix, s_matrix, p=config.p_list[0],
                                    descriptor=BanachNormDescriptor(config.d_list[0], config.r),
                                    trials=config.trials, seed=member_seed + 5)
        passed = passed and suite.passed
        suite_rows.append((index, member_seed, gen.n, t, suite.sup_margin,
                           suite.tensor_margin, suite.positivity_min, suite.passed))
    details = {"exemplar_error": exemplar_err, "exemplar_deviation": deviation,
               **ensemble_diagnostics(members),
               "modulus_generator": {
                   "max_relative_eigen_residual": max(r.eigen_residual for r in reports),
                   "max_orthonormality_defect": max(r.orthonormality_defect for r in reports)}}
    tables = {
        "exemplar": (("t", "max_abs_error", "semigroup_deviation"), exemplar_rows),
        "domination": (("trial", "seed", "n", "max_violation", "max_norm_excess", "pass"),
                       domination_rows),
        "subpositivity": (("trial", "seed", "n", "t", "sup_margin", "tensor_margin",
                           "positivity_min", "pass"), suite_rows),
    }
    return passed, details, tables


def _cmd_hds(config: ExperimentConfig):
    descriptor = BanachNormDescriptor(config.d_list[0], config.r)
    result = hds_experiment(config.ensemble, config.p_list, trials=config.trials,
                            seed=config.seed, descriptor=descriptor)
    # np.max keeps a NaN ratio, which max would drop
    details = {
        f"max_ratio_p_{report.p:g}": float(np.max(report.ratios)) for report in result.reports
    }
    details["bounds"] = {f"{report.p:g}": report.bound for report in result.reports}
    details["max_relative_eigen_residual"] = result.max_relative_eigen_residual
    details["max_orthonormality_defect"] = result.max_orthonormality_defect
    tables = {"hds": (("seed", "n", "p", "ratio", "bound", "pass"), list(result.rows))}
    return result.passed, details, tables


def _cmd_mellin_table(config: ExperimentConfig):
    u_grid = np.linspace(-config.quad_U, config.quad_U, DECAY_U_NODES)
    certificate = decay_constant(config.psi, u_grid=u_grid, n_theta=config.n_angles)
    thetas = sector_angles(config.psi, config.n_angles)
    values, ratios = n_hat_table(thetas, u_grid)
    theta_col, u_col = np.meshgrid(thetas, u_grid, indexing="ij")
    multiplier_rows = list(zip(theta_col.ravel(), u_col.ravel(), values.real.ravel(),
                               values.imag.ravel(), ratios.ravel()))

    recon_rows = _reconstruction_rows(config.quad_U, config.quad_h, config.psi)
    max_err = max(err for _, _, err in recon_rows)
    tail = max(truncation_bound(theta, config.quad_U, certificate.constant)
               for theta, _, _ in recon_rows)
    passed = bool(certificate.stable and max_err <= QUAD_TOL)
    details = {"decay_constant": certificate.constant,
               "decay_refined": certificate.refined_constant,
               "decay_rel_change": certificate.rel_change,
               "max_reconstruction_error": max_err,
               "max_truncation_bound": tail}
    tables = {
        "multiplier": (("theta", "u", "re", "im", "bound_ratio"), multiplier_rows),
        "reconstruction": (("theta", "lambda", "abs_error"), recon_rows),
    }
    return passed, details, tables


def _cmd_maximal(config: ExperimentConfig):
    report = maximal_theorem_experiment(config.ensemble, config.p_list[0], config.r,
                                        config.psi, d_list=config.d_list,
                                        trials=config.trials, seed=config.seed,
                                        grid=config.sector_grid(), theta=config.theta)
    details = {
        "plan": {"theta": report.plan.theta, "q": report.plan.q,
                 "sigma": report.plan.sigma, "omega": report.plan.omega},
        "uniformity_ratio": report.uniformity_ratio,
        "max_triangle_excess": report.max_triangle_excess,
        "max_relative_eigen_residual": report.max_relative_eigen_residual,
        "max_orthonormality_defect": report.max_orthonormality_defect,
    }
    rows = list(zip(report.d_list, report.c_emp))
    tables = {"cemp": (("d", "c_emp"), rows)}
    return report.passed, details, tables


def _cmd_pointwise(config: ExperimentConfig):
    members = build_ensemble(config.ensemble, config.seed)
    profile_rows = []
    slope_rows = []
    passed = True
    for index, (member_seed, gen) in enumerate(members):
        rng = np.random.default_rng(member_seed + 17)
        field = random_field(rng, gen.n, BanachNormDescriptor(config.d_list[0], config.r))
        profile = pointwise_convergence_profile(gen, field, config.psi,
                                                n_angles=config.n_angles)
        in_range = bool(SLOPE_WINDOW[0] <= profile.slope <= SLOPE_WINDOW[1])
        passed = passed and in_range
        for rho, err in zip(profile.radii, profile.errors):
            profile_rows.append((index, member_seed, float(rho), float(err)))
        slope_rows.append((index, member_seed, profile.slope, in_range))
    details = {"n_profiles": len(members), **ensemble_diagnostics(members)}
    tables = {
        "convergence": (("trial", "seed", "rho", "e"), profile_rows),
        "slopes": (("trial", "seed", "slope", "pass"), slope_rows),
    }
    return passed, details, tables


def _cmd_bip_plan(config: ExperimentConfig):
    plan = asdict(bip_plan(config.p_list[0], config.r, config.psi, theta=config.theta))
    return True, plan, {"plan": (tuple(plan), [tuple(plan.values())])}


# ---------------------------------------------------------------------------
# Acceptance battery.  Each criterion is a function seed -> CriterionResult
# reused by both `full-suite` and the acceptance tests.

@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    tables: dict = field(default_factory=dict)


def criterion_decomposition(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exact two-term decomposition: residual <= 1e-10 ||F|| over 500 runs."""
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    tol = 1e-10
    for index in range(50):
        n = int(rng.integers(2, 17))
        kind = "diffusion" if index % 2 == 0 else "contraction"
        gen = random_generator(n, seed + 101 * index + 1, kind=kind)
        zs, fields = [], []
        for _ in range(10):
            t = 10.0 ** rng.uniform(-3.0, 2.0)
            angle = rng.uniform(-0.45 * math.pi, 0.45 * math.pi)
            zs.append(t * complex(math.cos(angle), math.sin(angle)))
            fields.append(random_field(rng, n, BanachNormDescriptor(int(rng.integers(1, 9)), 2.0)))
        residuals = decomposition_residuals(gen, zs, fields).tolist()
        for z, fld, residual in zip(zs, fields, residuals):
            ratio = residual / bochner_norm(gen.space, fld, 2.0)
            worst = max(worst, ratio)
            rows.append((index, n, fld.d, z.real, z.imag, residual, ratio))
    return CriterionResult(
        name="decomposition-identity", passed=bool(worst <= tol),
        detail=f"max residual ratio {worst:.3e} over 500 seeded (gen, z, F) triples (tol {tol:g})",
        tables={"c01_decomposition": (("trial", "n", "d", "z_re", "z_im", "residual", "ratio"), rows)},
    )


def criterion_hds(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Maximal ergodic ratios below 2(p/(p-1))^{1/p} for p in {1.5, 2, 3}."""
    reference = 2.0 * math.sqrt(2.0)
    bound_err = abs(hds_bound(2.0) - reference)
    rows = []
    worst_margin = -math.inf
    passed = bound_err <= 1e-12
    for block, n in enumerate((4, 8, 12, 16)):
        spec = EnsembleSpec(n=n, count=50, kind="diffusion")
        result = hds_experiment(spec, (1.5, 2.0, 3.0), trials=1,
                                seed=seed + 7919 * block)
        passed = passed and result.passed
        rows.extend(result.rows)
        for report in result.reports:
            worst_margin = max(worst_margin, max(report.ratios) - report.bound)
    return CriterionResult(
        name="maximal-ergodic-bound", passed=bool(passed),
        detail=(f"200 diffusion generators, worst ratio-bound margin {worst_margin:.3e} "
                f"(must be <= {HDS_SLACK:g}); |hds_bound(2) - 2*sqrt(2)| = {bound_err:.1e}"),
        tables={"c02_hds": (("seed", "n", "p", "ratio", "bound", "pass"), rows)},
    )


def criterion_gamma(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Gamma identities: |Gamma(iu)|^2 u sinh(pi u) = pi, and the exact points."""
    rows = []
    worst = 0.0
    tol, exact_tol = 1e-9, 1e-12
    for u in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        value = abs(complex_gamma(1j * u)) ** 2 * u * math.sinh(math.pi * u) / math.pi
        worst = max(worst, abs(value - 1.0))
        rows.append((u, value - 1.0))
    gamma_one = abs(complex_gamma(1.0) - 1.0)
    gamma_half = abs(complex_gamma(0.5) - math.sqrt(math.pi))
    passed = worst <= tol and gamma_one <= exact_tol and gamma_half <= exact_tol
    return CriterionResult(
        name="gamma-identities", passed=bool(passed),
        detail=(f"max |identity - 1| = {worst:.3e} on u in {{0.1,...,10}} (tol {tol:g}); "
                f"|Gamma(1)-1| = {gamma_one:.1e}, |Gamma(1/2)-sqrt(pi)| = {gamma_half:.1e}"),
        tables={"c03_gamma": (("u", "identity_minus_one"), rows)},
    )


def _reconstruction_rows(U: float, h: float, psi: float = math.pi / 4.0) -> list:
    """(theta, lambda, |quadrature - m_theta|) on 25 log-lambda x the thetas within psi."""
    thetas = [t for t in (0.0, math.pi / 8.0, -math.pi / 8.0, math.pi / 4.0, -math.pi / 4.0)
              if abs(t) <= psi + 1e-15]
    lams = np.geomspace(1e-2, 1e2, 25)
    recs = mellin_reconstruct(np.array(thetas), lams, U=U, h=h)
    direct = _m_theta_values(np.array(thetas)[:, None], lams)
    # Python's abs of a complex: numpy's rounds differently
    return [(theta, float(lam), abs(complex(rec) - complex(value)))
            for theta, rec_row, direct_row in zip(thetas, recs, direct)
            for lam, rec, value in zip(lams, rec_row, direct_row)]


def criterion_mellin(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Quadrature matches the direct multiplier; error shrinks under refinement.

    The refinement behaviour is measured from coarse baselines where the
    quadrature error is orders of magnitude above the floating-point
    floor; at the default window (DEFAULT_QUAD_U, DEFAULT_QUAD_H) the
    error already sits at that floor.
    """
    quad_u, quad_h = DEFAULT_QUAD_U, DEFAULT_QUAD_H
    rows = [(case, u, h, max(err for _, _, err in _reconstruction_rows(u, h)))
            for case, u, h in (("default", quad_u, quad_h), ("coarse_h", quad_u, 0.8),
                               ("half_h", quad_u, 0.4), ("coarse_U", 20.0, quad_h),
                               ("more_U", 30.0, quad_h))]
    err_default, err_coarse_h, err_half_h, err_coarse_u, err_more_u = (row[3] for row in rows)
    halves = err_half_h <= 0.5 * err_coarse_h
    u_decreases = err_more_u < err_coarse_u
    passed = err_default <= QUAD_TOL and halves and u_decreases
    return CriterionResult(
        name="mellin-reconstruction", passed=bool(passed),
        detail=(f"max error {err_default:.3e} at (U={quad_u:g}, h={quad_h:g}) on 25 log-lambda "
                f"x 5 theta (tol {QUAD_TOL:g}); halving h: {err_coarse_h:.3e} -> {err_half_h:.3e}; "
                f"U+10: {err_coarse_u:.3e} -> {err_more_u:.3e}"),
        tables={"c04_mellin": (("case", "U", "h", "max_error"), rows)},
    )


def criterion_decay(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Decay certificate finite and stable under grid doubling at psi = pi/4."""
    certificate = decay_constant(math.pi / 4.0)
    passed = certificate.stable and math.isfinite(certificate.constant)
    rows = [(certificate.psi, certificate.constant, certificate.refined_constant,
             certificate.rel_change, certificate.stable)]
    return CriterionResult(
        name="decay-certificate", passed=bool(passed),
        detail=(f"constant {certificate.constant:.6f}, refined {certificate.refined_constant:.6f}, "
                f"relative change {certificate.rel_change:.2e} (< {DECAY_STABLE_REL:.0%})"),
        tables={"c05_decay": (("psi", "constant", "refined", "rel_change", "stable"), rows)},
    )


def _modulus_exemplar() -> tuple:
    """The 2x2 exemplar at t* = log(2)/2: (t*, the max error of S_{t*} = exp(-t* L_hat)
    against [[3/4, 1/4], [1/4, 3/4]], the max deviation |S_{2t*} - S_{t*}^2|, and the
    verdict on both), shared by `modulus` and criterion 06."""
    hat = modulus_generator(exemplar_contraction_generator())
    t_star = 0.5 * math.log(2.0)
    s_matrix = semigroup_matrix(hat, t_star)
    expected = np.array([[0.75, 0.25], [0.25, 0.75]])
    exemplar_err = float(np.abs(s_matrix - expected).max())
    deviation = float(np.abs(semigroup_matrix(hat, 2.0 * t_star) - s_matrix @ s_matrix).max())
    passed = exemplar_err <= EXEMPLAR_TOL and deviation < EXEMPLAR_SEMIGROUP_TOL
    return t_star, exemplar_err, deviation, passed


def criterion_modulus(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exemplar modulus matrix, 500-trial domination, semigroup deviation."""
    _, exemplar_err, deviation, exemplar_ok = _modulus_exemplar()

    rows = []
    worst_violation = -math.inf
    checked = 0
    rng = np.random.default_rng(seed + 31)
    for index in range(25):
        n = int(rng.integers(2, 9))
        member = random_generator(n, seed + 337 * index + 11, kind="contraction")
        report = verify_domination(member, trials=5, seed=seed + index)
        worst_violation = max(worst_violation, report.max_violation)
        checked += report.checked
        rows.append((index, n, report.max_violation, report.max_norm_excess, report.passed))
    passed = exemplar_ok and worst_violation <= ABS_TOL and checked >= 500
    return CriterionResult(
        name="modulus-semigroup", passed=bool(passed),
        detail=(f"exemplar error {exemplar_err:.3e} (tol {EXEMPLAR_TOL:g}), semigroup "
                f"deviation {deviation:.3e} (tol {EXEMPLAR_SEMIGROUP_TOL:g}), worst domination "
                f"violation {worst_violation:.3e} over {checked} trials"),
        tables={"c06_modulus": (("trial", "n", "max_violation", "max_norm_excess", "pass"), rows)},
    )


def criterion_subpositivity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Subpositivity implications on 200 contractions; negative control fails."""
    rows = []
    passed = True
    rng = np.random.default_rng(seed + 41)
    for index in range(200):
        n = int(rng.integers(2, 9))
        gen = random_generator(n, seed + 571 * index + 3, kind="contraction")
        t = float(rng.uniform(0.1, 2.0))
        t_matrix = semigroup_matrix(gen, t)
        report = subpositivity_suite(gen.space, t_matrix, np.abs(t_matrix), p=2.0,
                                     descriptor=BanachNormDescriptor(3, 2.0),
                                     trials=6, seed=seed + index)
        passed = passed and report.passed
        rows.append((index, n, t, report.sup_margin, report.tensor_margin,
                     report.positivity_min, report.passed))

    control_space = random_generator(3, seed, kind="diffusion").space
    control = subpositivity_suite(control_space, 2.0 * np.eye(3), 2.0 * np.eye(3), p=2.0,
                                  descriptor=BanachNormDescriptor(3, 2.0), trials=6,
                                  seed=seed + 1)
    control_ok = not control.sup_passed
    passed = passed and control_ok
    return CriterionResult(
        name="subpositivity", passed=bool(passed),
        detail=(f"all three implications hold on 200 seeded contractions; "
                f"negative control (2I) fails the sup-family inequality: {control_ok}"),
        tables={"c07_subpositivity": (("trial", "n", "t", "sup_margin", "tensor_margin",
                                       "positivity_min", "pass"), rows)},
    )


def criterion_imaginary_powers(seed: int = DEFAULT_SEED) -> CriterionResult:
    """L^2 isometry of L^{iu}; at p = 4 the growth angle through the upper bounds is below pi/2."""
    u_grid = np.linspace(-5.0, 5.0, 21)
    worst_iso = 0.0
    tol = 1e-10
    rng = np.random.default_rng(seed + 53)
    for index in range(20):
        gen = random_generator(8, seed + 709 * index + 7, kind="diffusion")
        powers = _imaginary_power_values(gen.decomposition.eigenvalues, u_grid)
        fields = _gaussian_batch(rng, 5, (8,))
        base = lp_norms(gen.space, fields, 2.0)
        images = apply_multiplier(gen.decomposition, powers, fields.T).swapaxes(-1, -2)
        deviation = np.abs(lp_norms(gen.space, images, 2.0) - base) / base
        worst_iso = max(worst_iso, float(deviation.max()))

    fit_rows = []
    worst_omega = worst_omega_ub = 0.0
    for index in range(8):
        gen = random_generator(8, seed + 997 * index + 19, kind="diffusion")
        estimate = imaginary_power_estimate(gen, 4.0, u_grid=u_grid, trials=20,
                                            seed=seed + index)
        worst_omega = max(worst_omega, estimate.omega)
        worst_omega_ub = max(worst_omega_ub, estimate.omega_ub)
        fit_rows.append((index, estimate.K, estimate.omega, estimate.omega_ub))
    passed = worst_iso <= tol and max(worst_omega, worst_omega_ub) < math.pi / 2.0
    return CriterionResult(
        name="imaginary-powers", passed=bool(passed),
        detail=(f"worst relative L^2 isometry deviation {worst_iso:.3e} (tol {tol:g}); "
                f"at p=4 omega from lower bounds {worst_omega:.4f} <= omega "
                f"<= {worst_omega_ub:.4f} from Riesz-Thorin upper bounds "
                f"< pi/2 = {math.pi / 2.0:.4f}"),
        tables={"c08_imaginary": (("trial", "K", "omega", "omega_ub"), fit_rows)},
    )


def criterion_planner(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Planner arithmetic at the reference points, plus hypothesis rejection."""
    plan_a = bip_plan(2.0, 2.0, 0.0, theta=0.5)
    err_a = max(abs(plan_a.q - 2.0), abs(plan_a.sigma - 0.75 * math.pi),
                abs(plan_a.omega - 0.375 * math.pi))
    plan_b = bip_plan(4.0, 4.0, 0.1 * math.pi, theta=0.6)
    err_b = max(abs(plan_b.q - 12.0), abs(plan_b.omega - 0.35 * math.pi))
    room_b = plan_b.omega < 0.4 * math.pi
    try:
        bip_plan(4.0, 4.0, 0.1 * math.pi, theta=0.4)
        rejected = False
    except BipPlanError:
        rejected = True
    passed = err_a <= 1e-12 and err_b <= 1e-12 and room_b and rejected
    return CriterionResult(
        name="interpolation-planner", passed=bool(passed),
        detail=(f"(2,2,0,theta=0.5) -> (q=2, sigma=3pi/4, omega=3pi/8) to {err_a:.1e}; "
                f"(4,4,0.1pi,theta=0.6) -> (q=12, omega=0.35pi) to {err_b:.1e}; "
                f"theta=0.4 rejected: {rejected}"),
        tables={"c09_planner": (tuple(asdict(plan_a)), [astuple(plan_a), astuple(plan_b)])},
    )


def criterion_dimension_uniformity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """C_emp(d) profile flat within a factor UNIFORMITY_MAX; triangle bound on every trial."""
    spec = EnsembleSpec(n=8, count=8, kind="diffusion")
    report = maximal_theorem_experiment(spec, 4.0, 4.0, 0.1 * math.pi,
                                        d_list=(1, 2, 4, 8, 16), trials=4, seed=seed,
                                        theta=0.6)
    rows = list(zip(report.d_list, report.c_emp))
    return CriterionResult(
        name="dimension-uniformity", passed=bool(report.passed),
        detail=(f"C_emp(16)/C_emp(1) = {report.uniformity_ratio:.4f} (<= {UNIFORMITY_MAX:g}); "
                f"max triangle excess {report.max_triangle_excess:.3e} (<= 0)"),
        tables={"c10_cemp": (("d", "c_emp"), rows)},
    )


def criterion_pointwise(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Approach error non-increasing with unit log-log slope for 50 (gen, F)."""
    rows = []
    passed = True
    worst_slope_dev = 0.0
    for index in range(50):
        gen = random_generator(8, seed + 1481 * index + 29, kind="diffusion")
        rng = np.random.default_rng(seed + index)
        fld = random_field(rng, 8, BanachNormDescriptor(4, 2.0))
        profile = pointwise_convergence_profile(gen, fld, 0.1 * math.pi)
        monotone = bool(np.all(np.diff(profile.errors) <= 1e-12))
        in_range = bool(SLOPE_WINDOW[0] <= profile.slope <= SLOPE_WINDOW[1])
        passed = passed and monotone and in_range
        worst_slope_dev = max(worst_slope_dev, abs(profile.slope - 1.0))
        rows.append((index, profile.slope, monotone, in_range))
    return CriterionResult(
        name="pointwise-convergence", passed=bool(passed),
        detail=(f"50 profiles non-increasing with slope within [{SLOPE_WINDOW[0]:g}, "
                f"{SLOPE_WINDOW[1]:g}]; worst |slope - 1| = {worst_slope_dev:.3f}"),
        tables={"c11_pointwise": (("trial", "slope", "monotone", "in_range"), rows)},
    )


def criterion_determinism(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Representative rerun produces byte-identical CSV bodies.

    The heaviest random-number consumer (the decomposition battery) is
    regenerated from the same seed and serialised twice; the acceptance
    tests additionally rerun the entire suite and compare every emitted
    file.
    """
    first = criterion_decomposition(seed)
    second = criterion_decomposition(seed)
    texts_a = {name: _table_text(*table) for name, table in first.tables.items()}
    texts_b = {name: _table_text(*table) for name, table in second.tables.items()}
    passed = texts_a == texts_b
    rows = [(name, len(texts_a[name]), texts_a[name] == texts_b[name]) for name in texts_a]
    return CriterionResult(
        name="determinism", passed=bool(passed),
        detail="regenerated decomposition table is byte-identical" if passed
        else "rerun produced different bytes",
        tables={"c12_determinism": (("table", "bytes", "identical"), rows)},
    )


ACCEPTANCE_CRITERIA = (
    criterion_decomposition,
    criterion_hds,
    criterion_gamma,
    criterion_mellin,
    criterion_decay,
    criterion_modulus,
    criterion_subpositivity,
    criterion_imaginary_powers,
    criterion_planner,
    criterion_dimension_uniformity,
    criterion_pointwise,
    criterion_determinism,
)


def _cmd_full_suite(config: ExperimentConfig):
    """Run the twelve criteria; the summary (with per-criterion timings) goes to summary.json."""
    summary = {"seed": config.seed, "criteria": {}, "passed": True}
    tables = {}
    for index, criterion in enumerate(ACCEPTANCE_CRITERIA, start=1):
        started = time.perf_counter()
        result = criterion(config.seed)
        elapsed = time.perf_counter() - started
        summary["criteria"][f"{index:02d}_{result.name}"] = {
            "passed": result.passed,
            "detail": result.detail,
            "seconds": round(elapsed, 3),
        }
        summary["passed"] = summary["passed"] and result.passed
        tables.update(result.tables)
    print(_write_text(f"{config.output}.summary.json", _json_text(summary)))
    details = {name: entry["passed"] for name, entry in summary["criteria"].items()}
    return summary["passed"], details, tables


# Each command: (body, its defaults over _BASE_DEFAULTS, the config keys it
# reads).  A section names its keys, a top-level key maps to (), and every
# command reads output.  Any other key is a config error, the manifest echoes
# exactly these, and where the command's default of exponents.p or .d is one
# value, a list of more is refused.
_SAMPLED = {"seed": (), "trials": (), "ensemble": ("n", "count", "kind", "c")}
_SECTOR_GRID = ("t_min", "t_max", "n_radii", "n_angles")
_COMMANDS = {command: (body, defaults, {**reads, "output": ()})
             for command, (body, defaults, reads) in {
    "verify-semigroup": (_cmd_verify_semigroup, {"ensemble": {"count": 12}},
                         {**_SAMPLED, "exponents": ("p",), "angles": ("psi",),
                          "grids": _SECTOR_GRID}),
    "modulus": (_cmd_modulus, {"ensemble": {"kind": "contraction", "count": 25, "n": 6},
                               "exponents": {"p": 2.0}},
                {**_SAMPLED, "exponents": ("p", "r", "d")}),
    "hds": (_cmd_hds, {"exponents": {"p": [1.5, 2.0, 3.0]}, "trials": 2},
            {**_SAMPLED, "exponents": ("p", "r", "d")}),
    "mellin-table": (_cmd_mellin_table, {}, {"angles": ("psi",), "grids": ("n_angles", "U", "h")}),
    "maximal": (_cmd_maximal, {"exponents": {"p": 4.0, "r": 4.0, "d": [1, 2, 4, 8, 16]},
                               "angles": {"psi": 0.1 * math.pi, "theta": 0.6},
                               "ensemble": {"count": 8}, "trials": 4},
                {**_SAMPLED, "exponents": ("p", "r", "d"), "angles": ("psi", "theta"),
                 "grids": _SECTOR_GRID}),
    "pointwise": (_cmd_pointwise, {"angles": {"psi": 0.1 * math.pi}},
                  {"seed": (), "ensemble": _SAMPLED["ensemble"], "exponents": ("r", "d"),
                   "angles": ("psi",), "grids": ("n_angles",)}),
    "bip-plan": (_cmd_bip_plan, {"exponents": {"p": 4.0, "r": 4.0},
                                 "angles": {"psi": 0.1 * math.pi}},
                 {"exponents": ("p", "r"), "angles": ("psi", "theta")}),
    "full-suite": (_cmd_full_suite, {}, {"seed": ()}),
}.items()}
COMMANDS = tuple(_COMMANDS)


def run(config: ExperimentConfig) -> int:
    """Execute one validated config; writes artifacts and returns the exit status."""
    started = time.perf_counter()
    error = None
    try:
        passed, details, tables = _COMMANDS[config.command][0](config)
    except OSError:  # a body writes nothing but artifacts; main reports it
        raise
    except Exception as exc:
        passed, details, tables = False, {}, {}
        error = {"type": type(exc).__name__, "message": str(exc)}
    elapsed = time.perf_counter() - started
    manifest = {"config": config.document(), "passed": bool(passed), "details": details,
                "timings": {"seconds": round(elapsed, 3)},
                "versions": {"maxlab": __version__, "numpy": np.__version__,
                             "python": sys.version.split()[0]}}
    if error is not None:
        # the crash is the outcome, whether or not its manifest can be written
        with contextlib.suppress(OSError):
            print(*_write_artifacts(config.output, dict(manifest, error=error), tables), sep="\n")
        print(f"error: {config.command} crashed: {error['type']}: {error['message']}",
              file=sys.stderr)
        return 3
    for path in _write_artifacts(config.output, manifest, tables):
        print(path)
    print(f"{config.command}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# Override flags: (flag, dotted config path, argparse keywords), in --help order.
_OVERRIDE_FLAGS = (
    ("seed", "seed", {"type": int, "help": "override the base seed"}),
    ("trials", "trials", {"type": int, "help": "override per-member trial count"}),
    ("psi", "angles.psi", {"type": float, "help": "override the sector half-angle"}),
    ("theta", "angles.theta", {"type": float, "help": "override the interpolation weight"}),
    ("out", "output", {"help": "override the output path prefix"}),
    ("n", "ensemble.n", {"type": int, "help": "override the ensemble dimension"}),
    ("count", "ensemble.count", {"type": int, "help": "override the ensemble size"}),
    ("kind", "ensemble.kind", {"choices": ENSEMBLE_KINDS, "help": "override the ensemble kind"}),
    ("c", "ensemble.c", {"type": float, "help": "override the ensemble rate scale"}),
    ("p", "exponents.p", {"type": float, "action": "append",
                          "help": "override the exponent list (repeatable)"}),
    ("r", "exponents.r", {"type": float, "help": "override the fiber exponent"}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlab",
        description="Seeded verification experiments for diffusion semigroups, "
                    "maximal functions and sector multipliers on finite weighted spaces.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON config document")
    for flag, _, keywords in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{flag}", **keywords)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for flag, path, _ in _OVERRIDE_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            section, _, key = path.rpartition(".")
            (overrides.setdefault(section, {}) if section else overrides)[key] = value
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    document = None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(document, dict):
            print("error: config document must be a JSON object", file=sys.stderr)
            return 2
    try:
        config = ExperimentConfig.from_sources(args.command, document,
                                               _overrides_from_args(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(os.path.dirname(config.output) or ".", exist_ok=True)
        return run(config)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
