"""Configuration-driven experiment runner.

One JSON document describes a run: seed, ensemble, exponents, angles,
grids, tolerances and the output prefix.  Each command executes a named
experiment, writes ``<prefix>.<table>.csv`` result tables plus a
``<prefix>.manifest.json`` echoing the inputs, and exits 0 when every
pass criterion holds, 1 on a numeric failure and 2 on a config or usage
error.  CSV bodies are deterministic functions of the config (17
significant digits, '.' decimal, no timing columns); timings live only
in the manifest.

``full-suite`` runs the whole acceptance battery and takes no config
key other than ``seed`` and ``output``; it writes the criterion tables,
the manifest and a ``<prefix>.summary.json``.  The per-criterion
functions are also imported directly by the test-suite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (
    BanachNormDescriptor,
    BochnerField,
    ToleranceConfig,
    bochner_norm,
    lp_norm,
)
from .ergodic import (
    default_time_grid,
    hds_bound,
    hds_experiment,
)
from .mellin import (
    BipPlanError,
    bip_plan,
    decay_constant,
    decomposition_residual,
    imaginary_power_estimate,
    maximal_theorem_experiment,
    mellin_reconstruct,
    m_theta,
    n_hat,
    pointwise_convergence_profile,
)
from .modulus import (
    modulus_semigroup,
    subpositivity_suite,
    verify_domination,
)
from .semigroup import (
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    exemplar_contraction_generator,
    imaginary_power,
    random_generator,
    sector_contraction_probe,
    semigroup_matrix,
    stein_angle,
    verify_contraction_property,
)
from .spectral import complex_gamma

__all__ = ["ExperimentConfig", "ConfigError", "run", "full_suite", "main",
           "COMMANDS", "DEFAULT_SEED", "ACCEPTANCE_CRITERIA"]

COMMANDS = (
    "verify-semigroup",
    "modulus",
    "hds",
    "mellin-table",
    "maximal",
    "pointwise",
    "bip-plan",
    "full-suite",
)

DEFAULT_SEED = 20260817


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_BASE_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "trials": 8,
    "ensemble": {"n": 8, "count": 50, "kind": "diffusion", "c": 1.0},
    "exponents": {"p": [2.0], "r": 2.0, "d": [4]},
    "angles": {"psi": 0.25 * math.pi, "theta": None},
    "grids": {"t_min": 1e-3, "t_max": 1e2, "n_radii": 24, "n_angles": 9,
              "U": 40.0, "h": 0.01},
    "tolerances": {"abs_tol": 1e-10, "quad_tol": 1e-6, "stab_tol": 1e-8},
    "output": None,
}

_COMMAND_DEFAULTS = {
    "verify-semigroup": {"ensemble": {"count": 12}},
    "modulus": {"ensemble": {"kind": "contraction", "count": 25, "n": 6}},
    "hds": {"exponents": {"p": [1.5, 2.0, 3.0]}, "trials": 2},
    "mellin-table": {"angles": {"psi": 0.25 * math.pi}},
    "maximal": {"exponents": {"p": [4.0], "r": 4.0, "d": [1, 2, 4, 8, 16]},
                "angles": {"psi": 0.1 * math.pi, "theta": 0.6},
                "ensemble": {"count": 8}, "trials": 4},
    "pointwise": {"angles": {"psi": 0.1 * math.pi}, "trials": 1},
    "bip-plan": {"exponents": {"p": [4.0], "r": 4.0}, "angles": {"psi": 0.1 * math.pi}},
    "full-suite": {},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _require_keys(section: str, given: dict, allowed: tuple) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {', '.join(unknown)} "
                          f"(allowed: {', '.join(allowed)})")


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
    tol: ToleranceConfig
    output: str

    @classmethod
    def from_sources(cls, command: str, document: dict | None = None,
                     overrides: dict | None = None) -> "ExperimentConfig":
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
        merged = _deep_merge(_BASE_DEFAULTS, _COMMAND_DEFAULTS[command])
        for source in (document or {}, overrides or {}):
            _require_keys("config", source, tuple(_BASE_DEFAULTS))
            ignored = sorted(set(source) - {"seed", "output"})
            if command == "full-suite" and ignored:
                raise ConfigError(f"full-suite runs a fixed battery and takes only seed and "
                                  f"output; it would ignore: {', '.join(ignored)}")
            merged = _deep_merge(merged, source)

        _require_keys("ensemble", merged["ensemble"], ("n", "count", "kind", "c"))
        _require_keys("exponents", merged["exponents"], ("p", "r", "d"))
        _require_keys("angles", merged["angles"], ("psi", "theta"))
        _require_keys("grids", merged["grids"],
                      ("t_min", "t_max", "n_radii", "n_angles", "U", "h"))
        _require_keys("tolerances", merged["tolerances"], ("abs_tol", "quad_tol", "stab_tol"))

        try:
            seed = int(merged["seed"])
            trials = int(merged["trials"])
            if trials < 1:
                raise ValueError("trials must be >= 1")
            ens = merged["ensemble"]
            ensemble = EnsembleSpec(n=int(ens["n"]), count=int(ens["count"]),
                                    kind=str(ens["kind"]), c=float(ens["c"]))
            raw_p = merged["exponents"]["p"]
            p_list = tuple(float(p) for p in (raw_p if isinstance(raw_p, (list, tuple)) else [raw_p]))
            if not p_list:
                raise ValueError("exponents.p must contain at least one exponent")
            for p in p_list:
                if not (1.0 < p < math.inf):
                    raise ValueError(f"every exponent p must satisfy 1 < p < inf, got {p}")
            r = float(merged["exponents"]["r"])
            if not (1.0 < r < math.inf):
                raise ValueError(f"fiber exponent r must satisfy 1 < r < inf, got {r}")
            raw_d = merged["exponents"]["d"]
            d_list = tuple(int(d) for d in (raw_d if isinstance(raw_d, (list, tuple)) else [raw_d]))
            if not d_list or min(d_list) < 1:
                raise ValueError("exponents.d must be a nonempty list of positive dimensions")
            psi = float(merged["angles"]["psi"])
            if not (0.0 <= psi < math.pi / 2.0):
                raise ValueError(f"angles.psi must lie in [0, pi/2), got {psi}")
            theta = merged["angles"]["theta"]
            theta = None if theta is None else float(theta)
            grids = merged["grids"]
            t_min = float(grids["t_min"])
            t_max = float(grids["t_max"])
            if not (0.0 < t_min < t_max):
                raise ValueError(f"grids need 0 < t_min < t_max, got ({t_min}, {t_max})")
            n_radii = int(grids["n_radii"])
            n_angles = int(grids["n_angles"])
            if n_radii < 1 or n_angles < 1:
                raise ValueError("grids need n_radii >= 1 and n_angles >= 1")
            quad_u = float(grids["U"])
            quad_h = float(grids["h"])
            if not (quad_u > 0.0 and quad_h > 0.0):
                raise ValueError("quadrature grids need U > 0 and h > 0")
            tol = ToleranceConfig(**{k: float(v) for k, v in merged["tolerances"].items()})
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc

        output = merged["output"] or os.path.join("maxlab-out", command)
        config = cls(command=command, seed=seed, trials=trials, ensemble=ensemble,
                     p_list=p_list, r=r, d_list=d_list, psi=psi, theta=theta,
                     t_min=t_min, t_max=t_max, n_radii=n_radii, n_angles=n_angles,
                     quad_U=quad_u, quad_h=quad_h, tol=tol, output=str(output))
        config._validate_preconditions()
        return config

    def _validate_preconditions(self) -> None:
        if self.command in ("verify-semigroup", "maximal"):
            for p in self.p_list:
                limit = stein_angle(p)
                if self.psi > limit + 1e-15:
                    raise ConfigError(
                        f"angles.psi = {self.psi:.6f} exceeds the contraction sector "
                        f"angle {limit:.6f} at p = {p}"
                    )
        if self.command in ("maximal", "bip-plan"):
            try:
                bip_plan(self.p_list[0], self.r, self.psi, theta=self.theta)
            except BipPlanError as exc:
                raise ConfigError(str(exc)) from exc

    def document(self) -> dict:
        """Config echo for the manifest."""
        return {
            "command": self.command,
            "seed": self.seed,
            "trials": self.trials,
            "ensemble": {"n": self.ensemble.n, "count": self.ensemble.count,
                         "kind": self.ensemble.kind, "c": self.ensemble.c},
            "exponents": {"p": list(self.p_list), "r": self.r, "d": list(self.d_list)},
            "angles": {"psi": self.psi, "theta": self.theta},
            "grids": {"t_min": self.t_min, "t_max": self.t_max, "n_radii": self.n_radii,
                      "n_angles": self.n_angles, "U": self.quad_U, "h": self.quad_h},
            "tolerances": {"abs_tol": self.tol.abs_tol, "quad_tol": self.tol.quad_tol,
                           "stab_tol": self.tol.stab_tol},
            "output": self.output,
        }

    def sector_grid(self) -> SectorGrid:
        return SectorGrid.default(self.psi, t_min=self.t_min, t_max=self.t_max,
                                  n_radii=self.n_radii, n_angles=self.n_angles)

    def time_grid(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.n_radii)


# ---------------------------------------------------------------------------
# Deterministic CSV serialisation.

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _table_text(header: tuple, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
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


def _manifest_skeleton(config: ExperimentConfig) -> dict:
    return {
        "config": config.document(),
        "versions": {
            "maxlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }


# ---------------------------------------------------------------------------
# Commands.  Each returns (passed, details, tables).

def _cmd_verify_semigroup(config: ExperimentConfig):
    members = build_ensemble(config.ensemble, config.seed)
    t_grid = config.time_grid()
    contraction_rows = []
    passed = True
    worst = -math.inf
    for index, (member_seed, gen) in enumerate(members):
        report = verify_contraction_property(gen, t_grid, tol=config.tol)
        passed = passed and report.passed
        worst = max(worst, report.worst_norm)
        contraction_rows.append((index, member_seed, gen.n, gen.kind, report.worst_norm,
                                 report.worst_t, report.passed))

    grid = config.sector_grid()
    sector_rows = []
    probe_limit = min(len(members), 8)
    worst_lb = -math.inf
    for index, (member_seed, gen) in enumerate(members[:probe_limit]):
        for p in config.p_list:
            report = sector_contraction_probe(gen, p, config.psi, grid=grid,
                                              trials=config.trials, seed=member_seed)
            passed = passed and report.passed
            worst_lb = max(worst_lb, report.worst_norm)
            for z_re, z_im, row_p, lb in report.rows:
                sector_rows.append((index, member_seed, z_re, z_im, row_p, lb))
    details = {"worst_endpoint_norm": worst, "worst_sector_lower_bound": worst_lb,
               "probed_members": probe_limit}
    tables = {
        "contraction": (("trial", "seed", "n", "kind", "worst_norm", "worst_t", "pass"),
                        contraction_rows),
        "sector": (("trial", "seed", "z_re", "z_im", "p", "norm_lb"), sector_rows),
    }
    return passed, details, tables


def _cmd_modulus(config: ExperimentConfig):
    passed = True

    exemplar = exemplar_contraction_generator()
    t_star = 0.5 * math.log(2.0)
    result = modulus_semigroup(exemplar, t_star, tol=config.tol.stab_tol)
    expected = np.array([[0.75, 0.25], [0.25, 0.75]])
    exemplar_err = float(np.abs(result.S_t - expected).max())
    double = modulus_semigroup(exemplar, 2.0 * t_star, tol=config.tol.stab_tol)
    deviation = float(np.abs(double.S_t - result.S_t @ result.S_t).max())
    passed = passed and exemplar_err <= 1e-8 and deviation < 1e-6
    exemplar_rows = [(t_star, exemplar_err, deviation, result.depth, result.residual)]

    members = build_ensemble(config.ensemble, config.seed)
    domination_rows = []
    suite_rows = []
    for index, (member_seed, gen) in enumerate(members):
        report = verify_domination(gen, trials=config.trials, seed=member_seed + 1,
                                   tol=config.tol)
        passed = passed and report.passed
        domination_rows.append((index, member_seed, gen.n, report.max_violation,
                                report.max_norm_excess, report.passed))
        rng = np.random.default_rng(member_seed + 3)
        t = float(rng.uniform(0.1, 2.0))
        t_matrix = semigroup_matrix(gen, t)
        s_matrix = np.abs(t_matrix)
        suite = subpositivity_suite(gen.space, t_matrix, s_matrix, p=config.p_list[0],
                                    descriptor=BanachNormDescriptor(config.d_list[0], config.r),
                                    trials=config.trials, seed=member_seed + 5, tol=config.tol)
        passed = passed and suite.passed
        suite_rows.append((index, member_seed, gen.n, t, suite.sup_margin,
                           suite.tensor_margin, suite.positivity_min, suite.passed))
    details = {"exemplar_error": exemplar_err, "exemplar_deviation": deviation}
    tables = {
        "exemplar": (("t", "max_abs_error", "semigroup_deviation", "depth", "residual"),
                     exemplar_rows),
        "domination": (("trial", "seed", "n", "max_violation", "max_norm_excess", "pass"),
                       domination_rows),
        "subpositivity": (("trial", "seed", "n", "t", "sup_margin", "tensor_margin",
                           "positivity_min", "pass"), suite_rows),
    }
    return passed, details, tables


def _cmd_hds(config: ExperimentConfig):
    descriptor = BanachNormDescriptor(config.d_list[0], config.r)
    result = hds_experiment(config.ensemble, config.p_list, t_grid=default_time_grid(),
                            trials=config.trials, seed=config.seed, descriptor=descriptor)
    details = {
        f"max_ratio_p_{report.p:g}": max(report.ratios) for report in result.reports
    }
    details["bounds"] = {f"{report.p:g}": report.bound for report in result.reports}
    tables = {"hds": (("seed", "n", "p", "ratio", "bound", "pass"), list(result.rows))}
    return result.passed, details, tables


def _cmd_mellin_table(config: ExperimentConfig):
    u_grid = np.linspace(-config.quad_U, config.quad_U, 801)
    certificate = decay_constant(config.psi, u_grid=u_grid, n_theta=config.n_angles)
    thetas = np.linspace(-config.psi, config.psi, config.n_angles) if config.psi > 0 \
        else np.zeros(1)
    multiplier_rows = []
    for theta in thetas:
        for u in u_grid:
            value = n_hat(theta, u)
            weight = math.exp((math.pi / 2.0 - abs(theta)) * abs(u))
            multiplier_rows.append((float(theta), float(u), value.real, value.imag,
                                    abs(value) * weight))

    recon_thetas = [t for t in (0.0, math.pi / 8.0, -math.pi / 8.0, math.pi / 4.0,
                                -math.pi / 4.0) if abs(t) <= config.psi + 1e-15]
    lams = np.geomspace(1e-2, 1e2, 25)
    recon_rows = []
    max_err = 0.0
    for theta in recon_thetas:
        for lam in lams:
            approx = mellin_reconstruct(theta, float(lam), U=config.quad_U, h=config.quad_h)
            err = abs(approx - m_theta(theta, float(lam)))
            max_err = max(max_err, err)
            recon_rows.append((theta, float(lam), err))
    passed = bool(certificate.stable and max_err <= config.tol.quad_tol)
    details = {"decay_constant": certificate.constant,
               "decay_refined": certificate.refined_constant,
               "decay_rel_change": certificate.rel_change,
               "max_reconstruction_error": max_err}
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
    }
    rows = list(zip(report.d_list, report.c_emp))
    tables = {"cemp": (("d", "c_emp"), rows)}
    return report.passed, details, tables


def _cmd_pointwise(config: ExperimentConfig):
    members = build_ensemble(config.ensemble, config.seed)
    descriptor = BanachNormDescriptor(config.d_list[0], config.r)
    profile_rows = []
    slope_rows = []
    passed = True
    for index, (member_seed, gen) in enumerate(members):
        rng = np.random.default_rng(member_seed + 17)
        values = rng.standard_normal((gen.n, descriptor.d)) \
            + 1j * rng.standard_normal((gen.n, descriptor.d))
        field = BochnerField(values, descriptor)
        profile = pointwise_convergence_profile(gen, field, config.psi,
                                                n_angles=config.n_angles)
        in_range = bool(0.8 <= profile.slope <= 1.2)
        passed = passed and in_range
        for rho, err in zip(profile.radii, profile.errors):
            profile_rows.append((index, member_seed, float(rho), float(err)))
        slope_rows.append((index, member_seed, profile.slope, in_range))
    details = {"n_profiles": len(members)}
    tables = {
        "convergence": (("trial", "seed", "rho", "e"), profile_rows),
        "slopes": (("trial", "seed", "slope", "pass"), slope_rows),
    }
    return passed, details, tables


def _cmd_bip_plan(config: ExperimentConfig):
    plan = bip_plan(config.p_list[0], config.r, config.psi, theta=config.theta)
    details = {"p": plan.p, "r": plan.r, "psi": plan.psi, "theta": plan.theta,
               "q": plan.q, "sigma": plan.sigma, "omega": plan.omega}
    rows = [(plan.p, plan.r, plan.psi, plan.theta, plan.q, plan.sigma, plan.omega)]
    tables = {"plan": (("p", "r", "psi", "theta", "q", "sigma", "omega"), rows)}
    return True, details, tables


# ---------------------------------------------------------------------------
# Acceptance battery.  Each criterion is a function seed -> CriterionResult
# reused by both `full-suite` and the acceptance tests.

@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)


def _random_bochner(rng, n: int, d: int, r: float = 2.0) -> BochnerField:
    values = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return BochnerField(values, BanachNormDescriptor(d, r))


def criterion_decomposition(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exact two-term decomposition: residual <= 1e-10 ||F|| over 500 runs."""
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for index in range(50):
        n = int(rng.integers(2, 17))
        kind = "diffusion" if index % 2 == 0 else "contraction"
        gen = random_generator(n, seed + 101 * index + 1, kind=kind)
        for _ in range(10):
            t = 10.0 ** rng.uniform(-3.0, 2.0)
            angle = rng.uniform(-0.45 * math.pi, 0.45 * math.pi)
            z = t * complex(math.cos(angle), math.sin(angle))
            d = int(rng.integers(1, 9))
            fld = _random_bochner(rng, n, d)
            residual = decomposition_residual(gen, z, fld)
            scale = bochner_norm(gen.space, fld, 2.0)
            ratio = residual / scale
            worst = max(worst, ratio)
            rows.append((index, n, d, z.real, z.imag, residual, ratio))
    passed = worst <= 1e-10
    return CriterionResult(
        name="decomposition-identity", passed=bool(passed),
        detail=f"max residual ratio {worst:.3e} over 500 seeded (gen, z, F) triples (tol 1e-10)",
        metrics={"max_ratio": worst},
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
                f"(must be <= 1e-9); |hds_bound(2) - 2*sqrt(2)| = {bound_err:.1e}"),
        metrics={"worst_margin": worst_margin, "bound_error": bound_err},
        tables={"c02_hds": (("seed", "n", "p", "ratio", "bound", "pass"), rows)},
    )


def criterion_gamma(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Gamma identities: |Gamma(iu)|^2 u sinh(pi u) = pi, and the exact points."""
    rows = []
    worst = 0.0
    for u in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        value = abs(complex_gamma(1j * u)) ** 2 * u * math.sinh(math.pi * u) / math.pi
        worst = max(worst, abs(value - 1.0))
        rows.append((u, value - 1.0))
    gamma_one = abs(complex_gamma(1.0) - 1.0)
    gamma_half = abs(complex_gamma(0.5) - math.sqrt(math.pi))
    passed = worst <= 1e-9 and gamma_one <= 1e-12 and gamma_half <= 1e-12
    return CriterionResult(
        name="gamma-identities", passed=bool(passed),
        detail=(f"max |identity - 1| = {worst:.3e} on u in {{0.1,...,10}} (tol 1e-9); "
                f"|Gamma(1)-1| = {gamma_one:.1e}, |Gamma(1/2)-sqrt(pi)| = {gamma_half:.1e}"),
        metrics={"identity_error": worst, "gamma_one": gamma_one, "gamma_half": gamma_half},
        tables={"c03_gamma": (("u", "identity_minus_one"), rows)},
    )


def _reconstruction_max_error(U: float, h: float) -> float:
    lams = np.geomspace(1e-2, 1e2, 25)
    thetas = (0.0, math.pi / 8.0, -math.pi / 8.0, math.pi / 4.0, -math.pi / 4.0)
    worst = 0.0
    for theta in thetas:
        for lam in lams:
            err = abs(mellin_reconstruct(theta, float(lam), U=U, h=h)
                      - m_theta(theta, float(lam)))
            worst = max(worst, err)
    return worst


def criterion_mellin(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Quadrature matches the direct multiplier; error shrinks under refinement.

    The refinement behaviour is measured from coarse baselines where the
    quadrature error is orders of magnitude above the floating-point
    floor; at the default operating point (U = 40, h = 0.01) the error
    already sits at that floor.
    """
    err_default = _reconstruction_max_error(40.0, 0.01)
    err_coarse_h = _reconstruction_max_error(40.0, 0.8)
    err_half_h = _reconstruction_max_error(40.0, 0.4)
    err_coarse_u = _reconstruction_max_error(20.0, 0.01)
    err_more_u = _reconstruction_max_error(30.0, 0.01)
    halves = err_half_h <= 0.5 * err_coarse_h
    u_decreases = err_more_u < err_coarse_u
    passed = err_default <= 1e-6 and halves and u_decreases
    rows = [
        ("default", 40.0, 0.01, err_default),
        ("coarse_h", 40.0, 0.8, err_coarse_h),
        ("half_h", 40.0, 0.4, err_half_h),
        ("coarse_U", 20.0, 0.01, err_coarse_u),
        ("more_U", 30.0, 0.01, err_more_u),
    ]
    return CriterionResult(
        name="mellin-reconstruction", passed=bool(passed),
        detail=(f"max error {err_default:.3e} at (U=40, h=0.01) on 25 log-lambda x 5 theta "
                f"(tol 1e-6); halving h: {err_coarse_h:.3e} -> {err_half_h:.3e}; "
                f"U+10: {err_coarse_u:.3e} -> {err_more_u:.3e}"),
        metrics={"err_default": err_default, "err_coarse_h": err_coarse_h,
                 "err_half_h": err_half_h, "err_coarse_u": err_coarse_u,
                 "err_more_u": err_more_u},
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
                f"relative change {certificate.rel_change:.2e} (< 5%)"),
        metrics={"constant": certificate.constant, "rel_change": certificate.rel_change},
        tables={"c05_decay": (("psi", "constant", "refined", "rel_change", "stable"), rows)},
    )


def criterion_modulus(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exemplar modulus matrix, 500-trial domination, semigroup deviation."""
    gen = exemplar_contraction_generator()
    t_star = 0.5 * math.log(2.0)
    result = modulus_semigroup(gen, t_star)
    expected = np.array([[0.75, 0.25], [0.25, 0.75]])
    exemplar_err = float(np.abs(result.S_t - expected).max())
    double = modulus_semigroup(gen, 2.0 * t_star)
    deviation = float(np.abs(double.S_t - result.S_t @ result.S_t).max())

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
    passed = exemplar_err <= 1e-8 and deviation < 1e-6 and worst_violation <= 1e-10 \
        and checked >= 500
    return CriterionResult(
        name="modulus-semigroup", passed=bool(passed),
        detail=(f"exemplar error {exemplar_err:.3e} (tol 1e-8), semigroup deviation "
                f"{deviation:.3e} (tol 1e-6), worst domination violation {worst_violation:.3e} "
                f"over {checked} trials"),
        metrics={"exemplar_error": exemplar_err, "deviation": deviation,
                 "worst_violation": worst_violation, "checked": checked},
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
        metrics={"control_failed_as_expected": control_ok},
        tables={"c07_subpositivity": (("trial", "n", "t", "sup_margin", "tensor_margin",
                                       "positivity_min", "pass"), rows)},
    )


def criterion_imaginary_powers(seed: int = DEFAULT_SEED) -> CriterionResult:
    """L^2 isometry of L^{iu}; fitted growth angle below pi/2 at p = 4."""
    u_grid = np.linspace(-5.0, 5.0, 21)
    iso_rows = []
    worst_iso = 0.0
    rng = np.random.default_rng(seed + 53)
    for index in range(20):
        gen = random_generator(8, seed + 709 * index + 7, kind="diffusion")
        for _ in range(5):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            base = lp_norm(gen.space, f, 2.0)
            for u in u_grid:
                deviation = abs(lp_norm(gen.space, imaginary_power(gen, float(u), f), 2.0)
                                - base) / base
                worst_iso = max(worst_iso, deviation)
        iso_rows.append((index, worst_iso))

    fit_rows = []
    worst_omega = 0.0
    for index in range(8):
        gen = random_generator(8, seed + 997 * index + 19, kind="diffusion")
        estimate = imaginary_power_estimate(gen, 4.0, u_grid=u_grid, trials=20,
                                            seed=seed + index)
        worst_omega = max(worst_omega, estimate.omega)
        fit_rows.append((index, estimate.K, estimate.omega))
    passed = worst_iso <= 1e-10 and worst_omega < math.pi / 2.0
    return CriterionResult(
        name="imaginary-powers", passed=bool(passed),
        detail=(f"worst relative L^2 isometry deviation {worst_iso:.3e} (tol 1e-10); "
                f"worst fitted omega at p=4: {worst_omega:.4f} < pi/2 = {math.pi / 2.0:.4f}"),
        metrics={"worst_isometry_deviation": worst_iso, "worst_omega": worst_omega},
        tables={"c08_imaginary": (("trial", "K", "omega"), fit_rows)},
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
    rows = [
        (plan_a.p, plan_a.r, plan_a.psi, plan_a.theta, plan_a.q, plan_a.sigma, plan_a.omega),
        (plan_b.p, plan_b.r, plan_b.psi, plan_b.theta, plan_b.q, plan_b.sigma, plan_b.omega),
    ]
    return CriterionResult(
        name="interpolation-planner", passed=bool(passed),
        detail=(f"(2,2,0,theta=0.5) -> (q=2, sigma=3pi/4, omega=3pi/8) to {err_a:.1e}; "
                f"(4,4,0.1pi,theta=0.6) -> (q=12, omega=0.35pi) to {err_b:.1e}; "
                f"theta=0.4 rejected: {rejected}"),
        metrics={"err_a": err_a, "err_b": err_b, "rejected": rejected},
        tables={"c09_planner": (("p", "r", "psi", "theta", "q", "sigma", "omega"), rows)},
    )


def criterion_dimension_uniformity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """C_emp(d) profile flat within a factor 2; triangle bound on every trial."""
    spec = EnsembleSpec(n=8, count=8, kind="diffusion")
    report = maximal_theorem_experiment(spec, 4.0, 4.0, 0.1 * math.pi,
                                        d_list=(1, 2, 4, 8, 16), trials=4, seed=seed,
                                        theta=0.6)
    rows = list(zip(report.d_list, report.c_emp))
    return CriterionResult(
        name="dimension-uniformity", passed=bool(report.passed),
        detail=(f"C_emp(16)/C_emp(1) = {report.uniformity_ratio:.4f} (<= 2); "
                f"max triangle excess {report.max_triangle_excess:.3e} (<= 0)"),
        metrics={"uniformity_ratio": report.uniformity_ratio,
                 "max_triangle_excess": report.max_triangle_excess,
                 "c_emp": dict(zip((str(d) for d in report.d_list), report.c_emp))},
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
        fld = _random_bochner(rng, 8, 4)
        profile = pointwise_convergence_profile(gen, fld, 0.1 * math.pi)
        monotone = bool(np.all(np.diff(profile.errors) <= 1e-12))
        in_range = bool(0.8 <= profile.slope <= 1.2)
        passed = passed and monotone and in_range
        worst_slope_dev = max(worst_slope_dev, abs(profile.slope - 1.0))
        rows.append((index, profile.slope, monotone, in_range))
    return CriterionResult(
        name="pointwise-convergence", passed=bool(passed),
        detail=(f"50 profiles non-increasing with slope within 1 +/- 0.2; "
                f"worst |slope - 1| = {worst_slope_dev:.3f}"),
        metrics={"worst_slope_deviation": worst_slope_dev},
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
        metrics={"identical": passed},
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


def _battery(seed: int) -> tuple[dict, dict]:
    """Run the twelve criteria; returns the summary document and all criterion tables."""
    summary = {"seed": seed, "criteria": {}, "passed": True}
    tables = {}
    for index, criterion in enumerate(ACCEPTANCE_CRITERIA, start=1):
        started = time.perf_counter()
        result = criterion(seed)
        elapsed = time.perf_counter() - started
        summary["criteria"][f"{index:02d}_{result.name}"] = {
            "passed": result.passed,
            "detail": result.detail,
            "seconds": round(elapsed, 3),
        }
        summary["passed"] = summary["passed"] and result.passed
        tables.update(result.tables)
    return summary, tables


def full_suite(seed: int = DEFAULT_SEED, output: str | None = None) -> dict:
    """Run the acceptance battery; returns the summary document.

    When ``output`` is given, every criterion table is written as
    ``<output>.<table>.csv`` and the summary as ``<output>.summary.json``
    (with timings; the CSV bodies themselves are timing-free and
    deterministic).
    """
    summary, tables = _battery(seed)
    if output is not None:
        for name, table in tables.items():
            _write_text(f"{output}.{name}.csv", _table_text(*table))
        _write_text(f"{output}.summary.json", _json_text(summary))
    return summary


def _cmd_full_suite(config: ExperimentConfig):
    summary, tables = _battery(config.seed)
    print(_write_text(f"{config.output}.summary.json", _json_text(summary)))
    details = {name: entry["passed"] for name, entry in summary["criteria"].items()}
    return summary["passed"], details, tables


_COMMAND_IMPL = {
    "verify-semigroup": _cmd_verify_semigroup,
    "modulus": _cmd_modulus,
    "hds": _cmd_hds,
    "mellin-table": _cmd_mellin_table,
    "maximal": _cmd_maximal,
    "pointwise": _cmd_pointwise,
    "bip-plan": _cmd_bip_plan,
    "full-suite": _cmd_full_suite,
}


def run(config: ExperimentConfig) -> int:
    """Execute one validated config; writes artifacts and returns the exit status."""
    started = time.perf_counter()
    passed, details, tables = _COMMAND_IMPL[config.command](config)
    elapsed = time.perf_counter() - started
    manifest = _manifest_skeleton(config)
    manifest["passed"] = bool(passed)
    manifest["details"] = details
    manifest["timings"] = {"seconds": round(elapsed, 3)}
    for path in _write_artifacts(config.output, manifest, tables):
        print(path)
    print(f"{config.command}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlab",
        description="Seeded verification experiments for diffusion semigroups, "
                    "maximal functions and sector multipliers on finite weighted spaces.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--trials", type=int, help="override per-member trial count")
    parser.add_argument("--psi", type=float, help="override the sector half-angle")
    parser.add_argument("--theta", type=float, help="override the interpolation weight")
    parser.add_argument("--out", help="override the output path prefix")
    parser.add_argument("--n", type=int, help="override the ensemble dimension")
    parser.add_argument("--count", type=int, help="override the ensemble size")
    parser.add_argument("--kind", choices=("diffusion", "contraction", "identity"),
                        help="override the ensemble kind")
    parser.add_argument("--c", type=float, help="override the ensemble rate scale")
    parser.add_argument("--p", type=float, action="append",
                        help="override the exponent list (repeatable)")
    parser.add_argument("--r", type=float, help="override the fiber exponent")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.out is not None:
        overrides["output"] = args.out
    angles = {}
    if args.psi is not None:
        angles["psi"] = args.psi
    if args.theta is not None:
        angles["theta"] = args.theta
    if angles:
        overrides["angles"] = angles
    ensemble = {}
    for key in ("n", "count", "kind", "c"):
        value = getattr(args, key)
        if value is not None:
            ensemble[key] = value
    if ensemble:
        overrides["ensemble"] = ensemble
    exponents = {}
    if args.p is not None:
        exponents["p"] = args.p
    if args.r is not None:
        exponents["r"] = args.r
    if exponents:
        overrides["exponents"] = exponents
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
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
