"""Numerical verification laboratory for diffusion semigroups on finite
weighted measure spaces: spectral calculus, modulus semigroups, maximal
ergodic bounds, sector multipliers and imaginary powers, all with seeded
reproducible experiments."""

__version__ = "0.1.0"

from .core import (
    BanachNormDescriptor,
    BochnerField,
    WeightedSpace,
    bochner_norm,
    lp_norm,
)
from .spectral import (
    MuSymmetricOperator,
    SpectralDecomposition,
    apply_multiplier,
    complex_gamma,
    decompose,
    family_sup,
    gamma_values,
    multiplier_norm_bounds,
    operator_norm,
    operator_norm_lower_bound,
    spectral_matrix,
)
from .semigroup import (
    ContractionSemigroupGenerator,
    DiffusionGenerator,
    EnsembleSpec,
    SectorGrid,
    build_ensemble,
    check_sector_angle,
    evolve,
    exemplar_contraction_generator,
    imaginary_power,
    random_generator,
    sector_angles,
    sector_contraction_probe,
    semigroup_matrix,
    stein_angle,
)
from .modulus import (
    ModulusResult,
    linear_modulus,
    modulus_semigroup,
    subpositivity_suite,
    verify_domination,
)
from .ergodic import (
    ergodic_average,
    hds_bound,
    hds_experiment,
    maximal_ergodic,
)
from .mellin import (
    BipPlan,
    BipPlanError,
    bip_plan,
    decay_constant,
    decomposition_residual,
    decomposition_residuals,
    imaginary_power_estimate,
    m_theta,
    maximal_theorem_experiment,
    mellin_reconstruct,
    n_hat,
    n_hat_table,
    pointwise_convergence_profile,
    sector_maximal,
    truncation_bound,
)

__all__ = [
    "__version__",
    "BanachNormDescriptor", "BochnerField", "WeightedSpace",
    "bochner_norm", "lp_norm",
    "MuSymmetricOperator", "SpectralDecomposition", "apply_multiplier",
    "complex_gamma", "decompose", "family_sup", "gamma_values", "multiplier_norm_bounds",
    "operator_norm", "operator_norm_lower_bound", "spectral_matrix",
    "ContractionSemigroupGenerator", "DiffusionGenerator", "EnsembleSpec",
    "SectorGrid", "build_ensemble", "check_sector_angle", "evolve",
    "exemplar_contraction_generator", "imaginary_power", "random_generator",
    "sector_angles", "sector_contraction_probe", "semigroup_matrix", "stein_angle",
    "ModulusResult", "linear_modulus", "modulus_semigroup", "subpositivity_suite",
    "verify_domination",
    "ergodic_average", "hds_bound", "hds_experiment", "maximal_ergodic",
    "BipPlan", "BipPlanError", "bip_plan", "decay_constant",
    "decomposition_residual", "decomposition_residuals", "imaginary_power_estimate", "m_theta",
    "maximal_theorem_experiment", "mellin_reconstruct", "n_hat", "n_hat_table",
    "pointwise_convergence_profile", "sector_maximal", "truncation_bound",
]
