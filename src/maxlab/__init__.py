"""Numerical verification laboratory for diffusion semigroups on finite
weighted measure spaces: spectral calculus, modulus semigroups, maximal
ergodic bounds, sector multipliers and imaginary powers, all with seeded
reproducible experiments."""

__version__ = "0.1.0"

from .core import (
    BanachNormDescriptor,
    BochnerField,
    ToleranceConfig,
    WeightedSpace,
    bochner_norm,
    lp_norm,
    pointwise_banach_norm,
    pointwise_sup,
)
from .spectral import (
    MuSymmetricOperator,
    SpectralDecomposition,
    apply_multiplier,
    complex_gamma,
    decompose,
    family_sup,
    gamma_values,
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
    evolve,
    exemplar_contraction_generator,
    imaginary_power,
    random_generator,
    sector_contraction_probe,
    semigroup_matrix,
    stein_angle,
    verify_contraction_property,
)
from .modulus import (
    ModulusResult,
    Subdivision,
    linear_modulus,
    modulus_generator,
    modulus_semigroup,
    phi,
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
    imaginary_power_estimate,
    m_theta,
    maximal_theorem_experiment,
    mellin_reconstruct,
    n_hat,
    pointwise_convergence_profile,
    sector_maximal,
    truncation_bound,
)

__all__ = [
    "__version__",
    "BanachNormDescriptor", "BochnerField", "ToleranceConfig", "WeightedSpace",
    "bochner_norm", "lp_norm", "pointwise_banach_norm", "pointwise_sup",
    "MuSymmetricOperator", "SpectralDecomposition", "apply_multiplier",
    "complex_gamma", "decompose", "family_sup", "gamma_values", "operator_norm",
    "operator_norm_lower_bound", "spectral_matrix",
    "ContractionSemigroupGenerator", "DiffusionGenerator", "EnsembleSpec",
    "SectorGrid", "build_ensemble", "evolve", "exemplar_contraction_generator",
    "imaginary_power", "random_generator", "sector_contraction_probe",
    "semigroup_matrix", "stein_angle", "verify_contraction_property",
    "ModulusResult", "Subdivision", "linear_modulus", "modulus_generator",
    "modulus_semigroup", "phi", "subpositivity_suite", "verify_domination",
    "ergodic_average", "hds_bound", "hds_experiment", "maximal_ergodic",
    "BipPlan", "BipPlanError", "bip_plan", "decay_constant",
    "decomposition_residual", "imaginary_power_estimate", "m_theta",
    "maximal_theorem_experiment", "mellin_reconstruct", "n_hat",
    "pointwise_convergence_profile", "sector_maximal", "truncation_bound",
]
