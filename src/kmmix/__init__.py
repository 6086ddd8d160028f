"""Exact mixing-time analysis of the reflecting nearest-neighbor walk with a
downward drift, through its spectral measure (two atoms plus a density).

The package computes exact distances to stationarity three independent ways
(spectral series, dynamic-programming oracle, coupling simulation), the
closed-form convergence envelopes A alpha^t +- B beta^t, and mixing times.
"""

__version__ = "0.1.0"

from .chain import (
    ChainParams,
    Reversibility,
    drift_identity_residual,
    kernel_oracle,
    reversibility,
    tv_oracle,
    tv_oracle_curve,
)
from .orthopoly import point_mass_summability, q_bracket_matrix, q_log_sup
from .spectral import (
    QuadratureConfig,
    QuadratureError,
    RegimeError,
    SpectralMeasure,
    build_measure,
    integrate_psi,
    residue_check,
    resolvent_a0,
)
from .mixing import (
    BoundCoefficients,
    ConvergenceError,
    bound_coefficients,
    kernel_matrix,
    spectral_integral,
    t_mix,
    tv_curve,
    tv_envelope,
)
from .coupling import (
    RateFit,
    SurvivalCurve,
    hitting_pmf_exact_curve,
    hitting_pmf_multinomial,
    hitting_tail_asymptote,
    rate_fit,
    simulate_classical,
    simulate_modified,
    stationary_hitting_survival,
)

__all__ = [
    "__version__",
    "ChainParams", "Reversibility",
    "reversibility", "tv_oracle", "tv_oracle_curve", "kernel_oracle",
    "drift_identity_residual", "q_bracket_matrix", "q_log_sup", "point_mass_summability",
    "SpectralMeasure", "QuadratureConfig", "QuadratureError", "RegimeError",
    "build_measure", "integrate_psi", "resolvent_a0", "residue_check",
    "BoundCoefficients", "ConvergenceError", "bound_coefficients", "spectral_integral",
    "tv_curve", "tv_envelope", "t_mix",
    "kernel_matrix",
    "SurvivalCurve", "RateFit", "simulate_classical", "simulate_modified", "rate_fit",
    "hitting_pmf_multinomial", "hitting_pmf_exact_curve",
    "hitting_tail_asymptote", "stationary_hitting_survival",
]
