"""Exact mixing-time analysis of the reflecting nearest-neighbor walk with a
downward drift, through its spectral measure (two atoms plus a density).

The package computes exact distances to stationarity three independent ways
(spectral series, dynamic-programming oracle, coupling simulation), the
closed-form convergence envelopes A alpha^t +- B beta^t, and mixing times.
"""

__version__ = "0.1.0"

from .chain import (
    ChainParams,
    DistributionVector,
    Reversibility,
    drift_identity_residual,
    evolve,
    reversibility,
    tv_oracle,
    tv_oracle_curve,
)
from .orthopoly import point_mass_summability, q_log_sup, q_values
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
    RouteDisagreement,
    TailControl,
    bound_coefficients,
    contour_envelope,
    kernel_matrix,
    kernel_spectral,
    spectral_integral,
    t_mix,
    tv_curve,
    tv_lower,
    tv_upper,
)
from .coupling import (
    RateFit,
    SurvivalCurve,
    hitting_pmf_exact,
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
    "ChainParams", "DistributionVector", "Reversibility",
    "reversibility", "evolve", "tv_oracle", "tv_oracle_curve", "drift_identity_residual",
    "q_values", "q_log_sup", "point_mass_summability",
    "SpectralMeasure", "QuadratureConfig", "QuadratureError", "RegimeError",
    "build_measure", "integrate_psi", "resolvent_a0", "residue_check",
    "BoundCoefficients", "TailControl", "ConvergenceError", "RouteDisagreement",
    "bound_coefficients", "contour_envelope", "spectral_integral",
    "tv_curve", "tv_upper", "tv_lower", "t_mix",
    "kernel_matrix", "kernel_spectral",
    "SurvivalCurve", "RateFit", "simulate_classical", "simulate_modified",
    "rate_fit", "hitting_pmf_multinomial", "hitting_pmf_exact",
    "hitting_pmf_exact_curve", "hitting_tail_asymptote",
    "stationary_hitting_survival",
]
