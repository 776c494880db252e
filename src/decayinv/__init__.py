"""Norm control for inverses of matrices with off-diagonal decay.

Infinite-matrix algebras are modeled by their finite sections together
with exact Toeplitz symbols where available.  The package computes decay
norms (weighted convolution, Jaffard, Dales-Davie, Besov), evaluates the
corresponding inversion bounds, and runs the sharpness experiments
behind them.
"""

from .besov import (SeminormEstimate, besov_seminorm,
                    hypersingular_seminorm, identification_rate_check,
                    modulus_profile)
from .bounds import (BoundReport, baskakov_bound_Cr, baskakov_bound_Jr,
                     besov_bound, bessel_rate_bound, constant_Cr_numeric,
                     dales_davie_bound, dd_domain_bound, ell_r, ell_tilde_r,
                     explicit_bound_Cr, explicit_bound_Jr,
                     integral_test_bracket, phi_Ar, weighted_geometric_series)
from .errors import (ConfigError, NumericalError, ParameterError,
                     RangeError, SingularityError)
from .experiments import ExperimentConfig, SlopeFit, random_decay_matrix
from .lattice import (GeometricTail, IndexWindow, LatticeMatrix,
                      ToeplitzSymbol, apply_automorphism, derivation_power,
                      difference_power, geometric_inverse_toeplitz,
                      invert_truncated, make_toeplitz, operator_norm_l2,
                      singular_values, symbol_range)
from .norms import (DalesDavieValue, a_m_gevrey, ambient_norm, banded_error,
                    cv_norm, dales_davie_norm, jaffard_norm)
from .quotient import verify_identity, verify_instances
from .weights import SmoothnessSequence, Weight, log_phi_r

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "ConfigError", "DalesDavieValue", "ExperimentConfig",
    "GeometricTail", "IndexWindow", "LatticeMatrix", "NumericalError",
    "ParameterError", "RangeError", "SeminormEstimate", "SingularityError",
    "SlopeFit", "SmoothnessSequence", "ToeplitzSymbol", "Weight",
    "a_m_gevrey", "ambient_norm", "apply_automorphism", "banded_error",
    "baskakov_bound_Cr", "baskakov_bound_Jr", "besov_bound", "besov_seminorm",
    "bessel_rate_bound", "constant_Cr_numeric", "cv_norm",
    "dales_davie_bound", "dales_davie_norm", "dd_domain_bound",
    "derivation_power", "difference_power", "ell_r", "ell_tilde_r",
    "explicit_bound_Cr", "explicit_bound_Jr", "geometric_inverse_toeplitz",
    "hypersingular_seminorm", "identification_rate_check",
    "integral_test_bracket", "invert_truncated", "jaffard_norm", "log_phi_r",
    "make_toeplitz", "modulus_profile", "operator_norm_l2", "phi_Ar",
    "random_decay_matrix", "singular_values", "symbol_range",
    "verify_identity", "verify_instances", "weighted_geometric_series",
]
