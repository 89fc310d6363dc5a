"""Trend filtering with certified optimality and effective-sparsity bounds."""

from .constants import ck_asymptotic, ck_certified, ck_sparsity, minimum_segment_length
from .diffops import (ActiveSet, DiffOperator, block_column_sqnorms, build_delta,
                      column_norm_bound, column_norm_exact, falling_factorial_columns,
                      pinv_column_sqnorms)
from .estimator import (FitConfig, FitResult, check_basic_inequality, fit,
                        lambda_max, objective, polynomial_fit, tv1d_exact)
from .experiments import ExperimentConfig, generate_signal, rate_sweep, run_monte_carlo
from .interpolants import (ContinuousProfile, InterpolatingVector, build_noiseless,
                           build_noisy, check_monotone, continuous_profile,
                           delta_k_energy, halfpower_energy, k3_matching_closed_form,
                           solve_matching_coefficients)
from .sparsity import (Weights, compute_weights, effective_sparsity_direct,
                       effective_sparsity_via_interpolant, gamma_closed_form)
from .theory import (adaptive_bound_rhs, adaptive_rate, equal_segment_lambda,
                     lambda0, lambda_threshold, n_max_cap, nonadaptive_bound_rhs)

__version__ = "0.1.0"
