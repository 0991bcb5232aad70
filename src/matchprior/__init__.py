"""Matching prior pairs: priors under which the posterior mean and the MAP
estimate asymptotically coincide, with the geometry, estimators, samplers,
and oracles needed to construct and validate them."""

from .errors import (BoundaryPoint, BoundaryStuck, FamilyMismatch,
                     IndefiniteHessian, InvalidHyperparameter,
                     MatchPriorError, NonFiniteInput, NonFiniteLogDensity,
                     NotConverged, SingularFisher, SingularPrecision,
                     StepTooLarge,
                     SupportMismatch, TailNotDecaying, ToleranceNotMet,
                     ZeroAcceptance)
from .models import (Dataset, GaussianKnownMeanPrecision, LogisticGLM,
                     ModelSpec, MultivariateCauchyLocation, PoissonRate,
                     PoissonSequence, finite_diff_third, load_banknote_csv,
                     load_dataset_csv, third_derivative_tensor)
from .geometry import (GeometryReport, alpha_connection,
                       alpha_parallel_log_grad, equiaffinity_residual,
                       fisher_matrix_grad, geometry_at, jeffreys_log_density,
                       jeffreys_log_grad, jeffreys_log_hess)
from .priors import (MatchingPair, PriorSpec, eflat_map_partner, gamma_prior,
                     invgamma_prior, jeffreys_power_partner, jeffreys_prior,
                     komaki_prior, matching_pair_1d, matching_residual,
                     mflat_map_partner, mflat_pm_partner, normal_prior,
                     parse_prior, uniform_prior)
from .estimators import (EstimateResult, LogPosterior, Statistic,
                         calibrate_pm_from_map,
                         coordinate_statistic, identity_statistics,
                         laplace_posterior_expectation, map_estimate, mle,
                         statistic_matching_residual)
from .mcmc import (ChainConfig, ChainOutput, batch_means_se, komaki_gibbs,
                   polya_gamma_1, polya_gamma_gibbs, rwmh, rwmh_target)
from .oracle import QuadratureSpec, conjugate_pm, quad_posterior_expectation
from .experiments import (ExperimentConfig, run_cauchy_calibration,
                          run_logistic_synthetic, run_poisson_shrinkage,
                          run_timing)

__version__ = "0.1.0"
