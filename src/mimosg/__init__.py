"""Coverage probability and downlink ergodic rate for (a)synchronous
massive MIMO cellular networks, computed two independent ways: closed-form
stochastic-geometry quadrature and Monte Carlo network simulation."""

__version__ = "0.1.0"

from .analytic import (CoverageCurve, RateResult, coverage,
                       coverage_fullpc_async, coverage_infinite_m,
                       coverage_no_pc, ergodic_rate, gamma_cdf_approx, q2, q3)
from .errors import (ConfigError, DomainError, EstimationError, MimosgError,
                     NumericalError, RealizationError)
from .geometry import (NetworkRealization, build_network, sample_hppp,
                       serving_cdf, serving_pdf, serving_sample)
from .montecarlo import (McConfig, ValidationReport, draw_phases,
                         run_coverage_mc, run_rate_mc, validate)
from .params import (SystemParams, c_m, default_gamma_shape, default_params,
                     density_from_exclusion, derive_frame, eta_shape,
                     make_params, phase_probabilities, v_m)

__all__ = [
    "CoverageCurve", "RateResult", "coverage", "coverage_fullpc_async",
    "coverage_infinite_m", "coverage_no_pc", "ergodic_rate",
    "gamma_cdf_approx", "q2", "q3",
    "ConfigError", "DomainError", "EstimationError", "MimosgError",
    "NumericalError", "RealizationError",
    "NetworkRealization", "build_network", "sample_hppp", "serving_cdf",
    "serving_pdf", "serving_sample",
    "McConfig", "ValidationReport", "draw_phases", "run_coverage_mc",
    "run_rate_mc", "validate",
    "SystemParams", "c_m", "default_gamma_shape", "default_params",
    "density_from_exclusion", "derive_frame", "eta_shape", "make_params",
    "phase_probabilities", "v_m",
    "__version__",
]
