"""Coverage probability and downlink ergodic rate for (a)synchronous
massive MIMO cellular networks, computed two independent ways: closed-form
stochastic-geometry quadrature and Monte Carlo network simulation."""

__version__ = "0.1.0"

from .analytic import (CoverageCurve, RateResult, coverage,
                       coverage_fullpc_async, coverage_infinite_m,
                       coverage_no_pc, ergodic_rate, q2)
from .errors import (ConfigError, DomainError, EstimationError, MimosgError,
                     NumericalError, RealizationError)
from .geometry import NetworkRealization, build_network, sample_hppp
from .montecarlo import (McConfig, ValidationReport, draw_phases,
                         run_coverage_mc, run_rate_mc, validate)
from .params import (SystemParams, c_m, default_gamma_shape, default_params,
                     density_from_exclusion, derive_frame, eta_shape,
                     make_params, v_m)

__all__ = [
    "CoverageCurve", "RateResult", "coverage", "coverage_fullpc_async",
    "coverage_infinite_m", "coverage_no_pc", "ergodic_rate",
    "q2",
    "ConfigError", "DomainError", "EstimationError", "MimosgError",
    "NumericalError", "RealizationError",
    "NetworkRealization", "build_network", "sample_hppp",
    "McConfig", "ValidationReport", "draw_phases", "run_coverage_mc",
    "run_rate_mc", "validate",
    "SystemParams", "c_m", "default_gamma_shape", "default_params",
    "density_from_exclusion", "derive_frame", "eta_shape", "make_params",
    "v_m",
    "__version__",
]
