"""Model-corrected iterative optimization against simulated plants.

The package provides a catalog of plant/model pairs with deliberate
mismatch, a first-order model correction, trust-region bookkeeping, a
ball-constrained subproblem solver with a Cauchy-point safeguard, three
run drivers, and a configuration-driven CLI that exports per-iteration
convergence traces.
"""

from .config import RunConfig, load_config, run_config
from .corrected_model import CorrectedModel, ModifierFilter
from .drivers import (
    DEGENERATE,
    IterationRecord,
    RunTrace,
    check_convergence,
    run_basic_ma,
    run_ma_tr,
    run_trust_region,
)
from .errors import ConfigError, OracleError
from .problems import (
    AssumptionReport,
    ProblemPair,
    ScalarOracle,
    finite_difference_gradient,
    finite_difference_hessian,
    get_problem,
    list_problems,
    probe_assumptions,
)
from .reporting import export_trace, summarize, trace_to_dict
from .subproblem import (
    SubproblemResult,
    SufficientDecreaseParams,
    cauchy_point,
    check_sufficient_decrease,
    estimate_beta,
    solve_subproblem,
)
from .trust_region import TrustRegionState, accept_candidate, compute_rho, update_radius

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "ConfigError",
    "CorrectedModel",
    "DEGENERATE",
    "IterationRecord",
    "ModifierFilter",
    "OracleError",
    "ProblemPair",
    "RunConfig",
    "RunTrace",
    "ScalarOracle",
    "SubproblemResult",
    "SufficientDecreaseParams",
    "TrustRegionState",
    "accept_candidate",
    "cauchy_point",
    "check_convergence",
    "check_sufficient_decrease",
    "compute_rho",
    "estimate_beta",
    "export_trace",
    "finite_difference_gradient",
    "finite_difference_hessian",
    "get_problem",
    "list_problems",
    "load_config",
    "probe_assumptions",
    "run_basic_ma",
    "run_config",
    "run_ma_tr",
    "run_trust_region",
    "solve_subproblem",
    "summarize",
    "trace_to_dict",
    "update_radius",
]
