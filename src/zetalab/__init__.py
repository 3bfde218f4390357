"""zetalab: a numerical laboratory for the Riemann zeta function in the
critical strip.

Series representations (plain, alternating/prefactored, regularized),
functional-equation diagnostics, critical-line zero location, and the
doubling-ratio / error-scaling convergence experiments, with a CLI that
emits deterministic JSON and CSV reports.
"""

from .config import DEFAULT_CONFIG, DEFAULT_GUARD_RADIUS, EvalConfig
from .errors import (
    BracketError,
    BudgetError,
    ConfigError,
    DivisionByNearZero,
    DomainError,
    InsufficientDomain,
    NoConvergence,
    NonMonotonicError,
    ParseError,
    PoleError,
    PrefactorSingularityError,
    SingularityError,
    WindowTooCoarse,
    ZetaLabError,
)
from .experiments import (
    DOUBLING_BUDGET,
    RatioReport,
    ScalingReport,
    error_scaling_scan,
    exponent_gap,
    h_doubling,
    modulus_limit_check,
    tail_count,
    zeta_hat_doubling,
)
from .functional_equation import (
    ResidualReport,
    functional_equation_residual,
    h_factor,
    h_ratio_finite,
)
from .series import (
    SeriesValue,
    eta_partial,
    identity_residual_plain,
    identity_residual_regularized,
    zeta_hat_eta,
    zeta_hat_eta_batch,
    zeta_hat_regularized,
    zeta_hat_regularized_schedule,
    zeta_partial,
)
from .special_functions import complex_power, complex_sin, gamma, log_gamma
from .zeros import (
    CrosscheckReport,
    MatchedPair,
    ScanWindow,
    ZeroRecord,
    crosscheck_zeros,
    hardy_z,
    load_zero_table,
    reference_table_path,
    refine_zero,
    scan_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "BudgetError",
    "ConfigError",
    "CrosscheckReport",
    "DEFAULT_CONFIG",
    "DEFAULT_GUARD_RADIUS",
    "DOUBLING_BUDGET",
    "DivisionByNearZero",
    "DomainError",
    "EvalConfig",
    "InsufficientDomain",
    "MatchedPair",
    "NoConvergence",
    "NonMonotonicError",
    "ParseError",
    "PoleError",
    "PrefactorSingularityError",
    "RatioReport",
    "ResidualReport",
    "ScalingReport",
    "ScanWindow",
    "SeriesValue",
    "SingularityError",
    "WindowTooCoarse",
    "ZeroRecord",
    "ZetaLabError",
    "complex_power",
    "complex_sin",
    "crosscheck_zeros",
    "error_scaling_scan",
    "eta_partial",
    "exponent_gap",
    "functional_equation_residual",
    "gamma",
    "h_doubling",
    "h_factor",
    "h_ratio_finite",
    "hardy_z",
    "identity_residual_plain",
    "identity_residual_regularized",
    "load_zero_table",
    "log_gamma",
    "modulus_limit_check",
    "reference_table_path",
    "refine_zero",
    "scan_zeros",
    "tail_count",
    "zeta_hat_doubling",
    "zeta_hat_eta",
    "zeta_hat_eta_batch",
    "zeta_hat_regularized",
    "zeta_hat_regularized_schedule",
    "zeta_partial",
]
