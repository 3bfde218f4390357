"""zetalab: a numerical laboratory for the Riemann zeta function in the
critical strip.

Series representations (plain, alternating/prefactored, regularized),
functional-equation diagnostics, critical-line zero location, and the
doubling-ratio / error-scaling convergence experiments, with a CLI that
emits deterministic JSON and CSV reports.
"""

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
    RatioReport,
    ScalingReport,
    error_scaling_scan,
    exponent_gap,
    h_doubling,
    tail_count,
)
from .functional_equation import (
    ResidualReport,
    functional_equation_residual,
    h_factor,
    h_ratio_finite,
)
from .series import (
    DOUBLING_BUDGET,
    SeriesValue,
    identity_residual_plain,
    identity_residual_regularized,
    zeta_hat_eta,
    zeta_hat_regularized,
    zeta_hat_regularized_schedule,
)
from .special_functions import GUARD_RADIUS, log_gamma
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
    "DOUBLING_BUDGET",
    "DivisionByNearZero",
    "DomainError",
    "GUARD_RADIUS",
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
    "crosscheck_zeros",
    "error_scaling_scan",
    "exponent_gap",
    "functional_equation_residual",
    "h_doubling",
    "h_factor",
    "h_ratio_finite",
    "hardy_z",
    "identity_residual_plain",
    "identity_residual_regularized",
    "load_zero_table",
    "log_gamma",
    "reference_table_path",
    "refine_zero",
    "scan_zeros",
    "tail_count",
    "zeta_hat_eta",
    "zeta_hat_regularized",
    "zeta_hat_regularized_schedule",
]
