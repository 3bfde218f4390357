"""Evaluation configuration shared by the series, zero, and experiment code."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

#: Default guard radius around poles / singular points.
DEFAULT_GUARD_RADIUS = 1e-6


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for one series evaluation.

    n_terms       truncation index n of the plain partial sums
    accelerate    evaluate zhat by P. Borwein's weighted alternating series,
                  whose length follows from z, instead of xi_n(z)
    hl_constant   the constant C > 1 in the validity bound |Im z| <= 2*pi*n/C
    guard_radius  rejection radius around singular points
    tolerance     bound on |zhat| at refined zeros
    """

    n_terms: int = 10_000
    accelerate: bool = True
    hl_constant: float = 2.0
    guard_radius: float = DEFAULT_GUARD_RADIUS
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.n_terms < 1:
            raise ConfigError(f"n_terms must be >= 1, got {self.n_terms}")
        if not self.hl_constant > 1.0:
            raise ConfigError(f"hl_constant must be > 1, got {self.hl_constant}")
        if not self.guard_radius > 0.0:
            raise ConfigError(f"guard_radius must be > 0, got {self.guard_radius}")
        if not self.tolerance > 0.0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")

    def replace(self, **changes) -> "EvalConfig":
        return dataclasses.replace(self, **changes)


DEFAULT_CONFIG = EvalConfig()

#: Plain-sum configuration used by the convergence experiments, where
#: acceleration would alter the very error terms being measured.
PLAIN_CONFIG = EvalConfig(accelerate=False)
