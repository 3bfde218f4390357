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

    n_terms       truncation index n of the partial sums
    accelerate    apply tail averaging to the alternating series
    accel_order   averaging depth (number of pairwise-averaging rounds)
    hl_constant   the constant C > 1 in the validity bound |Im z| <= 2*pi*n/C
    guard_radius  rejection radius around singular points
    tolerance     bound on |zhat| at refined zeros
    """

    n_terms: int = 10_000
    accelerate: bool = True
    accel_order: int = 40
    hl_constant: float = 2.0
    guard_radius: float = DEFAULT_GUARD_RADIUS
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.n_terms < 1:
            raise ConfigError(f"n_terms must be >= 1, got {self.n_terms}")
        if self.accel_order < 1:
            raise ConfigError(f"accel_order must be >= 1, got {self.accel_order}")
        if self.accelerate and self.accel_order > self.n_terms:
            raise ConfigError(
                f"accel_order ({self.accel_order}) must not exceed n_terms ({self.n_terms})"
            )
        if not self.hl_constant > 1.0:
            raise ConfigError(f"hl_constant must be > 1, got {self.hl_constant}")
        if not self.guard_radius > 0.0:
            raise ConfigError(f"guard_radius must be > 0, got {self.guard_radius}")
        if not self.tolerance > 0.0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")

    def replace(self, **changes) -> "EvalConfig":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_CONFIG = EvalConfig()

#: Plain-sum configuration used by the convergence experiments, where
#: acceleration would alter the very error terms being measured.
PLAIN_CONFIG = EvalConfig(accelerate=False)
