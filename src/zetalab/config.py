"""Evaluation configuration shared by the series, zero, and experiment code."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

#: Default guard radius around poles / singular points.
DEFAULT_GUARD_RADIUS = 1e-6


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for one series evaluation.

    n_terms       truncation index n of the plain partial sums; the Borwein
                  series of ``zeta_hat_eta`` picks its own length
    hl_constant   the constant C > 1 in the validity bound |Im z| <= 2*pi*n/C
    guard_radius  rejection radius around singular points
    tolerance     bound on |zhat| at refined zeros
    """

    n_terms: int = 10_000
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


DEFAULT_CONFIG = EvalConfig()
