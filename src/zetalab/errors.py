"""Exception taxonomy shared by all zetalab modules.

Errors that signal bad *arguments or configuration* (things a caller can fix
before any computation starts) also subclass :class:`ValueError`; the CLI maps
those to exit code 2 and everything else to exit code 1.
"""


class ZetaLabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ZetaLabError, ValueError):
    """An :class:`~zetalab.config.EvalConfig` violates its invariants."""


class DomainError(ZetaLabError):
    """Input lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Argument within the guard radius of a gamma-function pole."""


class SingularityError(DomainError):
    """Argument within the guard radius of a removable/true singularity."""


class PrefactorSingularityError(SingularityError):
    """z too close to a zero of 1 - 2^(1-z), where the alternating-series
    prefactor blows up (z = 1 and z = 1 + 2*pi*i*k/ln 2)."""


class DivisionByNearZero(ZetaLabError):
    """A ratio denominator underflowed below the meaningful threshold."""


class WindowTooCoarse(ZetaLabError, ValueError):
    """Scan step too large to resolve consecutive zeros."""


class NoConvergence(ZetaLabError):
    """Iterative refinement failed to reach its residual target."""


class BracketError(ZetaLabError, ValueError):
    """A root-finding bracket does not enclose a sign change."""


class ParseError(ZetaLabError, ValueError):
    """Malformed input text (zero tables, CLI complex literals)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class NonMonotonicError(ZetaLabError, ValueError):
    """Zero-table ordinates are not strictly increasing."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class InsufficientDomain(ZetaLabError):
    """Too few grid points satisfy the validity constraint |Im z| <= 2*pi*n/C."""


class BudgetError(ZetaLabError, ValueError):
    """A truncation index exceeds the term budget."""
