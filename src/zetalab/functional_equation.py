"""The functional-equation factor H(z) and residual diagnostics.

The completed relation is zhat(z) = H(z) * zhat(1-z) with

    H(z) = 2 * Gamma(1-z) * (2*pi)^(z-1) * sin(pi z / 2),

whose finite-n counterpart H_n(z) = zhat_n(z) / zhat_n(1-z) is the object of
the doubling experiments.  H is evaluated in log space (log Gamma + log sin +
a linear term) and exponentiated once, so Gamma(1-z) never overflows at
moderate |Im z|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DivisionByNearZero, DomainError, PoleError, SingularityError
from .series import mirror_is_conjugate, zeta_hat_eta, zeta_hat_regularized
from .special_functions import (
    DEFAULT_GUARD_RADIUS, LN_2, LN_2PI, _require_finite, log_gamma, log_sin,
)

#: Denominators below this are treated as exact zeros rather than data; at an
#: actual zeta zero both ratio terms vanish at the same rate, so the finite-n
#: ratio stays meaningful far above this threshold.
NEAR_ZERO_DENOMINATOR = 1e-300


@dataclass(frozen=True)
class ResidualReport:
    """One functional-equation check: residual = |lhs - rhs| with
    lhs = zhat(z) and rhs = H(z) * zhat(1-z)."""

    point: complex
    lhs: complex
    rhs: complex
    residual: float


def h_factor(z: complex, guard_radius: float = DEFAULT_GUARD_RADIUS) -> complex:
    """H(z) = 2 Gamma(1-z) (2 pi)^(z-1) sin(pi z / 2).

    Raises PoleError within ``guard_radius`` of z = 1, 2, 3, ... where
    Gamma(1-z) has poles.  H(1/2) = 1 exactly up to rounding, and
    |H(1/2 + i t)| = 1 on the whole critical line.
    """
    z = _require_finite(z)
    nearest = round(z.real)
    if nearest >= 1 and abs(z - nearest) <= guard_radius:
        raise PoleError(f"H has a pole of Gamma(1-z) near z={z!r} (integer {nearest})")
    half_z = 0.5 * math.pi * z
    if abs(half_z.imag) <= 700.0 and cmath.sin(half_z) == 0:
        # exact zeros of sin(pi z / 2): z = 0, -2, -4, ... (the trivial zeros)
        return complex(0.0)
    log_h = LN_2 + log_gamma(1.0 - z) + (z - 1.0) * LN_2PI + log_sin(half_z)
    value = cmath.exp(log_h)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"H({z!r}) overflows double precision")
    return value


def h_ratio_finite(
    z: complex, n: int, guard_radius: float = DEFAULT_GUARD_RADIUS
) -> complex:
    """Finite-n ratio H_n(z) = zhat_n(z) / zhat_n(1-z) of regularized sums.

    Defined away from the regularization singularities at z = 0 and z = 1.
    On the critical line (Re z = 1/2, Im z != 0) 1-z is conj(z) and zhat_n(1-z)
    is conj(zhat_n(z)) bit for bit (see ``mirror_is_conjugate``), so one sum
    gives both and |H_n| = 1 for every n.  Raises DivisionByNearZero only if
    the denominator underflows.
    """
    z = complex(z)
    if abs(z - 1.0) <= guard_radius or abs(z) <= guard_radius:
        raise SingularityError(
            f"H_n undefined within guard radius of z = 0 or z = 1, got {z!r}"
        )
    numerator = zeta_hat_regularized(z, n, guard_radius)
    denominator = (numerator.conjugate() if mirror_is_conjugate(z)
                   else zeta_hat_regularized(1.0 - z, n, guard_radius))
    if abs(denominator) < NEAR_ZERO_DENOMINATOR:
        raise DivisionByNearZero(f"zhat_n(1-z) underflowed at z={z!r}, n={n}")
    return numerator / denominator


def functional_equation_residual(
    z: complex, guard_radius: float = DEFAULT_GUARD_RADIUS
) -> ResidualReport:
    """Evaluate both sides of zhat(z) = H(z) zhat(1-z) and report |lhs - rhs|.

    Both sides use the prefactored alternating series (the same
    representation), so the residual isolates functional-equation error from
    any representation disagreement.  Requires 0 < Re z < 1 so that z and
    1-z both lie in the validity half-plane.  On the critical line
    (Re z = 1/2, Im z != 0) zhat(1-z) is conj(zhat(z)) bit for bit (see
    ``mirror_is_conjugate``), and is taken so, with one series pass.
    """
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError(f"residual check needs 0 < Re z < 1, got {z!r}")
    lhs = zeta_hat_eta(z, guard_radius).value
    mirror = (lhs.conjugate() if mirror_is_conjugate(z)
              else zeta_hat_eta(1.0 - z, guard_radius).value)
    rhs = h_factor(z, guard_radius) * mirror
    return ResidualReport(z, lhs, rhs, abs(lhs - rhs))
