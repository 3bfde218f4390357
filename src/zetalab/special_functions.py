"""Complex elementary and special functions used by every other module.

Everything here is a pure, deterministic function of its inputs.  Values are
ordinary Python ``complex`` numbers (IEEE double components); operations raise
instead of returning non-finite values.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError

#: Radius of the guard around poles and singular points: an argument this
#: close to one is refused rather than evaluated.
GUARD_RADIUS = 1e-6

LN_2 = math.log(2.0)
LN_PI = math.log(math.pi)
LN_2PI = math.log(2.0 * math.pi)

# Lanczos rational approximation, g = 607/128, 15 coefficients.  This set
# keeps the relative error of exp(log_gamma) below 1e-13 on the contract
# domain Re z in [0.5, 20], |Im z| <= 50 (measured max ~6e-14); the shorter
# classic g=7 set with 9 coefficients misses that bound (~2e-13).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z!r}")
    return z


def _lanczos_log_gamma(z: complex) -> complex:
    # valid for Re z >= 0.5
    z_minus_1 = z - 1
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (z_minus_1 + k)
    t = z + _LANCZOS_G - 0.5
    return 0.5 * LN_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def log_sin(z: complex) -> complex:
    """log(sin z), overflow-safe for large |Im z|.

    For |Im z| beyond the exp range the asymptotic form is used; its branch
    may differ from the principal one by a multiple of 2*pi*i, which all
    callers erase by exponentiating.
    """
    z = complex(z)
    y = z.imag
    if abs(y) <= 700.0:
        s = cmath.sin(z)
        if s == 0:
            raise ValueError(f"sin({z!r}) is exactly zero; log diverges")
        return cmath.log(s)
    # sin z = (e^{iz} - e^{-iz}) / 2i; the dropped relative term is e^{-2|y|}.
    if y > 0:
        return complex(-LN_2, 0.5 * math.pi) - 1j * z
    return complex(-LN_2, -0.5 * math.pi) + 1j * z


def log_gamma(z: complex) -> complex:
    """log Gamma(z) on its principal branch (continuous, real on (0, inf)).

    Uses the Lanczos sum for Re z >= 0.5 and the reflection formula
    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z) otherwise; in the
    reflected half-plane the branch is only fixed up to 2*pi*i, which is
    irrelevant under exp.

    Raises PoleError within ``GUARD_RADIUS`` of z = 0, -1, -2, ...
    """
    z = _require_finite(z)
    if z.real < 0.5:
        nearest = round(z.real)
        if nearest <= 0 and abs(z - nearest) <= GUARD_RADIUS:
            raise PoleError(f"log_gamma: {z!r} within guard radius of pole at {nearest}")
        return LN_PI - log_sin(math.pi * z) - _lanczos_log_gamma(1 - z)
    return _lanczos_log_gamma(z)
