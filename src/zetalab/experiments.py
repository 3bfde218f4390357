"""Doubling-ratio and error-scaling experiments.

At a zero rho the regularized sums vanish in the limit, so the doubling
behavior of the *finite* sums is governed by their leading truncation term.
The measurable facts are:

* H_n(rho) = zhat_n(rho)/zhat_n(1-rho) obeys H_{2n}/H_n -> 2^(1-2 rho), so
  the base-2 exponent of the ratio measures 1 - 2 rho, and its modulus
  measures 2^(1-2 Re rho) -- equal to 1 exactly when Re rho = 1/2.
* zhat_{2n}(rho)/zhat_n(rho) itself converges to a halving constant that the
  experiment records; reports carry both candidate constants 2^(-rho) and
  2^(1-rho) alongside the measurement (see RatioReport notes in the CLI).
* Away from zeros, zhat_n converges to a nonzero limit and every doubling
  ratio tends to 1.

All doubling experiments use plain regularized sums, not the Borwein series:
its weights would change the very error terms whose decay is being measured.
A schedule is summed term by term up to its base mark and carried to later
marks by Euler-Maclaurin steps, within 2^-51 of the term-by-term sums (see
``series.zeta_hat_regularized_schedule``).
The error-scaling scan fits the log-log slope of |zhat_n(z) - zhat(z)|
against the reference decay exponent -Re z, restricted to the validity
domain |Im z| <= 2*pi*n/C.
"""

from __future__ import annotations

import cmath
import math
import statistics
from dataclasses import dataclass

from .errors import BudgetError, ConfigError, DivisionByNearZero, DomainError, InsufficientDomain
from .functional_equation import NEAR_ZERO_DENOMINATOR
from .series import mirror_is_conjugate, zeta_hat_eta, zeta_hat_regularized_schedule
from .special_functions import LN_2

#: Largest truncation index accepted: n_base * 2^m of a doubling
#: schedule, the top of an error-scaling grid, and ``eval``'s plain sums.  It
#: keeps a term-by-term sum under about a second: ``eval --n`` sums all its
#: terms, while a schedule or a grid sums only up to its base mark, which
#: lies far below the budget unless |Im z| nears 2 pi 2^24.
DOUBLING_BUDGET = 1 << 24

#: Complex log2 is defined modulo this imaginary period; exponent comparisons
#: reduce into (-period/2, period/2].
LOG2_IMAG_PERIOD = 2.0 * math.pi / math.log(2.0)


@dataclass(frozen=True, slots=True)
class RatioReport:
    """Doubling schedule measurement at one point.

    ``ratios[j]`` is H at truncation n_base*2^(j+1) over H at n_base*2^j;
    ``zeta_hat_ratios`` is the same quotient for zhat_n itself.
    ``fitted_exponent`` is the tail mean of the principal-branch log2 of the
    H ratios, to be compared with ``reference_exponent`` = 1 - 2*point modulo
    the imaginary period of log2 (see ``exponent_gap``).
    """

    point: complex
    n_base: int
    m_doublings: int
    ratios: list[complex]
    zeta_hat_ratios: list[complex]
    fitted_exponent: complex
    reference_exponent: complex
    moduli: list[float]


@dataclass(frozen=True, slots=True)
class ScalingReport:
    """Log-log decay fit of |zhat_n(point) - reference| over an n grid.

    ``domain_ok[i]`` flags whether n_grid[i] satisfies |Im z| <= 2*pi*n/C;
    only those points enter the fit.  ``reference_slope`` is -Re(point).
    """

    point: complex
    n_grid: list[int]
    errors: list[float]
    fitted_slope: float
    reference_slope: float
    domain_ok: list[bool]


def tail_count(m: int) -> int:
    """Length of the schedule tail used for fitting: the last ceil(m/2) ratios
    (early ratios carry transient subleading terms)."""
    return (m + 1) // 2


def exponent_gap(fitted: complex, reference: complex) -> complex:
    """fitted - reference with the imaginary part reduced modulo the log2
    period into (-period/2, period/2].

    A doubling ratio determines its base-2 exponent only up to multiples of
    2*pi*i/ln 2; the real part -- the decisive component for the modulus
    claim -- is unaffected by the reduction.
    """
    delta = fitted - reference
    reduced = math.remainder(delta.imag, LOG2_IMAG_PERIOD)
    return complex(delta.real, reduced)


def _doubling_marks(n_base: int, m: int) -> list[int]:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n_base < 1:
        raise ValueError(f"n_base must be >= 1, got {n_base}")
    total = n_base << m
    if total > DOUBLING_BUDGET:
        raise BudgetError(
            f"schedule n_base*2^m = {total} exceeds the term budget {DOUBLING_BUDGET}"
        )
    return [n_base << j for j in range(m + 1)]


def _ratios(values: list[complex], what: str) -> list[complex]:
    out = []
    for a, b in zip(values, values[1:]):
        if abs(a) < NEAR_ZERO_DENOMINATOR:
            raise DivisionByNearZero(f"{what} underflowed along the schedule")
        out.append(b / a)
    return out


def h_doubling(point: complex, n_base: int, m: int) -> RatioReport:
    """Full doubling report for H_n(point) = zhat_n(point)/zhat_n(1-point).

    The fitted exponent is the mean principal log2 of the last ceil(m/2)
    H ratios; the reference exponent is 1 - 2*point.  On the critical line
    (Re z = 1/2, Im z != 0) the mirror schedule is conj of the direct one bit
    for bit (see ``mirror_is_conjugate``), so it costs no second pass.
    """
    point = complex(point)
    marks = _doubling_marks(n_base, m)
    values = zeta_hat_regularized_schedule(point, marks)
    values_mirror = ([v.conjugate() for v in values] if mirror_is_conjugate(point)
                     else zeta_hat_regularized_schedule(1.0 - point, marks))
    h_values = []
    for numerator, denominator in zip(values, values_mirror):
        if abs(denominator) < NEAR_ZERO_DENOMINATOR:
            raise DivisionByNearZero(f"zhat_n(1-z) underflowed at z={point!r}")
        h_values.append(numerator / denominator)

    ratios = _ratios(h_values, f"H_n({point!r})")
    zh_ratios = _ratios(values, f"zhat_n({point!r})")
    tail = ratios[m - tail_count(m):]
    fitted = sum(cmath.log(r) for r in tail) / (len(tail) * LN_2)
    return RatioReport(
        point=point,
        n_base=n_base,
        m_doublings=m,
        ratios=ratios,
        zeta_hat_ratios=zh_ratios,
        fitted_exponent=fitted,
        reference_exponent=1.0 - 2.0 * point,
        moduli=[abs(r) for r in ratios],
    )


#: Default validity constant C > 1 of the bound |Im z| <= 2*pi*n/C.
DEFAULT_HL_CONSTANT = 2.0


def error_scaling_scan(point: complex, n_grid: list[int], *,
                       hl_constant: float = DEFAULT_HL_CONSTANT) -> ScalingReport:
    """Measure |zhat_n(point) - zhat(point)| over an n grid and fit its decay.

    The reference value comes from the Borwein series ``zeta_hat_eta``, whose
    a priori error bound lies near machine precision, far below the errors
    measured on the default grids.  Grid points violating the validity bound
    |Im z| <= 2*pi*n/C, C = ``hl_constant``, are excluded from the fit; fewer
    than three surviving points raises InsufficientDomain.  A C not finite
    and > 1 raises ConfigError, and a grid reaching past ``DOUBLING_BUDGET``
    BudgetError, before any sum is taken.
    """
    if not 1.0 < hl_constant < math.inf:
        raise ConfigError(f"hl_constant must be finite and > 1, got {hl_constant}")
    point = complex(point)
    if not 0.0 < point.real < 1.0:
        raise DomainError(f"scaling scan needs 0 < Re z < 1, got {point!r}")
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])) or n_grid[0] < 1:
        raise ValueError(f"n_grid must be strictly increasing and >= 1, got {n_grid!r}")
    if n_grid[-1] > DOUBLING_BUDGET:
        raise BudgetError(f"n_grid reaches {n_grid[-1]}, above the term budget {DOUBLING_BUDGET}")

    threshold = hl_constant * abs(point.imag) / (2.0 * math.pi)
    domain_ok = [n >= threshold for n in n_grid]
    usable = [i for i, ok in enumerate(domain_ok) if ok]
    if len(usable) < 3:
        raise InsufficientDomain(
            f"only {len(usable)} grid points satisfy |Im z| <= 2*pi*n/C "
            f"(need n >= {threshold:.6g} with C={hl_constant}); at least 3 required"
        )

    reference = zeta_hat_eta(point).value
    values = zeta_hat_regularized_schedule(point, n_grid)
    errors = [abs(v - reference) for v in values]

    log_n = [math.log(n_grid[i]) for i in usable]
    log_err = [math.log(max(errors[i], 1e-300)) for i in usable]
    slope = statistics.linear_regression(log_n, log_err).slope
    return ScalingReport(
        point=point,
        n_grid=n_grid,
        errors=errors,
        fitted_slope=slope,
        reference_slope=-point.real,
        domain_ok=domain_ok,
    )
