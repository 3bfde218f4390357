"""Partial-sum machinery for the zeta function in the critical strip.

Four objects are computed here, all from ascending partial sums of k^(-z):

* ``zeta_partial``          zeta_n(z)  = sum_{k<=n} k^(-z)
* ``eta_partial``           xi_n(z)    = sum_{k<=n} (-1)^(k-1) k^(-z)
* ``zeta_hat_regularized``  zhat_n(z)  = zeta_n(z) - n^(1-z)/(1-z)
* ``zeta_hat_eta``          zhat(z)    = xi(z) / (1 - 2^(1-z)), optionally
                            tail-averaged for fast convergence

plus the two exact algebraic identities tying them together,

    xi_{2n}(z) = zeta_{2n}(z) - 2^(1-z) zeta_n(z)
    xi_{2n}(z) = zhat_{2n}(z) - 2^(1-z) zhat_n(z),

whose residuals are rounding noise only and serve as self-checks.

Numerics: terms are evaluated in double precision as exp(-z ln k) and
accumulated in 80-bit extended precision (numpy ``clongdouble``) in strictly
ascending k, so that results are deterministic and accumulation noise stays
far below the 1e-10 identity budget even for n = 10^4 sums of O(10^4)
magnitude near the edge of the strip.  Public values are IEEE doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_GUARD_RADIUS, EvalConfig
from .errors import DomainError, PrefactorSingularityError, SingularityError
from .special_functions import _require_finite

_LD = np.clongdouble
_RD = np.longdouble

# Fixed absolute chunk boundaries keep partial sums deterministic and memory
# bounded for very large truncation indices.
_CHUNK = 1 << 19


@dataclass(frozen=True)
class SeriesValue:
    """A partial-sum evaluation with its truncation-error estimate.

    ``est_error`` is a heuristic magnitude (first omitted term for plain
    sums, last averaging correction when accelerated), an estimate rather
    than a bound; it refers to the alternating-sum stage, before the
    prefactor division.
    """

    value: complex
    n_used: int
    mode: str
    est_error: float


def _require_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"truncation index must be >= 1, got {n}")
    return int(n)


def _check_overflow(z: complex, n: int) -> None:
    # |k^(-z)| = k^(-Re z) peaks at k = n for Re z < 0.
    if n > 1 and (-z.real) * math.log(n) > 700.0:
        raise OverflowError(f"terms of k^(-{z!r}) overflow double range at n={n}")


def _keep_tail(tail, sums: np.ndarray, keep: int):
    # the last ``keep`` running sums once the chunk ``sums`` is appended,
    # copied so that the chunk itself can be freed
    if tail is None or len(sums) >= keep:
        return sums[-keep:].copy()
    return np.concatenate([tail, sums])[-keep:]


def _partial_sums(
    z: complex,
    n: int,
    marks: tuple[int, ...] = (),
    tail_keep: int = 0,
    alternating: bool = False,
    derivative: bool = False,
):
    """Stream the ascending partial sums of k^(-z) (optionally signed).

    Returns (values, tail, dtail) where ``values[i]`` is the partial sum at
    ``marks[i]`` (marks must be sorted, each in [1, n]) and ``tail`` holds the
    last ``tail_keep`` partial sums S_{n-tail_keep+1} .. S_n, all in extended
    precision.  With ``derivative`` the term-wise derivative series, terms
    -ln k * k^(-z) with the same signs, is accumulated alongside and
    ``dtail`` holds its last ``tail_keep`` partial sums; otherwise it is None.
    """
    zc = complex(z)
    values = []
    tail = dtail = None
    carry = dcarry = _LD(0.0)
    mark_idx = 0
    for k0 in range(1, n + 1, _CHUNK):
        k1 = min(k0 + _CHUNK, n + 1)
        k = np.arange(k0, k1, dtype=np.float64)
        # ln k is recomputed for the derivative rather than kept alive across
        # the chunk, which would raise the peak memory of the plain stream
        terms = np.exp(-zc * np.log(k))
        if alternating:
            first_even = 0 if k0 % 2 == 0 else 1
            terms[first_even::2] *= -1.0
        sums = carry + np.cumsum(terms, dtype=_LD)
        while mark_idx < len(marks) and marks[mark_idx] < k1:
            values.append(sums[marks[mark_idx] - k0])
            mark_idx += 1
        carry = sums[-1]
        if tail_keep:
            tail = _keep_tail(tail, sums, tail_keep)
        if derivative:
            dsums = dcarry + np.cumsum(terms * -np.log(k), dtype=_LD)
            dcarry = dsums[-1]
            if tail_keep:
                dtail = _keep_tail(dtail, dsums, tail_keep)
    return values, tail, dtail


def _tail_average(window: np.ndarray):
    """Iterated pairwise averaging of consecutive partial sums.

    Returns (final estimate, magnitude of the last averaging correction).
    Each round replaces the window by midpoints of neighbours; for an
    alternating series with smooth terms every round trades one order of the
    term's smoothness for roughly a factor |z|/(2n) of error.
    """
    row = window
    v_cur = row[-1]
    v_prev = v_cur
    for _ in range(len(window) - 1):
        row = 0.5 * (row[:-1] + row[1:])
        v_prev = v_cur
        v_cur = row[-1]
    return v_cur, float(abs(complex(v_cur - v_prev)))


def zeta_partial(z: complex, n: int) -> complex:
    """Plain partial sum sum_{k=1..n} k^(-z), summed in ascending k."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    values, _, _ = _partial_sums(z, n, marks=(n,))
    return complex(values[0])


def eta_partial(z: complex, n: int) -> complex:
    """Alternating partial sum sum_{k=1..n} (-1)^(k-1) k^(-z), ascending k."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    values, _, _ = _partial_sums(z, n, marks=(n,), alternating=True)
    return complex(values[0])


def _regularization_tail(z: complex, n: int) -> np.clongdouble:
    # n^(1-z)/(1-z) in extended precision; exact for n = 1 (log 1 = 0).
    one_minus_z = _LD(1.0 - z)
    return np.exp(one_minus_z * np.log(_RD(n))) / one_minus_z


def zeta_hat_regularized(
    z: complex, n: int, guard_radius: float = DEFAULT_GUARD_RADIUS
) -> complex:
    """Regularized partial sum zeta_n(z) - n^(1-z)/(1-z).

    Subtracting the leading divergent tail makes the sequence converge to
    zeta(z) for Re z > 0 with error O(n^(-Re z)).  Raises SingularityError
    within ``guard_radius`` of z = 1.
    """
    z = _require_finite(z)
    n = _require_n(n)
    if abs(z - 1.0) <= guard_radius:
        raise SingularityError(f"regularized sum undefined at z={z!r} (division by 1-z)")
    _check_overflow(z, n)
    values, _, _ = _partial_sums(z, n, marks=(n,))
    return complex(values[0] - _regularization_tail(z, n))


def zeta_hat_regularized_schedule(
    z: complex, marks: list[int], guard_radius: float = DEFAULT_GUARD_RADIUS
) -> list[complex]:
    """zeta_hat_regularized at several truncation indices from one pass.

    ``marks`` must be strictly increasing.  Used by the doubling and scaling
    experiments, which need aligned schedules n, 2n, 4n, ...
    """
    z = _require_finite(z)
    if not marks:
        return []
    if any(m < 1 for m in marks) or any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"marks must be strictly increasing and >= 1, got {marks!r}")
    if abs(z - 1.0) <= guard_radius:
        raise SingularityError(f"regularized sum undefined at z={z!r} (division by 1-z)")
    _check_overflow(z, marks[-1])
    values, _, _ = _partial_sums(z, marks[-1], marks=tuple(marks))
    return [complex(s - _regularization_tail(z, m)) for m, s in zip(marks, values)]


def _eta_prefactor(z: complex, guard_radius: float) -> complex:
    prefactor = 1.0 - 2.0 ** (1.0 - z)
    if abs(prefactor) <= guard_radius:
        raise PrefactorSingularityError(
            f"1 - 2^(1-z) vanishes near z={z!r}; the prefactored form is undefined "
            "at z = 1 and z = 1 + 2*pi*i*k/ln 2"
        )
    return prefactor


def zeta_hat_eta(z: complex, config: EvalConfig) -> SeriesValue:
    """zeta via the prefactored alternating series, valid for Re z > 0.

    Plain mode returns xi_n(z) / (1 - 2^(1-z)) with the first omitted term
    magnitude (n+1)^(-Re z) as ``est_error``.  Accelerated mode tail-averages
    the last ``accel_order``+1 partial sums before dividing, reporting the
    last averaging correction instead; with the default configuration this
    reaches near machine precision throughout the strip for |Im z| <= 100.
    """
    z = _require_finite(z)
    if z.real <= 0.0:
        raise DomainError(f"alternating-series evaluation requires Re z > 0, got {z!r}")
    prefactor = _eta_prefactor(z, config.guard_radius)
    n = config.n_terms
    order = min(config.accel_order, n - 1) if config.accelerate else 0
    _, window, _ = _partial_sums(z, n, tail_keep=order + 1, alternating=True)
    if order > 0:
        sum_ld, est = _tail_average(window)
    else:
        sum_ld, est = window[-1], float((n + 1) ** (-z.real))
    return SeriesValue(complex(sum_ld / _LD(prefactor)), n, "eta_prefactored", est)


def zeta_hat_eta_with_derivative(z: complex, config: EvalConfig) -> tuple[complex, complex]:
    """(zhat(z), d zhat/dz) via the term-wise differentiated alternating series.

    d/dz k^(-z) = -ln k * k^(-z); the differentiated series is alternating
    with smooth terms as well, so the same tail averaging applies.  Used by
    Newton refinement of zeros.
    """
    z = _require_finite(z)
    if z.real <= 0.0:
        raise DomainError(f"alternating-series evaluation requires Re z > 0, got {z!r}")
    prefactor = _eta_prefactor(z, config.guard_radius)
    n = config.n_terms
    order = min(config.accel_order, n - 1) if config.accelerate else 0
    _, tail, dtail = _partial_sums(
        z, n, tail_keep=order + 1, alternating=True, derivative=True
    )
    eta_sum, _ = _tail_average(tail)
    eta_deriv, _ = _tail_average(dtail)
    pref_ld = _LD(prefactor)
    # d/dz [1 - 2^(1-z)] = ln 2 * 2^(1-z)
    dpref_ld = _LD(math.log(2.0) * 2.0 ** (1.0 - z))
    value = eta_sum / pref_ld
    deriv = eta_deriv / pref_ld - eta_sum * dpref_ld / (pref_ld * pref_ld)
    return complex(value), complex(deriv)


def identity_residual_plain(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zeta_{2n}(z) - 2^(1-z) zeta_n(z))|.

    The identity is exact (even terms of zeta_{2n} rescale to zeta_n), so the
    residual measures rounding noise of the implementation only.
    """
    z = _require_finite(z)
    n = _require_n(n)
    xi = eta_partial(z, 2 * n)
    (zeta_n, zeta_2n), _, _ = _partial_sums(z, 2 * n, marks=(n, 2 * n))
    rhs = complex(zeta_2n) - 2.0 ** (1.0 - z) * complex(zeta_n)
    return abs(xi - rhs)


def identity_residual_regularized(
    z: complex, n: int, guard_radius: float = DEFAULT_GUARD_RADIUS
) -> float:
    """|xi_{2n}(z) - (zhat_{2n}(z) - 2^(1-z) zhat_n(z))|.

    Holds exactly because (2n)^(1-z) = 2^(1-z) n^(1-z) makes the subtracted
    tails cancel; raises SingularityError near z = 1.
    """
    z = _require_finite(z)
    n = _require_n(n)
    xi = eta_partial(z, 2 * n)
    zhat_n, zhat_2n = zeta_hat_regularized_schedule(z, [n, 2 * n], guard_radius)
    rhs = zhat_2n - 2.0 ** (1.0 - z) * zhat_n
    return abs(xi - rhs)
