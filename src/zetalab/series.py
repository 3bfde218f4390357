"""Partial-sum machinery for the zeta function in the critical strip.

Four objects are computed here, all from ascending partial sums of k^(-z):

* ``zeta_partial``          zeta_n(z)  = sum_{k<=n} k^(-z)
* ``eta_partial``           xi_n(z)    = sum_{k<=n} (-1)^(k-1) k^(-z)
* ``zeta_hat_regularized``  zhat_n(z)  = zeta_n(z) - n^(1-z)/(1-z)
* ``zeta_hat_eta``          zhat(z)    = xi(z) / (1 - 2^(1-z)), with xi(z)
                            P. Borwein's weighted alternating sum

plus the two exact algebraic identities tying them together,

    xi_{2n}(z) = zeta_{2n}(z) - 2^(1-z) zeta_n(z)
    xi_{2n}(z) = zhat_{2n}(z) - 2^(1-z) zhat_n(z),

whose residuals are rounding noise only and serve as self-checks.

Numerics: terms are evaluated in double precision as exp(-z ln k) and
accumulated in 80-bit extended precision (numpy ``clongdouble``) in strictly
ascending k, so that results are deterministic and accumulation noise stays
far below the 1e-10 identity budget even for n = 10^4 sums of O(10^4)
magnitude near the edge of the strip.  Public values are IEEE doubles.
``zeta_hat_eta_batch`` sums many points in one pass per series length, each
point in its own row; ``zeta_hat_eta`` is its one-point case.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrefactorSingularityError, SingularityError
from .special_functions import DEFAULT_GUARD_RADIUS, LN_2, _require_finite, log_gamma

_LD = np.clongdouble
_RD = np.longdouble

# Fixed absolute chunk boundaries keep partial sums deterministic and memory
# bounded for very large truncation indices.
_CHUNK = 1 << 19

#: ln(3 + sqrt 8): each Borwein term divides the truncation bound by 3 + sqrt 8.
_LN_BORWEIN_RATE = math.log(3.0 + math.sqrt(8.0))

#: Target of the Borwein truncation bound, and the unit of the rounding bound.
_EPS = 2.0 ** -52

#: Points x terms per block of a batched series pass: however many points
#: share a length, the term matrix (16 bytes an entry) and its
#: extended-precision sums (32) stay below a megabyte each.
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class SeriesValue:
    """A Borwein series evaluation with its error bound.

    ``n_used`` is the series length and ``est_error`` an a priori bound on
    |value - zeta(z)|: the Borwein truncation bound plus a first-order bound
    on the rounding of the terms, weights and prefactor.
    """

    value: complex
    n_used: int
    est_error: float


def _require_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"truncation index must be >= 1, got {n}")
    return int(n)


def _check_overflow(z: complex, n: int) -> None:
    # |k^(-z)| = k^(-Re z) peaks at k = n for Re z < 0.
    if n > 1 and (-z.real) * math.log(n) > 700.0:
        raise OverflowError(f"terms of k^(-{z!r}) overflow double range at n={n}")


def mirror_is_conjugate(z: complex) -> bool:
    """True when every series here returns at 1 - z exactly conj(its value at z).

    On Re z = 1/2 the subtraction 1 - z is exactly conj(z), and each step
    (exp(-z ln k), the ascending sums, n^(1-z)/(1-z), 2^(1-z), the Borwein
    length) commutes with conjugation.  Im z = 0 is excluded: 1 - (0.5 +- 0i)
    is 0.5+0i either way, and conjugating would flip the sign of a zero.
    """
    return z.real == 0.5 and z.imag != 0.0


def _partial_sums(
    z: complex | np.ndarray,
    n: int,
    marks: tuple[int, ...],
    alternating: bool = False,
    weights: np.ndarray | None = None,
) -> list:
    """Stream the ascending partial sums of k^(-z), optionally signed
    (-1)^(k-1) and optionally weighted by ``weights[k-1]``.

    ``z`` is one point or an array of points.  Returns the partial sums at
    ``marks`` (sorted, each in [1, n]) in extended precision, each of the
    shape of ``z``; every point accumulates along its own row, so its sums do
    not depend on the other points.
    """
    zc = np.asarray(z, dtype=complex)[..., np.newaxis]
    values = []
    carry = _LD(0.0)
    mark_idx = 0
    for k0 in range(1, n + 1, _CHUNK):
        k1 = min(k0 + _CHUNK, n + 1)
        k = np.arange(k0, k1, dtype=np.float64)
        terms = np.exp(-zc * np.log(k))
        if weights is not None:
            terms *= weights[k0 - 1:k1 - 1]
        if alternating:
            first_even = 0 if k0 % 2 == 0 else 1
            terms[..., first_even::2] *= -1.0
        sums = np.cumsum(terms, axis=-1, dtype=_LD)
        sums += carry
        while mark_idx < len(marks) and marks[mark_idx] < k1:
            values.append(sums[..., marks[mark_idx] - k0])
            mark_idx += 1
        carry = sums[..., -1:]
    return values


@functools.lru_cache(maxsize=128)
def _borwein_weights(n: int) -> np.ndarray:
    """e_k = (d_n - d_{k-1}) / d_n for k = 1..n (P. Borwein's algorithm 2).

    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!) are exact integers, so
    each e_k is one correctly rounded division.  The array is cached, so it
    is read-only; the cache holds the ~20 lengths of a 20-wide zero-scan
    window several times over, so refinement reuses the grid's weights.
    """
    summand, d = 1, [1]  # the i = 0 summand is d_0 = 1
    for i in range(1, n + 1):
        # exact: the product is the next summand times (2i-1)(2i)
        summand = summand * 4 * (n + i - 1) * (n - i + 1) // ((2 * i - 1) * 2 * i)
        d.append(d[-1] + summand)
    weights = np.array([(d[n] - d_k) / d[n] for d_k in d[:n]])
    weights.flags.writeable = False
    return weights


def zeta_partial(z: complex, n: int) -> complex:
    """Plain partial sum sum_{k=1..n} k^(-z), summed in ascending k."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    (value,) = _partial_sums(z, n, marks=(n,))
    return complex(value)


def eta_partial(z: complex, n: int) -> complex:
    """Alternating partial sum sum_{k=1..n} (-1)^(k-1) k^(-z), ascending k."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    (value,) = _partial_sums(z, n, marks=(n,), alternating=True)
    return complex(value)


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
    (value,) = _partial_sums(z, n, marks=(n,))
    return complex(value - _regularization_tail(z, n))


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
    values = _partial_sums(z, marks[-1], marks=tuple(marks))
    return [complex(s - _regularization_tail(z, m)) for m, s in zip(marks, values)]


def _eta_prefactor(z: complex, guard_radius: float) -> complex:
    prefactor = 1.0 - 2.0 ** (1.0 - z)
    if abs(prefactor) <= guard_radius:
        raise PrefactorSingularityError(
            f"1 - 2^(1-z) vanishes near z={z!r}; the prefactored form is undefined "
            "at z = 1 and z = 1 + 2*pi*i*k/ln 2"
        )
    return prefactor


def _borwein_length(z: complex, prefactor: complex) -> tuple[int, float]:
    """(n, truncation bound): the shortest Borwein sum at z whose bound is <= 2^-52.

    Borwein's remainder is below Gamma(Re z) / (d_n |Gamma(z)| |1-2^(1-z)|)
    with d_n > (3+sqrt 8)^n / 2; his published bound omits Gamma(Re z) and
    fails for small and for large Re z.  |Gamma(z)| = |Gamma(z+1)| / |z|
    keeps clear of the reflection formula.
    """
    log_scale = (LN_2 + math.lgamma(z.real) - log_gamma(z + 1.0).real + math.log(abs(z))
                 - math.log(abs(prefactor)))
    n = max(1, math.ceil((log_scale - math.log(_EPS)) / _LN_BORWEIN_RATE))
    return n, math.exp(log_scale - n * _LN_BORWEIN_RATE)


def zeta_hat_eta(z: complex, guard_radius: float = DEFAULT_GUARD_RADIUS) -> SeriesValue:
    """zeta via the prefactored alternating series, valid for Re z > 0.

    P. Borwein, "An efficient algorithm for the Riemann zeta function", 2000,
    algorithm 2: the terms are weighted by e_k, and n is the smallest length
    whose truncation bound is <= 2^-52, about 0.9 |Im z| + 25 terms in the
    strip; ``guard_radius`` guards the zeros of 1 - 2^(1-z).  See SeriesValue
    for ``est_error``.  This is the one-point case of ``zeta_hat_eta_batch``.
    """
    (value,) = zeta_hat_eta_batch([z], guard_radius)
    return value


def zeta_hat_eta_batch(
    points: Iterable[complex], guard_radius: float = DEFAULT_GUARD_RADIUS
) -> list[SeriesValue]:
    """``zeta_hat_eta`` at each of ``points``, bit for bit, in batched passes.

    The points are grouped by their series length n, which fixes the Borwein
    weights, and each group is summed in one pass over a points x n term
    matrix, in blocks of at most ``_BLOCK_ENTRIES`` terms.  Every row is
    summed on its own (ascending k, extended precision), so a value does not
    depend on the other points.  The first invalid point raises what
    ``zeta_hat_eta`` raises there.
    """
    zs = [_require_finite(z) for z in points]
    prefactors, lengths = [], []
    for z in zs:
        if z.real <= 0.0:
            raise DomainError(f"alternating-series evaluation requires Re z > 0, got {z!r}")
        prefactors.append(_eta_prefactor(z, guard_radius))
        lengths.append(_borwein_length(z, prefactors[-1]))

    groups: dict[int, list[int]] = {}
    for i, (n, _) in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    out: list[SeriesValue] = [None] * len(zs)  # type: ignore[list-item]
    for n, members in groups.items():
        weights = _borwein_weights(n)
        rows = max(1, _BLOCK_ENTRIES // min(n, _CHUNK))
        for b in range(0, len(members), rows):
            block = members[b:b + rows]
            z, prefactor = [zs[i] for i in block], [prefactors[i] for i in block]
            (xi,) = _partial_sums(np.array(z), n, marks=(n,), alternating=True, weights=weights)
            values = (xi / np.array(prefactor)).astype(complex).tolist()
            rounding = _rounding_bounds(z, prefactor, values, weights)
            for i, value, r in zip(block, values, rounding):
                out[i] = SeriesValue(value, n, lengths[i][1] + r)
    return out


def _rounding_bounds(z: list[complex], prefactor: list[complex], value: list[complex],
                     weights: np.ndarray) -> list[float]:
    """First-order rounding bound of each value.

    A term exp(-z ln k) is off by (2 + |z| ln k) eps relative, its weighting
    by eps (the extended-precision sum adds about n 2^-64, less than
    |z| ln k eps), 1 - 2^(1-z) absolutely by
    eps (|2^(1-z)| (2 + |1-z|) + |prefactor|), and the division by eps.
    Each row of the term matrix is reduced by itself, as the one-point case
    reduces its one row, so no choice of summation order inside numpy can
    set a batch apart from its points.  |z| is Python's abs: numpy's complex
    abs differs from it in the last bit for about a third of points.
    """
    k = np.arange(1.0, len(weights) + 1.0)
    term_bounds = (weights * k ** np.array([[-zi.real] for zi in z])
                   * (3.0 + np.array([[abs(zi)] for zi in z]) * np.log(k)))
    bounds = []
    for zi, pi, vi, row in zip(z, prefactor, value, term_bounds):
        prefactor_bound = 2.0 ** (1.0 - zi.real) * (2.0 + abs(1.0 - zi)) + 2.0 * abs(pi)
        bounds.append(float(_EPS * (np.add.reduce(row) + abs(vi) * prefactor_bound) / abs(pi)))
    return bounds


def identity_residual_plain(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zeta_{2n}(z) - 2^(1-z) zeta_n(z))|.

    The identity is exact (even terms of zeta_{2n} rescale to zeta_n), so the
    residual measures rounding noise of the implementation only.
    """
    z = _require_finite(z)
    n = _require_n(n)
    xi = eta_partial(z, 2 * n)
    zeta_n, zeta_2n = _partial_sums(z, 2 * n, marks=(n, 2 * n))
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
