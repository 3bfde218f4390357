"""Partial-sum machinery for the zeta function in the critical strip.

Four objects are computed here, all from partial sums of k^(-z):

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
summed in 80-bit extended precision (numpy ``clongdouble``; the import fails
where ``longdouble`` is narrower).  The terms come in fixed chunks of
``_CHUNK`` = 4096; each chunk is summed pairwise, up to a mark or whole, and
the chunk totals are added in ascending order.  A sum at mark m so depends
only on the point and on m, results are deterministic, and accumulation
noise stays far below the 1e-10 identity budget even for n = 10^4 sums of
O(10^4) magnitude near the edge of the strip.  Public values are IEEE doubles.
``zeta_hat_eta_batch`` sums many points in one pass per series length, each
point in its own row; ``zeta_hat_eta`` is its one-point case.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, PrefactorSingularityError, SingularityError
from .special_functions import GUARD_RADIUS, LN_2, _require_finite, log_gamma

_LD = np.clongdouble
_RD = np.longdouble


def _require_extended_precision(finfo: np.finfo) -> None:
    """Refuse a ``longdouble`` with less than the x87 64-bit significand.

    The accuracy of the sums and ``_rounding_bounds``' claim that their
    accumulation is negligible hold only with at least that precision; where
    ``longdouble`` is double (MSVC, macOS on arm64) they would silently not.
    """
    if finfo.nmant < 63:
        raise ImportError(f"zetalab needs numpy's longdouble to have a 64-bit significand or "
                          f"more; here it is {finfo.dtype} with {finfo.nmant + 1} bits")


_require_extended_precision(np.finfo(_RD))

# Terms are made and summed in fixed absolute chunks of this many, so memory
# stays bounded for any truncation index.  A chunk fits in numpy's default
# 8192-element reduction buffer, so each row of it is summed by one pairwise
# inner-loop call, whatever the number of rows.
_CHUNK = 1 << 12

#: ln(3 + sqrt 8): each Borwein term divides the truncation bound by 3 + sqrt 8.
_LN_BORWEIN_RATE = math.log(3.0 + math.sqrt(8.0))

#: Target of the Borwein truncation bound, and the unit of the rounding bound.
_EPS = 2.0 ** -52

#: Points x terms per block of a batched series pass: however many points
#: share a length, the term matrix of a chunk (16 bytes an entry) stays at
#: most 256 KB.
_BLOCK_ENTRIES = 1 << 14

#: Longest Borwein series accepted.  Its weights are n exact integers of O(n)
#: bits, so their time and memory grow as n^2; this length covers |Im z| up
#: to about 1.8e4 in the strip, and one cold build of its weights takes about
#: 0.6 s and 70 MB of peak memory (Python 3.11 on a Xeon core).
BORWEIN_BUDGET = 1 << 14


@dataclass(frozen=True, slots=True)
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
    (exp(-z ln k), the chunked sums, n^(1-z)/(1-z), 2^(1-z), the Borwein
    length) commutes with conjugation.  Im z = 0 is excluded: 1 - (0.5 +- 0i)
    is 0.5+0i either way, and conjugating would flip the sign of a zero.
    """
    return z.real == 0.5 and z.imag != 0.0


def _partial_sums(
    z: complex | np.ndarray,
    marks: tuple[int, ...],
    alternating: bool = False,
    weights: np.ndarray | None = None,
) -> list:
    """Stream the partial sums of k^(-z), optionally signed (-1)^(k-1) and
    optionally weighted by ``weights[k-1]``.

    ``z`` is one point or an array of points.  Returns the partial sums at
    ``marks`` (sorted, each >= 1) in extended precision, each of the shape of
    ``z``; the series runs to the last mark.  The sum at mark m is the total
    of the whole chunks before it, added chunk by chunk, plus one pairwise
    sum of its own chunk up to m; no prefix sums are formed.
    Every point is summed along its own row, so its sums depend only on the
    point and on m, not on the other points or marks.
    """
    n = marks[-1]
    zc = np.asarray(z, dtype=complex)[..., np.newaxis]
    values = []
    carry = _LD(0.0)
    pending = iter(marks)
    mark = next(pending)
    for k0 in range(1, n + 1, _CHUNK):
        k1 = min(k0 + _CHUNK, n + 1)
        k = np.arange(k0, k1, dtype=np.float64)
        terms = np.exp(-zc * np.log(k))
        if weights is not None:
            terms *= weights[k0 - 1:k1 - 1]
        if alternating:
            first_even = 0 if k0 % 2 == 0 else 1
            terms[..., first_even::2] *= -1.0
        # a mark inside the chunk sums its own part of it, a mark at the
        # chunk's end takes the new carry; n + 1 means no mark is left
        while mark < k1 - 1:
            values.append(carry + np.add.reduce(terms[..., :mark - k0 + 1], axis=-1, dtype=_LD))
            mark = next(pending, n + 1)
        carry = carry + np.add.reduce(terms, axis=-1, dtype=_LD)
        if mark == k1 - 1:
            values.append(carry)
            mark = next(pending, n + 1)
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
    """Plain partial sum sum_{k=1..n} k^(-z)."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    (value,) = _partial_sums(z, (n,))
    return complex(value)


def eta_partial(z: complex, n: int) -> complex:
    """Alternating partial sum sum_{k=1..n} (-1)^(k-1) k^(-z)."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    (value,) = _partial_sums(z, (n,), alternating=True)
    return complex(value)


def _regularization_tail(z: complex, n: int) -> np.clongdouble:
    # n^(1-z)/(1-z) in extended precision; exact for n = 1 (log 1 = 0).
    one_minus_z = _LD(1.0 - z)
    return np.exp(one_minus_z * np.log(_RD(n))) / one_minus_z


def zeta_hat_regularized(z: complex, n: int) -> complex:
    """Regularized partial sum zeta_n(z) - n^(1-z)/(1-z).

    Subtracting the leading divergent tail makes the sequence converge to
    zeta(z) for Re z > 0 with error O(n^(-Re z)).  This is the one-mark case
    of ``zeta_hat_regularized_schedule``.
    """
    (value,) = zeta_hat_regularized_schedule(z, [_require_n(n)])
    return value


def zeta_hat_regularized_schedule(z: complex, marks: list[int]) -> list[complex]:
    """zeta_hat_regularized at several truncation indices from one pass.

    ``marks`` must be strictly increasing.  Used by the doubling and scaling
    experiments, which need aligned schedules n, 2n, 4n, ...  Raises
    SingularityError within ``GUARD_RADIUS`` of z = 1.
    """
    z = _require_finite(z)
    if not marks:
        return []
    if any(m < 1 for m in marks) or any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"marks must be strictly increasing and >= 1, got {marks!r}")
    if abs(z - 1.0) <= GUARD_RADIUS:
        raise SingularityError(f"regularized sum undefined at z={z!r} (division by 1-z)")
    _check_overflow(z, marks[-1])
    values = _partial_sums(z, tuple(marks))
    return [complex(s - _regularization_tail(z, m)) for m, s in zip(marks, values)]


def _eta_prefactor(z: complex) -> complex:
    prefactor = 1.0 - 2.0 ** (1.0 - z)
    if abs(prefactor) <= GUARD_RADIUS:
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


def zeta_hat_eta(z: complex) -> SeriesValue:
    """zeta via the prefactored alternating series, valid for Re z > 0.

    P. Borwein, "An efficient algorithm for the Riemann zeta function", 2000,
    algorithm 2: the terms are weighted by e_k, and n is the smallest length
    whose truncation bound is <= 2^-52, about 0.9 |Im z| + 25 terms in the
    strip.  Raises PrefactorSingularityError within ``GUARD_RADIUS`` of a
    zero of 1 - 2^(1-z), and BudgetError, before any weight is built, if n
    exceeds ``BORWEIN_BUDGET``.  See SeriesValue for ``est_error``.  This is
    the one-point case of ``zeta_hat_eta_batch``.
    """
    (value,) = zeta_hat_eta_batch([z])
    return value


def zeta_hat_eta_batch(points: Iterable[complex]) -> list[SeriesValue]:
    """``zeta_hat_eta`` at each of ``points``, bit for bit, in batched passes.

    The points are grouped by their series length n, which fixes the Borwein
    weights, and each group is summed in one pass over a points x n term
    matrix, in blocks of at most ``_BLOCK_ENTRIES`` terms.  Every row is
    summed on its own (chunk by chunk, in extended precision), so a value
    does not depend on the other points.  The first invalid point raises what
    ``zeta_hat_eta`` raises there.
    """
    zs = [_require_finite(z) for z in points]
    prefactors, lengths = [], []
    for z in zs:
        if z.real <= 0.0:
            raise DomainError(f"alternating-series evaluation requires Re z > 0, got {z!r}")
        prefactors.append(_eta_prefactor(z))
        lengths.append(_borwein_length(z, prefactors[-1]))
        if lengths[-1][0] > BORWEIN_BUDGET:
            raise BudgetError(f"zeta_hat_eta at z={z!r} needs a Borwein series of "
                              f"{lengths[-1][0]} terms, above the budget {BORWEIN_BUDGET}")

    groups: dict[int, list[int]] = {}
    for i, (n, _) in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    out: list[SeriesValue] = [None] * len(zs)  # type: ignore[list-item]
    for n, members in groups.items():
        weights = _borwein_weights(n)
        z, prefactor = [zs[i] for i in members], [prefactors[i] for i in members]
        rows = max(1, _BLOCK_ENTRIES // min(n, _CHUNK))
        values = []
        for b in range(0, len(members), rows):
            (xi,) = _partial_sums(np.array(z[b:b + rows]), (n,), alternating=True,
                                  weights=weights)
            values += (xi / np.array(prefactor[b:b + rows])).astype(complex).tolist()
        for i, value, r in zip(members, values, _rounding_bounds(z, prefactor, values, weights)):
            out[i] = SeriesValue(value, n, lengths[i][1] + r)
    return out


def _rounding_bounds(z: list[complex], prefactor: list[complex], value: list[complex],
                     weights: np.ndarray) -> list[float]:
    """First-order rounding bound of each value, all of one series length.

    A term exp(-z ln k) is off by (2 + |z| ln k) eps relative, its weighting
    by eps (the extended-precision sum, pairwise within each 4096-term chunk
    and then chunk by chunk, adds about (12 + n/4096) 2^-64, less than
    |z| ln k eps), 1 - 2^(1-z) absolutely by
    eps (|2^(1-z)| (2 + |1-z|) + |prefactor|), and the division by eps.
    The terms' part, eps sum_k e_k k^(-Re z) (3 + |z| ln k), is taken as
    eps (3 A + |z| B) with A = sum_k e_k k^(-Re z) and B = sum_k e_k k^(-Re z)
    ln k, each summed once per distinct Re z, so a bound depends only on n and
    its own point.  |z| is Python's abs: numpy's complex abs differs from it
    in the last bit for about a third of points.
    """
    k = np.arange(1.0, len(weights) + 1.0)
    log_k = np.log(k)
    sums = {}
    for sigma in {zi.real for zi in z}:
        decay = weights * k ** -sigma
        sums[sigma] = float(np.add.reduce(decay)), float(np.add.reduce(decay * log_k))
    bounds = []
    for zi, pi, vi in zip(z, prefactor, value):
        a, b = sums[zi.real]
        prefactor_bound = 2.0 ** (1.0 - zi.real) * (2.0 + abs(1.0 - zi)) + 2.0 * abs(pi)
        bounds.append(_EPS * (3.0 * a + abs(zi) * b + abs(vi) * prefactor_bound) / abs(pi))
    return bounds


def identity_residual_plain(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zeta_{2n}(z) - 2^(1-z) zeta_n(z))|.

    The identity is exact (even terms of zeta_{2n} rescale to zeta_n), so the
    residual measures rounding noise of the implementation only.
    """
    z = _require_finite(z)
    n = _require_n(n)
    xi = eta_partial(z, 2 * n)
    zeta_n, zeta_2n = _partial_sums(z, (n, 2 * n))
    rhs = complex(zeta_2n) - 2.0 ** (1.0 - z) * complex(zeta_n)
    return abs(xi - rhs)


def identity_residual_regularized(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zhat_{2n}(z) - 2^(1-z) zhat_n(z))|.

    Holds exactly because (2n)^(1-z) = 2^(1-z) n^(1-z) makes the subtracted
    tails cancel; raises SingularityError near z = 1.
    """
    z = _require_finite(z)
    n = _require_n(n)
    xi = eta_partial(z, 2 * n)
    zhat_n, zhat_2n = zeta_hat_regularized_schedule(z, [n, 2 * n])
    rhs = zhat_2n - 2.0 ** (1.0 - z) * zhat_n
    return abs(xi - rhs)
