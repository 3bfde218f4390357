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
O(10^4) magnitude near the edge of the strip.  The plain and the alternating
stream of a point come from one term array.  Public values are IEEE doubles.
``zeta_hat_eta_batch`` sums many points in array passes, each point in its
own row of one term matrix per block; ``zeta_hat_eta`` is its one-point case.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import BudgetError, DomainError, PrefactorSingularityError, SingularityError
from .special_functions import (
    GUARD_RADIUS,
    LN_2,
    LN_2PI,
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _require_finite,
)

_LD = np.clongdouble
_RD = np.longdouble
_LD_ZERO = _LD(0.0)


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
_LN_EPS = math.log(_EPS)

# ln 2 - ln(2 pi)/2 - ln 2^-52, the constant part of ``_borwein_lengths``'
# log scale
_LN_SCALE_CONSTANT = LN_2 - 0.5 * LN_2PI - _LN_EPS

#: Points x terms per block of a batched Borwein pass: the rows of a block
#: share one term matrix of at most 64 KB (16 bytes an entry), as wide as its
#: longest row.  The 401-point scan grid of [41.7, 61.7] takes 7 blocks of
#: 40 to 66 rows; a series of 4096 terms or more fills a block alone.
_BLOCK_ENTRIES = 1 << 12

#: Longest Borwein series accepted.  Its weights are n exact integers of O(n)
#: bits, so their time and memory grow as n^2; this length covers |Im z| up
#: to about 1.8e4 in the strip, and one cold build of its weights takes about
#: 0.6 s and 70 MB of peak memory (Python 3.11 on a Xeon core).
BORWEIN_BUDGET = 1 << 14

_LANCZOS_C0 = complex(_LANCZOS_COEFFS[0])


@functools.cache
def _lanczos_arrays() -> tuple[np.ndarray, ...]:
    """k = 1..14 and c_k of the Lanczos sum c_0 + sum_k c_k / (z + k) of
    ``special_functions`` at z + 1, and the shifts g + 1/2 and 1/2 of log
    Gamma(z+1), as complex arrays, then ln(3 + sqrt 8) and 1 as real ones:
    numpy combines an array with a one-element array faster than with a
    Python float, by about 0.3 µs a call.  Made on first use, so that a
    process that sums no Borwein series does not make them."""
    return (np.arange(1.0, len(_LANCZOS_COEFFS), dtype=complex),
            np.array(_LANCZOS_COEFFS[1:], dtype=complex),
            np.array([_LANCZOS_G + 0.5], dtype=complex), np.array([0.5], dtype=complex),
            np.array([_LN_BORWEIN_RATE]), np.array([1.0]))


#: Points per block of the Lanczos sum, whose 14 terms per point then take
#: at most 224 KB at once.
_LANCZOS_ROWS = 1 << 10


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


class _Stream:
    """Partial sums of some rows of a term pass, taken at their marks.

    ``marks`` are strictly increasing truncation indices; ``weights``, if
    given, is a read-only array of factors for k = 1..marks[-1], indexed by
    k - 1; ``alternating`` negates the even terms; ``rows`` picks the rows of
    the term matrix (all of them by default).  ``sums`` collects the
    extended-precision sum at each mark, one value per row, and ``carry`` is
    the sum of the whole chunks taken so far.
    """

    __slots__ = ("marks", "weights", "alternating", "rows", "sums", "carry")

    def __init__(self, marks, weights=None, alternating=False, rows=Ellipsis):
        self.marks = marks
        self.weights = weights
        self.alternating = alternating
        self.rows = rows
        self.sums = []
        self.carry = _LD_ZERO

    def take(self, terms: np.ndarray, k0: int, k1: int) -> None:
        """Take the chunk of ``terms`` for k = k0..k1-1 into the sums.

        The weights and signs are applied to the chunk in place.
        """
        marks, sums = self.marks, self.sums
        # the chunk is sliced only at the last mark, and its sums only at
        # the marks before it: a slice costs about 0.4 µs, on each of the
        # 256 chunks of a 2^20-term schedule and in every one-point call
        block = (terms[self.rows] if marks[-1] >= k1 - 1
                 else terms[self.rows, :marks[-1] - k0 + 1])
        if self.weights is not None:
            block *= self.weights[k0 - 1:k0 - 1 + block.shape[-1]]
        if self.alternating:
            block[..., 1::2] *= -1.0  # the even k: every chunk starts at an odd k
        # a mark inside the chunk or at its end sums its own part of it
        while len(sums) < len(marks) and marks[len(sums)] < k1:
            mark = marks[len(sums)]
            part = block if mark == marks[-1] else block[..., :mark - k0 + 1]
            sums.append(self.carry + np.add.reduce(part, axis=-1, dtype=_LD))
        if len(sums) < len(marks):
            # the stream goes on: a mark at the chunk's end is the new carry
            self.carry = (sums[-1] if sums and marks[len(sums) - 1] == k1 - 1
                          else self.carry + np.add.reduce(block, axis=-1, dtype=_LD))


def _partial_sums(z, *streams: _Stream) -> list[list]:
    """Stream the partial sums of k^(-z) from one term pass.

    ``z`` is one point or a 1-D array of points, one row each of the term
    matrix exp(-z ln k), which is made chunk by chunk, as wide as the
    longest stream.  Returns the ``sums`` of each stream.  Streams over the
    same rows are taken in order and change the chunk in place, so a plain
    stream goes before an alternating one, and a weighted one has its rows
    to itself.

    The sum at mark m is the total of the whole chunks before it, added
    chunk by chunk, plus one pairwise sum of its own chunk up to m; no
    prefix sums are formed.  Every row is summed on its own, so its sums
    depend only on the point, its weights and m, not on the other rows,
    streams or marks.
    """
    rows = np.asarray(z, dtype=complex)[..., np.newaxis]
    n = max(stream.marks[-1] for stream in streams)
    for k0 in range(1, n + 1, _CHUNK):
        k1 = min(k0 + _CHUNK, n + 1)
        log_k = _first_logs()[:k1 - 1] if k0 == 1 else np.log(np.arange(k0, k1, dtype=float))
        terms = np.exp(-rows * log_k)
        for stream in streams:
            if stream.marks[-1] >= k0:
                stream.take(terms, k0, k1)
    return [stream.sums for stream in streams]


@functools.cache
def _first_logs() -> np.ndarray:
    """ln k for k = 1.._CHUNK, the first chunk of every series."""
    logs = np.log(np.arange(1.0, _CHUNK + 1.0))
    logs.flags.writeable = False
    return logs


@functools.lru_cache(maxsize=128)
def _borwein_weights(n: int) -> np.ndarray:
    """(-1)^(k-1) e_k, e_k = (d_n - d_{k-1}) / d_n for k = 1..n (P. Borwein's algorithm 2).

    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!) are exact integers, so
    each e_k is one correctly rounded division; the alternating sign is
    folded in, and the array is complex.  It is cached, so it is read-only;
    the cache holds the ~20 lengths of a 20-wide zero-scan window several
    times over, so refinement reuses the grid's weights.
    """
    summand, d = 1, [1]  # the i = 0 summand is d_0 = 1
    for i in range(1, n + 1):
        # exact: the product is the next summand times (2i-1)(2i)
        summand = summand * 4 * (n + i - 1) * (n - i + 1) // ((2 * i - 1) * 2 * i)
        d.append(d[-1] + summand)
    weights = np.array([(d[n] - d_k) / d[n] for d_k in d[:n]])
    weights[1::2] *= -1.0
    # complex, as numpy would cast them to multiply complex terms
    weights = weights.astype(complex)
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=1024)
def _decay_sums(n: int, sigma: float) -> tuple[float, float]:
    """A = sum_k e_k k^(-sigma) and B = sum_k e_k k^(-sigma) ln k over the n
    Borwein weights: the terms' part of ``_rounding_bound``."""
    k = np.arange(1.0, n + 1.0)
    decay = np.abs(_borwein_weights(n).real) * k ** -sigma
    return float(np.add.reduce(decay)), float(np.add.reduce(decay * np.log(k)))


def zeta_partial(z: complex, n: int) -> complex:
    """Plain partial sum sum_{k=1..n} k^(-z)."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    ((value,),) = _partial_sums(z, _Stream((n,)))
    return complex(value)


def eta_partial(z: complex, n: int) -> complex:
    """Alternating partial sum sum_{k=1..n} (-1)^(k-1) k^(-z)."""
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    ((value,),) = _partial_sums(z, _Stream((n,), alternating=True))
    return complex(value)


def _require_regular(z: complex) -> None:
    if abs(z - 1.0) <= GUARD_RADIUS:
        raise SingularityError(f"regularized sum undefined at z={z!r} (division by 1-z)")


def _regularized(z: complex, n: int, plain) -> complex:
    # zeta_n(z) - n^(1-z)/(1-z), the tail in extended precision; exact for
    # n = 1 (log 1 = 0)
    one_minus_z = _LD(1.0 - z)
    return complex(plain - np.exp(one_minus_z * np.log(_RD(n))) / one_minus_z)


def partial_sums(z: complex, n: int) -> tuple[complex, complex, complex | SingularityError]:
    """(zeta_n(z), xi_n(z), zhat_n(z)) from one term pass.

    Each value is bit for bit what ``zeta_partial``, ``eta_partial`` and
    ``zeta_hat_regularized`` return; zhat_n is taken from the plain stream.
    Within ``GUARD_RADIUS`` of z = 1 zhat_n is the SingularityError that
    ``zeta_hat_regularized`` raises there, returned so that the other two
    sums are not lost.  Raises what ``zeta_partial`` raises.
    """
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, n)
    (plain,), (alternating,) = _partial_sums(z, _Stream((n,)), _Stream((n,), alternating=True))
    try:
        _require_regular(z)
        regularized = _regularized(z, n, plain)
    except SingularityError as exc:
        regularized = exc
    return complex(plain), complex(alternating), regularized


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
    _require_regular(z)
    _check_overflow(z, marks[-1])
    (values,) = _partial_sums(z, _Stream(tuple(marks)))
    return [_regularized(z, m, s) for m, s in zip(marks, values)]


def _eta_prefactor(z: complex) -> complex:
    prefactor = 1.0 - 2.0 ** (1.0 - z)
    if abs(prefactor) <= GUARD_RADIUS:
        raise PrefactorSingularityError(
            f"1 - 2^(1-z) vanishes near z={z!r}; the prefactored form is undefined "
            "at z = 1 and z = 1 + 2*pi*i*k/ln 2"
        )
    return prefactor


def _borwein_lengths(z: np.ndarray, prefactor: np.ndarray,
                     sigma: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(n, ln of the truncation bound over 2^-52 at n = 0) at each point.

    n is the shortest Borwein sum whose truncation bound is <= 2^-52, as a
    float array of whole numbers; ``sigma`` is Re z as a list.  Borwein's
    remainder is below
    Gamma(Re z) / (d_n |Gamma(z)| |1-2^(1-z)|) with d_n > (3+sqrt 8)^n / 2;
    his published bound omits Gamma(Re z) and fails for small and for large
    Re z.  |Gamma(z)| = |Gamma(z+1)| / |z| keeps clear of the reflection
    formula; log Gamma(z+1) is the Lanczos sum of
    ``special_functions.log_gamma``, taken on the whole array:
    ln(2 pi)/2 + (z + 1/2) log t - t + log acc, with t = z + g + 1/2.
    """
    k, c, shift, half, rate, one = _lanczos_arrays()
    acc = np.empty(len(z), dtype=complex)
    for r in range(0, len(z), _LANCZOS_ROWS):
        terms = z[r:r + _LANCZOS_ROWS, np.newaxis] + k
        np.add.reduce(np.divide(c, terms, out=terms), axis=-1, initial=_LANCZOS_C0,
                      out=acc[r:r + _LANCZOS_ROWS])
    t = z + shift
    log_scale = (np.log(z / (acc * prefactor)) - np.log(t) * (z + half) + t).real + np.array(
        [math.lgamma(s) + _LN_SCALE_CONSTANT for s in sigma])
    return np.maximum(np.ceil(log_scale / rate), one), log_scale


def _borwein_sums(points: Iterable[complex]):
    """(values, z, prefactors, lengths n, log scales of ``_borwein_lengths``) of the points.

    The values and log scales are arrays, the rest lists.

    The inner path of ``zeta_hat_eta_batch`` and ``zeta_hat_eta_values``:
    the checks and the Borwein lengths are array passes, while the
    prefactor 1 - 2^(1-z) is Python's complex power per point, so that each
    value is bit for bit the one-point value, and is guarded with Python's
    abs as it is made.  The points are cut, in their order, into blocks of
    at most ``_BLOCK_ENTRIES`` terms; each block is one ``_partial_sums``
    pass with one weighted stream per run of rows of one length.  The first
    invalid point raises what ``zeta_hat_eta`` raises there.
    """
    z = np.fromiter(points, dtype=complex)
    sigma = z.real.tolist()
    if False in np.isfinite(z).tolist() or min(sigma, default=1.0) <= 0.0:
        _refuse(z)
    zs = z.tolist()
    prefactors = [1.0 - 2.0 ** (1.0 - w) for w in zs]
    if min(map(abs, prefactors), default=1.0) <= GUARD_RADIUS:
        _refuse(z)
    prefactor = np.array(prefactors, dtype=complex)
    n, log_scale = _borwein_lengths(z, prefactor, sigma)
    lengths = n.tolist()
    # checked as floats, before the int cast; the max finds a length over
    # the budget, the sum a nan one
    if not (max(lengths, default=0.0) <= BORWEIN_BUDGET and sum(lengths) < math.inf):
        _refuse(z)
    lengths = list(map(int, lengths))
    if not lengths:
        return z, zs, prefactors, lengths, log_scale

    xi = []
    b0 = 0
    while b0 < len(lengths):
        b1, width = b0 + 1, min(lengths[b0], _CHUNK)
        while b1 < len(lengths):
            wider = max(width, min(lengths[b1], _CHUNK))
            if (b1 + 1 - b0) * wider > _BLOCK_ENTRIES:
                break
            b1, width = b1 + 1, wider
        streams, r0 = [], b0
        for r in range(b0 + 1, b1 + 1):
            if r == b1 or lengths[r] != lengths[r0]:
                streams.append(_Stream((lengths[r0],), _borwein_weights(lengths[r0]),
                                       rows=slice(r0 - b0, r - b0)))
                r0 = r
        _partial_sums(z[b0:b1], *streams)
        xi += [stream.sums[0] for stream in streams]
        b0 = b1
    xi = xi[0] if len(xi) == 1 else np.concatenate(xi)
    return (xi / prefactor).astype(complex), zs, prefactors, lengths, log_scale


def _refuse(z: np.ndarray) -> NoReturn:
    """Raise what ``zeta_hat_eta`` raises at the first invalid point of ``z``."""
    for w in z.tolist():
        w = _require_finite(w)
        if w.real <= 0.0:
            raise DomainError(f"alternating-series evaluation requires Re z > 0, got {w!r}")
        prefactor = _eta_prefactor(w)
        ((n,), _) = _borwein_lengths(np.array([w]), np.array([prefactor]), [w.real])
        if not n <= BORWEIN_BUDGET:
            terms = f"{n:.0f} terms" if math.isfinite(n) else "more terms than a float holds"
            raise BudgetError(f"zeta_hat_eta at z={w!r} needs a Borwein series of {terms}, "
                              f"above the budget {BORWEIN_BUDGET}")
    raise AssertionError("no invalid point")


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
    """``zeta_hat_eta`` at each of ``points``, bit for bit, in array passes.

    Each row of the batch's term matrices is summed on its own (chunk by
    chunk, in extended precision), so a value does not depend on the other
    points.  The first invalid point raises what ``zeta_hat_eta`` raises
    there.
    """
    value, z, prefactor, n, log_scale = _borwein_sums(points)
    # the truncation bound is 2^-52 exp(log_scale) / (3 + sqrt 8)^n
    return [SeriesValue(v, k, _EPS * math.exp(s - k * _LN_BORWEIN_RATE)
                        + _rounding_bound(zi, pi, v, k))
            for zi, pi, v, k, s in zip(z, prefactor, value.tolist(), n, log_scale.tolist())]


def zeta_hat_eta_values(points: Iterable[complex]) -> list[complex]:
    """The values of ``zeta_hat_eta_batch(points)``, without their error bounds.

    The zero scan's evaluation: the same passes, bit for bit the same values
    and the same errors, but no ``SeriesValue`` and no rounding bound per
    point.
    """
    return _borwein_sums(points)[0].tolist()


def _rounding_bound(z: complex, prefactor: complex, value: complex, n: int) -> float:
    """First-order rounding bound of a value of series length n.

    A term exp(-z ln k) is off by (2 + |z| ln k) eps relative, its weighting
    by eps (the extended-precision sum, pairwise within each 4096-term chunk
    and then chunk by chunk, adds about (12 + n/4096) 2^-64, less than
    |z| ln k eps), 1 - 2^(1-z) absolutely by
    eps (|2^(1-z)| (2 + |1-z|) + |prefactor|), and the division by eps.
    The terms' part, eps sum_k e_k k^(-Re z) (3 + |z| ln k), is taken as
    eps (3 A + |z| B) with A and B from ``_decay_sums``, cached per length
    and Re z, so a bound depends only on n and its own point.  The rest is
    a handful of scalar operations: only the public values carry a bound,
    mostly one point at a time, and for one point Python's arithmetic costs
    less than numpy's per-call overhead.
    """
    a, b = _decay_sums(n, z.real)
    prefactor_bound = 2.0 ** (1.0 - z.real) * (2.0 + abs(1.0 - z)) + 2.0 * abs(prefactor)
    return _EPS * (3.0 * a + abs(z) * b + abs(value) * prefactor_bound) / abs(prefactor)


def identity_residual_plain(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zeta_{2n}(z) - 2^(1-z) zeta_n(z))|.

    The identity is exact (even terms of zeta_{2n} rescale to zeta_n), so the
    residual measures rounding noise of the implementation only.  All three
    sums come from one term pass.
    """
    z = _require_finite(z)
    n = _require_n(n)
    _check_overflow(z, 2 * n)
    (zeta_n, zeta_2n), (xi,) = _partial_sums(z, _Stream((n, 2 * n)),
                                             _Stream((2 * n,), alternating=True))
    rhs = complex(zeta_2n) - 2.0 ** (1.0 - z) * complex(zeta_n)
    return abs(complex(xi) - rhs)


def identity_residual_regularized(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zhat_{2n}(z) - 2^(1-z) zhat_n(z))|.

    Holds exactly because (2n)^(1-z) = 2^(1-z) n^(1-z) makes the subtracted
    tails cancel; raises SingularityError near z = 1.  All three sums come
    from one term pass.
    """
    z = _require_finite(z)
    n = _require_n(n)
    _require_regular(z)
    _check_overflow(z, 2 * n)
    (zeta_n, zeta_2n), (xi,) = _partial_sums(z, _Stream((n, 2 * n)),
                                             _Stream((2 * n,), alternating=True))
    rhs = _regularized(z, 2 * n, zeta_2n) - 2.0 ** (1.0 - z) * _regularized(z, n, zeta_n)
    return abs(complex(xi) - rhs)
