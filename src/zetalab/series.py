"""Partial-sum machinery for the zeta function in the critical strip.

Four objects are computed here, all from partial sums of k^(-z):

* ``partial_sums``          zeta_n(z)  = sum_{k<=n} k^(-z) and
                            xi_n(z)    = sum_{k<=n} (-1)^(k-1) k^(-z)
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
Summed term by term are ``partial_sums``, the identity residuals, the
Borwein series and a regularized schedule up to its base mark; the
schedule's later marks are Euler-Maclaurin steps from the base mark (see
``zeta_hat_regularized_schedule``).
``zeta_hat_eta`` sums one point at its own Borwein length.  On the critical
line, ``zeta_hat_eta_line`` sums many ordinates at one length n, each in its
own row of one term matrix per block; ``line_length`` gives the n that serves
every ordinate up to a given |t|, so a zero scan needs one weight vector.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, PrefactorSingularityError, SingularityError
from .special_functions import GUARD_RADIUS, LN_2, _require_finite, log_gamma

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

# the constant parts of ``_log_scale`` and of ``line_length``'s log scale
_LN_SCALE_CONSTANT = LN_2 - _LN_EPS
_LN_LINE_SCALE = _LN_SCALE_CONSTANT - math.log(math.sqrt(2.0) - 1.0)

#: Ordinates x terms per block of ``zeta_hat_eta_line``: the rows of a block
#: share one term matrix of at most 64 KB (16 bytes an entry).  The 401-point
#: scan grid of [41.7, 61.7] (n = 77) takes 8 blocks of up to 53 rows; a
#: series of 4096 terms or more fills a block alone.
_BLOCK_ENTRIES = 1 << 12

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


class _Stream:
    """Partial sums of the rows of a term pass, taken at their marks.

    ``marks`` are strictly increasing truncation indices; ``weights``, if
    given, is a read-only array of factors for k = 1..marks[-1], indexed by
    k - 1; ``alternating`` negates the even terms.  ``sums`` collects the
    extended-precision sum at each mark, one value per row, and ``carry`` is
    the sum of the whole chunks taken so far.
    """

    __slots__ = ("marks", "weights", "alternating", "sums", "carry")

    def __init__(self, marks, weights=None, alternating=False):
        self.marks = marks
        self.weights = weights
        self.alternating = alternating
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
        block = terms if marks[-1] >= k1 - 1 else terms[..., :marks[-1] - k0 + 1]
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
    longest stream.  Returns the ``sums`` of each stream.  Streams are taken
    in order and change the chunk in place, so a plain stream goes before an
    alternating one, and a weighted one goes alone.

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
    folded in, and the array is complex.  It is cached, so it is read-only.
    A zero scan needs one length; the cache serves the one-point calls of
    ``zeta_hat_eta`` (``eval``, the residual grid, the ``errscan``
    reference), whose length changes about every 1.1 in |Im z|, so that a
    process that evaluates many points builds each length once.
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

    Each sum is taken term by term; zhat_n, from the plain stream, is bit
    for bit what ``zeta_hat_regularized`` returns.  Within ``GUARD_RADIUS``
    of z = 1 zhat_n is the SingularityError that ``zeta_hat_regularized``
    raises there, returned so that the other two sums are not lost.  Raises
    ValueError for n < 1 and OverflowError where a term leaves double range.
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
    """zeta_hat_regularized at several truncation indices.

    ``marks`` must be strictly increasing.  Used by the doubling and scaling
    experiments, which need aligned schedules n, 2n, 4n, ...  Raises
    SingularityError within ``GUARD_RADIUS`` of z = 1.

    The sums are taken term by term only up to the base mark a, the first
    mark where ``_em_order`` finds a J; every later mark b is then
    zhat_a + delta(b) - delta(a) (``_em_delta``), off the term-by-term sum
    by at most ``_em_order``'s bound at a plus its bound at b, and so by at
    most 2^-51 (Euler-Maclaurin; H. M. Edwards, Riemann's Zeta Function,
    6.4).  Where no mark has a J, a is the last mark and every sum is taken
    term by term.
    """
    z = _require_finite(z)
    if not marks:
        return []
    if any(m < 1 for m in marks) or any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"marks must be strictly increasing and >= 1, got {marks!r}")
    _require_regular(z)
    _check_overflow(z, marks[-1])
    base, order = next(((i, order) for i, m in enumerate(marks)
                        if (order := _em_order(z, m)) is not None), (len(marks) - 1, 0))
    (values,) = _partial_sums(z, _Stream(tuple(marks[:base + 1])))
    head = [_regularized(z, m, s) for m, s in zip(marks, values)]
    start = head[-1] - _em_delta(z, marks[base], order)
    return head + [start + _em_delta(z, b, order) for b in marks[base + 1:]]


#: B_2j / (2j)! for j = 1..11: the Euler-Maclaurin coefficients of
#: ``_em_delta`` up to J = 10, and of the first omitted term at J = 10.
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18,
)


def _em_order(z: complex, x: int) -> int | None:
    """The least J <= 10 whose Euler-Maclaurin remainder at x is <= 2^-52.

    zeta(z) = zhat_x(z) - delta(x) + R_J(x), and H. Rademacher's bound
    (Topics in Analytic Number Theory, 1973) is |R_J(x)| <= |z+2J+1| /
    (Re z+2J+1) |T_{J+1}(x)| for Re z > -2J-1, where T_j(x) = B_2j/(2j)!
    (z)_{2j-1} x^(1-z-2j) and (z)_m = z (z+1) ... (z+m-1).  None if no J
    qualifies.  T_{J+1}(x) / x^(-z) is built from T_J by a ratio, so the
    Pochhammer symbol never overflows by itself.
    """
    x = float(x)
    size = math.exp(-z.real * math.log(x))
    ratio = z / x
    for order, coeff in enumerate(_EM_COEFFS):
        slope = z.real + 2 * order + 1
        if slope > 0.0 and abs(z + 2 * order + 1) / slope * abs(coeff * ratio) * size <= _EPS:
            return order
        ratio *= (z + 2 * order + 1) * (z + 2 * order + 2) / (x * x)
    return None


def _em_delta(z: complex, x: int, order: int) -> complex:
    """delta(x) = x^(-z) / 2 - sum_{j<=order} T_j(x) in double precision."""
    x = float(x)
    ratio, acc = z / x, 0.5
    for j in range(order):
        acc -= _EM_COEFFS[j] * ratio
        ratio *= (z + 2 * j + 1) * (z + 2 * j + 2) / (x * x)
    return acc * cmath.exp(-z * math.log(x))


def _eta_prefactor(z: complex) -> complex:
    prefactor = 1.0 - 2.0 ** (1.0 - z)
    if abs(prefactor) <= GUARD_RADIUS:
        raise PrefactorSingularityError(
            f"1 - 2^(1-z) vanishes near z={z!r}; the prefactored form is undefined "
            "at z = 1 and z = 1 + 2*pi*i*k/ln 2"
        )
    return prefactor


#: Re z from which ``_log_scale`` takes the Gamma ratio from Stirling's series.
_STIRLING_SIGMA = 2.0 ** 20


def _log_scale(z: complex, prefactor: complex) -> float:
    """ln of Borwein's truncation bound at z for n = 0, over 2^-52.

    Borwein's remainder is below
    Gamma(Re z) / (d_n |Gamma(z)| |1-2^(1-z)|) with d_n > (3+sqrt 8)^n / 2;
    his published bound omits Gamma(Re z) and fails for small and for large
    Re z.  |Gamma(z)| = |Gamma(z+1)| / |z| keeps clear of the reflection
    formula.  From Re z = 2^20 on, where the two log-gammas would cancel in
    about Re z ln Re z, ln Gamma(s) - Re ln Gamma(z), s = Re z, is the
    difference of their Stirling series, t arg z - (s - 1/2) ln|z/s|, off by
    less than 1 / (12 s) < 1e-7.
    """
    sigma, t = z.real, z.imag
    if sigma < _STIRLING_SIGMA:
        return (math.log(abs(z) / abs(prefactor)) - log_gamma(z + 1.0).real
                + (math.lgamma(z.real) + _LN_SCALE_CONSTANT))
    return (t * math.atan2(t, sigma) - 0.5 * (sigma - 0.5) * math.log1p((t / sigma) ** 2)
            - math.log(abs(prefactor)) + _LN_SCALE_CONSTANT)


def _borwein_length(log_scale: float, where: str) -> int:
    """The least n >= 1 with exp(log_scale) <= (3 + sqrt 8)^n: the shortest
    Borwein series whose truncation bound is <= 2^-52.

    Raises BudgetError, naming ``where``, if n exceeds ``BORWEIN_BUDGET``.
    n is compared as a float, before the int cast, so that a length past the
    range of ints, or an infinite or nan one, is refused too.
    """
    n = log_scale / _LN_BORWEIN_RATE
    if not n <= BORWEIN_BUDGET:
        terms = f"{math.ceil(n)} terms" if math.isfinite(n) else "more terms than a float holds"
        raise BudgetError(f"{where} needs a Borwein series of {terms}, "
                          f"above the budget {BORWEIN_BUDGET}")
    return max(1, math.ceil(n))


def zeta_hat_eta(z: complex) -> SeriesValue:
    """zeta via the prefactored alternating series, valid for Re z > 0.

    P. Borwein, "An efficient algorithm for the Riemann zeta function", 2000,
    algorithm 2: the terms are weighted by e_k, and n is the smallest length
    whose truncation bound is <= 2^-52, about 0.9 |Im z| + 25 terms in the
    strip.  Raises PrefactorSingularityError within ``GUARD_RADIUS`` of a
    zero of 1 - 2^(1-z), and BudgetError, before any weight is built, if n
    exceeds ``BORWEIN_BUDGET``.  See SeriesValue for ``est_error``.
    """
    z = _require_finite(z)
    if z.real <= 0.0:
        raise DomainError(f"alternating-series evaluation requires Re z > 0, got {z!r}")
    prefactor = _eta_prefactor(z)
    log_scale = _log_scale(z, prefactor)
    n = _borwein_length(log_scale, f"zeta_hat_eta at z={z!r}")
    ((xi,),) = _partial_sums(z, _Stream((n,), _borwein_weights(n)))
    value = complex(xi / prefactor)
    # the truncation bound is 2^-52 exp(log_scale) / (3 + sqrt 8)^n
    return SeriesValue(value, n, _EPS * math.exp(log_scale - n * _LN_BORWEIN_RATE)
                       + _rounding_bound(z, prefactor, value, n))


def line_length(t: float) -> int:
    """The least Borwein length serving every ordinate 1/2 + i t', |t'| <= |t|.

    On the line |Gamma(z)|^2 = pi / cosh(pi t') = Gamma(1/2)^2 / cosh(pi t')
    and |1 - 2^(1/2 - i t')| >= sqrt 2 - 1, so ``_log_scale`` there is at
    most ln 2 + ln cosh(pi t) / 2 - ln(sqrt 2 - 1) - ln 2^-52, which grows
    with |t|.  The prefactor's modulus spans a factor of 3 + sqrt 8, one
    term, so n is at most about one term above ``zeta_hat_eta``'s near |t|.
    Raises ValueError unless t is finite, and BudgetError past the budget.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    x = math.pi * abs(t)
    # ln cosh x = x - ln 2 + ln(1 + e^(-2x)) stays finite past cosh's range;
    # from |t| ~ 5.7e307 on, x itself is inf and so is the length
    log_scale = _LN_LINE_SCALE + 0.5 * (x - LN_2 + math.log1p(math.exp(-2.0 * x)))
    return _borwein_length(log_scale, f"the critical line up to |t| = {abs(t)!r}")


def zeta_hat_eta_line(ts: list[float], n: int) -> list[complex]:
    """zhat(1/2 + i t) at each ordinate from the Borwein series of length n.

    With n = ``line_length`` of the largest |t| or more, every truncation
    bound holds; the values carry no error bound.  The ordinates are summed
    in blocks of at most ``_BLOCK_ENTRIES`` terms with one weight vector,
    each in its own row, so a value depends only on its ordinate and n; at
    the point's own length it is bit for bit ``zeta_hat_eta``'s value.
    """
    weights = _borwein_weights(n)
    rows = max(1, _BLOCK_ENTRIES // min(n, _CHUNK))
    values = []
    for b in range(0, len(ts), rows):
        z = [complex(0.5, t) for t in ts[b:b + rows]]
        ((xi,),) = _partial_sums(np.array(z), _Stream((n,), weights))
        prefactor = np.array([_eta_prefactor(w) for w in z])
        values += (xi / prefactor).astype(complex).tolist()
    return values


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
    a handful of scalar operations on the one point of ``zeta_hat_eta``.
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
