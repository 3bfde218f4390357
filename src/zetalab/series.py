"""Partial-sum machinery for the zeta function in the critical strip.

Three functions compute four objects, all from partial sums of k^(-z):

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
O(10^4) magnitude near the edge of the strip.  One term pass,
``_partial_sums``, gives the plain and the alternating sums of a point at
the same marks.  Public values are IEEE doubles.
``zeta_hat_eta`` sums one point at its own Borwein length.  One
Euler-Maclaurin kernel, ``_em_bracket``, takes a regularized schedule past
its base mark, one row per later mark, and gives Hardy's Z(t) in
``hardy_z_line``, one row per ordinate: the plain sum of n terms and m
Bernoulli terms, from one ``line_plan`` (n, m) per window and no weights.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, PrefactorSingularityError, SingularityError
from .special_functions import GUARD_RADIUS, LN_2, LN_PI, _require_finite, log_gamma

_LD = np.clongdouble
_RD = np.longdouble
_LD_ZERO = _LD(0.0)


def _require_extended_precision(finfo: np.finfo) -> None:
    """Refuse a ``longdouble`` with less than the x87 64-bit significand: the
    sums' accuracy and ``_rounding_bound`` rely on it, and where it is double
    (MSVC, macOS on arm64) they would silently fail."""
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
_LN_SCALE_CONSTANT = LN_2 - math.log(_EPS)  # the constant part of ``_log_scale``

#: Longest Borwein series accepted, for |Im z| up to about 1.8e4.  Its weights
#: are n exact integers of O(n) bits: one cold build of this length takes
#: about 0.6 s and 70 MB of peak memory (Python 3.11 on a Xeon core).
BORWEIN_BUDGET = 1 << 14

#: Longest direct sum accepted: ``eval --n``, a schedule's last mark (n_base 2^m
#: of a doubling, the top of an errscan grid) and the identity residuals' 2n.
#: It keeps a term-by-term sum under about a second: ``eval --n`` sums all its
#: terms, a schedule only up to its base mark, which lies far below the budget
#: unless |Im z| nears 2 pi 2^24.
DOUBLING_BUDGET = 1 << 24

#: Longest Euler-Maclaurin sum accepted on the critical line: |t| up to about 1.8e5.
LINE_BUDGET = 1 << 15

#: From this ordinate on, theta(t) is taken from its asymptotic series.
THETA_SERIES_FROM = 10.0


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


def _require_terms(z: complex, n: int) -> tuple[complex, int]:
    """(z, n) for a direct sum of n terms k^(-z): ValueError for a z not finite
    or n < 1, BudgetError for n above ``DOUBLING_BUDGET``, and OverflowError
    where a term leaves double range or the phase |Im z| ln n reaches 2^52."""
    z = _require_finite(z)
    if n < 1:
        raise ValueError(f"truncation index must be >= 1, got {n}")
    if n > DOUBLING_BUDGET:
        raise BudgetError(f"a direct sum of {n} terms exceeds the term budget {DOUBLING_BUDGET}")
    n = int(n)
    log_n = math.log(n)
    # |k^(-z)| = k^(-Re z) peaks at k = n for Re z < 0
    if (-z.real) * log_n > 700.0:
        raise OverflowError(f"terms of k^(-{z!r}) overflow double range at n={n}")
    # from 2^52 on the phase is rounded by about a radian: no digit is left
    if abs(z.imag) * log_n >= 2.0 ** 52:
        raise OverflowError(f"the phase of k^(-{z!r}) carries no digit at n={n}")
    return z, n


def mirror_is_conjugate(z: complex) -> bool:
    """True when every series here returns at 1 - z exactly conj(its value at z).

    On Re z = 1/2 the subtraction 1 - z is exactly conj(z), and each step
    (exp(-z ln k), the chunked sums, n^(1-z)/(1-z), 2^(1-z), the Borwein
    length) commutes with conjugation.  Im z = 0 is excluded: 1 - (0.5 +- 0i)
    is 0.5+0i either way, and conjugating would flip the sign of a zero.
    """
    return z.real == 0.5 and z.imag != 0.0


def _take(terms: np.ndarray, marks, k0: int, k1: int, sums: list, carry):
    """Take the chunk ``terms`` for k = k0..k1-1 into ``sums``, one sum per
    mark it holds, and return the new carry, the sum of the whole chunks so
    far, while marks remain."""
    while len(sums) < len(marks) and marks[len(sums)] < k1:
        part = terms[..., :marks[len(sums)] - k0 + 1]
        sums.append(carry + np.add.reduce(part, axis=-1, dtype=_LD))
    if len(sums) < len(marks):
        carry = carry + np.add.reduce(terms, axis=-1, dtype=_LD)
    return carry


def _partial_sums(z, marks, weights=None, alternating=False):
    """The partial sums of k^(-z) at ``marks`` from one term pass.

    ``z`` is one point or a 1-D array of points, one row each of the term
    matrix exp(-z ln k), made chunk by chunk up to the last of the strictly
    increasing ``marks``.  ``weights``, if given, is a read-only array of
    factors for k = 1..marks[-1], indexed by k - 1.  Returns the list of
    extended-precision sums at the marks, one value per row; with
    ``alternating``, a pair of it and the alternating sums at the same marks,
    whose even terms are negated in place once a chunk's plain sums are
    taken.  The sum at mark m is the chunk totals before it plus one pairwise
    sum of its own chunk up to m, row by row, so it depends only on the
    point, its weights and m.
    """
    rows = np.asarray(z, dtype=complex)[..., np.newaxis]
    n = marks[-1]
    # only a point of |z| ln n > 1e308 overflows -z ln k, and a Re z that large makes
    # each term past k = 1 exactly 0; np.errstate costs 1.5 µs, so only it enters one
    quiet = isinstance(z, complex) and abs(z) * math.log(n) > 1e308
    plain, signed = [], []
    carry = signed_carry = _LD_ZERO
    for k0 in range(1, n + 1, _CHUNK):
        k1 = min(k0 + _CHUNK, n + 1)
        log_k = _first_logs()[:k1 - 1] if k0 == 1 else np.log(np.arange(k0, k1, dtype=float))
        if quiet:
            with np.errstate(over="ignore"):
                terms = np.exp(-rows * log_k)
        else:
            terms = np.exp(-rows * log_k)
        if weights is not None:
            terms *= weights[k0 - 1:k1 - 1]
        carry = _take(terms, marks, k0, k1, plain, carry)
        if alternating:
            terms[..., 1::2] *= -1.0  # the even k: every chunk starts at an odd k
            signed_carry = _take(terms, marks, k0, k1, signed, signed_carry)
    return (plain, signed) if alternating else plain


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
    folded in, and the array is complex.  It is cached, so it is read-only:
    a process that evaluates many points builds each length, which changes
    about every 1.1 in |Im z|, once.
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

    Each sum is taken term by term; zhat_n, from the plain sum, is bit for
    bit what ``zeta_hat_regularized`` returns.  Within ``GUARD_RADIUS``
    of z = 1 zhat_n is the SingularityError that ``zeta_hat_regularized``
    raises there, returned so that the other two sums are not lost.  Raises
    as ``_require_terms`` does before any term is made.
    """
    z, n = _require_terms(z, n)
    (plain,), (alternating,) = _partial_sums(z, (n,), alternating=True)
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
    (value,) = zeta_hat_regularized_schedule(z, [int(n)])
    return value


def zeta_hat_regularized_schedule(z: complex, marks: list[int]) -> list[complex]:
    """zeta_hat_regularized at several strictly increasing truncation indices.

    Raises as ``_require_terms`` at the last mark, and SingularityError
    within ``GUARD_RADIUS`` of z = 1, before any term is made.  The sums are
    taken term by term only up to the base mark a, the first mark where
    ``_em_order`` finds a J; every later mark b is zhat_a - delta(a) +
    delta(b) (``_em_bracket``), off the term-by-term sum by at most 2^-51
    (Euler-Maclaurin; H. M. Edwards, Riemann's Zeta Function, 6.4).  Where
    no mark has a J, a is the last mark and every sum is taken term by term.
    """
    if not marks:
        return []
    if marks[0] < 1 or any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValueError(f"marks must be strictly increasing and >= 1, got {marks!r}")
    z, _ = _require_terms(z, marks[-1])
    _require_regular(z)
    base, order = next(((i, order) for i, m in enumerate(marks)
                        if (order := _em_order(z, m)) is not None), (len(marks) - 1, 0))
    values = _partial_sums(z, marks[:base + 1])
    head = [_regularized(z, m, s) for m, s in zip(marks, values)]
    x = np.array(marks[base:], dtype=float)
    with np.errstate(over="ignore"):  # -z ln x leaves double range only where x^(-z) is 0
        delta = _em_bracket(z, x, order) * np.exp(-z * np.log(x))
    return head + (head[-1] - delta[0] + delta[1:]).tolist()


#: B_2j / (2j)! for j = 1..150, the Euler-Maclaurin coefficients: literals up
#: to j = 11, then (-1)^(j+1) 2 zeta(2j) / (2 pi)^(2j), zeta(2j) summed to k = 6
#: (7^-24 < 2^-67) and the rounding of 2 pi restored to first order.
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18,
) + tuple((2.0 if j % 2 else -2.0) * (sum(k ** (-2.0 * j) for k in range(6, 1, -1)) + 1.0)
          / (math.tau ** (2 * j) * (1.0 + 2 * j * 2.4492935982947064e-16 / math.tau))
          for j in range(12, 151))


def _em_order(z: complex, x: int) -> int | None:
    """The least J <= 149, the one cap of the schedules and the line, whose
    Euler-Maclaurin remainder at x is <= 2^-52, or None.

    zeta(z) = zhat_x(z) - delta(x) + R_J(x) (``_em_bracket``), and H.
    Rademacher's bound (Topics in Analytic Number Theory, 1973) is |R_J(x)|
    <= |z+2J+1| / (Re z+2J+1) |T_{J+1}(x)| for Re z > -2J-1; math.hypot,
    where abs raises, takes a T_{J+1} past double range to inf.
    """
    size = math.exp(-z.real * math.log(x))
    term = _EM_COEFFS[0] * z / x  # T_1(x) / x^(-z), then T_{J+1}(x) / x^(-z)
    for order, (coeff, following) in enumerate(zip(_EM_COEFFS, _EM_COEFFS[1:] + (0.0,))):
        slope = z.real + 2 * order + 1
        if slope > 0.0 and (abs(z + 2 * order + 1) / slope * math.hypot(term.real, term.imag)
                            * size <= _EPS):
            return order
        term *= _em_ratio(z, x, 2 * order + 1, following / coeff)
    return None


def _em_ratio(z, x, odd, step):
    """T_{j+1}(x) / T_j(x) = (z + 2j - 1) (z + 2j) c_{j+1} / (c_j x^2) from odd =
    2j - 1 and step = c_{j+1} / c_j: for one j, or rows of z or x by a vector of j."""
    shifted = z + odd
    return shifted * (shifted + 1.0) * (step / (x * x))


@functools.cache
def _em_ratios(m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """c_1 (0 for m = 0) and the read-only 2j - 1 and c_{j+1} / c_j, j < m <= 150."""
    coeffs = np.array(_EM_COEFFS[:m])
    odd, step = 2.0 * np.arange(1.0, m) - 1.0, coeffs[1:] / coeffs[:-1]
    odd.flags.writeable = step.flags.writeable = False
    return (_EM_COEFFS[0] if m else 0.0), odd, step


def _em_bracket(z, x, m: int):
    """delta(x) / x^(-z) = 1/2 - sum_{j<=m} c_j (z)_{2j-1} x^(1-2j), c_j = B_2j / (2j)!,
    a row per z or x of a 1-D array: c_1 z / x times 1 plus the running product of
    its ``_em_ratio`` row, summed pairwise, so a value depends only on its z, x, m."""
    first, odd, step = _em_ratios(m)
    z, x = np.asarray(z, dtype=complex), np.asarray(x, dtype=float)
    ratios = _em_ratio(z[..., np.newaxis], x[..., np.newaxis], odd, step)
    tail = np.add.reduce(np.cumprod(ratios, axis=-1, out=ratios), axis=-1)
    return 0.5 - first * z / x * (1.0 + tail)


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

    Borwein's remainder is below Gamma(Re z) / (d_n |Gamma(z)| |1-2^(1-z)|)
    with d_n > (3+sqrt 8)^n / 2 (his published bound omits Gamma(Re z)).
    |Gamma(z)| = |Gamma(z+1)| / |z| keeps clear of the reflection formula.
    From s = Re z = 2^20 on, where the log-gammas would cancel, their
    difference is that of their Stirling series, t arg z - (s - 1/2) ln|z/s|,
    off by less than 1 / (12 s) < 1e-7.
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
    (xi,) = _partial_sums(z, (n,), _borwein_weights(n))
    value = complex(xi / prefactor)
    # the truncation bound is 2^-52 exp(log_scale) / (3 + sqrt 8)^n
    return SeriesValue(value, n, _EPS * math.exp(log_scale - n * _LN_BORWEIN_RATE)
                       + _rounding_bound(z, prefactor, value, n))


@functools.lru_cache(maxsize=128)
def line_plan(t: float) -> tuple[int, int]:
    """The Euler-Maclaurin plan (n, m) for zeta(1/2 + i t'), |t'| <= |t|.

    n = ceil(1.15 |t| / 2 pi) + 8 keeps |z| / (2 pi n) below 1 / 1.15, so the
    terms T_j(n) shrink by 0.76 or faster, and m is ``_em_order`` at 1/2 +
    i |t|, a bound that grows with |t'|: (27, 38) at t = 100, (1839, 121) at
    t = 10^4, 129 at the budget.  Raises ValueError unless t is finite, and
    BudgetError past ``LINE_BUDGET``.
    """
    t = abs(float(t))
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    n = t / math.tau * 1.15 + 8.0  # finite for every finite t
    if n > LINE_BUDGET:
        raise BudgetError(f"the critical line up to |t| = {t!r} needs an Euler-Maclaurin sum "
                          f"of {math.ceil(n)} terms, above the budget {LINE_BUDGET}")
    n = math.ceil(n)
    return n, _em_order(complex(0.5, t), n)


def _line_zeta(t: np.ndarray, n: int, m: int) -> np.ndarray:
    """zeta(1/2 + i t) = zeta_n(z) - n^(-z) (n / (1 - z) + ``_em_bracket(z, n, m)``) + R,
    one row per ordinate, so a value depends only on its ordinate and (n, m)."""
    z = 0.5 + 1j * t
    (plain,) = _partial_sums(z, (n,))
    bracket = z * (n / (0.25 + t * t)) + _em_bracket(z, n, m)  # n z / (1/4 + t^2) = n / (1 - z)
    return plain.astype(complex) - np.exp(z * -math.log(n)) * bracket


def _theta(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel theta(t) at each ordinate, up to 2*pi below ``THETA_SERIES_FROM``.

    From the cut-off on, theta(t) = (t/2) ln(t/(2 pi e)) - pi/8 + 1/(48 t)
    + 7/(5760 t^3) + 31/(80640 t^5) + 127/(430080 t^7), within 1e-12.
    Below it, theta(t) = Im(log Gamma(w+1) - log w) - (t/2) ln pi with
    w = 1/4 + i t/2, where ``log_gamma`` needs no reflection.
    """
    low = [i for i, x in enumerate(t.tolist()) if x < THETA_SERIES_FROM]
    s = t.copy()
    s[low] = THETA_SERIES_FROM  # the series only from the cut-off on
    u = 1.0 / s
    u2 = u * u
    theta = (0.5 * s * np.log(s / (2.0 * math.pi * math.e)) - math.pi / 8.0 + u * (
        1.0 / 48.0 + u2 * (7.0 / 5760.0 + u2 * (31.0 / 80640.0 + u2 * (127.0 / 430080.0)))))
    for i in low:
        w = complex(0.25, 0.5 * t[i])
        theta[i] = (log_gamma(w + 1.0) - cmath.log(w)).imag - 0.5 * t[i] * LN_PI
    return theta


def hardy_z_line(ts: list[float], plan: tuple[int, int]) -> tuple[list[float], list[float]]:
    """(Z(t), |zeta(1/2 + i t)|) at each ordinate, from the plan (n, m).

    Z(t) = Re(exp(i theta) zeta(1/2 + i t)) = cos theta Re zeta - sin theta
    Im zeta; a phase error e scales Z by cos e, so it cannot move a root.  At
    the ``line_plan`` of the largest |t|, zeta is within 2^-52 plus rounding.
    Each ordinate is its own row, so a value depends only on it and the plan.
    """
    n, m = plan
    t = np.array(ts, dtype=float)
    zeta = np.empty(len(t), dtype=complex)
    rows = max(1, _CHUNK // n)  # a pass's term matrix holds at most one chunk
    for b in range(0, len(t), rows):
        zeta[b:b + rows] = _line_zeta(t[b:b + rows], n, m)
    return (np.exp(1j * _theta(t)) * zeta).real.tolist(), np.hypot(zeta.real, zeta.imag).tolist()


def _rounding_bound(z: complex, prefactor: complex, value: complex, n: int) -> float:
    """First-order rounding bound of a value of series length n.

    A term exp(-z ln k) is off by (2 + |z| ln k) eps relative, its weighting
    by eps (the chunked extended-precision sum adds about (12 + n/4096)
    2^-64, less than |z| ln k eps), 1 - 2^(1-z) absolutely by
    eps (|2^(1-z)| (2 + |1-z|) + |prefactor|), and the division by eps.
    The terms' part, eps sum_k e_k k^(-Re z) (3 + |z| ln k), is
    eps (3 A + |z| B) with A and B from ``_decay_sums``, cached per length
    and Re z, so a bound depends only on n and its own point.
    """
    a, b = _decay_sums(n, z.real)
    prefactor_bound = 2.0 ** (1.0 - z.real) * (2.0 + abs(1.0 - z)) + 2.0 * abs(prefactor)
    return _EPS * (3.0 * a + abs(z) * b + abs(value) * prefactor_bound) / abs(prefactor)


def identity_residual_plain(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zeta_{2n}(z) - 2^(1-z) zeta_n(z))|.

    The identity is exact (even terms of zeta_{2n} rescale to zeta_n), so the
    residual measures rounding noise of the implementation only.  All three
    sums come from one term pass, gated by ``_require_terms`` at 2n.
    """
    z, two_n = _require_terms(z, 2 * n)
    n = two_n // 2
    (zeta_n, zeta_2n), (_, xi) = _partial_sums(z, (n, two_n), alternating=True)
    rhs = complex(zeta_2n) - 2.0 ** (1.0 - z) * complex(zeta_n)
    return abs(complex(xi) - rhs)


def identity_residual_regularized(z: complex, n: int) -> float:
    """|xi_{2n}(z) - (zhat_{2n}(z) - 2^(1-z) zhat_n(z))|.

    Holds exactly because (2n)^(1-z) = 2^(1-z) n^(1-z) makes the subtracted
    tails cancel; raises SingularityError near z = 1.  All three sums come
    from one term pass, gated by ``_require_terms`` at 2n.
    """
    z, two_n = _require_terms(z, 2 * n)
    n = two_n // 2
    _require_regular(z)
    (zeta_n, zeta_2n), (_, xi) = _partial_sums(z, (n, two_n), alternating=True)
    rhs = _regularized(z, two_n, zeta_2n) - 2.0 ** (1.0 - z) * _regularized(z, n, zeta_n)
    return abs(complex(xi) - rhs)
