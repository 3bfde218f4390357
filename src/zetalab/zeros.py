"""Locating nontrivial zeros rho = 1/2 + i t on the critical line.

On the line, Hardy's function Z(t) = exp(i theta(t)) zeta(1/2 + i t) is real
with |Z(t)| = |zeta(1/2 + i t)|, so every zero of odd order is a sign change
of Z (Edwards, *Riemann's Zeta Function*, ch. 6-7).  A grid scan brackets the
sign changes and every bracket is refined by the Illinois variant of regula
falsi, all brackets of a scan in lockstep.  Found zeros are cross-checkable
against externally ingested reference tables (one decimal ordinate per line,
'#' comments).

The search is restricted to the critical line: the experiments need known
zeros, and every verified zero lies there.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import (
    BracketError,
    ConfigError,
    NoConvergence,
    NonMonotonicError,
    ParseError,
    WindowTooCoarse,
)
from .series import line_length, zeta_hat_eta_line
from .special_functions import LN_PI, log_gamma

#: Scan steps above this risk skipping zeros below t = 100: two zeros inside
#: one step cancel each other's sign change.
MAX_SCAN_STEP = 0.5

#: Bound on the refinement iterations of one bracket; Illinois steps converge
#: superlinearly, so a 0.05-wide bracket needs about five.
MAX_REFINE_ITERATIONS = 60

#: Largest number of steps in a scan grid (a 3276.8-wide window at step
#: 0.05); the batched grid pass holds about 0.17 kB per point at once, so
#: this keeps one scan's memory near 11 MB and its time bounded.
GRID_BUDGET = 1 << 16

#: From this ordinate on, theta(t) is taken from its asymptotic series; the
#: first omitted term, 511/(1216512 t^9), is below 1e-12 there.
THETA_SERIES_FROM = 10.0

#: Default bound on |zhat| at a reported zero.
DEFAULT_TOLERANCE = 1e-10

#: A plain decimal, unlike ``float`` which also takes '1_000', 'nan' and 'inf'.
_DECIMAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class ScanWindow:
    """Ordinate interval [t_min, t_max] scanned at the given step."""

    t_min: float
    t_max: float
    step: float

    def __post_init__(self):
        for name in ("t_min", "t_max", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_min < 0:
            raise ConfigError(f"t_min must be >= 0, got {self.t_min}")
        if not self.t_max > self.t_min:
            raise ConfigError(f"t_max must exceed t_min, got [{self.t_min}, {self.t_max}]")
        if not self.step > 0:
            raise ConfigError(f"step must be > 0, got {self.step}")
        if not self.step < (self.t_max - self.t_min):
            raise ConfigError("step must be smaller than the window width")
        if not (self.t_max - self.t_min) / self.step <= GRID_BUDGET:
            raise ConfigError(f"[{self.t_min}, {self.t_max}] at step {self.step} exceeds "
                              f"the grid budget of {GRID_BUDGET} steps")

    def grid(self) -> list[float]:
        """t_min, t_min + step, ... and exactly t_max: spacing at most ``step``."""
        # a width within rounding of a multiple of step gets no near-duplicate
        # last point
        intervals = math.ceil((self.t_max - self.t_min) / self.step - 1e-9)
        return [self.t_min + i * self.step for i in range(intervals)] + [self.t_max]


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    """A located zero: rho = 1/2 + i * ordinate.

    ``index`` is the 1-based position by increasing ordinate within one scan
    result (0 for a standalone refinement); ``residual_mag`` is |zhat(rho)|
    at the reported ordinate; ``refined`` is False only for a scan grid point
    where Z is exactly 0.
    """

    index: int
    ordinate: float
    residual_mag: float
    refined: bool


@dataclass(frozen=True, slots=True)
class MatchedPair:
    found_index: int
    reference_index: int
    found_ordinate: float
    reference_ordinate: float
    delta: float


@dataclass(frozen=True, slots=True)
class CrosscheckReport:
    """Greedy one-to-one proximity matching of found zeros against a table."""

    matched: list[MatchedPair]
    unmatched_found: list[ZeroRecord]
    unmatched_reference: list[float]
    max_delta: float
    tolerance: float


def _theta(t: float) -> float:
    """Riemann-Siegel theta(t), up to 2*pi below ``THETA_SERIES_FROM``.

    From the cut-off on, theta(t) = (t/2) ln(t/(2 pi e)) - pi/8 + 1/(48 t)
    + 7/(5760 t^3) + 31/(80640 t^5) + 127/(430080 t^7) + ...
    Below it, theta(t) = Im log Gamma(w) - (t/2) ln pi with w = 1/4 + i t/2,
    taken by Gamma(w+1) = w Gamma(w) as Im(log Gamma(w+1) - log w) -
    (t/2) ln pi: at Re(w+1) = 5/4 ``log_gamma`` needs no reflection.  The
    branch is fixed only up to 2*pi, which leaves exp(i theta) unchanged.
    """
    if t >= THETA_SERIES_FROM:
        u = 1.0 / t
        u2 = u * u
        return (0.5 * t * math.log(t / _TWO_PI_E) - math.pi / 8.0
                + u * (1.0 / 48.0 + u2 * (7.0 / 5760.0 + u2 * (31.0 / 80640.0
                                                                + u2 * (127.0 / 430080.0)))))
    w = complex(0.25, 0.5 * t)
    return (log_gamma(w + 1.0) - cmath.log(w)).imag - 0.5 * t * LN_PI


def _evaluate(ts: list[float], n: int) -> tuple[list[float], list[float]]:
    """(Z(t), |zhat(1/2 + i t)|) at each ordinate, from Borwein series of length n.

    Z(t) = Re(exp(i theta(t)) zhat) with ``_theta`` per ordinate; a phase
    error e scales Re(exp(i e) Z) = Z cos e, so it cannot move a root.  A
    value depends only on its ordinate and n, so the scan grid and each
    refinement step, at the window's n, evaluate the same function.
    """
    values = zeta_hat_eta_line(ts, n)
    return ([(cmath.exp(1j * _theta(t)) * v).real for t, v in zip(ts, values)],
            [abs(v) for v in values])


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = Re(exp(i theta(t)) zhat(1/2 + i t)), real on the line,
    with zhat at n = ``line_length(t)``."""
    t = float(t)
    return _evaluate([t], line_length(t))[0][0]


def _require_tolerance(tolerance: float, name: str = "tolerance") -> None:
    # a nan or infinite tolerance would accept every zero; as a match
    # tolerance, nan would pair no zeros and inf any two
    if not 0.0 < tolerance < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {tolerance}")


def _checked(t: float, residual: float, tolerance: float, where: str,
             refined: bool) -> ZeroRecord:
    if residual > tolerance:
        raise NoConvergence(
            f"|zhat| = {residual:.3e} above tolerance {tolerance:.1e} at t={t!r} "
            f"({where}); the tolerance is too tight for this zero"
        )
    return ZeroRecord(index=0, ordinate=t, residual_mag=residual, refined=refined)


def _refine(brackets: list[tuple[float, float, float, float]], n: int) -> list[tuple[float, float]]:
    """(last iterate, |zhat| there) of each sign-change bracket (t_lo, t_hi, Z(t_lo), Z(t_hi)).

    The brackets are refined in lockstep: each Illinois step of every bracket
    still running is one ``_evaluate`` call at n.  Each bracket keeps its own
    iterates and its own stopping rule, so its result is what it would be
    alone at the same n.
    """
    # a, Z(a), b, Z(b), the step bound, and |zhat| at b
    state = [[t_lo, z_lo, t_hi, z_hi, 4.0 * math.ulp(max(abs(t_lo), abs(t_hi))), math.nan]
             for t_lo, t_hi, z_lo, z_hi in brackets]
    running = state
    for _ in range(MAX_REFINE_ITERATIONS):
        if not running:
            break
        ts = [b - fb * (b - a) / (fb - fa) for a, fa, b, fb, *_ in running]
        values, residuals = _evaluate(ts, n)
        still = []
        for s, t, z, residual in zip(running, ts, values, residuals):
            a, fa, b, fb, xtol, _ = s
            if z * fb < 0.0:
                a, fa = b, fb
            else:
                fa *= 0.5
            s[:] = a, fa, t, z, xtol, residual
            if not (z == 0.0 or abs(t - b) <= xtol):
                still.append(s)
        running = still
    return [(b, residual) for _, _, b, _, _, residual in state]


def refine_zero(t_lo: float, t_hi: float, *, tolerance: float = DEFAULT_TOLERANCE,
                z_lo: float | None = None, z_hi: float | None = None) -> ZeroRecord:
    """Refine the zero inside a sign-change bracket [t_lo, t_hi] of Z.

    ``z_lo`` and ``z_hi`` are Z at the ends when the caller already has them;
    otherwise they are evaluated, all at n = ``line_length(max(|t_lo|,
    |t_hi|))``.  Illinois iterations (regula falsi that halves the value
    kept at a stale end) run until consecutive iterates are
    within four ulps or Z is exactly 0.  The reported ordinate is the last
    iterate, so it lies in the bracket, and ``residual_mag`` is |zhat| there.
    This is the one-bracket case of the lockstep refinement of ``scan_zeros``.

    Raises BracketError unless Z(t_lo) and Z(t_hi) have strictly opposite
    signs, ConfigError unless ``tolerance`` is finite and > 0, BudgetError if
    the series is too long, and NoConvergence, naming the bracket, if |zhat|
    at the result is above ``tolerance``: a sign change is a zero, so only a
    tolerance too tight to resolve it can fail here.
    """
    _require_tolerance(tolerance)
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not t_lo < t_hi:
        raise BracketError(f"bracket [{t_lo}, {t_hi}] is empty")
    n = line_length(max(abs(t_lo), abs(t_hi)))
    if z_lo is None:
        z_lo = _evaluate([t_lo], n)[0][0]
    if z_hi is None:
        z_hi = _evaluate([t_hi], n)[0][0]
    if not z_lo * z_hi < 0.0:
        raise BracketError(
            f"Z has no sign change on [{t_lo}, {t_hi}]: Z = {z_lo:.3e}, {z_hi:.3e}"
        )
    ((t, residual),) = _refine([(t_lo, t_hi, z_lo, z_hi)], n)
    return _checked(t, residual, tolerance, f"bracket [{t_lo}, {t_hi}]", refined=True)


def scan_zeros(window: ScanWindow, *, tolerance: float = DEFAULT_TOLERANCE) -> list[ZeroRecord]:
    """Find all critical-line zeros inside the window.

    Evaluates Z on a grid from t_min to exactly t_max with spacing at most
    ``step``, refines every strict sign change between neighbouring points,
    all in lockstep (one ``_evaluate`` call per Illinois step), and takes a
    grid point where Z is exactly 0 as a zero itself (with ``refined``
    False).  All of it is at one Borwein length, ``line_length(t_max)``,
    fixed before the grid is built, so a window builds one weight vector.
    Records are ordered (and 1-indexed) by ordinate.  Any zero whose |zhat|
    exceeds ``tolerance`` raises NoConvergence; the first in order is named.
    """
    _require_tolerance(tolerance)
    if window.step > MAX_SCAN_STEP:
        raise WindowTooCoarse(
            f"step {window.step} > {MAX_SCAN_STEP} risks skipping zeros below t=100"
        )

    n = line_length(window.t_max)
    grid = window.grid()
    values, residuals = _evaluate(grid, n)

    brackets = [(t, grid[i + 1], z, values[i + 1]) for i, (t, z) in enumerate(zip(grid, values))
                if i + 1 < len(grid) and z * values[i + 1] < 0.0]
    refined = iter(_refine(brackets, n))

    found = []
    for i, (t, z) in enumerate(zip(grid, values)):
        if z == 0.0:
            found.append(_checked(t, residuals[i], tolerance, "grid point", refined=False))
        elif i + 1 < len(grid) and z * values[i + 1] < 0.0:
            found.append(_checked(*next(refined), tolerance, f"bracket [{t}, {grid[i + 1]}]",
                                  refined=True))
    return [replace(r, index=i) for i, r in enumerate(found, start=1)]


def load_zero_table(path) -> list[float]:
    """Read reference ordinates: one plain decimal per line, strictly increasing.

    Lines beginning with '#' and blank lines are ignored.  Raises ParseError
    (with the line number) on a line such as '14.134_725' or 'nan' that is not
    a finite plain decimal, and NonMonotonicError if the ordinates ever fail
    to increase.
    """
    ordinates: list[float] = []
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not re.fullmatch(_DECIMAL, stripped):
            raise ParseError(f"{path}:{line_no}: not a decimal ordinate: {stripped!r}",
                             line=line_no)
        value = float(stripped)
        if not math.isfinite(value):
            raise ParseError(f"{path}:{line_no}: non-finite ordinate {stripped!r}", line=line_no)
        if ordinates and value <= ordinates[-1]:
            raise NonMonotonicError(
                f"{path}:{line_no}: ordinate {value} not greater than previous {ordinates[-1]}",
                line=line_no,
            )
        ordinates.append(value)
    return ordinates


def reference_table_path() -> Path:
    """Path of the packaged reference table (first ordinates below t=100)."""
    return Path(resources.files("zetalab").joinpath("data/zero_ordinates.txt"))


def crosscheck_zeros(
    found: list[ZeroRecord],
    reference: list[float],
    tol: float,
    window: tuple[float, float] | None = None,
) -> CrosscheckReport:
    """Match found zeros to reference ordinates by proximity, one-to-one.

    Candidate pairs within ``tol`` are assigned greedily by increasing
    |delta|.  Unmatched reference ordinates are reported only within
    ``window`` (defaulting to the span of the found ordinates).  Raises
    ConfigError unless ``tol`` is finite and > 0.
    """
    _require_tolerance(tol, "tol")
    candidates = []
    for i, record in enumerate(found):
        for j, ref in enumerate(reference):
            delta = abs(record.ordinate - ref)
            if delta <= tol:
                candidates.append((delta, i, j))
    candidates.sort()

    used_found: set[int] = set()
    used_ref: set[int] = set()
    matched: list[MatchedPair] = []
    for delta, i, j in candidates:
        if i in used_found or j in used_ref:
            continue
        used_found.add(i)
        used_ref.add(j)
        matched.append(MatchedPair(found[i].index, j + 1, found[i].ordinate, reference[j], delta))
    matched.sort(key=lambda m: m.found_ordinate)

    unmatched_found = [r for i, r in enumerate(found) if i not in used_found]
    if window is None:
        if found:
            window = (min(r.ordinate for r in found), max(r.ordinate for r in found))
        else:
            window = (math.inf, -math.inf)
    lo, hi = window
    unmatched_reference = [
        ref for j, ref in enumerate(reference) if j not in used_ref and lo <= ref <= hi
    ]
    max_delta = max((m.delta for m in matched), default=0.0)
    return CrosscheckReport(matched, unmatched_found, unmatched_reference, max_delta, tol)
