"""Locating nontrivial zeros rho = 1/2 + i t on the critical line.

On the line, Hardy's function Z(t) = exp(i theta(t)) zeta(1/2 + i t) is real
with |Z(t)| = |zeta(1/2 + i t)|, so every zero of odd order is a sign change
of Z (Edwards, *Riemann's Zeta Function*, ch. 6-7).  A grid scan brackets the
sign changes and each bracket is refined by the Illinois variant of regula
falsi.  Found zeros are cross-checkable against externally ingested
reference tables (one decimal ordinate per line, '#' comments).

The search is restricted to the critical line: the experiments need known
zeros, and every verified zero lies there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    BracketError,
    ConfigError,
    NoConvergence,
    NonMonotonicError,
    ParseError,
    WindowTooCoarse,
)
from .series import zeta_hat_eta_batch
from .special_functions import DEFAULT_GUARD_RADIUS, LN_PI, _lanczos_log_gamma

#: Scan steps above this risk skipping zeros below t = 100: two zeros inside
#: one step cancel each other's sign change.
MAX_SCAN_STEP = 0.5

#: Bound on the refinement iterations of one bracket; Illinois steps converge
#: superlinearly, so a 0.05-wide bracket needs about five.
MAX_REFINE_ITERATIONS = 60

#: Largest number of steps in a scan grid (a 3276.8-wide window at step
#: 0.05); the batched grid pass holds about 0.5 kB per point at once, so
#: this keeps one scan's memory near 30 MB and its time bounded.
GRID_BUDGET = 1 << 16

#: Default bound on |zhat| at a reported zero.
DEFAULT_TOLERANCE = 1e-10


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MatchedPair:
    found_index: int
    reference_index: int
    found_ordinate: float
    reference_ordinate: float
    delta: float


@dataclass(frozen=True)
class CrosscheckReport:
    """Greedy one-to-one proximity matching of found zeros against a table."""

    matched: list[MatchedPair]
    unmatched_found: list[ZeroRecord]
    unmatched_reference: list[float]
    max_delta: float
    tolerance: float


def _evaluate(ts: list[float], guard_radius: float) -> tuple[list[float], list[float]]:
    """(Z(t), |zhat(1/2 + i t)|) at each ordinate, from one batched series pass.

    theta(t) = Im log Gamma(w) - (t/2) ln pi with w = 1/4 + i t/2 is taken,
    by Gamma(w+1) = w Gamma(w), as Im(log Gamma(w+1) - log w) - (t/2) ln pi,
    which keeps the Lanczos sum off the reflection formula and is one array
    pass.  That fixes theta only up to 2*pi, which leaves exp(i theta)
    unchanged; any phase error e scales Re(exp(i e) Z) = Z cos e, so it
    cannot move a root.  The scan grid and each refinement step call this,
    so they evaluate the same function.
    """
    values = np.array([v.value for v in
                       zeta_hat_eta_batch([complex(0.5, t) for t in ts], guard_radius)])
    half_t = 0.5 * np.asarray(ts, dtype=float)
    w = 0.25 + 1j * half_t
    theta = (_lanczos_log_gamma(w + 1.0, np.log) - np.log(w)).imag - half_t * LN_PI
    return (np.exp(1j * theta) * values).real.tolist(), [abs(v) for v in values.tolist()]


def hardy_z(t: float, *, guard_radius: float = DEFAULT_GUARD_RADIUS) -> float:
    """Hardy's Z(t) = Re(exp(i theta(t)) zhat(1/2 + i t)), real on the line."""
    return _evaluate([float(t)], guard_radius)[0][0]


def _require_tolerance(tolerance: float) -> None:
    # a nan tolerance would accept every zero
    if not tolerance > 0.0:
        raise ConfigError(f"tolerance must be > 0, got {tolerance}")


def _checked(t: float, residual: float, tolerance: float, where: str,
             refined: bool) -> ZeroRecord:
    if residual > tolerance:
        raise NoConvergence(
            f"|zhat| = {residual:.3e} above tolerance {tolerance:.1e} at t={t!r} "
            f"({where}); the tolerance is too tight for this zero"
        )
    return ZeroRecord(index=0, ordinate=t, residual_mag=residual, refined=refined)


def refine_zero(t_lo: float, t_hi: float, *, tolerance: float = DEFAULT_TOLERANCE,
                guard_radius: float = DEFAULT_GUARD_RADIUS,
                z_lo: float | None = None, z_hi: float | None = None) -> ZeroRecord:
    """Refine the zero inside a sign-change bracket [t_lo, t_hi] of Z.

    ``z_lo`` and ``z_hi`` are Z at the ends when the caller already has them;
    otherwise they are evaluated.  Illinois iterations (regula falsi that
    halves the value kept at a stale end) run until consecutive iterates are
    within four ulps or Z is exactly 0.  The reported ordinate is the last
    iterate, so it lies in the bracket, and ``residual_mag`` is |zhat| there.

    Raises BracketError unless Z(t_lo) and Z(t_hi) have strictly opposite
    signs, ConfigError unless ``tolerance`` > 0, and NoConvergence, naming the
    bracket, if |zhat| at the result is above ``tolerance``: a sign change is
    a zero, so only a tolerance too tight to resolve it can fail here.
    """
    _require_tolerance(tolerance)
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not t_lo < t_hi:
        raise BracketError(f"bracket [{t_lo}, {t_hi}] is empty")
    if z_lo is None:
        z_lo = hardy_z(t_lo, guard_radius=guard_radius)
    if z_hi is None:
        z_hi = hardy_z(t_hi, guard_radius=guard_radius)
    if not z_lo * z_hi < 0.0:
        raise BracketError(
            f"Z has no sign change on [{t_lo}, {t_hi}]: Z = {z_lo:.3e}, {z_hi:.3e}"
        )

    xtol = 4.0 * math.ulp(max(abs(t_lo), abs(t_hi)))
    a, fa, b, fb = t_lo, z_lo, t_hi, z_hi
    for _ in range(MAX_REFINE_ITERATIONS):
        t = b - fb * (b - a) / (fb - fa)
        (z,), (residual,) = _evaluate([t], guard_radius)
        if z * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        step = abs(t - b)
        b, fb = t, z
        if z == 0.0 or step <= xtol:
            break
    return _checked(b, residual, tolerance, f"bracket [{t_lo}, {t_hi}]", refined=True)


def scan_zeros(window: ScanWindow, *, tolerance: float = DEFAULT_TOLERANCE,
               guard_radius: float = DEFAULT_GUARD_RADIUS) -> list[ZeroRecord]:
    """Find all critical-line zeros inside the window.

    Evaluates Z on a grid from t_min to exactly t_max with spacing at most
    ``step``, refines every strict sign change between neighbouring points,
    and takes a grid point where Z is exactly 0 as a zero itself (with
    ``refined`` False).  Records are ordered (and 1-indexed) by ordinate.
    Any zero whose |zhat| exceeds ``tolerance`` raises NoConvergence.
    """
    _require_tolerance(tolerance)
    if window.step > MAX_SCAN_STEP:
        raise WindowTooCoarse(
            f"step {window.step} > {MAX_SCAN_STEP} risks skipping zeros below t=100"
        )

    grid = window.grid()
    values, residuals = _evaluate(grid, guard_radius)

    found: list[ZeroRecord] = []
    for i, (t, z, residual) in enumerate(zip(grid, values, residuals)):
        if z == 0.0:
            found.append(_checked(t, residual, tolerance, "grid point", refined=False))
        elif i + 1 < len(grid) and z * values[i + 1] < 0.0:
            found.append(refine_zero(t, grid[i + 1], tolerance=tolerance,
                                     guard_radius=guard_radius, z_lo=z, z_hi=values[i + 1]))
    return [replace(r, index=i) for i, r in enumerate(found, start=1)]


def load_zero_table(path) -> list[float]:
    """Read reference ordinates: one decimal per line, strictly increasing.

    Lines beginning with '#' and blank lines are ignored.  Raises ParseError
    (with the line number) on malformed values and NonMonotonicError if the
    ordinates ever fail to increase.
    """
    ordinates: list[float] = []
    text = Path(path).read_text(encoding="utf-8")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise ParseError(f"{path}:{line_no}: not a decimal ordinate: {stripped!r}",
                             line=line_no) from None
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
    ``window`` (defaulting to the span of the found ordinates).
    """
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
