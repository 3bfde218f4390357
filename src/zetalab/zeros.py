"""Locating nontrivial zeros rho = 1/2 + i t on the critical line.

A grid scan of |zhat(1/2 + i t)| seeds Newton refinements at local minima;
refined ordinates are deduplicated and cross-checkable against externally
ingested reference tables (one decimal ordinate per line, '#' comments).

The search is restricted to the critical line: the experiments need known
zeros, and every verified zero lies there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .config import EvalConfig
from .errors import (
    ConfigError,
    EscapedStrip,
    NoConvergence,
    NonMonotonicError,
    ParseError,
    WindowTooCoarse,
)
from .series import zeta_hat_eta, zeta_hat_eta_with_derivative

#: Grid minima of |zhat| on the critical line below this value seed a
#: refinement.  Between consecutive zeros at t <= 100 the local minima of
#: |zhat| stay well above it, while a 0.05-step grid lands within ~0.15 of
#: every zero ordinate.
COARSE_THRESHOLD = 0.35

#: Ordinates closer than this are considered the same zero (distinct zeros
#: below t = 100 are separated by >= 0.8).
DEDUP_RADIUS = 1e-6

#: Scan steps above this risk skipping zeros below t = 100.
MAX_SCAN_STEP = 0.5

MAX_NEWTON_ITERATIONS = 50


@dataclass(frozen=True)
class ScanWindow:
    """Ordinate interval [t_min, t_max] scanned at the given step."""

    t_min: float
    t_max: float
    step: float

    def __post_init__(self):
        if self.t_min < 0:
            raise ConfigError(f"t_min must be >= 0, got {self.t_min}")
        if not self.t_max > self.t_min:
            raise ConfigError(f"t_max must exceed t_min, got [{self.t_min}, {self.t_max}]")
        if not self.step > 0:
            raise ConfigError(f"step must be > 0, got {self.step}")
        if not self.step < (self.t_max - self.t_min):
            raise ConfigError("step must be smaller than the window width")


@dataclass(frozen=True)
class ZeroRecord:
    """A refined zero: rho = 1/2 + i * ordinate.

    ``index`` is the 1-based position by increasing ordinate within one scan
    result (0 for a standalone refinement); ``residual_mag`` is |zhat(rho)|
    re-evaluated at the reported ordinate.
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


def refine_zero(t_seed: float, config: EvalConfig) -> ZeroRecord:
    """Newton-refine a seed ordinate to a zero of zhat on the critical line.

    Iterates w <- w - zhat(w)/zhat'(w) in the complex plane, the derivative
    coming from the term-wise differentiated (and equally accelerated)
    alternating series, then projects back to Re w = 1/2 to report the
    ordinate.  Stops when |zhat| <= tolerance/8 or raises NoConvergence after
    50 iterations; raises EscapedStrip if an iterate leaves 0 < Re w < 1.
    """
    w = complex(0.5, float(t_seed))
    target = config.tolerance
    converged = False
    for _ in range(MAX_NEWTON_ITERATIONS):
        f, df = zeta_hat_eta_with_derivative(w, config)
        if abs(f) <= target / 8.0:
            converged = True
            break
        if df == 0:
            raise NoConvergence(f"zero derivative at {w!r}")
        w = w - f / df
        if not 0.0 < w.real < 1.0:
            raise EscapedStrip(f"Newton iterate left the strip at {w!r} (seed t={t_seed})")
    if not converged:
        raise NoConvergence(f"no zero within {MAX_NEWTON_ITERATIONS} iterations from t={t_seed}")

    ordinate = w.imag
    residual = abs(zeta_hat_eta(complex(0.5, ordinate), config).value)
    for _ in range(3):
        # polish along the line if projecting Re -> 1/2 pushed |zhat| back up
        if residual <= target:
            break
        f, df = zeta_hat_eta_with_derivative(complex(0.5, ordinate), config)
        if df == 0:
            break
        ordinate += (1j * f / df).real
        residual = abs(zeta_hat_eta(complex(0.5, ordinate), config).value)
    if residual > target:
        raise NoConvergence(
            f"residual {residual:.3e} above tolerance {target:.1e} after projection (t={t_seed})"
        )
    return ZeroRecord(index=0, ordinate=ordinate, residual_mag=residual, refined=True)


def scan_zeros(window: ScanWindow, config: EvalConfig) -> list[ZeroRecord]:
    """Find all critical-line zeros inside the window.

    Evaluates |zhat(1/2 + i t)| on the grid, refines every interior local
    minimum below COARSE_THRESHOLD, then deduplicates, clips to the window,
    and returns records ordered (and 1-indexed) by ordinate.  Seeds whose
    refinement fails to converge are dropped: they were not zeros.
    """
    if window.step > MAX_SCAN_STEP:
        raise WindowTooCoarse(
            f"step {window.step} > {MAX_SCAN_STEP} risks skipping zeros below t=100"
        )
    if not config.accelerate:
        raise ConfigError("scan_zeros needs an accelerated config; plain sums are too "
                          "slow to reach the refinement tolerance")

    count = int(math.floor((window.t_max - window.t_min) / window.step + 1e-9)) + 1
    grid = [window.t_min + i * window.step for i in range(count)]
    mags = [abs(zeta_hat_eta(complex(0.5, t), config).value) for t in grid]

    seeds = [
        grid[i]
        for i in range(1, len(grid) - 1)
        if mags[i] < COARSE_THRESHOLD and mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]
    ]

    found: list[ZeroRecord] = []
    for seed in seeds:
        try:
            record = refine_zero(seed, config)
        except NoConvergence:
            continue
        if window.t_min <= record.ordinate <= window.t_max:
            found.append(record)

    found.sort(key=lambda r: r.ordinate)
    deduped: list[ZeroRecord] = []
    for record in found:
        if deduped and abs(record.ordinate - deduped[-1].ordinate) <= DEDUP_RADIUS:
            continue
        deduped.append(record)
    return [replace(r, index=i) for i, r in enumerate(deduped, start=1)]


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
