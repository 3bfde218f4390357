"""Command-line entry point: evaluation, diagnostics, and experiment reports.

Subcommands
    eval      print zeta_n, xi_n, zhat_n and the prefactored zhat at one point
    residual  functional-equation residual over a strip grid (CSV report)
    zeros     scan a critical-line window, optionally crosscheck a table
    doubling  doubling-ratio experiment at a point or a table zero
    errscan   error-scaling scan with log-log slope fit

Exit codes: 0 success, 1 tolerance/assertion or computation failure,
2 usage/parse error, including an input file that cannot be read and an
output path that cannot be written; both are found before any series is
summed.  Each command takes only the evaluation flags it reads, and its
report's config section holds exactly their values: n_terms for eval,
tolerance for zeros, hl_constant for errscan, and none for residual and
doubling.  No flag sets the singularity guard; points within
``special_functions.GUARD_RADIUS`` of a singularity are always refused.
``doubling`` takes exactly one of --z and --zero-index.

Every JSON report is written by ``_write_report``: its manifest parameters
are every parsed flag except --out.  Results hold library values as they
are, complex numbers and records (``_fields``) included;
``reporting.json_dumps`` writes complex values as {"re", "im"} and every
float as its shortest round-trip decimal.  Repeated runs with identical flags
produce byte-identical config and results sections (timestamps are confined
to the manifest).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import fields
from datetime import datetime, timezone

from .errors import ZetaLabError
from .experiments import (
    DEFAULT_HL_CONSTANT,
    error_scaling_scan,
    exponent_gap,
    h_doubling,
    tail_count,
)
from .functional_equation import functional_equation_residual
from .reporting import atomic_write_text, csv_text, format_float, json_dumps
from .series import DOUBLING_BUDGET, partial_sums, zeta_hat_eta
from .zeros import (
    DEFAULT_TOLERANCE,
    ScanWindow,
    _DECIMAL,
    crosscheck_zeros,
    load_zero_table,
    reference_table_path,
    scan_zeros,
)

_COMPLEX_RE = re.compile(
    rf"""^\s*
        (?P<re>{_DECIMAL})
        (?:(?P<im>(?=[+-]){_DECIMAL})i)?
        \s*$""",
    re.VERBOSE,
)


def parse_complex(text: str) -> complex:
    """Parse the CLI complex literal 'a+bi' / 'a-bi' (decimal, no spaces)."""
    match = _COMPLEX_RE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"invalid complex literal {text!r}; expected forms like 0.5+14.1i or 2+0i"
        )
    re_part = float(match.group("re"))
    im_part = float(match.group("im")) if match.group("im") else 0.0
    return complex(re_part, im_part)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    # an infinite threshold passes or matches everything, a nan one nothing
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text}")
    return value


def format_complex_flag(z: complex) -> str:
    """Render a complex value in the CLI literal form 'a+bi'."""
    return f"{format_float(z.real)}{'+' if z.imag >= 0 else '-'}{format_float(abs(z.imag))}i"


def _fields(record) -> dict:
    # dataclasses.asdict without the deep copy that flat records do not need
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _write_report(args, config: dict, results: dict) -> None:
    """Write the JSON report {manifest, config, results} to --out or stdout.

    The manifest says what was run: the command, every parsed flag except
    --out (complex values as 'a+bi', an unset flag as ""), and a timestamp.
    """
    parameters = {}
    for key, value in vars(args).items():
        if key in ("command", "handler", "out"):
            continue
        if isinstance(value, complex):
            value = format_complex_flag(value)
        parameters[key] = "" if value is None else str(value)
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    _emit(json_dumps({"manifest": manifest, "config": config, "results": results}), args.out)


# ----------------------------------------------------------------- eval ----

#: Default truncation index n of eval's three plain sums.
EVAL_N_TERMS = 10_000


def cmd_eval(args) -> int:
    config = {"n_terms": args.n}
    z = args.z
    results: dict = {}
    failures: list[str] = []

    def record(name, value):
        if isinstance(value, Exception):
            failures.append(type(value).__name__)
            value = {"error": type(value).__name__, "detail": str(value)}
        results[name] = value

    # the three plain sums come from one term pass; n past the term budget
    # raises BudgetError, a usage error, before any term is made
    try:
        sums = partial_sums(z, args.n)
    except OverflowError as exc:
        sums = (exc, exc, exc)
    for name, value in zip(("zeta_partial", "eta_partial", "zeta_hat_regularized"), sums):
        record(name, value)
    try:
        record("zeta_hat_eta", _fields(zeta_hat_eta(z)))
    except (ZetaLabError, OverflowError) as exc:
        record("zeta_hat_eta", exc)

    if args.format == "text":
        lines = [f"z = {format_complex_flag(z)}"]
        for name, payload in results.items():
            if isinstance(payload, complex):
                lines.append(f"{name:>22}: {format_complex_flag(payload)}  (n = {args.n})")
            elif "error" in payload:
                lines.append(f"{name:>22}: error {payload['error']}")
            else:
                lines.append(
                    f"{name:>22}: {format_complex_flag(payload['value'])}"
                    f"  (n = {payload['n_used']}, est_error {format_float(payload['est_error'])})"
                )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _write_report(args, config, results)
    if failures:
        print(f"error: {', '.join(sorted(set(failures)))}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------- residual ----

def cmd_residual(args) -> int:
    if not (0.0 < args.rmin < args.rmax < 1.0):
        raise argparse.ArgumentTypeError("grid bounds must satisfy 0 < rmin < rmax < 1")
    for flag, value in (("--imin", args.imin), ("--imax", args.imax)):
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{flag} must be finite, got {value}")
    res = [args.rmin + i * (args.rmax - args.rmin) / (args.rcount - 1)
           for i in range(args.rcount)] if args.rcount > 1 else [args.rmin]
    ims = [args.imin + i * (args.imax - args.imin) / (args.icount - 1)
           for i in range(args.icount)] if args.icount > 1 else [args.imin]
    points = [complex(r, t) for r in res for t in ims]

    rows = []
    max_residual = 0.0
    skipped = 0
    for z in points:
        try:
            rep = functional_equation_residual(z)
        except ZetaLabError:
            rows.append([float(z.real), float(z.imag), None, None, None, None, None, "skipped"])
            skipped += 1
            continue
        max_residual = max(max_residual, rep.residual)
        rows.append([
            float(z.real), float(z.imag), rep.residual,
            float(rep.lhs.real), float(rep.lhs.imag),
            float(rep.rhs.real), float(rep.rhs.imag), "ok",
        ])

    text = csv_text(
        ["re", "im", "residual", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "status"],
        rows,
        {},  # residual reads no evaluation config
    )
    atomic_write_text(args.out, text)
    # a grid whose every point was skipped checked nothing, so it cannot pass
    evaluated = skipped < len(rows)
    passed = evaluated and max_residual <= args.tol
    summary = (f"max residual {max_residual:.3e}, tolerance {args.tol:.1e}" if evaluated
               else "no point evaluated")
    print(f"residual grid: {len(rows)} points ({skipped} skipped), {summary} -> "
          f"{'PASS' if passed else 'FAIL'}  [{args.out}]")
    return 0 if passed else 1


# ---------------------------------------------------------------- zeros ----

def cmd_zeros(args) -> int:
    config = {"tolerance": args.tolerance}
    window = ScanWindow(args.tmin, args.tmax, args.step)
    # read before the scan, so that a bad table fails before any work
    reference = load_zero_table(args.reference) if args.reference else None
    records = scan_zeros(window, tolerance=args.tolerance)
    results: dict = {
        "window": {"t_min": window.t_min, "t_max": window.t_max, "step": window.step},
        "zeros": [_fields(r) for r in records],
    }

    exit_code = 0
    summary = f"{len(records)} zeros in [{args.tmin}, {args.tmax}]"
    if reference is not None:
        report = crosscheck_zeros(records, reference, args.match_tol,
                                  window=(window.t_min, window.t_max))
        results["crosscheck"] = {
            "reference_path": str(args.reference),
            "tolerance": report.tolerance,
            "matched": [_fields(m) for m in report.matched],
            "unmatched_found": [r.ordinate for r in report.unmatched_found],
            "unmatched_reference": report.unmatched_reference,
            "max_delta": report.max_delta,
        }
        mismatches = len(report.unmatched_found) + len(report.unmatched_reference)
        summary += (f"; crosscheck: {len(report.matched)} matched, "
                    f"{mismatches} unmatched, max delta {report.max_delta:.3e}")
        if mismatches:
            exit_code = 1

    _write_report(args, config, results)
    print(summary, file=sys.stderr)
    return exit_code


# ------------------------------------------------------------- doubling ----

def cmd_doubling(args) -> int:
    if args.zero_table is not None and args.zero_index is None:
        raise argparse.ArgumentTypeError("--zero-table is read only with --zero-index")

    if args.zero_index is not None:
        table_path = args.zero_table or reference_table_path()
        table = load_zero_table(table_path)
        if args.zero_index > len(table):
            raise argparse.ArgumentTypeError(
                f"--zero-index {args.zero_index} exceeds table size {len(table)}")
        point = complex(0.5, table[args.zero_index - 1])
        provenance = f"zero {args.zero_index} from table {table_path}"
    else:
        point = args.z
        provenance = "explicit point"

    report = h_doubling(point, args.nbase, args.m)
    gap = exponent_gap(report.fitted_exponent, report.reference_exponent)
    tail = tail_count(args.m)
    zh_tail_ratio = report.zeta_hat_ratios[-1]
    results = {
        "point": report.point,
        "point_provenance": provenance,
        "n_base": report.n_base,
        "m_doublings": report.m_doublings,
        "ratios": report.ratios,
        "zeta_hat_ratios": report.zeta_hat_ratios,
        "moduli": report.moduli,
        "fitted_exponent": report.fitted_exponent,
        "reference_exponent": report.reference_exponent,
        "exponent_gap_mod_log2_period": gap,
        "tail_length": tail,
        "zeta_hat_tail_ratio": zh_tail_ratio,
        "candidate_halving_constants": {
            "two_pow_minus_z": 2.0 ** (-report.point),
            "two_pow_one_minus_z": 2.0 ** (1.0 - report.point),
        },
    }
    _write_report(args, {}, results)

    lines = [
        f"doubling at {point.real:+.6f}{point.imag:+.6f}i  "
        f"(n_base={args.nbase}, m={args.m}, tail={tail})",
        f"  fitted exponent (principal log2). {report.fitted_exponent.real:+.6f}"
        f"{report.fitted_exponent.imag:+.6f}i",
        f"  reference exponent 1-2z ........ {report.reference_exponent.real:+.6f}"
        f"{report.reference_exponent.imag:+.6f}i",
        f"  gap (imag reduced mod 2pi/ln2) . {gap.real:+.6f}{gap.imag:+.6f}i",
        f"  tail |H_2n/H_n| ................ "
        + ", ".join(f"{m:.6f}" for m in report.moduli[-tail:]),
        f"  measured zhat halving ratio .... {zh_tail_ratio.real:+.6f}"
        f"{zh_tail_ratio.imag:+.6f}i",
        f"    candidate 2^-z ............... {(2.0 ** -point).real:+.6f}"
        f"{(2.0 ** -point).imag:+.6f}i",
        f"    candidate 2^(1-z) ............ {(2.0 ** (1 - point)).real:+.6f}"
        f"{(2.0 ** (1 - point)).imag:+.6f}i",
    ]
    print("\n".join(lines), file=sys.stderr)
    return 0


# -------------------------------------------------------------- errscan ----

def cmd_errscan(args) -> int:
    if args.nmin >= args.nmax:
        raise argparse.ArgumentTypeError("--nmin must be below --nmax")
    config = {"hl_constant": args.hl_constant}

    j_min = max(0, math.ceil(math.log2(args.nmin)))
    j_max = math.floor(math.log2(args.nmax))
    n_grid = [1 << j for j in range(j_min, j_max + 1)]
    if len(n_grid) < 2:
        raise argparse.ArgumentTypeError("n range too narrow: needs >= 2 powers of two")

    report = error_scaling_scan(args.z, n_grid, hl_constant=args.hl_constant)
    results = {
        "point": report.point,
        "n_grid": report.n_grid,
        "errors": report.errors,
        "domain_ok": report.domain_ok,
        "fitted_slope": report.fitted_slope,
        "reference_slope": report.reference_slope,
        "slope_deviation": report.fitted_slope - report.reference_slope,
    }
    # the CSV first, so that a report is never left behind a failed CSV
    if args.csv:
        rows = [[n, e, ok] for n, e, ok in zip(report.n_grid, report.errors, report.domain_ok)]
        text = csv_text(["n", "error", "domain_ok"], rows, config)
        atomic_write_text(args.csv, text)
    _write_report(args, config, results)

    print(f"errscan at {args.z}: fitted slope {report.fitted_slope:+.4f} "
          f"(reference {report.reference_slope:+.4f})", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- main ----

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The zetalab parser, built on the first call and shared by every later
    ``main`` call in the process; argparse keeps no state between parses."""
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Critical-strip zeta laboratory: series evaluation, "
                    "functional-equation diagnostics, zeros, and convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the series representations at one point")
    p_eval.add_argument("--z", type=parse_complex, required=True,
                        help="evaluation point, e.g. 0.5+14.134725i")
    p_eval.add_argument("--format", choices=("json", "text"), default="json")
    p_eval.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_eval.add_argument("--n", type=_positive_int, default=EVAL_N_TERMS,
                        help="truncation index of the plain sums (default %(default)s, "
                             f"at most {DOUBLING_BUDGET})")
    p_eval.set_defaults(handler=cmd_eval)

    p_res = sub.add_parser("residual", help="functional-equation residual over a strip grid")
    p_res.add_argument("--rmin", type=float, default=0.1)
    p_res.add_argument("--rmax", type=float, default=0.9)
    p_res.add_argument("--rcount", type=_positive_int, default=9)
    p_res.add_argument("--imin", type=float, default=0.0)
    p_res.add_argument("--imax", type=float, default=30.0)
    p_res.add_argument("--icount", type=_positive_int, default=13)
    p_res.add_argument("--tol", type=_positive_float, default=1e-8,
                       help="max-residual pass threshold (default %(default)s)")
    p_res.add_argument("--out", default="residual_report.csv")
    p_res.set_defaults(handler=cmd_residual)

    p_zeros = sub.add_parser("zeros", help="scan a critical-line window for zeros")
    p_zeros.add_argument("--tmin", type=float, default=10.0)
    p_zeros.add_argument("--tmax", type=float, default=50.0)
    p_zeros.add_argument("--step", type=float, default=0.05)
    p_zeros.add_argument("--reference", default=None,
                         help="zero table to crosscheck (one ordinate per line)")
    p_zeros.add_argument("--match-tol", type=_positive_float, default=1e-6)
    p_zeros.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_zeros.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                         help="bound on |zeta| at each zero (default %(default)s)")
    p_zeros.set_defaults(handler=cmd_zeros)

    # no abbreviations, so that a stray evaluation-config flag such as --n is
    # rejected rather than read as --nbase
    p_dbl = sub.add_parser("doubling", help="doubling-ratio experiment (plain sums)",
                           allow_abbrev=False)
    where = p_dbl.add_mutually_exclusive_group(required=True)
    where.add_argument("--z", type=parse_complex, default=None)
    where.add_argument("--zero-index", type=_positive_int, default=None,
                       help="1-based index into the zero table (default: packaged table)")
    p_dbl.add_argument("--zero-table", default=None,
                       help="zero table that --zero-index reads (default: packaged table)")
    p_dbl.add_argument("--nbase", type=_positive_int, default=4096)
    p_dbl.add_argument("--m", type=_positive_int, default=5,
                       help="number of doublings (budget n_base*2^m <= %d)" % DOUBLING_BUDGET)
    p_dbl.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_dbl.set_defaults(handler=cmd_doubling)

    p_err = sub.add_parser("errscan", help="error-scaling scan (plain sums vs reference)")
    p_err.add_argument("--z", type=parse_complex, required=True)
    p_err.add_argument("--nmin", type=_positive_int, default=256)
    p_err.add_argument("--nmax", type=_positive_int, default=65536)
    p_err.add_argument("--csv", default=None, help="also write (n, error) pairs as CSV")
    p_err.add_argument("--out", default=None, help="write the report here instead of stdout")
    # the measured sums run along the --nmin..--nmax grid and the reference
    # picks its own length, so there is no --n
    p_err.add_argument("--hl-constant", type=float, default=DEFAULT_HL_CONSTANT,
                       help="validity constant C > 1 in |Im z| <= 2*pi*n/C (default %(default)s)")
    p_err.set_defaults(handler=cmd_errscan)

    return parser


def _require_writable(path) -> None:
    """Refuse an output path that cannot be written, before any work.

    ``atomic_write_text`` makes the missing directories, so the nearest
    existing ancestor of the path must be a writable directory, and the path
    itself must not be a directory.  As there, the path is taken apart with
    ``os.path``, not ``pathlib``.
    """
    target = os.path.abspath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(f"output path {path} is a directory")
    ancestor = os.path.dirname(target)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(f"cannot write {path}: {ancestor} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise PermissionError(f"cannot write {path}: {ancestor} is not writable")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        for target in (args.out, getattr(args, "csv", None)):
            if target:
                _require_writable(target)
        return args.handler(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # ConfigError, ParseError, NonMonotonicError, WindowTooCoarse, BudgetError;
        # an input file that cannot be read or an output path that cannot be written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ZetaLabError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
