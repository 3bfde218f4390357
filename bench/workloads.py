"""Seeded inputs, CLI argument lists and output checkers for the three workloads.

Inputs are drawn with the standard library's ``random.Random(seed)``, whose
sequence is fixed across Python versions, so a seed always gives the same
inputs.  zetalab never sees the seed, only the generated CLI flags.

Every input is a plain JSON-able dict.  A pool of ``POOL_SIZE`` inputs is
drawn per run and the closed loop cycles through it, so each input repeats
and the determinism check (byte-identical ``config`` and ``results``) has
something to compare.  Windows and points are stratified over their range,
so the pool of every seed covers the range alike and job-time medians do not
swing with the seed.

Checker thresholds are those of ``tests/test_acceptance.py``:

* zeros: every found ordinate within 1e-6 of the packaged table, and every
  table zero inside the window found (criterion 4);
* residual: maximum at most 1e-8 (criterion 2);
* doubling at a zero: tail moduli in [0.98, 1.02] and exponent gap at most
  0.05 per component; at an off-zero control: |fitted exponent| at most 0.02
  (criterion 6);
* errscan: fitted slope within 0.1 of -Re z (criterion 5);
* eval and the residual's left-hand side: relative error against mpmath at
  most 1e-10 (the oracle tolerance of ``tests/test_series.py``), and the
  regularized sum within 5 n^(-Re z) of it (criterion 7).
"""

from __future__ import annotations

import csv
import io
import json
import random

WORKLOADS = ("zeros_scan", "doubling_sweep", "strip_mix")

POOL_SIZE = 16

ZERO_MATCH_TOL = 1e-6
RESIDUAL_TOL = 1e-8
MODULUS_BAND = (0.98, 1.02)
EXPONENT_GAP_TOL = 0.05
CONTROL_EXPONENT_TOL = 0.02
SLOPE_TOL = 0.1
MPMATH_REL_TOL = 1e-10
REGULARIZED_BOUND_FACTOR = 5.0

SCAN_STEP = 0.05
SCAN_WIDTH = 20.0
# The scan refines interior grid minima only, so a zero closer to a window
# edge than a few grid steps can fall outside the scanned minima.  Windows
# keep their edges this far from every table zero.
EDGE_CLEARANCE = 0.25
DOUBLING_NBASE = 4096
DOUBLING_M = 8
RESIDUAL_RCOUNT = 3
RESIDUAL_ICOUNT = 4
OFF_LINE_CLEARANCE = 0.05
CONTROL_CLEARANCE = 0.5
CONTROL_MIN_ABS = 0.5


class CheckFailed(Exception):
    """An output broke a correctness check."""


def complex_flag(z: complex) -> str:
    """CLI literal 'a+bi' with enough digits to round-trip the double."""
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def read_table(path) -> list[float]:
    """Ordinates of a zero table: one decimal a line, '#' comments skipped."""
    with open(path, encoding="utf-8") as handle:
        return [float(line) for line in (raw.strip() for raw in handle)
                if line and not line.startswith("#")]


def _off_line_sigma(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        sigma = rng.uniform(lo, hi)
        if abs(sigma - 0.5) >= OFF_LINE_CLEARANCE:
            return sigma


def _mp_zeta(z: complex) -> complex:
    # imported here so the worker, which imports the checkers, does not load
    # mpmath into the process whose peak RSS is measured
    import mpmath

    return complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))


# ------------------------------------------------------------ generators ----

def zeros_scan_inputs(rng: random.Random, table: list[float], table_path: str) -> list[dict]:
    """Windows 20 wide, so every job scans the same number of grid points,
    with t_min stratified over [10, 80]."""
    inputs = []
    lo, hi = 10.0, 100.0 - SCAN_WIDTH
    slot = (hi - lo) / POOL_SIZE
    for j in range(POOL_SIZE):
        while True:
            t_min = round(rng.uniform(lo + j * slot, lo + (j + 1) * slot), 3)
            t_max = t_min + SCAN_WIDTH
            if all(abs(t - edge) >= EDGE_CLEARANCE for t in table for edge in (t_min, t_max)):
                break
        inputs.append({
            "t_min": t_min,
            "t_max": t_max,
            "reference": table_path,
            "expected": [t for t in table if t_min <= t <= t_max],
        })
    return inputs


def doubling_sweep_inputs(rng: random.Random, table: list[float]) -> list[dict]:
    """Alternating table zeros and off-zero controls on the critical line."""
    half = POOL_SIZE // 2
    indices = rng.sample(range(1, len(table) + 1), half)
    controls = []
    while len(controls) < half:
        t = round(rng.uniform(10.0, 100.0), 6)
        if min(abs(t - z) for z in table) < CONTROL_CLEARANCE:
            continue
        if abs(_mp_zeta(complex(0.5, t))) < CONTROL_MIN_ABS:
            continue
        controls.append(t)
    inputs = []
    for index, t in zip(indices, controls):
        inputs.append({"zero_index": index, "ordinate": table[index - 1]})
        inputs.append({"z": [0.5, t]})
    return inputs


def _grid(lo: float, hi: float, count: int) -> list[float]:
    # the CLI's own grid formula, so the references sit on its points
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def strip_mix_inputs(rng: random.Random) -> list[dict]:
    """Residual grids, errscan points and eval points off the critical line,
    0 < Re z < 1 and 0 <= Im z <= 60, with mpmath references."""
    inputs = []
    for j in range(POOL_SIZE):
        while True:
            rmin = round(rng.uniform(0.05, 0.3), 3)
            rmax = round(rng.uniform(0.6, 0.95), 3)
            sigmas = _grid(rmin, rmax, RESIDUAL_RCOUNT)
            if all(abs(s - 0.5) >= OFF_LINE_CLEARANCE for s in sigmas):
                break
        imin = round(rng.uniform(0.0, 20.0), 3)
        imax = round(imin + rng.uniform(25.0, 40.0), 3)
        ts = _grid(imin, imax, RESIDUAL_ICOUNT)
        # eval and errscan ordinates stratified over [0, 60]
        t_slot = 60.0 / POOL_SIZE
        eval_z = complex(round(_off_line_sigma(rng, 0.05, 0.95), 6),
                         round(rng.uniform(j * t_slot, (j + 1) * t_slot), 6))
        err_z = complex(round(_off_line_sigma(rng, 0.1, 0.9), 6),
                        round(rng.uniform(0.0, 60.0), 6))
        points = [complex(s, t) for s in sigmas for t in ts]
        eval_ref = _mp_zeta(eval_z)
        inputs.append({
            "residual": {"rmin": rmin, "rmax": rmax, "imin": imin, "imax": imax,
                         "points": [[z.real, z.imag] for z in points],
                         "zeta": [[w.real, w.imag] for w in map(_mp_zeta, points)]},
            "errscan": {"z": [err_z.real, err_z.imag]},
            "eval": {"z": [eval_z.real, eval_z.imag],
                     "zeta": [eval_ref.real, eval_ref.imag]},
        })
    return inputs


def make_inputs(workload: str, seed: int, table: list[float], table_path: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "zeros_scan":
        return zeros_scan_inputs(rng, table, table_path)
    if workload == "doubling_sweep":
        return doubling_sweep_inputs(rng, table)
    if workload == "strip_mix":
        return strip_mix_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- CLI argv ----

def job_commands(workload: str, inp: dict, out_dir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of the CLI calls that make one job, reports in out_dir."""
    if workload == "zeros_scan":
        return [("zeros", ["zeros", "--tmin", repr(inp["t_min"]), "--tmax", repr(inp["t_max"]),
                           "--step", repr(SCAN_STEP), "--reference", inp["reference"],
                           "--out", f"{out_dir}/zeros.json"])]
    if workload == "doubling_sweep":
        where = (["--zero-index", str(inp["zero_index"])] if "zero_index" in inp
                 else ["--z", complex_flag(complex(*inp["z"]))])
        return [("doubling", ["doubling", *where, "--nbase", str(DOUBLING_NBASE),
                              "--m", str(DOUBLING_M), "--out", f"{out_dir}/doubling.json"])]
    if workload == "strip_mix":
        res = inp["residual"]
        return [
            ("residual", ["residual", "--rmin", repr(res["rmin"]), "--rmax", repr(res["rmax"]),
                          "--rcount", str(RESIDUAL_RCOUNT), "--imin", repr(res["imin"]),
                          "--imax", repr(res["imax"]), "--icount", str(RESIDUAL_ICOUNT),
                          "--tol", repr(RESIDUAL_TOL), "--out", f"{out_dir}/residual.csv"]),
            ("errscan", ["errscan", "--z", complex_flag(complex(*inp["errscan"]["z"])),
                         "--csv", f"{out_dir}/errscan.csv", "--out", f"{out_dir}/errscan.json"]),
            ("eval", ["eval", "--z", complex_flag(complex(*inp["eval"]["z"])),
                      "--out", f"{out_dir}/eval.json"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- checkers ----

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _stable_json(text: str) -> tuple[dict, str]:
    """The parsed report and its config+results sections as canonical text."""
    payload = json.loads(text)
    _require(set(payload) >= {"manifest", "config", "results"}, "report sections missing")
    stable = json.dumps({"config": payload["config"], "results": payload["results"]},
                        sort_keys=True)
    return payload, stable


def _pair(d: dict) -> complex:
    return complex(d["re"], d["im"])


def _rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def check_zeros(inp: dict, files: dict) -> tuple[float, str]:
    report, stable = _stable_json(files["zeros.json"])
    results = report["results"]
    found = [z["ordinate"] for z in results["zeros"]]
    expected = inp["expected"]
    _require(len(found) == len(expected),
             f"window [{inp['t_min']}, {inp['t_max']}]: {len(found)} zeros, "
             f"table has {len(expected)}")
    worst = 0.0
    for t, ref in zip(found, expected):
        delta = abs(t - ref)
        _require(delta <= ZERO_MATCH_TOL, f"zero {t!r} is {delta:.3e} from table {ref!r}")
        worst = max(worst, delta)
    cross = results["crosscheck"]
    _require(not cross["unmatched_found"] and not cross["unmatched_reference"],
             "crosscheck reports unmatched zeros")
    return worst, stable


def check_doubling(inp: dict, files: dict) -> tuple[float, str]:
    report, stable = _stable_json(files["doubling.json"])
    results = report["results"]
    point = _pair(results["point"])
    if "zero_index" in inp:
        _require(point == complex(0.5, inp["ordinate"]),
                 f"zero {inp['zero_index']} evaluated at {point!r}, table has {inp['ordinate']!r}")
        tail = results["moduli"][-((DOUBLING_M + 1) // 2):]
        lo, hi = MODULUS_BAND
        _require(all(lo <= m <= hi for m in tail), f"tail moduli {tail} outside [{lo}, {hi}]")
        gap = _pair(results["exponent_gap_mod_log2_period"])
        worst = max(abs(gap.real), abs(gap.imag))
        _require(worst <= EXPONENT_GAP_TOL, f"exponent gap {gap!r} above {EXPONENT_GAP_TOL}")
        return worst, stable
    _require(point == complex(*inp["z"]), f"control evaluated at {point!r}")
    fitted = abs(_pair(results["fitted_exponent"]))
    _require(fitted <= CONTROL_EXPONENT_TOL,
             f"control |fitted exponent| {fitted:.3e} above {CONTROL_EXPONENT_TOL}")
    return 0.0, stable


def check_strip_mix(inp: dict, files: dict) -> tuple[float, str]:
    res = inp["residual"]
    rows = list(csv.DictReader(line for line in io.StringIO(files["residual.csv"])
                               if not line.startswith("#")))
    _require(len(rows) == len(res["points"]), f"residual CSV has {len(rows)} rows")
    worst = 0.0
    for row, (re_, im_), ref in zip(rows, res["points"], res["zeta"]):
        _require(row["status"] == "ok", f"residual point {row['re']}+{row['im']}i skipped")
        _require(abs(float(row["re"]) - re_) <= 1e-12 and abs(float(row["im"]) - im_) <= 1e-12,
                 f"residual row at {row['re']}+{row['im']}i, expected {re_}+{im_}i")
        _require(float(row["residual"]) <= RESIDUAL_TOL,
                 f"residual {row['residual']} above {RESIDUAL_TOL}")
        err = _rel_err(complex(float(row["lhs_re"]), float(row["lhs_im"])), complex(*ref))
        _require(err <= MPMATH_REL_TOL, f"residual lhs relative error {err:.3e} vs mpmath")
        worst = max(worst, err)

    errscan, err_stable = _stable_json(files["errscan.json"])
    sigma = inp["errscan"]["z"][0]
    slope = errscan["results"]["fitted_slope"]
    _require(abs(slope + sigma) <= SLOPE_TOL, f"errscan slope {slope} vs {-sigma}")
    csv_rows = [line for line in files["errscan.csv"].splitlines()
                if line and not line.startswith("#")]
    _require(len(csv_rows) == len(errscan["results"]["n_grid"]) + 1, "errscan CSV rows")

    ev, ev_stable = _stable_json(files["eval.json"])
    z = complex(*inp["eval"]["z"])
    ref = complex(*inp["eval"]["zeta"])
    err = _rel_err(_pair(ev["results"]["zeta_hat_eta"]["value"]), ref)
    _require(err <= MPMATH_REL_TOL, f"eval zeta_hat_eta relative error {err:.3e} vs mpmath")
    worst = max(worst, err)
    reg = abs(_pair(ev["results"]["zeta_hat_regularized"]) - ref)
    bound = REGULARIZED_BOUND_FACTOR * ev["config"]["n_terms"] ** (-z.real)
    _require(reg <= bound, f"eval zeta_hat_regularized off by {reg:.3e} > {bound:.3e}")
    stable = "\n".join([files["residual.csv"], err_stable, files["errscan.csv"], ev_stable])
    return worst, stable


CHECKERS = {
    "zeros_scan": check_zeros,
    "doubling_sweep": check_doubling,
    "strip_mix": check_strip_mix,
}
