"""Acceptance suite: the eight exit criteria, each with its stated tolerance
and runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
one PASS line per criterion.
"""

import json
import time

import numpy as np
import pytest

from zetalab import (
    EvalConfig,
    ScanWindow,
    error_scaling_scan,
    exponent_gap,
    functional_equation_residual,
    h_doubling,
    h_factor,
    identity_residual_plain,
    identity_residual_regularized,
    load_zero_table,
    reference_table_path,
    scan_zeros,
    tail_count,
    zeta_hat_eta,
    zeta_hat_regularized,
    crosscheck_zeros,
)
from zetalab.cli import main as cli_main

ACCEL = EvalConfig()


class Stopwatch:
    def __init__(self, limit_seconds: float):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self) -> float:
        elapsed = self.elapsed
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s"
        return elapsed


def report(number: int, detail: str, elapsed: float, limit: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {detail} [{elapsed:.2f}s < {limit:.0f}s]")


@pytest.fixture(scope="module")
def first_ten_zeros():
    """Zeros of the [10, 50] scan, shared by criteria 4 and 6.

    Returns (records, scan_seconds); the scan time is charged against the
    runtime budget of both criteria that consume it.
    """
    start = time.perf_counter()
    records = scan_zeros(ScanWindow(10.0, 50.0, 0.05), ACCEL)
    return records, time.perf_counter() - start


def test_criterion_1_algebraic_identities():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(20_240_101)
    worst_plain = worst_reg = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-50.0, 50.0))
        n = int(rng.integers(1, 10_001))
        worst_plain = max(worst_plain, identity_residual_plain(z, n))
        worst_reg = max(worst_reg, identity_residual_regularized(z, n))
    assert worst_plain <= 1e-10
    assert worst_reg <= 1e-10
    elapsed = watch.check()
    report(1, f"1000 random (z, n): plain residual <= {worst_plain:.2e}, "
              f"regularized <= {worst_reg:.2e} (bound 1e-10)", elapsed, 10.0)


def test_criterion_2_functional_equation_grid():
    watch = Stopwatch(30.0)
    worst = 0.0
    for i in range(9):
        sigma = 0.1 + 0.1 * i
        for j in range(13):
            t = 30.0 * j / 12.0
            residual = functional_equation_residual(complex(sigma, t), ACCEL).residual
            worst = max(worst, residual)
    assert worst <= 1e-8
    elapsed = watch.check()
    report(2, f"9x13 strip grid: max residual {worst:.2e} (bound 1e-8)", elapsed, 30.0)


def test_criterion_3_h_factor_symmetry():
    watch = Stopwatch(1.0)
    center = abs(h_factor(0.5 + 0j) - 1.0)
    assert center <= 1e-12
    worst = 0.0
    for i in range(100):
        t = 0.1 + (50.0 - 0.1) * i / 99.0
        worst = max(worst, abs(abs(h_factor(complex(0.5, t))) - 1.0))
    assert worst <= 1e-10
    elapsed = watch.check()
    report(3, f"|H(1/2) - 1| = {center:.2e} (1e-12); "
              f"max ||H(1/2+it)| - 1| = {worst:.2e} over 100 t (1e-10)", elapsed, 1.0)


def test_criterion_4_zero_reproduction(first_ten_zeros):
    records, scan_seconds = first_ten_zeros
    watch = Stopwatch(60.0)
    watch.start -= scan_seconds  # charge the shared scan to this budget
    assert len(records) == 10

    reference = load_zero_table(reference_table_path())
    check = crosscheck_zeros(records, reference, tol=1e-6, window=(10.0, 50.0))
    assert len(check.matched) == 10
    assert not check.unmatched_found and not check.unmatched_reference

    worst_direct = worst_mirror = 0.0
    for record in records:
        rho = complex(0.5, record.ordinate)
        worst_direct = max(worst_direct, abs(zeta_hat_eta(rho, ACCEL).value))
        worst_mirror = max(worst_mirror, abs(zeta_hat_eta(1.0 - rho, ACCEL).value))
    assert worst_direct <= 1e-8
    assert worst_mirror <= 1e-8
    elapsed = watch.check()
    report(4, f"scan [10,50] -> 10 zeros, table max delta {check.max_delta:.2e} (1e-6); "
              f"|zhat(rho)| <= {worst_direct:.2e}, |zhat(1-rho)| <= {worst_mirror:.2e} (1e-8)",
           elapsed, 60.0)


def test_criterion_5_error_scaling():
    watch = Stopwatch(60.0)
    grid = [2 ** j for j in range(8, 17)]
    config = EvalConfig()  # hl_constant = 2 by default
    assert config.hl_constant == 2.0
    worst = 0.0
    for sigma in (0.3, 0.5, 0.7):
        for t in (0.0, 7.0, 14.0, 20.0):
            rep = error_scaling_scan(complex(sigma, t), grid, config)
            assert all(rep.domain_ok)
            deviation = abs(rep.fitted_slope - rep.reference_slope)
            assert deviation <= 0.1, (sigma, t)
            worst = max(worst, deviation)
    elapsed = watch.check()
    report(5, f"12 points, Re z in {{0.3,0.5,0.7}}: max |slope + Re z| = {worst:.3f} "
              f"(bound 0.1), n up to 2^16, C=2", elapsed, 60.0)


def test_criterion_6_doubling_experiment(first_ten_zeros):
    records, scan_seconds = first_ten_zeros
    watch = Stopwatch(120.0)
    watch.start -= scan_seconds  # charge the shared scan to this budget
    assert len(records) == 10

    worst_gap = 0.0
    for record in records:
        rho = complex(0.5, record.ordinate)
        rep = h_doubling(rho, 1 << 12, 5)
        tail = rep.moduli[-tail_count(5):]
        assert all(0.98 <= m <= 1.02 for m in tail), rho
        gap = exponent_gap(rep.fitted_exponent, rep.reference_exponent)
        assert abs(gap.real) <= 0.05 and abs(gap.imag) <= 0.05, rho
        worst_gap = max(worst_gap, abs(gap.real), abs(gap.imag))

    # non-zero controls: mid-strip, away from zero ordinates, H_n bounded
    # away from zero on both sides
    zero_ordinates = [r.ordinate for r in records]
    rng = np.random.default_rng(20_240_606)
    controls = []
    while len(controls) < 20:
        z = complex(rng.uniform(0.45, 0.55), rng.uniform(5.0, 45.0))
        if min(abs(z.imag - t) for t in zero_ordinates) < 0.5:
            continue
        if abs(zeta_hat_eta(z, ACCEL).value) < 0.5:
            continue
        if abs(zeta_hat_eta(1.0 - z, ACCEL).value) < 0.5:
            continue
        controls.append(z)
    worst_control = 0.0
    for z in controls:
        rep = h_doubling(z, 1 << 14, 5)
        magnitude = abs(rep.fitted_exponent)
        assert magnitude <= 0.02, z
        worst_control = max(worst_control, magnitude)
    elapsed = watch.check()
    report(6, f"10 zeros: tail moduli in [0.98,1.02], exponent gap <= {worst_gap:.4f} "
              f"(0.05/component); 20 controls: |fitted| <= {worst_control:.4f} (0.02)",
           elapsed, 120.0)


def test_criterion_7_representation_agreement():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(20_240_707)
    n = 1 << 16
    worst_ratio = 0.0
    for _ in range(50):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(-30.0, 30.0))
        accelerated = zeta_hat_eta(z, ACCEL).value
        regularized = zeta_hat_regularized(z, n)
        bound = 5.0 * n ** (-z.real)
        delta = abs(accelerated - regularized)
        assert delta <= bound, z
        worst_ratio = max(worst_ratio, delta / bound)
    elapsed = watch.check()
    report(7, f"50 strip points: |zhat_eta - zhat_n(2^16)| within 5*(2^16)^(-Re z), "
              f"worst at {100 * worst_ratio:.0f}% of bound", elapsed, 30.0)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    watch = Stopwatch(60.0)

    def stable_sections(path):
        payload = json.loads(path.read_text())
        payload.pop("manifest")
        return json.dumps(payload, sort_keys=True)

    commands = [
        ["eval", "--z", "0.5+14.134725i", "--n", "5000"],
        ["zeros", "--tmin", "10", "--tmax", "22"],
        ["doubling", "--zero-index", "1", "--nbase", "2048", "--m", "4"],
        ["errscan", "--z", "0.3+7i", "--nmax", "16384"],
    ]
    for base in commands:
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(base + ["--out", str(first)]) == 0
        assert cli_main(base + ["--out", str(second)]) == 0
        assert stable_sections(first) == stable_sections(second), base
    capsys.readouterr()  # discard CLI chatter
    elapsed = watch.check()
    report(8, "eval/zeros/doubling/errscan: results+config sections byte-identical "
              "across repeated runs", elapsed, 60.0)
