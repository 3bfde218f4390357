import math

import numpy as np
import pytest

from zetalab import (
    BudgetError,
    ConfigError,
    DomainError,
    InsufficientDomain,
    error_scaling_scan,
    exponent_gap,
    h_doubling,
    tail_count,
    zeta_hat_eta,
    zeta_hat_regularized,
)
from zetalab.experiments import LOG2_IMAG_PERIOD

import oracles

RHO1 = complex(0.5, oracles.ZERO_ORDINATES_FIRST10[0])


def zeta_hat_ratios(point, n_base, m):
    """zhat_{2n}/zhat_n along the schedule n_base, ..., n_base*2^(m-1)."""
    return h_doubling(point, n_base, m).zeta_hat_ratios


def tail_log2_modulus(point, n_base, m):
    """Mean of |log2 |H_{2n}/H_n|| over the schedule tail: the measured proxy
    for |1 - 2 Re(point)|."""
    tail = h_doubling(point, n_base, m).moduli[m - tail_count(m):]
    return sum(abs(math.log2(r)) for r in tail) / len(tail)


class TestZetaHatDoubling:
    def test_measured_halving_constant_at_first_zero(self):
        # the finite-n sums at a zero are dominated by their leading
        # truncation term, so the doubling ratio settles on 2^(-rho); the
        # report keeps both candidate constants side by side and the
        # measurement picks this one unambiguously
        ratios = zeta_hat_ratios(RHO1, 1024, 6)
        tail_ratio = ratios[-1]
        assert abs(tail_ratio - oracles.TWO_POW_MINUS_RHO1) <= 1e-3
        assert abs(tail_ratio - oracles.TWO_POW_ONE_MINUS_RHO1) >= 0.5

    def test_ratios_tend_to_one_away_from_zeros(self):
        ratios = zeta_hat_ratios(2 + 0j, 1024, 6)
        assert abs(ratios[-1] - 1.0) <= 1e-8

    def test_single_doubling_matches_direct_quotient(self):
        ratios = zeta_hat_ratios(RHO1, 2048, 1)
        direct = zeta_hat_regularized(RHO1, 4096) / zeta_hat_regularized(RHO1, 2048)
        assert len(ratios) == 1
        assert abs(ratios[0] - direct) <= 1e-12

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            zeta_hat_ratios(RHO1, 1 << 20, 5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            zeta_hat_ratios(RHO1, 1024, 0)


@pytest.fixture(scope="module")
def report_rho1():
    return h_doubling(RHO1, 4096, 5)


class TestHDoubling:
    def test_report_shape(self, report_rho1):
        rep = report_rho1
        assert rep.m_doublings == 5
        assert len(rep.ratios) == len(rep.zeta_hat_ratios) == len(rep.moduli) == 5
        assert rep.reference_exponent == 1.0 - 2.0 * RHO1
        for ratio, modulus in zip(rep.ratios, rep.moduli):
            assert modulus == abs(ratio)

    def test_exponent_matches_reference_at_zero(self, report_rho1):
        gap = exponent_gap(report_rho1.fitted_exponent, report_rho1.reference_exponent)
        assert abs(gap.real) <= 0.05
        assert abs(gap.imag) <= 0.05

    def test_moduli_near_one_at_zero(self, report_rho1):
        tail = report_rho1.moduli[-tail_count(5):]
        assert all(0.98 <= m <= 1.02 for m in tail)

    def test_control_point_exponent_decays(self):
        # at a regular point H_n converges to H != 0, so the ratios tend to 1
        # and the fitted exponent to 0; at 0.75+5i the 1-z side decays like
        # n^(-1/4), so the transient is still visible at n_base = 4096
        shallow = h_doubling(complex(0.75, 5.0), 4096, 5)
        deeper = h_doubling(complex(0.75, 5.0), 16384, 5)
        assert abs(shallow.fitted_exponent) <= 0.1
        assert abs(deeper.fitted_exponent) < abs(shallow.fitted_exponent)
        assert abs(shallow.ratios[-1] - 1.0) <= 0.1

    def test_determinism(self, report_rho1):
        assert h_doubling(RHO1, 4096, 5) == report_rho1


class TestModulusLimitCheck:
    def test_first_two_zeros(self):
        assert tail_log2_modulus(RHO1, 4096, 5) <= 0.02
        rho2 = complex(0.5, oracles.ZERO_ORDINATES_FIRST10[1])
        assert tail_log2_modulus(rho2, 4096, 5) <= 0.02

    def test_control_point_stays_bounded_and_small_when_deep(self):
        # the control transient decays like n_base^(-1/4) but with an
        # oscillating phase, so adjacent schedules are not comparable; check
        # a bounded envelope and a small value on a deep schedule
        ladder = [tail_log2_modulus(complex(0.75, 5.0), 1 << j, 5)
                  for j in (10, 14, 18)]
        assert all(value <= 0.15 for value in ladder)
        assert ladder[-1] <= 0.05


class TestExponentGap:
    def test_reduces_modulo_log2_period(self):
        fitted = complex(0.01, -1.0)
        reference = complex(0.0, -1.0 - 3 * LOG2_IMAG_PERIOD)
        gap = exponent_gap(fitted, reference)
        assert gap.real == pytest.approx(0.01)
        assert abs(gap.imag) <= 1e-12

    def test_real_part_unaffected(self):
        gap = exponent_gap(complex(0.3, 0.0), complex(0.0, 0.0))
        assert gap == complex(0.3, 0.0)


class TestErrorScalingScan:
    GRID = [2 ** j for j in range(8, 17)]

    @pytest.mark.parametrize("point", [complex(0.5, 10.0), complex(0.75, 0.0),
                                       complex(0.3, 7.0)])
    def test_slope_matches_minus_re(self, point):
        report = error_scaling_scan(point, self.GRID)
        assert abs(report.fitted_slope - report.reference_slope) <= 0.1
        assert report.reference_slope == -point.real

    def test_errors_decrease_along_grid(self):
        report = error_scaling_scan(complex(0.5, 10.0), self.GRID)
        assert all(b < a for a, b in zip(report.errors, report.errors[1:]))

    def test_domain_flags(self):
        # |Im z| <= 2 pi n / C with C = 2 excludes the small-n points
        point = complex(0.5, 2000.0)
        report = error_scaling_scan(point, self.GRID)
        threshold = 2.0 * 2000.0 / (2.0 * math.pi)
        expected = [n >= threshold for n in self.GRID]
        assert report.domain_ok == expected
        assert abs(report.fitted_slope - report.reference_slope) <= 0.1

    def test_insufficient_domain(self):
        with pytest.raises(InsufficientDomain):
            error_scaling_scan(complex(0.5, 1e6), [2 ** j for j in range(8, 13)])

    def test_input_validation(self):
        with pytest.raises(DomainError):
            error_scaling_scan(complex(1.5, 1.0), self.GRID)
        with pytest.raises(ValueError):
            error_scaling_scan(complex(0.5, 1.0), [100, 100])


    @pytest.mark.parametrize("hl_constant", [1.0, 0.5, math.nan, math.inf])
    def test_hl_constant_must_exceed_one(self, hl_constant):
        with pytest.raises(ConfigError):
            error_scaling_scan(complex(0.5, 10.0), self.GRID, hl_constant=hl_constant)


class TestNonZeroControls:
    def test_fitted_exponent_small_on_screened_sample(self):
        # non-zero control points: mid-strip, away from zero ordinates, with
        # both |zhat(z)| and |zhat(1-z)| bounded away from zero
        rng = np.random.default_rng(2024)
        accepted = []
        while len(accepted) < 6:
            sigma = rng.uniform(0.45, 0.55)
            t = rng.uniform(5.0, 45.0)
            if min(abs(t - z) for z in oracles.ZERO_ORDINATES_FIRST10) < 0.5:
                continue
            z = complex(sigma, t)
            if abs(zeta_hat_eta(z).value) < 0.5:
                continue
            if abs(zeta_hat_eta(1.0 - z).value) < 0.5:
                continue
            accepted.append(z)
        for z in accepted:
            report = h_doubling(z, 1 << 14, 5)
            assert abs(report.fitted_exponent) <= 0.02, z
