import math

import numpy as np
import pytest

from zetalab import (
    DivisionByNearZero,
    DomainError,
    EvalConfig,
    PoleError,
    SingularityError,
    functional_equation_residual,
    h_factor,
    h_ratio_finite,
)

import oracles

ACCEL = EvalConfig()


class TestHFactor:
    def test_symmetry_point_is_one(self):
        assert abs(h_factor(0.5 + 0j) - 1.0) <= 1e-12

    def test_pole_at_positive_integers(self):
        for z in (1 + 0j, 2 + 0j, 3 + 0j, complex(1, 1e-9)):
            with pytest.raises(PoleError):
                h_factor(z)

    def test_trivial_zero_factor(self):
        # sin(pi z / 2) vanishes at z = 0, -2, ...; the factor is exactly 0
        # at the origin and rounding-level small at the other even integers
        # (pi z / 2 is not representable there)
        assert h_factor(0j) == 0
        assert abs(h_factor(-2 + 0j)) <= 1e-15

    def test_against_oracle_samples(self):
        for z, expected in oracles.H_SAMPLES:
            assert abs(h_factor(z) - expected) <= 1e-12 * max(1.0, abs(expected)), z

    def test_reciprocity(self):
        # applying the relation at z and 1-z forces H(z) H(1-z) = 1
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 500:
            z = complex(rng.uniform(0.01, 0.99), rng.uniform(-40, 40))
            if abs(z.imag) < 1e-3 and (abs(z.real - round(z.real)) < 1e-3):
                continue
            assert abs(h_factor(z) * h_factor(1 - z) - 1.0) <= 1e-10, z
            checked += 1

    def test_critical_line_modulus(self):
        for i in range(100):
            t = 0.1 + (50.0 - 0.1) * i / 99.0
            assert abs(abs(h_factor(complex(0.5, t))) - 1.0) <= 1e-10, t


class TestHRatioFinite:
    def test_critical_line_modulus_is_one(self):
        # 1-z is conj(z) on the line, so numerator and denominator are
        # conjugates and the ratio has modulus 1 up to division rounding
        for t in (5.0, 14.0, 33.3):
            ratio = h_ratio_finite(complex(0.5, t), 2000)
            assert abs(abs(ratio) - 1.0) <= 1e-13

    def test_symmetry_point_ratio_is_exactly_one(self):
        assert abs(h_ratio_finite(0.5 + 0j, 1000) - 1.0) <= 1e-12

    def test_approaches_h_factor(self):
        # the approach is slow off the line: the 1-z side decays like
        # n^(-1/4) at z = 0.75+5i, so the distance at n = 1e4 is ~0.078
        # (independently computed), and at n = 65536 it contracts to ~0.045
        z = complex(0.75, 5.0)
        ratio_small = h_ratio_finite(z, 10_000)
        assert abs(ratio_small - oracles.H_RATIO_075_5I_N10000) <= 1e-10
        delta_small = abs(ratio_small - h_factor(z))
        assert abs(delta_small - oracles.H_RATIO_075_5I_DELTA_N10000) <= 1e-8
        delta_large = abs(h_ratio_finite(z, 65_536) - h_factor(z))
        assert abs(delta_large - oracles.H_RATIO_075_5I_DELTA_N65536) <= 1e-8
        assert delta_large < delta_small

    def test_singularity_guards(self):
        with pytest.raises(SingularityError):
            h_ratio_finite(1 + 0j, 100)
        with pytest.raises(SingularityError):
            h_ratio_finite(complex(1e-9, 0), 100)

    def test_near_zero_denominator_is_not_an_error_at_zeros(self):
        # both zhat_n(rho) and zhat_n(1-rho) are small but far above the
        # underflow threshold, so ratios at zeros stay meaningful
        rho = complex(0.5, oracles.ZERO_ORDINATES_FIRST10[0])
        ratio = h_ratio_finite(rho, 4096)
        assert math.isfinite(ratio.real) and math.isfinite(ratio.imag)


class TestResidual:
    def test_first_zero(self):
        rho = complex(0.5, oracles.ZERO_ORDINATES_FIRST10[0])
        report = functional_equation_residual(rho, ACCEL)
        assert report.residual <= 1e-8
        assert abs(report.lhs) <= 1e-8 and abs(report.rhs) <= 1e-8

    def test_generic_point(self):
        report = functional_equation_residual(complex(0.3, 8.0), ACCEL)
        assert report.residual <= 1e-8

    def test_symmetry_point(self):
        report = functional_equation_residual(0.5 + 0j, ACCEL)
        assert report.residual <= 1e-10

    def test_residual_recomputable(self):
        report = functional_equation_residual(complex(0.4, 3.0), ACCEL)
        assert report.residual == abs(report.lhs - report.rhs)

    def test_domain_validation(self):
        for z in (0j, 1 + 0j, complex(1.2, 3.0), complex(-0.1, 1.0)):
            with pytest.raises(DomainError):
                functional_equation_residual(z, ACCEL)
