import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import PoleError, complex_power, complex_sin, gamma, log_gamma
from zetalab.special_functions import _lanczos_log_gamma, log_sin

import oracles


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


class TestComplexPower:
    def test_one_to_any_power_is_one(self):
        assert complex_power(1, complex(0.5, 14.0)) == 1.0 + 0.0j

    def test_two_to_minus_one(self):
        assert abs(complex_power(2, 1 + 0j) - 0.5) <= 1e-16

    def test_inverse_sqrt3(self):
        assert abs(complex_power(3, 0.5 + 0j) - oracles.INV_SQRT3) <= 1e-15

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            complex_power(0, 1 + 0j)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            complex_power(2, complex(float("nan"), 0))


class TestLogGamma:
    def test_gamma_one_is_one(self):
        assert abs(log_gamma(1 + 0j)) <= 1e-15

    def test_log_sqrt_pi(self):
        assert abs(log_gamma(0.5 + 0j) - oracles.LOG_GAMMA_HALF) <= 1e-14

    def test_pole_raises(self):
        for z in (0j, -1 + 0j, -2 + 0j, complex(-3, 1e-8)):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_against_oracle_samples(self):
        # samples cover the accuracy contract domain Re z in [0.5, 20],
        # |Im z| <= 50: exp(log_gamma) relative error <= 1e-13, and the
        # branch must agree with the standard continuation (not just mod 2pi)
        for z, expected in oracles.LOG_GAMMA_SAMPLES:
            got = log_gamma(z)
            assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))
            assert abs(cmath.exp(got - expected) - 1) <= 1e-13

    def test_array_pass_against_oracle_samples(self):
        # the same Lanczos sum over a numpy array, in numpy arithmetic
        points = [z for z, _ in oracles.LOG_GAMMA_SAMPLES]
        got = _lanczos_log_gamma(np.array(points), np.log)
        for value, z in zip(got.tolist(), points):
            assert abs(value - log_gamma(z)) <= 1e-13 * max(1.0, abs(log_gamma(z)))


class TestGamma:
    def test_integers(self):
        assert abs(gamma(2 + 0j) - 1) <= 1e-14
        assert abs(gamma(5 + 0j) - 24) <= 24 * 1e-14

    def test_sqrt_pi(self):
        assert rel_err(gamma(0.5 + 0j), oracles.GAMMA_HALF) <= 1e-14

    def test_reflection_value(self):
        assert rel_err(gamma(-0.5 + 0j), oracles.GAMMA_MINUS_HALF) <= 1e-13

    def test_against_oracle_samples(self):
        for z, expected in oracles.GAMMA_SAMPLES:
            assert rel_err(gamma(z), expected) <= 1e-12

    def test_reflection_identity_bulk(self):
        # gamma(z) gamma(1-z) sin(pi z) / pi == 1 within 1e-11 over the strip
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 1000:
            z = complex(rng.uniform(0.001, 0.999), rng.uniform(-30, 30))
            if abs(z) <= 1e-3 or abs(z - 1) <= 1e-3:
                continue
            product = gamma(z) * gamma(1 - z) * complex_sin(math.pi * z) / math.pi
            assert abs(product - 1) <= 1e-11, z
            checked += 1

    def test_recurrence_bulk(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(-30, 30))
            assert rel_err(gamma(z + 1), z * gamma(z)) <= 1e-12, z

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            z = complex(rng.uniform(0.05, 20.0), rng.uniform(-50, 50))
            a = gamma(z.conjugate())
            b = gamma(z).conjugate()
            assert a == b or abs(a - b) <= 1e-15 * abs(b), z


class TestComplexSin:
    def test_zero(self):
        assert complex_sin(0j) == 0

    def test_half_pi(self):
        assert abs(complex_sin(complex(math.pi / 2, 0)) - 1) <= 1e-15

    def test_imaginary_unit(self):
        assert abs(complex_sin(1j) - complex(0, oracles.SINH_1)) <= 1e-15

    def test_overflow(self):
        with pytest.raises(OverflowError):
            complex_sin(complex(1.0, 800.0))

    def test_accuracy_against_expansion(self):
        # sin(x+iy) = sin x cosh y + i cos x sinh y, |Im z| <= 60
        rng = np.random.default_rng(404)
        for _ in range(200):
            z = complex(rng.uniform(-10, 10), rng.uniform(-60, 60))
            direct = complex(
                math.sin(z.real) * math.cosh(z.imag),
                math.cos(z.real) * math.sinh(z.imag),
            )
            assert rel_err(complex_sin(z), direct) <= 1e-14


class TestLogSin:
    def test_matches_direct_log(self):
        for z in (complex(0.3, 2.0), complex(-1.2, -5.0), complex(2.0, 40.0)):
            assert abs(log_sin(z) - cmath.log(cmath.sin(z))) <= 1e-13

    def test_asymptotic_branch_consistent_under_exp(self):
        # beyond the exp range only e^{log_sin} is meaningful; check the
        # asymptotic form against the dominant half of the sine just below
        # the switch point
        via_asymptotic = log_sin(complex(0.7, 710.0))
        via_direct = cmath.log(cmath.sin(complex(0.7, 690.0)))
        # slopes: d log sin / dy -> 1 as y -> inf
        assert abs((via_asymptotic.real - via_direct.real) - 20.0) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=15.0).filter(
        lambda z: z.real > 0.1 and abs(z.imag) <= 12
    )
)
def test_gamma_recurrence_property(z):
    assert rel_err(gamma(z + 1), z * gamma(z)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=0.1, max_value=45.0))
def test_gamma_real_axis_is_real_and_positive(t):
    value = gamma(complex(t, 0.0))
    assert value.real > 0
    assert abs(value.imag) <= 1e-12 * abs(value)
