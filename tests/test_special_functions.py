import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import PoleError, log_gamma
from zetalab.special_functions import log_sin

import oracles


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def exp_log_gamma(z: complex) -> complex:
    # Gamma itself, through which log_gamma's reflection branch and Lanczos
    # accuracy are checked against their oracles
    return cmath.exp(log_gamma(z))


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


class TestGamma:
    def test_integers(self):
        assert abs(exp_log_gamma(2 + 0j) - 1) <= 1e-14
        assert abs(exp_log_gamma(5 + 0j) - 24) <= 24 * 1e-14

    def test_sqrt_pi(self):
        assert rel_err(exp_log_gamma(0.5 + 0j), oracles.GAMMA_HALF) <= 1e-14

    def test_reflection_value(self):
        assert rel_err(exp_log_gamma(-0.5 + 0j), oracles.GAMMA_MINUS_HALF) <= 1e-13

    def test_against_oracle_samples(self):
        for z, expected in oracles.GAMMA_SAMPLES:
            assert rel_err(exp_log_gamma(z), expected) <= 1e-12

    def test_reflection_identity_bulk(self):
        # gamma(z) gamma(1-z) sin(pi z) / pi == 1 within 1e-11 over the strip
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 1000:
            z = complex(rng.uniform(0.001, 0.999), rng.uniform(-30, 30))
            if abs(z) <= 1e-3 or abs(z - 1) <= 1e-3:
                continue
            product = exp_log_gamma(z) * exp_log_gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
            assert abs(product - 1) <= 1e-11, z
            checked += 1

    def test_recurrence_bulk(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(-30, 30))
            assert rel_err(exp_log_gamma(z + 1), z * exp_log_gamma(z)) <= 1e-12, z

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            z = complex(rng.uniform(0.05, 20.0), rng.uniform(-50, 50))
            a = exp_log_gamma(z.conjugate())
            b = exp_log_gamma(z).conjugate()
            assert a == b or abs(a - b) <= 1e-15 * abs(b), z


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
    assert rel_err(exp_log_gamma(z + 1), z * exp_log_gamma(z)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=0.1, max_value=45.0))
def test_gamma_real_axis_is_real_and_positive(t):
    value = exp_log_gamma(complex(t, 0.0))
    assert value.real > 0
    assert abs(value.imag) <= 1e-12 * abs(value)
