import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import (
    DomainError,
    PrefactorSingularityError,
    SingularityError,
    eta_partial,
    identity_residual_plain,
    identity_residual_regularized,
    zeta_hat_eta,
    zeta_hat_regularized,
    zeta_hat_regularized_schedule,
    zeta_partial,
)

from zetalab import cli
from zetalab.series import _partial_sums

import oracles


class TestZetaPartial:
    def test_three_terms_at_two(self):
        assert abs(zeta_partial(2 + 0j, 3) - 49.0 / 36.0) <= 1e-15

    def test_single_term_is_one(self):
        for z in (0.5 + 14j, 2 + 0j, complex(0.1, -3.7)):
            assert zeta_partial(z, 1) == 1.0 + 0.0j

    def test_against_summation_oracle(self):
        got = zeta_partial(oracles.ZETA_PARTIAL_Z1, 1000)
        assert abs(got - oracles.ZETA_PARTIAL_Z1_N1000) <= 1e-12

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            zeta_partial(2 + 0j, 0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            zeta_partial(complex(-400.0, 0.0), 10_000)


class TestEtaPartial:
    def test_single_term(self):
        assert eta_partial(complex(0.3, 9.0), 1) == 1.0 + 0.0j

    def test_two_terms_at_one(self):
        assert abs(eta_partial(1 + 0j, 2) - 0.5) <= 1e-16

    def test_partial_sum_matches_oracle(self):
        got = eta_partial(0.5 + 0j, 10_000)
        assert abs(got - oracles.ETA_PARTIAL_HALF_N10000) <= 1e-12

    def test_distance_to_limit(self):
        # the plain alternating sum sits ~(1/2) (n+1)^(-1/2) from eta(1/2)
        got = eta_partial(0.5 + 0j, 10_000)
        assert abs(got - oracles.ETA_HALF) <= 5e-3
        assert abs(abs(got - oracles.ETA_HALF) - oracles.ETA_PARTIAL_HALF_DELTA) <= 1e-10


class TestZetaHatRegularized:
    def test_basel_value(self):
        assert abs(zeta_hat_regularized(2 + 0j, 10_000) - oracles.ZETA_TWO) <= 1e-4

    def test_singularity_at_one(self):
        with pytest.raises(SingularityError):
            zeta_hat_regularized(1 + 0j, 100)
        with pytest.raises(SingularityError):
            zeta_hat_regularized(complex(1 + 1e-9, 0), 100)

    def test_critical_point_value(self):
        got = zeta_hat_regularized(0.5 + 0j, 10_000)
        assert abs(got - oracles.ZETA_HAT_REG_HALF_N10000) <= 1e-12
        assert abs(got - oracles.ZETA_HALF) <= 5e-3

    def test_schedule_matches_single_calls(self):
        z = complex(0.3, 21.5)
        marks = [100, 200, 400, 1600]
        schedule = zeta_hat_regularized_schedule(z, marks)
        for n, value in zip(marks, schedule):
            assert abs(value - zeta_hat_regularized(z, n)) <= 1e-13

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            zeta_hat_regularized_schedule(0.5 + 3j, [10, 10])


class TestZetaHatEta:
    def test_prefactor_singularities(self):
        with pytest.raises(PrefactorSingularityError):
            zeta_hat_eta(1 + 0j)
        spurious = complex(1.0, 2.0 * math.pi / math.log(2.0))
        with pytest.raises(PrefactorSingularityError):
            zeta_hat_eta(spurious)

    def test_domain_error_left_of_strip(self):
        for z in (0j, complex(-0.2, 5.0)):
            with pytest.raises(DomainError):
                zeta_hat_eta(z)

    def test_vanishes_at_first_zero(self):
        sv = zeta_hat_eta(complex(0.5, oracles.ZERO_ORDINATES_FIRST10[0]))
        assert abs(sv.value) <= 1e-8

    def test_against_zeta_oracle_grid(self):
        for z, expected in oracles.ZETA_SAMPLES:
            sv = zeta_hat_eta(z)
            assert abs(sv.value - expected) <= 1e-10, z


class TestZetaHatEtaLongSums:
    # the Borwein series picks its own length, so eval's --n for the plain
    # sums, even one past the 2^19 chunk size, must leave its value unchanged
    @pytest.mark.parametrize("n", [10_000, (1 << 19) + 5])
    def test_against_zeta_oracle(self, n, capsys):
        for z, zeta, _ in oracles.ZETA_DERIV_SAMPLES:
            sv = zeta_hat_eta(z)
            assert cli.main(["eval", "--z", cli.format_complex_flag(z), "--n", str(n)]) == 0
            reported = json.loads(capsys.readouterr().out)["results"]["zeta_hat_eta"]
            value = complex(reported["value"]["re"], reported["value"]["im"])
            assert (value, reported["n_used"]) == (sv.value, sv.n_used), (z, n)
            # zeta vanishes at the first sample, so its error is scaled by
            # max(1, |zeta|)
            assert abs(sv.value - zeta) <= 1e-10 * max(1.0, abs(zeta)), (z, n)

    def test_weights_aligned_across_chunk_boundary(self):
        # n = 2^19 + 5 ends in a 5-term chunk, whose weights are sliced at an
        # offset; a single nonzero weight on either side of the boundary must
        # pick out its own signed term
        z = complex(0.5, 3.0)
        n = (1 << 19) + 5
        for k in (1 << 19, (1 << 19) + 3):
            weights = np.zeros(n)
            weights[k - 1] = 1.0
            (value,) = _partial_sums(z, n, marks=(n,), alternating=True, weights=weights)
            expected = (-1) ** (k - 1) * k ** -z
            assert abs(complex(value) - expected) <= 1e-12 * abs(expected), k


class TestBorweinKernel:
    LARGE_T = oracles.ZETA_LARGE_T_SAMPLES

    @pytest.mark.parametrize("z,zeta", LARGE_T,
                             ids=[f"{z.real:g}+{z.imag:g}i" for z, _ in LARGE_T])
    def test_large_t_oracle(self, z, zeta):
        sv = zeta_hat_eta(z)
        error = abs(sv.value - zeta)
        assert error <= 1e-10 * abs(zeta)
        assert error <= sv.est_error
        assert sv.n_used <= math.ceil(0.9 * abs(z.imag)) + 30
        assert zeta_hat_eta(z) == sv

    def test_est_error_bounds_every_oracle(self):
        points = [*oracles.ZETA_SAMPLES,
                  *((z, zeta) for z, zeta, _ in oracles.ZETA_DERIV_SAMPLES),
                  (0.5 + 0j, oracles.ZETA_HALF),
                  (2 + 0j, oracles.ZETA_TWO),
                  (3 + 0j, oracles.ZETA_THREE)]
        for z, zeta in points:
            sv = zeta_hat_eta(z)
            assert abs(sv.value - zeta) <= sv.est_error, z
        # |Z(t)| = |zeta(1/2 + it)|
        for t, hardy in oracles.HARDY_Z_SAMPLES:
            sv = zeta_hat_eta(complex(0.5, t))
            assert abs(abs(sv.value) - abs(hardy)) <= sv.est_error, t


class TestIdentities:
    # xi_2n = zeta_2n - 2^(1-z) zeta_n and its regularized twin are exact
    # algebra; residuals measure rounding noise only.

    @pytest.mark.parametrize("z,n,bound", [
        (complex(0.3, 7.0), 100, 1e-12),
        (complex(2.0, 0.0), 1, 1e-15),
        (complex(0.5, 30.0), 10_000, 1e-10),
    ])
    def test_plain_examples(self, z, n, bound):
        assert identity_residual_plain(z, n) <= bound

    @pytest.mark.parametrize("z,n,bound", [
        (complex(0.5, 14.0), 100, 1e-12),
        (complex(0.75, 0.0), 10, 1e-14),
        (complex(0.1, 2.0), 1000, 1e-11),
    ])
    def test_regularized_examples(self, z, n, bound):
        assert identity_residual_regularized(z, n) <= bound

    def test_regularized_guards_z_equal_one(self):
        with pytest.raises(SingularityError):
            identity_residual_regularized(1 + 0j, 50)

    def test_random_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(-50, 50))
            n = int(rng.integers(1, 10_001))
            assert identity_residual_plain(z, n) <= 1e-10, (z, n)
            if abs(z - 1) > 1e-6:
                assert identity_residual_regularized(z, n) <= 1e-10, (z, n)


class TestRepresentationConsistency:
    def test_eta_and_regularized_agree(self):
        # |zhat_eta - zhat_n| <= est_error + K n^(-Re z) with a modest K
        rng = np.random.default_rng(11)
        for _ in range(40):
            z = complex(rng.uniform(0.1, 0.9), rng.uniform(-30, 30))
            n = int(rng.integers(200, 5000))
            eta_value = zeta_hat_eta(z)
            reg_value = zeta_hat_regularized(z, n)
            bound = eta_value.est_error + 2.0 * n ** (-z.real)
            assert abs(eta_value.value - reg_value) <= bound, (z, n)

    def test_agrees_with_plain_zeta_right_of_strip(self):
        for z in (2 + 0j, 3 + 0j, 2 + 5j):
            sv = zeta_hat_eta(z)
            assert abs(sv.value - zeta_partial(z, 1_000_000)) <= 1e-4


class TestDeterminismAndSymmetry:
    def test_bit_identical_repeats(self):
        z = complex(0.37, 18.25)
        assert zeta_partial(z, 5000) == zeta_partial(z, 5000)
        assert eta_partial(z, 5000) == eta_partial(z, 5000)
        first = zeta_hat_eta(z)
        second = zeta_hat_eta(z)
        assert first == second

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.0, 50.0))
            n = int(rng.integers(1, 3000))
            for fn in (lambda w: zeta_partial(w, n),
                       lambda w: eta_partial(w, n),
                       lambda w: zeta_hat_eta(w).value):
                a = fn(z.conjugate())
                b = fn(z).conjugate()
                assert a == b or abs(a - b) <= 1e-15 * max(1.0, abs(b)), (z, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-40.0, max_value=40.0),
    st.integers(min_value=1, max_value=2000),
)
def test_plain_identity_property(sigma, t, n):
    assert identity_residual_plain(complex(sigma, t), n) <= 1e-10
