import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import (
    DOUBLING_BUDGET,
    BudgetError,
    DomainError,
    PrefactorSingularityError,
    ScanWindow,
    SingularityError,
    hardy_z,
    identity_residual_plain,
    identity_residual_regularized,
    scan_zeros,
    zeta_hat_eta,
    zeta_hat_regularized,
    zeta_hat_regularized_schedule,
)

from zetalab import cli, series
from zetalab.series import BORWEIN_BUDGET, _partial_sums, partial_sums

import oracles


class TestZetaPartial:
    def test_three_terms_at_two(self):
        assert abs(partial_sums(2 + 0j, 3)[0] - 49.0 / 36.0) <= 1e-15

    def test_single_term_is_one(self):
        for z in (0.5 + 14j, 2 + 0j, complex(0.1, -3.7)):
            assert partial_sums(z, 1)[0] == 1.0 + 0.0j

    def test_against_summation_oracle(self):
        got = partial_sums(oracles.ZETA_PARTIAL_Z1, 1000)[0]
        assert abs(got - oracles.ZETA_PARTIAL_Z1_N1000) <= 1e-12

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            partial_sums(2 + 0j, 0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            partial_sums(complex(-400.0, 0.0), 10_000)

    @pytest.mark.parametrize("sigma", [5e307, 1.7e308])
    def test_overflowing_exponent_gives_zero_terms_without_warning(self, sigma):
        # -z ln k leaves double range, and k^(-z) is 0 for every k > 1
        plain, alternating, regularized = partial_sums(complex(sigma, 0.0), 10_000)
        assert plain == alternating == 1.0
        assert regularized == 1.0


class TestEtaPartial:
    def test_single_term(self):
        assert partial_sums(complex(0.3, 9.0), 1)[1] == 1.0 + 0.0j

    def test_two_terms_at_one(self):
        assert abs(partial_sums(1 + 0j, 2)[1] - 0.5) <= 1e-16

    def test_partial_sum_matches_oracle(self):
        got = partial_sums(0.5 + 0j, 10_000)[1]
        assert abs(got - oracles.ETA_PARTIAL_HALF_N10000) <= 1e-12

    def test_distance_to_limit(self):
        # the plain alternating sum sits ~(1/2) (n+1)^(-1/2) from eta(1/2)
        got = partial_sums(0.5 + 0j, 10_000)[1]
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


EPS = 2.0 ** -52
#: The doubling schedule of 2^20 terms: n_base = 4096, m = 8.
DOUBLING_MARKS = [4096 << j for j in range(9)]


def direct_schedule(z, marks):
    """zhat_n at every mark, each summed term by term."""
    sums = _partial_sums(z, marks)
    return [series._regularized(z, m, s) for m, s in zip(marks, sums)]


def direct_rounding(z, marks):
    """First-order bound on the rounding of a term-by-term sum to each mark:
    eps (3 + |z| ln k) k^(-Re z) per term, as in ``series._rounding_bound``."""
    k = np.arange(1.0, marks[-1] + 1.0)
    bound = np.cumsum(EPS * (3.0 + abs(z) * np.log(k)) * k ** -z.real)
    return [float(bound[m - 1]) for m in marks]


def delta_rounding(z, x):
    """First-order bound on the rounding of delta(x) = x^(-z)
    series._em_bracket(z, x, J): x^(-z) is off by (2 + |z| ln x) eps
    relative, the bracket by eps."""
    return EPS * (3.0 + abs(z) * math.log(x)) * x ** -z.real


def off_zero_controls():
    """The 20 off-zero controls of acceptance criterion 6, drawn as it draws them."""
    zeros = oracles.ZERO_ORDINATES_FIRST10
    rng = np.random.default_rng(20_240_606)
    controls = []
    while len(controls) < 20:
        z = complex(rng.uniform(0.45, 0.55), rng.uniform(5.0, 45.0))
        if min(abs(z.imag - t) for t in zeros) < 0.5:
            continue
        if abs(zeta_hat_eta(z).value) < 0.5 or abs(zeta_hat_eta(1.0 - z).value) < 0.5:
            continue
        controls.append(z)
    return controls


class TestEulerMaclaurinSchedule:
    # a schedule is summed term by term to its base mark, the first with an
    # Euler-Maclaurin order; each later mark b is then off the term-by-term
    # sum by at most 2^-51, the remainder bounds at the base mark and at b,
    # plus the rounding of the two term-by-term sums

    @staticmethod
    def base(z, marks):
        return next(m for m in marks if series._em_order(z, m) is not None)

    @pytest.mark.parametrize("z", [complex(0.5, t) for t in oracles.ZERO_ORDINATES_FIRST10]
                             + [complex(0.75, 20.0), 1.0 - complex(0.75, 20.0),
                                complex(0.1, 3000.0)])
    def test_against_direct(self, z):
        self.assert_near_direct(z)

    def test_against_direct_at_controls(self):
        for z in off_zero_controls():
            self.assert_near_direct(z)

    def test_against_direct_past_ten_orders(self):
        # at 0.5 + 3000i the base is 1024, where the least J is 23
        z, marks = complex(0.5, 3000.0), [1 << j for j in range(8, 17)]
        assert series._em_order(z, 1024) == 23
        self.assert_near_direct(z, marks, 1024)

    def assert_near_direct(self, z, marks=DOUBLING_MARKS, base=4096):
        assert self.base(z, marks) == base
        direct = direct_schedule(z, marks)
        rounding = direct_rounding(z, marks)
        schedule = zeta_hat_regularized_schedule(z, marks)
        at = marks.index(base)
        assert schedule[:at + 1] == direct[:at + 1]
        for value, want, bound in zip(schedule, direct, rounding):
            assert abs(value - want) <= 2.0 ** -51 + rounding[at] + bound, (z, value, want)

    def test_steps_against_oracle(self):
        # the Hurwitz oracle has no rounding: the step from the base mark
        # carries only the remainder bounds and the rounding of the deltas
        samples = oracles.ZHAT_SCHEDULE_SAMPLES
        for (z, a, exact_a), (_, b, exact_b) in zip(samples[::2], samples[1::2]):
            assert self.base(z, [a, b]) == a
            value_a, value_b = zeta_hat_regularized_schedule(z, [a, b])
            bound = (2.0 ** -51 + delta_rounding(z, a) + delta_rounding(z, b)
                     + 2.0 * EPS * (abs(value_a) + abs(value_b)))
            assert abs((value_b - exact_b) - (value_a - exact_a)) <= bound, z

    def test_marks_below_base_are_direct(self):
        z, marks = complex(0.5, 3000.0), [64, 128, 256]
        assert all(series._em_order(z, m) is None for m in marks)
        assert zeta_hat_regularized_schedule(z, marks) == direct_schedule(z, marks)

    @pytest.mark.parametrize("sigma", [5e307, 1.7e308])
    def test_overflowing_exponent_steps_without_warning(self, sigma):
        # -z ln x leaves double range past the base mark, where x^(-z) is 0
        z = complex(sigma, 0.0)
        assert self.base(z, [1, 2, 4096]) == 2
        assert zeta_hat_regularized_schedule(z, [1, 2, 4096]) == [1.0, 1.0, 1.0]

    def test_base_grows_with_t(self):
        marks = [1 << j for j in range(25)]
        bases = [self.base(complex(0.5, t), marks) for t in (0.0, 10.0, 100.0, 1000.0, 10000.0)]
        # non-decreasing, and strictly rising from t = 10 on
        assert bases[0] <= bases[1] < bases[2] < bases[3] < bases[4], bases


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

    @pytest.mark.parametrize("sigma", [3e15, 3e16, 1e20])
    @pytest.mark.parametrize("t", [0.0, 100.0])
    def test_large_real_part(self, sigma, t):
        # zeta(z) = 1 to double precision there; ln Gamma(Re z) - Re ln Gamma(z)
        # is taken from Stirling's series, as the two log-gammas would cancel
        sv = zeta_hat_eta(complex(sigma, t))
        assert abs(sv.value - 1.0) <= sv.est_error

    @pytest.mark.parametrize("t", [0.0, 1.0, 100.0, 1e4])
    def test_log_scale_continuous_at_stirling_switch(self, t):
        at = complex(series._STIRLING_SIGMA, t)
        below = complex(math.nextafter(at.real, 0.0), t)
        assert abs(series._log_scale(at, 1.0) - series._log_scale(below, 1.0)) <= 1e-8


class TestZetaHatEtaLongSums:
    # the Borwein series picks its own length, so eval's --n for the plain
    # sums, even 2^19 + 5, which ends 5 terms into a chunk, must leave its
    # value unchanged
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
        # 2^19 is a whole number of chunks, so n = 2^19 + 5 ends in a 5-term
        # chunk, whose weights are sliced at an offset; a single nonzero
        # weight on either side of the boundary must pick out its own signed
        # term
        z = complex(0.5, 3.0)
        n = (1 << 19) + 5
        for k in (1 << 19, (1 << 19) + 3):
            weights = np.zeros(n)
            weights[k - 1] = (-1) ** (k - 1)
            (value,) = _partial_sums([z], (n,), weights)
            expected = (-1) ** (k - 1) * k ** -z
            assert abs(complex(value[0]) - expected) <= 1e-12 * abs(expected), k


class TestAccumulator:
    @staticmethod
    def sums(z, marks, alternating):
        taken = _partial_sums(z, marks, alternating=alternating)
        return taken[1] if alternating else taken

    @pytest.mark.parametrize("alternating", [False, True])
    def test_sum_at_a_mark_does_not_depend_on_other_marks(self, alternating):
        # the first and last term of the second chunk, one past it, and n
        z = complex(0.3, 20.0)
        chunk = series._CHUNK
        marks = (chunk + 1, 2 * chunk, 2 * chunk + 1, 3 * chunk + 5)
        schedule = self.sums(z, marks, alternating)
        for m, inside in zip(marks, schedule):
            (alone,) = self.sums(z, (m,), alternating)
            assert alone == inside, m
        # and the last term of the first chunk, within a batch
        (batch,) = self.sums(np.array([z, 0.5 + 3.0j]), (chunk,), alternating)
        inside = self.sums(z, (chunk, marks[-1]), alternating)[0]
        assert batch[0] == inside

    @pytest.mark.parametrize("z", [complex(0.3, 20.0), complex(2.0, 0.0), complex(0.5, -0.0)])
    def test_two_streams_from_one_pass(self, z):
        # the plain and the alternating sums of one term pass, at marks inside
        # and at the end of a chunk, each equal its one-mark pass, sign of
        # zero included
        chunk = series._CHUNK
        marks = (7, chunk - 1, chunk, 2 * chunk + 3)
        plain, alt = _partial_sums(z, marks, alternating=True)
        for both, alternating in ((plain, False), (alt, True)):
            alone = [self.sums(z, (m,), alternating)[0] for m in marks]
            assert [(v.real.hex(), v.imag.hex()) for v in map(complex, both)] == \
                [(v.real.hex(), v.imag.hex()) for v in map(complex, alone)]

    def test_rows_of_different_lengths_across_chunks(self):
        # one term matrix of rows per length, off the line too, the series
        # ending before, at and after the first chunk's end: each row's sum
        # is the sum it has alone
        z = np.array([0.5 + 300.0j, 0.3 + 20.0j, 0.9 - 4600.0j, 0.5 + 4601.0j])
        for n in (100, 4095, 4096, 4200):
            weights = series._borwein_weights(n)
            (rows,) = _partial_sums(z, (n,), weights)
            for zi, row in zip(z, rows):
                (alone,) = _partial_sums([zi], (n,), weights)
                assert (row.real, row.imag) == (alone[0].real, alone[0].imag)

    @pytest.mark.parametrize("z", [complex(0.05, 3.0), complex(0.5, 14.134725141734693),
                                   complex(0.9, -1000.0)])
    def test_sum_of_2_20_terms_is_exact(self, z):
        # each chunk is summed pairwise and the 256 chunk totals in turn, all
        # in extended precision, so the error stays far below 2^-60 sum |t_k|;
        # a running sum of the 2^20 terms was 0.8 * 2^-58 sum |t_k| off at
        # 0.05+3i, one ulp once rounded to double
        n = 1 << 20
        (value,) = _partial_sums(z, (n,))
        terms = np.exp(-z * np.log(np.arange(1.0, n + 1.0)))
        bound = 2.0 ** -60 * float(np.abs(terms).sum())
        for got, part in ((value.real, terms.real), (value.imag, terms.imag)):
            rounded = math.fsum(part)  # the exact sum, correctly rounded
            exact = np.longdouble(rounded) + np.longdouble(math.fsum(np.append(part, -rounded)))
            assert abs(float(got - exact)) <= bound
            # no exact sum here lies that close to a midpoint of doubles
            assert float(got) == rounded

    def test_narrower_longdouble_is_refused(self):
        # where longdouble is double, the sums would lose their extended precision
        with pytest.raises(ImportError, match="float64 with 53 bits"):
            series._require_extended_precision(np.finfo(np.float64))
        series._require_extended_precision(np.finfo(np.longdouble))


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


def line_points():
    """Every frozen zeta(1/2 + i t) of the oracles, as (t, zeta)."""
    points = [(0.0, complex(oracles.ZETA_HALF))]
    points += [(z.imag, zeta) for z, zeta in oracles.ZETA_SAMPLES + oracles.ZETA_LARGE_T_SAMPLES
               + oracles.ZETA_LINE_SAMPLES if z.real == 0.5]
    return points + [(z.imag, zeta) for z, zeta, _ in oracles.ZETA_DERIV_SAMPLES if z.real == 0.5]


def line_rounding_bound(t, plan, value):
    """First-order rounding bound of the Euler-Maclaurin value at 1/2 + i t.

    A term exp(-z ln k) is off by (2 + |z| ln k) eps relative, and its
    extended-precision sum adds less than eps more; n^(1-z)/(1-z), n^(-z)/2
    and the Bernoulli terms, each a product of at most 4m + 8 rounded
    factors with one exp(-z ln n), by (4m + 8 + |z| ln n) eps relative; the
    final sum by 4 eps |zeta|.
    """
    n, m = plan
    z = complex(0.5, t)
    k = np.arange(1.0, n + 1.0)
    terms = float(np.add.reduce(k ** -0.5 * (3.0 + abs(z) * np.log(k))))
    ratio, bernoulli = z / n, 0.0
    for j in range(m):
        bernoulli += abs(series._EM_COEFFS[j] * ratio)
        ratio *= (z + 2 * j + 1) * (z + 2 * j + 2) / (n * n)
    tail = (n / abs(1.0 - z) + 0.5 + bernoulli) / math.sqrt(n)
    return series._EPS * (terms + tail * (4 * m + 8 + abs(z) * math.log(n)) + 4.0 * abs(value))


class TestEulerMaclaurinLine:
    # the zero scan's kernel: zeta(1/2 + i t) from line_plan's (n, m), within
    # 2^-52 (Rademacher's bound) plus its rounding

    @pytest.mark.parametrize("t,zeta", line_points())
    def test_within_bound_at_every_line_oracle(self, t, zeta):
        plan = series.line_plan(t)
        value = complex(series._line_zeta(np.array([t]), *plan)[0])
        assert abs(value - zeta) <= series._EPS + line_rounding_bound(t, plan, value)

    @pytest.mark.parametrize("t,hardy", oracles.HARDY_Z_SAMPLES)
    def test_modulus_within_bound_at_every_hardy_oracle(self, t, hardy):
        # |Z(t)| = |zeta(1/2 + i t)|
        plan = series.line_plan(t)
        (_,), (modulus,) = series.hardy_z_line([t], plan)
        bound = series._EPS + line_rounding_bound(t, plan, modulus)
        assert abs(modulus - abs(hardy)) <= bound

    def test_past_the_borwein_budget(self):
        # 0.5 + 50000i would need 44 577 Borwein terms, and takes 9160 here
        (t, zeta), = [(t, zeta) for t, zeta in line_points() if t == 50_000.0]
        assert series.line_plan(t) == (9160, 127)
        value = complex(series._line_zeta(np.array([t]), 9160, 127)[0])
        assert abs(value - zeta) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 3.0, 14.134725141734695, 100.0, 3000.7, 50_000.0])
    def test_equals_the_scalar_euler_maclaurin_step(self, t):
        # the line's value against the schedule's form zhat_n - n^(-z) times the
        # bracket at one scalar z, on the extended-precision zhat_n: the same
        # sum in another order, off by rounding, most of it in the phase
        # (1 - z) ln n of the tail
        n, m = series.line_plan(t)
        z = complex(0.5, t)
        plain, _, regularized = partial_sums(z, n)
        value = complex(series._line_zeta(np.array([t]), n, m)[0])
        tail = (n / abs(1.0 - z) + 1.0) / math.sqrt(n)
        bound = series._EPS * (8.0 * (abs(plain) + 1.0) + abs(z) * math.log(n) * tail)
        delta = complex(series._em_bracket(z, n, m)) * cmath.exp(-z * math.log(n))
        assert abs(value - (regularized - delta)) <= bound

    @pytest.mark.parametrize("j,coeff", oracles.BERNOULLI_COEFF_SAMPLES)
    def test_bernoulli_table_against_oracle(self, j, coeff):
        assert abs(series._EM_COEFFS[j - 1] - coeff) <= 4.0 * math.ulp(coeff)

    def test_budget(self):
        # n is refused past LINE_BUDGET; 1.7e308 / 2 pi * 1.15 is still finite
        n, _ = series.line_plan(178_000.0)
        assert n <= series.LINE_BUDGET
        for t in (179_100.0, 1e6, 1.7e308):
            with pytest.raises(BudgetError, match="above the budget"):
                series.line_plan(t)


class TestBorweinBudget:
    # weights cost n^2 time and memory, so a length past the budget is refused
    # before any weight is built; here building weights raises Built instead,
    # so no over-budget series is ever attempted

    class Built(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_weights(self, monkeypatch):
        def refuse(n):
            raise self.Built(n)
        monkeypatch.setattr(series, "_borwein_weights", refuse)

    @staticmethod
    def length(t):
        # the length zeta_hat_eta takes at 1/2 + it, before its budget check
        z = complex(0.5, t)
        log_scale = series._log_scale(z, series._eta_prefactor(z))
        return math.ceil(log_scale / series._LN_BORWEIN_RATE)

    def test_boundary(self):
        t_lo, t_hi = 1e4, 1e5
        while t_hi - t_lo > 1e-6:
            mid = 0.5 * (t_lo + t_hi)
            if self.length(mid) <= BORWEIN_BUDGET:
                t_lo = mid
            else:
                t_hi = mid
        assert (self.length(t_lo), self.length(t_hi)) == (BORWEIN_BUDGET, BORWEIN_BUDGET + 1)
        with pytest.raises(self.Built) as built:
            zeta_hat_eta(complex(0.5, t_lo))
        assert built.value.args == (BORWEIN_BUDGET,)
        with pytest.raises(BudgetError, match=str(BORWEIN_BUDGET + 1)):
            zeta_hat_eta(complex(0.5, t_hi))

    def test_refused_before_any_weight_is_built(self):
        # 1e20 and -1e20 need about 8.9e19 terms, past the range of int64, and
        # at 1.7e308 the lengths overflow to inf (pi t already does from
        # about 5.7e307): each is a BudgetError, not an OverflowError; a
        # scan window cannot lie at -1e20, nor be 0.5-stepped at 1.7e308
        for t in (1e6, 1e20, -1e20, 1.7e308):
            with pytest.raises(BudgetError, match="above the budget"):
                zeta_hat_eta(complex(0.5, t))
            with pytest.raises(BudgetError, match="above the budget"):
                hardy_z(t)
            if 0.0 < t < 1e300:
                with pytest.raises(BudgetError, match="above the budget"):
                    scan_zeros(ScanWindow(t, t + max(1.0, math.ulp(t)), 0.5))


class TestTermGate:
    # every direct sum passes series._require_terms before any term is made;
    # here making terms raises Summed instead, so no over-budget sum runs

    class Summed(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_terms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Summed
        monkeypatch.setattr(series, "_partial_sums", refuse)

    @staticmethod
    def direct_sums(z, extra):
        """The direct sums of DOUBLING_BUDGET + extra terms: the plain sums, a
        schedule's last mark, and the identity residuals' 2n (extra <= 1)."""
        n, half = DOUBLING_BUDGET + extra, DOUBLING_BUDGET // 2 + extra
        return [lambda: partial_sums(z, n),
                lambda: zeta_hat_regularized_schedule(z, [1, n]),
                lambda: identity_residual_plain(z, half),
                lambda: identity_residual_regularized(z, half)]

    def test_budget(self):
        z = complex(0.5, 14.0)
        for direct_sum in self.direct_sums(z, 0):
            with pytest.raises(self.Summed):
                direct_sum()
        for direct_sum in self.direct_sums(z, 1):
            with pytest.raises(BudgetError, match="exceeds the term budget"):
                direct_sum()

    def test_phase_without_a_digit(self):
        # from |Im z| ln n = 2^52 on the phase is rounded by about a radian
        with pytest.raises(OverflowError, match="carries no digit"):
            partial_sums(complex(0.5, 1e20), 100)
        t = 2.0 ** 52 / math.log(100)
        while t * math.log(100) >= 2.0 ** 52:
            t = math.nextafter(t, 0.0)
        with pytest.raises(self.Summed):
            partial_sums(complex(0.5, t), 100)
        with pytest.raises(OverflowError, match="carries no digit"):
            partial_sums(complex(0.5, math.nextafter(t, math.inf)), 100)


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
            assert abs(sv.value - partial_sums(z, 1_000_000)[0]) <= 1e-4


class TestDeterminismAndSymmetry:
    def test_bit_identical_repeats(self):
        z = complex(0.37, 18.25)
        assert partial_sums(z, 5000) == partial_sums(z, 5000)
        first = zeta_hat_eta(z)
        second = zeta_hat_eta(z)
        assert first == second

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.0, 50.0))
            n = int(rng.integers(1, 3000))
            for fn in (lambda w: partial_sums(w, n)[0],
                       lambda w: partial_sums(w, n)[1],
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
