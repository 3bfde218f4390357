import math

import numpy as np
import pytest

from zetalab import (
    BracketError,
    ConfigError,
    NoConvergence,
    NonMonotonicError,
    ParseError,
    ScanWindow,
    WindowTooCoarse,
    crosscheck_zeros,
    functional_equation_residual,
    hardy_z,
    load_zero_table,
    reference_table_path,
    refine_zero,
    scan_zeros,
    zeta_hat_eta,
)
from zetalab import zeros
from zetalab import series
from zetalab.series import _borwein_weights, _partial_sums, line_plan
from zetalab.zeros import ZeroRecord

import oracles


class TestScanWindow:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScanWindow(-1.0, 10.0, 0.05)
        with pytest.raises(ConfigError):
            ScanWindow(10.0, 10.0, 0.05)
        with pytest.raises(ConfigError):
            ScanWindow(10.0, 10.2, 0.3)  # step >= width

    @pytest.mark.parametrize("t_min,t_max,step", [
        (math.inf, 10.0, 0.05), (0.0, math.inf, 0.05), (0.0, math.nan, 0.05),
        (0.0, 10.0, math.inf), (0.0, 10.0, math.nan),
    ])
    def test_non_finite_rejected(self, t_min, t_max, step):
        with pytest.raises(ConfigError, match="finite"):
            ScanWindow(t_min, t_max, step)

    @pytest.mark.parametrize("t_max,step", [(1e300, 0.5), (20.0, 1e-300), (1e10, 1e-300)])
    def test_grid_over_budget_rejected_before_it_is_built(self, monkeypatch, t_max, step):
        def no_grid(self):
            raise AssertionError("grid built")
        monkeypatch.setattr(ScanWindow, "grid", no_grid)
        with pytest.raises(ConfigError, match="grid budget"):
            scan_zeros(ScanWindow(10.0, t_max, step))

    def test_grid_at_budget(self):
        window = ScanWindow(0.0, zeros.GRID_BUDGET * 0.5, 0.5)
        assert len(window.grid()) == zeros.GRID_BUDGET + 1
        with pytest.raises(ConfigError):
            ScanWindow(0.0, zeros.GRID_BUDGET * 0.5 + 0.5, 0.5)

    def test_too_coarse(self):
        with pytest.raises(WindowTooCoarse):
            scan_zeros(ScanWindow(10.0, 35.0, 0.6))


@pytest.fixture(scope="module")
def five_records():
    return scan_zeros(ScanWindow(10.0, 35.0, 0.05))


class TestScan:
    def test_finds_the_first_five(self, five_records):
        assert len(five_records) == 5
        for record, expected in zip(five_records, oracles.ZERO_ORDINATES_FIRST10):
            assert abs(record.ordinate - expected) <= 1e-6
            assert record.refined
            assert record.residual_mag <= zeros.DEFAULT_TOLERANCE

    def test_indices_and_ordering(self, five_records):
        assert [r.index for r in five_records] == [1, 2, 3, 4, 5]
        ordinates = [r.ordinate for r in five_records]
        assert ordinates == sorted(ordinates)

    def test_refined_zeros_recheck_with_doubled_depth(self, five_records):
        # the Borwein sum at twice the selected length squares its truncation
        # bound
        for record in five_records:
            rho = complex(0.5, record.ordinate)
            n = 2 * zeta_hat_eta(rho).n_used
            (xi,) = _partial_sums([rho], (n,), _borwein_weights(n))
            assert abs(complex(xi[0]) / (1.0 - 2.0 ** (1.0 - rho))) <= 1e-8

    def test_reflected_point_also_vanishes(self, five_records):
        # 1 - rho is a zero whenever rho is
        for record in five_records:
            mirrored = complex(0.5, -record.ordinate)
            assert abs(zeta_hat_eta(mirrored).value) <= 1e-8

    def test_functional_equation_residual_at_zeros(self, five_records):
        for record in five_records:
            rho = complex(0.5, record.ordinate)
            assert functional_equation_residual(rho).residual <= 1e-8

    def test_empty_below_first_zero(self):
        assert scan_zeros(ScanWindow(0.0, 10.0, 0.05)) == []

    def test_window_without_minimum_is_empty(self):
        assert scan_zeros(ScanWindow(19.0, 19.5, 0.05)) == []

    def test_ordinates_match_table_to_rounding(self, five_records):
        table = load_zero_table(reference_table_path())
        for record, expected in zip(five_records, table):
            assert abs(record.ordinate - expected) <= 1e-12

    @pytest.mark.parametrize("window", [ScanWindow(14.12, 20.0, 0.05),
                                        ScanWindow(10.0, 14.14, 0.05)],
                             ids=["first-step", "last-step"])
    def test_zero_in_first_or_last_grid_step(self, window):
        records = scan_zeros(window)
        assert len(records) == 1
        assert abs(records[0].ordinate - oracles.ZERO_ORDINATES_FIRST10[0]) <= 1e-12

    def test_refinement_reuses_the_grids_weights(self, monkeypatch):
        # the grid and every refinement step evaluate at the window's one
        # plan, and none of them builds Borwein weights
        _borwein_weights.cache_clear()
        plans = []
        evaluate = zeros._evaluate

        def counted(ts, plan):
            plans.append(plan)
            return evaluate(ts, plan)
        monkeypatch.setattr(zeros, "_evaluate", counted)
        assert len(scan_zeros(ScanWindow(77.1, 97.1, 0.05))) == 9
        assert len(plans) > 1 and set(plans) == {line_plan(97.1)}
        assert _borwein_weights.cache_info().misses == 0

    def test_a_cold_scan_at_t_3000_builds_one_weight_vector(self):
        # cold, a window takes one plan and builds no weight vector
        _borwein_weights.cache_clear()
        line_plan.cache_clear()
        series._line_factors.cache_clear()
        assert len(scan_zeros(ScanWindow(2990.0, 3010.0, 0.05))) == 19
        assert _borwein_weights.cache_info().misses == 0
        assert line_plan.cache_info().misses == 1
        assert series._line_factors.cache_info().misses == 1

    def test_a_window_past_the_borwein_budget(self):
        # Borwein's series would need 17 861 terms at t = 20020; the plan has 3673
        records = scan_zeros(ScanWindow(20000.0, 20020.0, 0.05))
        assert len(records) == oracles.ZERO_COUNT_20000_20020
        assert max(r.residual_mag for r in records) <= zeros.DEFAULT_TOLERANCE

    def test_refinement_steps_every_bracket_together(self, monkeypatch):
        # one grid call, then one call per Illinois step of the slowest
        # bracket, each covering every bracket still running
        window = ScanWindow(41.7, 61.7, 0.05)
        grid = window.grid()
        plan = line_plan(window.t_max)
        values, _ = zeros._evaluate(grid, plan)
        brackets = [(grid[i], grid[i + 1], values[i], values[i + 1])
                    for i in range(len(grid) - 1) if values[i] * values[i + 1] < 0.0]
        calls = []
        evaluate = zeros._evaluate

        def counted(ts, plan):
            calls.append(len(ts))
            return evaluate(ts, plan)
        monkeypatch.setattr(zeros, "_evaluate", counted)
        steps = []
        for bracket in brackets:
            calls.clear()
            zeros._refine([bracket], plan)
            steps.append(len(calls))
        calls.clear()
        records = scan_zeros(window)
        assert len(records) == len(brackets) == 7
        assert calls[0] == len(grid) and calls[1] == len(brackets)
        assert calls[1:] == sorted(calls[1:], reverse=True)
        assert len(calls) == 1 + max(steps) <= 10

    @pytest.mark.parametrize("t_min,t_max", [(41.7, 61.7), (4990.0, 4992.0),
                                             (22_500.0, 22_502.0)])
    def test_scan_equals_refining_each_bracket(self, t_min, t_max):
        # lockstep refinement keeps each bracket's own iterates: every zero is
        # bit for bit what _refine gives on its bracket alone at the scan's
        # plan, also where the sum (4127 terms near t = 22 500) spans two
        # chunks
        window = ScanWindow(t_min, t_max, 0.05)
        grid = window.grid()
        plan = line_plan(window.t_max)
        values, _ = zeros._evaluate(grid, plan)
        alone = [zeros._refine([(grid[i], grid[i + 1], values[i], values[i + 1])], plan)[0]
                 for i in range(len(grid) - 1) if values[i] * values[i + 1] < 0.0]
        records = scan_zeros(window)
        assert len(records) == len(alone) >= 2
        assert [(r.ordinate.hex(), r.residual_mag.hex()) for r in records] == \
            [(t.hex(), residual.hex()) for t, residual in alone]

    def test_scan_is_deterministic(self, five_records):
        again = scan_zeros(ScanWindow(10.0, 35.0, 0.05))
        assert again == five_records


class TestRefine:
    def test_from_bracket(self):
        record = refine_zero(14.1, 14.2)
        assert abs(record.ordinate - oracles.ZERO_ORDINATES_FIRST10[0]) <= 1e-8
        assert record.refined
        assert record.residual_mag <= zeros.DEFAULT_TOLERANCE
        # agrees with the rotated-sign bisection oracle too
        assert abs(record.ordinate - oracles.ZERO1_BISECTION) <= 1e-8

    def test_tight_bracket_around_zero(self):
        t = oracles.ZERO_ORDINATES_FIRST10[1]
        record = refine_zero(t - 1e-9, t + 1e-9)
        assert abs(record.ordinate - t) <= 1e-10

    @pytest.mark.parametrize("t_lo,t_hi", [(13.0, 14.0), (14.2, 14.1), (14.1, 14.1)])
    def test_bracket_without_sign_change_raises(self, t_lo, t_hi):
        # Z < 0 on [13, 14]; the other two brackets are empty
        with pytest.raises(BracketError) as info:
            refine_zero(t_lo, t_hi)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerance_must_be_positive(self, tolerance):
        # refused before any evaluation: a nan or infinite tolerance would
        # accept any zero
        with pytest.raises(ConfigError):
            refine_zero(14.1, 14.2, tolerance=tolerance)
        with pytest.raises(ConfigError):
            scan_zeros(ScanWindow(10.0, 35.0, 0.05), tolerance=tolerance)

    def test_weak_config_raises_and_names_the_bracket(self):
        # |zhat| at a refined zero is rounding noise far above 1e-30, so the
        # first sign change cannot pass the residual check; it is not dropped
        with pytest.raises(NoConvergence, match=r"bracket \[72\.05"):
            scan_zeros(ScanWindow(70.0, 90.0, 0.05), tolerance=1e-30)


class TestHardyZ:
    @pytest.mark.parametrize("t,expected", oracles.HARDY_Z_SAMPLES)
    def test_against_siegelz_oracle(self, t, expected):
        assert abs(hardy_z(t) - expected) <= 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("t,expected", oracles.THETA_SAMPLES)
    def test_theta_against_siegeltheta_oracle(self, t, expected):
        # 1e-12, plus half an ulp of theta: at t = 10000.3 the double nearest
        # theta is itself 1.1e-12 away from it
        assert abs(series._theta(np.array([t]))[0] - expected) <= 1e-12 + 0.5 * math.ulp(expected)

    def test_grid_and_one_point_calls_agree_bit_for_bit(self):
        # the scan grid is one call and refinement calls one ordinate at a
        # time, at the window's plan; both must evaluate the same function
        grid = ScanWindow(41.7, 61.7, 0.05).grid()
        plan = line_plan(grid[-1])
        values, residuals = zeros._evaluate(grid, plan)
        for i in range(0, len(grid), 23):
            (z,), (residual,) = zeros._evaluate([grid[i]], plan)
            assert (z.hex(), residual.hex()) == (values[i].hex(), residuals[i].hex())
            # hardy_z takes its own, shorter plan: the same Z to rounding
            assert abs(hardy_z(grid[i]) - values[i]) <= 1e-14


class TestScanLogic:
    # the grid and bracket bookkeeping, on a synthetic real function in place
    # of Hardy's Z; its modulus stands in for |zhat|

    @staticmethod
    def synthetic(monkeypatch, f, calls=None):
        # the array form: one call per grid, a one-point list per refinement step
        def evaluate(ts, plan):
            if calls is not None:
                calls.append(list(ts))
            values = [f(t) for t in ts]
            return values, [abs(v) for v in values]
        monkeypatch.setattr(zeros, "_evaluate", evaluate)

    @pytest.mark.parametrize("t_min,t_max,count", [
        (10.0, 14.14, 84), (10.0, 30.0, 401), (12.3, 32.3, 401), (10.0, 10.07, 3),
    ])
    def test_grid_ends_at_t_max(self, monkeypatch, t_min, t_max, count):
        calls = []
        self.synthetic(monkeypatch, lambda t: 1.0, calls)
        step = 0.05
        assert scan_zeros(ScanWindow(t_min, t_max, step)) == []
        (seen,) = calls  # the whole grid in one batch
        assert seen[0] == t_min and seen[-1] == t_max
        assert len(seen) == count
        assert all(0.0 < b - a <= step * (1 + 1e-9) for a, b in zip(seen, seen[1:]))

    def test_refinement_is_not_one_sided_on_a_convex_function(self, monkeypatch):
        # plain regula falsi keeps the end at t = 10 for good and creeps in
        # from the left, exhausting the iteration bound
        calls = []
        self.synthetic(monkeypatch, math.expm1, calls)
        record = refine_zero(-1.0, 10.0)
        assert abs(record.ordinate) <= 1e-12
        assert calls[0] == [-1.0, 10.0]  # both ends in one call
        assert all(len(ts) == 1 for ts in calls[1:])  # then one ordinate per step
        assert len(calls) <= 30

    def test_exact_grid_zero_and_sign_change(self, monkeypatch):
        # 12.5 = 10 + 50 * 0.05 exactly, so Z is 0.0 at that grid point
        self.synthetic(monkeypatch, lambda t: (t - 12.5) * (t - 13.33))
        records = scan_zeros(ScanWindow(10.0, 15.0, 0.05))
        assert [r.index for r in records] == [1, 2]
        assert records[0].ordinate == 12.5 and not records[0].refined
        assert records[1].ordinate == pytest.approx(13.33, abs=1e-12)
        assert records[1].refined


class TestZeroTable:
    def test_parses_plain_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("14.134725141734695\n21.022039638771555\n")
        assert load_zero_table(path) == [14.134725141734695, 21.022039638771555]

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# header\n\n14.134725\n   \n# mid comment\n21.022040\n")
        assert load_zero_table(path) == [14.134725, 21.022040]

    def test_descending_values_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("21.0\n14.1\n")
        with pytest.raises(NonMonotonicError) as info:
            load_zero_table(path)
        assert info.value.line == 2

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("14.1\nnot-a-number\n")
        with pytest.raises(ParseError) as info:
            load_zero_table(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("line", ["14.134_725", "14_134725"])
    def test_underscores_rejected(self, tmp_path, line):
        # float() accepts underscores between digits; a table line must be a
        # plain decimal, even where the ordinates still increase
        path = tmp_path / "table.txt"
        path.write_text(f"10.0\n{line}\n")
        with pytest.raises(ParseError) as info:
            load_zero_table(path)
        assert info.value.line == 2

    def test_packaged_reference_table(self):
        table = load_zero_table(reference_table_path())
        assert len(table) == 29
        for got, expected in zip(table, oracles.ZERO_ORDINATES_FIRST10):
            assert abs(got - expected) <= 1e-12


class TestCrosscheck:
    @staticmethod
    def records(ordinates):
        return [
            ZeroRecord(index=i, ordinate=t, residual_mag=0.0, refined=True)
            for i, t in enumerate(ordinates, start=1)
        ]

    def test_identical_lists_match_fully(self):
        reference = oracles.ZERO_ORDINATES_FIRST10[:5]
        report = crosscheck_zeros(self.records(reference), reference, tol=1e-6)
        assert len(report.matched) == 5
        assert report.max_delta == 0.0
        assert not report.unmatched_found
        assert not report.unmatched_reference

    def test_small_shift_still_matches(self):
        reference = oracles.ZERO_ORDINATES_FIRST10[:5]
        shifted = [t + 1e-7 for t in reference]
        report = crosscheck_zeros(self.records(shifted), reference, tol=1e-6)
        assert len(report.matched) == 5
        assert report.max_delta == pytest.approx(1e-7, rel=1e-3)

    def test_missed_zero_reported_as_unmatched_reference(self):
        reference = oracles.ZERO_ORDINATES_FIRST10[:5]
        found = self.records(reference[:2] + reference[3:])  # drop the third
        report = crosscheck_zeros(found, reference, tol=1e-6,
                                  window=(10.0, 35.0))
        assert len(report.matched) == 4
        assert report.unmatched_reference == [reference[2]]
        assert not report.unmatched_found

    def test_spurious_zero_reported_as_unmatched_found(self):
        reference = oracles.ZERO_ORDINATES_FIRST10[:3]
        found = self.records(reference + [40.0])
        report = crosscheck_zeros(found, reference, tol=1e-6, window=(10.0, 45.0))
        assert [r.ordinate for r in report.unmatched_found] == [40.0]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a nan tol would match nothing and an infinite one pair any two zeros
        reference = oracles.ZERO_ORDINATES_FIRST10[:3]
        with pytest.raises(ConfigError, match="tol must be finite and > 0"):
            crosscheck_zeros(self.records(reference), reference, tol=tol)
