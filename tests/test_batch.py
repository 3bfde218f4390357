"""Rows of one term matrix: points summed together at one Borwein length n,
each in its own row, give what each gives summed alone, and at a point's
own length zeta_hat_eta's value.  On the critical line hardy_z_line sums
ordinates so at one Euler-Maclaurin plan, and line_plan gives the plan that
serves every ordinate up to |t|.  A schedule's Euler-Maclaurin bracket takes
its marks as rows the same way.  Values are compared by float.hex."""

import math

import numpy as np
import pytest

from zetalab import DomainError, PrefactorSingularityError, ScanWindow, zeta_hat_eta
from zetalab import series
from zetalab.series import hardy_z_line, line_plan


def hexes(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def together(points, n):
    """zhat at each point from the Borwein series of length n, the points
    summed as the rows of one term matrix.  On the critical line the values
    are checked against hardy_z_line's at the plan of the largest |t|."""
    (xi,) = series._partial_sums(np.array(points, dtype=complex), (n,),
                                 series._borwein_weights(n))
    values = [complex(x / series._eta_prefactor(z)) for x, z in zip(xi, points)]
    if all(z.real == 0.5 for z in points):
        ts = [z.imag for z in points]
        _, moduli = line_rows_stand_alone(ts, line_plan(max(abs(t) for t in ts)))
        # two kernels, each within 2^-52 of zeta, agree to their rounding
        assert all(abs(abs(v) - modulus) <= 1e-14 * max(1.0, abs(z.imag))
                   for v, modulus, z in zip(values, moduli, points))
    return values


def line_rows_stand_alone(ts, plan):
    """hardy_z_line at ts together, checked bit for bit against each ordinate alone."""
    values, moduli = hardy_z_line(ts, plan)
    alone = [hardy_z_line([t], plan) for t in ts]
    assert [(v.hex(), r.hex()) for v, r in zip(values, moduli)] == \
        [(v.hex(), r.hex()) for (v,), (r,) in alone]
    return values, moduli


def assert_matches_scalar(points):
    # the points of each length, summed together at it, give the scalar values
    scalar = [zeta_hat_eta(z) for z in points]
    for n in {v.n_used for v in scalar}:
        group = [(z, v.value) for z, v in zip(points, scalar) if v.n_used == n]
        assert hexes(together([z for z, _ in group], n)) == hexes([v for _, v in group])
    return scalar


def assert_rows_stand_alone(points, n):
    assert hexes(together(points, n)) == hexes([v for z in points for v in together([z], n)])


def n_change_pair(sigma, t_lo, t_hi):
    """Two ordinates within 1e-9 of each other on either side of a change of n."""
    n_at = lambda t: zeta_hat_eta(complex(sigma, t)).n_used
    assert n_at(t_lo) != n_at(t_hi)
    while t_hi - t_lo > 1e-9:
        mid = 0.5 * (t_lo + t_hi)
        if n_at(mid) == n_at(t_lo):
            t_lo = mid
        else:
            t_hi = mid
    return t_lo, t_hi


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    def test_scan_grid(self, sigma):
        ts = ScanWindow(41.7, 61.7, 0.05).grid()
        points = [complex(sigma, t) for t in ts]
        scalar = assert_matches_scalar(points)
        assert len({v.n_used for v in scalar}) >= 3  # several lengths
        assert_rows_stand_alone(points, max(v.n_used for v in scalar))

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    def test_both_sides_of_a_change_in_n(self, sigma):
        t_lo, t_hi = n_change_pair(sigma, 50.0, 52.0)
        scalar = assert_matches_scalar([complex(sigma, t) for t in (t_lo, t_hi, 51.0)])
        assert scalar[0].n_used + 1 == scalar[1].n_used

    def test_real_axis_and_negative_ordinates(self):
        points = [complex(0.5, 0.0), complex(0.5, -0.0), complex(2.0, 0.0),
                  complex(0.25, -0.0), complex(0.5, -14.134725141734693),
                  complex(0.9, -25.0), complex(0.1, -3000.0), complex(0.5, 25.0)]
        assert_matches_scalar(points)

    def test_large_t(self):
        points = [complex(sigma, t) for sigma in (0.1, 0.5, 0.9) for t in (1000.0, 3000.0)]
        scalar = assert_matches_scalar(points)
        assert scalar[3].n_used == 2695  # 0.5 + 3000i

    def test_series_spans_two_chunks(self):
        points = [complex(sigma, t) for sigma in (0.1, 0.5, 0.9) for t in (5000.0, -5000.0)]
        scalar = assert_matches_scalar(points)
        assert all(series._CHUNK < v.n_used <= 2 * series._CHUNK for v in scalar)

    def test_points_span_several_blocks(self, monkeypatch):
        # hardy_z_line cuts the ordinates, in order, into passes of as many
        # rows as fit in one 4096-term chunk
        blocks = []

        def spy(z, *args, **kwargs):
            blocks.append(len(z))
            return partial_sums(z, *args, **kwargs)

        partial_sums = series._partial_sums
        monkeypatch.setattr(series, "_partial_sums", spy)
        ts = ScanWindow(41.7, 61.7, 0.05).grid()
        plan = line_plan(ts[-1])
        hardy_z_line(ts, plan)
        monkeypatch.undo()
        rows = series._CHUNK // plan[0]  # 204 rows of 20 terms
        assert blocks == [len(ts[b:b + rows]) for b in range(0, len(ts), rows)]
        assert len(blocks) == 2
        line_rows_stand_alone(ts, plan)

    def test_lengths_across_the_chunk_boundary(self):
        # series of about 3985 to 4255 terms, on both sides of the 4096-term
        # chunk, with short ones among them
        points = [complex(0.5, t) for t in (4400.0, 20.0, 4500.0, 4550.0, 4650.0, 25.0, 4700.0)]
        scalar = assert_matches_scalar(points)
        assert min(v.n_used for v in scalar) < 64
        assert min(v.n_used for v in scalar[::2]) < series._CHUNK < max(v.n_used for v in scalar)
        # a line plan of two chunks, one row per pass, with short ordinates
        plan = line_plan(22_500.0)
        assert series._CHUNK < plan[0] < 2 * series._CHUNK
        line_rows_stand_alone([22_400.0, 20.0, 22_500.0, -22_450.0], plan)

    def test_order_of_points_does_not_matter(self):
        ts = [41.7 + 0.37 * i for i in range(30)]
        plan = line_plan(ts[-1])
        forward = hardy_z_line(ts, plan)
        backward = hardy_z_line(ts[::-1], plan)
        assert [[v.hex() for v in values] for values in forward] == \
            [[v.hex() for v in values[::-1]] for values in backward]

    def test_empty_batch(self):
        assert hardy_z_line([], line_plan(20.0)) == ([], [])


class TestBracketRows:
    # the schedule's rows: one point at many marks x

    @pytest.mark.parametrize("z", [complex(0.5, 14.134725141734695), complex(0.3, 50.0),
                                   complex(0.1, 3000.0), complex(0.75, -20.0)])
    def test_rows_of_marks_stand_alone(self, z):
        marks = [float(1 << j) for j in range(6, 21)]
        for order in (0, 1, 10, 23, len(series._EM_COEFFS) - 1):
            rows = series._em_bracket(z, np.array(marks), order)
            assert hexes(rows) == hexes([series._em_bracket(z, x, order) for x in marks])


class TestLineLength:
    # line_plan: one Euler-Maclaurin plan (n, m) for every ordinate of a window

    @pytest.mark.parametrize("t_min,t_max", [(0.0, 20.0), (41.7, 61.7), (2990.0, 3010.0)])
    def test_covers_every_grid_point_with_at_most_one_term_more(self, t_min, t_max):
        # the window's n is the largest of its grid points' own, and with
        # its m it meets the Rademacher bound at every grid point
        grid = ScanWindow(t_min, t_max, 0.05).grid()
        lengths = [line_plan(t)[0] for t in grid]
        n, m = line_plan(t_max)
        assert all(own <= n for own in lengths)
        assert n <= max(lengths) + 1
        assert all(series._em_order(complex(0.5, t), n) <= m for t in grid)

    def test_even_and_growing(self):
        ts = [0.0, 0.5, 14.1, 100.0, 1000.0, 10_000.0, 100_000.0]
        plans = [line_plan(t) for t in ts]
        assert plans == [line_plan(-t) for t in ts]
        assert plans == sorted(plans)
        # about a quarter of Borwein's 0.9 |t| + 25 terms, and few Bernoulli terms
        assert plans[4] == (192, 93) and plans[5] == (1839, 121)
        assert max(m for _, m in plans) <= len(series._EM_COEFFS) - 1

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_value_error(self, t):
        with pytest.raises(ValueError, match="finite"):
            line_plan(t)


class TestInvalidPoint:
    @pytest.mark.parametrize("bad,error", [
        (complex(0.0, 5.0), DomainError),
        (complex(-0.5, 3.0), DomainError),
        (complex(1.0, 2.0 * math.pi / math.log(2.0)), PrefactorSingularityError),
        (complex(1.0, 0.0), PrefactorSingularityError),
        (complex(math.nan, 1.0), ValueError),
        (complex(0.5, math.inf), ValueError),
        # the checks come in order: finite, Re z > 0, the prefactor, the budget
        (complex(-0.5, math.inf), ValueError),
        (complex(0.0, 1e20), DomainError),
    ])
    def test_raises_what_the_scalar_call_raises(self, bad, error):
        with pytest.raises(error) as raised:
            zeta_hat_eta(bad)
        assert type(raised.value) is error
