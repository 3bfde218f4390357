"""The batched kernel: zeta_hat_eta_batch must equal per-point zeta_hat_eta
calls bit for bit (compared by float.hex) in value, n_used and est_error."""

import math

import pytest

from zetalab import (
    DomainError,
    PrefactorSingularityError,
    zeta_hat_eta,
    zeta_hat_eta_batch,
)
from zetalab import series


def fields(v):
    return (v.value.real.hex(), v.value.imag.hex(), v.n_used, v.est_error.hex())


def assert_matches_scalar(points):
    batch = zeta_hat_eta_batch(points)
    assert [fields(v) for v in batch] == [fields(zeta_hat_eta(z)) for z in points]
    return batch


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
        points = [complex(sigma, 41.7 + 0.05 * i) for i in range(81)]
        batch = assert_matches_scalar(points)
        assert len({v.n_used for v in batch}) >= 3  # several weight groups

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    def test_both_sides_of_a_change_in_n(self, sigma):
        t_lo, t_hi = n_change_pair(sigma, 50.0, 52.0)
        batch = assert_matches_scalar([complex(sigma, t) for t in (t_lo, t_hi, 51.0)])
        assert batch[0].n_used + 1 == batch[1].n_used

    def test_real_axis_and_negative_ordinates(self):
        points = [complex(0.5, 0.0), complex(0.5, -0.0), complex(2.0, 0.0),
                  complex(0.25, -0.0), complex(0.5, -14.134725141734693),
                  complex(0.9, -25.0), complex(0.1, -3000.0), complex(0.5, 25.0)]
        assert_matches_scalar(points)

    def test_large_t(self):
        points = [complex(sigma, t) for sigma in (0.1, 0.5, 0.9) for t in (1000.0, 3000.0)]
        batch = assert_matches_scalar(points)
        assert batch[3].n_used == 2695  # 0.5 + 3000i

    def test_series_spans_two_chunks(self):
        points = [complex(sigma, t) for sigma in (0.1, 0.5, 0.9) for t in (5000.0, -5000.0)]
        batch = assert_matches_scalar(points)
        assert all(series._CHUNK < v.n_used <= 2 * series._CHUNK for v in batch)

    def test_points_span_several_blocks(self, monkeypatch):
        rows = []

        def spy(z, marks, *args, **kwargs):
            rows.append((marks[-1], len(z)))
            return partial_sums(z, marks, *args, **kwargs)

        partial_sums = series._partial_sums
        monkeypatch.setattr(series, "_partial_sums", spy)
        points = [complex(0.5, 3000.0 + 0.01 * i) for i in range(60)]
        n = zeta_hat_eta_batch(points)[0].n_used
        monkeypatch.undo()
        blocks = [size for m, size in rows if m == n]
        assert len(blocks) >= 2
        assert max(blocks) == series._BLOCK_ENTRIES // n
        assert_matches_scalar(points)

    def test_order_of_points_does_not_matter(self):
        points = [complex(0.5, 41.7 + 0.37 * i) for i in range(30)]
        forward = zeta_hat_eta_batch(points)
        backward = zeta_hat_eta_batch(points[::-1])
        assert [fields(v) for v in forward] == [fields(v) for v in backward[::-1]]

    def test_empty_batch(self):
        assert zeta_hat_eta_batch([]) == []


class TestInvalidPoint:
    @pytest.mark.parametrize("bad,error", [
        (complex(0.0, 5.0), DomainError),
        (complex(-0.5, 3.0), DomainError),
        (complex(1.0, 2.0 * math.pi / math.log(2.0)), PrefactorSingularityError),
        (complex(1.0, 0.0), PrefactorSingularityError),
        (complex(math.nan, 1.0), ValueError),
        (complex(0.5, math.inf), ValueError),
    ])
    def test_raises_what_the_scalar_call_raises(self, bad, error):
        with pytest.raises(error) as scalar:
            zeta_hat_eta(bad)
        with pytest.raises(error) as batch:
            zeta_hat_eta_batch([complex(0.5, 20.0), bad, complex(0.5, 30.0)])
        assert type(batch.value) is type(scalar.value)
