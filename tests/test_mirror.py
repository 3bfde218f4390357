"""The critical-line mirror: on Re z = 1/2, Im z != 0, zhat(1-z) is taken as
conj(zhat(z)) from one series pass, and must equal the two-pass value bit for
bit (compared by float.hex, so the sign of a zero counts)."""

import pytest

from zetalab import (
    functional_equation_residual,
    h_doubling,
    h_ratio_finite,
    zeta_hat_eta,
)
from zetalab import experiments, functional_equation
from zetalab.series import mirror_is_conjugate, zeta_hat_regularized_schedule

import oracles

RHO1 = complex(0.5, oracles.ZERO_ORDINATES_FIRST10[0])
# a table zero, its conjugate (negative t), an off-zero control, t = 3000
LINE_POINTS = [RHO1, RHO1.conjugate(), complex(0.5, 25.0), complex(0.5, 3000.0)]
# n_base = 3, m = 18: the marks 3, 6, ..., 786432 fall inside chunks up to 6144
# and on chunk ends from 12288 on, across 192 chunks
N_BASE, M = 3, 18
MARKS = [N_BASE << j for j in range(M + 1)]


def hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def two_pass(monkeypatch, fn, *args):
    """fn(*args) with the shortcut off, so every mirror value is summed at 1-z."""
    with monkeypatch.context() as patch:
        for module in (experiments, functional_equation):
            patch.setattr(module, "mirror_is_conjugate", lambda z: False)
        return fn(*args)


class TestGuard:
    @pytest.mark.parametrize("z,expected", [
        (RHO1, True),
        (RHO1.conjugate(), True),
        (complex(0.5, 1e-300), True),
        (complex(0.5, 0.0), False),
        (complex(0.5, -0.0), False),
        (complex(0.75, 5.0), False),
        (complex(0.5000000000000001, 14.1), False),
    ])
    def test_mirror_is_conjugate(self, z, expected):
        assert mirror_is_conjugate(z) is expected


class TestConjugateExact:
    @pytest.mark.parametrize("z", LINE_POINTS[:3])
    def test_regularized_schedule_across_chunk_boundary(self, z):
        direct = zeta_hat_regularized_schedule(z, MARKS)
        mirror = zeta_hat_regularized_schedule(1.0 - z, MARKS)
        assert hexes(mirror) == hexes(v.conjugate() for v in direct)

    @pytest.mark.parametrize("z", LINE_POINTS)
    def test_zeta_hat_eta(self, z):
        direct, mirror = zeta_hat_eta(z), zeta_hat_eta(1.0 - z)
        assert hexes([mirror.value]) == hexes([direct.value.conjugate()])
        assert (mirror.n_used, mirror.est_error) == (direct.n_used, direct.est_error)


class TestShortcutMatchesTwoPass:
    @pytest.mark.parametrize("z", LINE_POINTS[:3])
    def test_h_doubling(self, z, monkeypatch):
        reports = [h_doubling(z, N_BASE, M), two_pass(monkeypatch, h_doubling, z, N_BASE, M)]
        fields = [[*hexes(r.ratios), *hexes(r.zeta_hat_ratios),
                   *hexes([r.fitted_exponent, r.reference_exponent]),
                   *[m.hex() for m in r.moduli]] for r in reports]
        assert fields[0] == fields[1]

    @pytest.mark.parametrize("n", [3, (1 << 19) + 3])
    @pytest.mark.parametrize("z", LINE_POINTS[:3])
    def test_h_ratio_finite(self, z, n, monkeypatch):
        shortcut = h_ratio_finite(z, n)
        assert hexes([shortcut]) == hexes([two_pass(monkeypatch, h_ratio_finite, z, n)])

    @pytest.mark.parametrize("z", LINE_POINTS)
    def test_functional_equation_residual(self, z, monkeypatch):
        reports = [functional_equation_residual(z),
                   two_pass(monkeypatch, functional_equation_residual, z)]
        fields = [[*hexes([r.lhs, r.rhs]), r.residual.hex()] for r in reports]
        assert fields[0] == fields[1]


class TestPassCount:
    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        for module, name in ((experiments, "zeta_hat_regularized_schedule"),
                             (functional_equation, "zeta_hat_regularized"),
                             (functional_equation, "zeta_hat_eta")):
            def counted(*args, _real=getattr(module, name), **kwargs):
                calls.append(args[0])
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("z,expected", [
        (RHO1, 1),
        (complex(0.5, -25.0), 1),
        (complex(0.75, 5.0), 2),
        (complex(0.5, 0.0), 2),
        (complex(0.5, -0.0), 2),
        (complex(0.5000000000000001, 14.1), 2),
    ])
    def test_series_passes_per_call(self, z, expected, passes):
        for evaluate in (lambda: h_doubling(z, 4, 3),
                         lambda: h_ratio_finite(z, 100),
                         lambda: functional_equation_residual(z)):
            passes.clear()
            evaluate()
            assert len(passes) == expected
