import json
import subprocess
import sys

import pytest

from zetalab import DOUBLING_BUDGET, series, zeta_hat_eta
from zetalab.cli import main, parse_complex, format_complex_flag

import oracles


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexParsing:
    @pytest.mark.parametrize("text,expected", [
        ("2+0i", 2 + 0j),
        ("0.5+14.134725i", complex(0.5, 14.134725)),
        ("0.75-5i", complex(0.75, -5.0)),
        ("-0.25+3e-2i", complex(-0.25, 0.03)),
        ("2", 2 + 0j),
    ])
    def test_valid(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["abc", "1+2j", "1 + 2i", "i", "2+nanI", ""])
    def test_invalid(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)

    def test_roundtrip_format(self):
        z = complex(0.5, -14.134725)
        assert parse_complex(format_complex_flag(z)) == z


class TestEval:
    def test_basel_point(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "2+0i", "--n", "1000"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["manifest"]["command"] == "eval"
        assert report["config"]["n_terms"] == 1000
        value = report["results"]["zeta_hat_eta"]["value"]
        assert abs(complex(value["re"], value["im"]) - 1.644934) <= 1e-4

    def test_singular_point_reports_error_name(self, capsys):
        code, out, err = run_cli(["eval", "--z", "1+0i"], capsys)
        assert code == 1
        assert "PrefactorSingularityError" in out + err

    def test_malformed_z_is_usage_error(self, capsys):
        code, _, _ = run_cli(["eval", "--z", "abc"], capsys)
        assert code == 2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "2+0i", "--format", "text"], capsys)
        assert code == 0
        lines = {line.split(":")[0].strip(): line for line in out.splitlines()[1:]}
        # each value shows its own truncation index
        assert lines["zeta_partial"].endswith("(n = 10000)")
        n_used = zeta_hat_eta(2 + 0j).n_used
        assert n_used < 100
        assert f"(n = {n_used}, est_error " in lines["zeta_hat_eta"]


class TestResidualCommand:
    def test_small_grid_passes(self, capsys, tmp_path):
        out_path = tmp_path / "residual.csv"
        code, out, _ = run_cli([
            "residual", "--rcount", "3", "--icount", "3", "--imax", "10",
            "--out", str(out_path),
        ], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "re,im,residual,lhs_re,lhs_im,rhs_re,rhs_im,status"
        assert len(lines) == 2 + 9
        assert all(line.endswith(",ok") for line in lines[2:])

    def test_default_grid_passes(self, capsys, tmp_path):
        out_path = tmp_path / "residual.csv"
        code, out, _ = run_cli(["residual", "--out", str(out_path)], capsys)
        assert code == 0
        assert "PASS" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2 + 9 * 13

    def test_guard_zone_rows_marked_skipped(self, capsys, tmp_path):
        # a grid point hugging the spurious prefactor singularity at
        # 1 + 2*pi*i/ln 2 is skipped rather than evaluated
        out_path = tmp_path / "residual.csv"
        code, _, _ = run_cli([
            "residual", "--rmin", "0.5", "--rmax", "0.9999995", "--rcount", "2",
            "--imin", "9.064720284", "--imax", "9.064720284", "--icount", "1",
            "--out", str(out_path),
        ], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        statuses = [line.rsplit(",", 1)[1] for line in lines[2:]]
        assert statuses == ["ok", "skipped"]

    def test_all_points_skipped_fails(self, capsys, tmp_path):
        # a guard radius of 10 covers the pole of Gamma(1-z) at z = 1 for the
        # whole grid: nothing is checked, so the run must not report PASS
        out_path = tmp_path / "residual.csv"
        code, out, _ = run_cli([
            "residual", "--rcount", "2", "--icount", "2", "--imax", "5",
            "--guard-radius", "10", "--out", str(out_path),
        ], capsys)
        assert code == 1
        assert "no point evaluated" in out and "PASS" not in out
        lines = out_path.read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[2:]] == ["skipped"] * 4

    def test_unattainable_tolerance_fails(self, capsys, tmp_path):
        out_path = tmp_path / "residual.csv"
        code, _, _ = run_cli([
            "residual", "--rcount", "2", "--icount", "2", "--imax", "5",
            "--tol", "1e-20", "--out", str(out_path),
        ], capsys)
        assert code == 1
        assert out_path.exists()  # report is still written on failure

    def test_grid_bounds_validated(self, capsys, tmp_path):
        code, _, _ = run_cli([
            "residual", "--rmin", "-0.2", "--out", str(tmp_path / "r.csv"),
        ], capsys)
        assert code == 2


class TestZerosCommand:
    def test_window_with_five_zeros(self, capsys, tmp_path):
        out_path = tmp_path / "zeros.json"
        code, _, _ = run_cli([
            "zeros", "--tmin", "10", "--tmax", "35", "--out", str(out_path),
        ], capsys)
        assert code == 0
        report = json.loads(out_path.read_text())
        zeros = report["results"]["zeros"]
        assert len(zeros) == 5
        for record, expected in zip(zeros, oracles.ZERO_ORDINATES_FIRST10):
            assert abs(record["ordinate"] - expected) <= 1e-6

    def test_empty_window(self, capsys):
        code, out, _ = run_cli(["zeros", "--tmin", "0", "--tmax", "10"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["zeros"] == []

    def test_crosscheck_against_packaged_table(self, capsys, tmp_path):
        from zetalab import reference_table_path

        out_path = tmp_path / "zeros.json"
        code, _, _ = run_cli([
            "zeros", "--tmin", "10", "--tmax", "35",
            "--reference", str(reference_table_path()), "--out", str(out_path),
        ], capsys)
        assert code == 0
        crosscheck = json.loads(out_path.read_text())["results"]["crosscheck"]
        assert len(crosscheck["matched"]) == 5
        assert crosscheck["unmatched_found"] == []
        assert crosscheck["unmatched_reference"] == []
        assert crosscheck["max_delta"] <= 1e-6

    def test_crosscheck_mismatch_exits_one(self, capsys, tmp_path):
        # a reference ordinate with no counterpart in the scan window is an
        # assertion failure (exit 1), reported under unmatched_reference
        fake = tmp_path / "fake.txt"
        fake.write_text("14.1347251417346938\n18.0\n21.0220396387715550\n")
        out_path = tmp_path / "zeros.json"
        code, _, _ = run_cli([
            "zeros", "--tmin", "10", "--tmax", "22",
            "--reference", str(fake), "--out", str(out_path),
        ], capsys)
        assert code == 1
        crosscheck = json.loads(out_path.read_text())["results"]["crosscheck"]
        assert crosscheck["unmatched_reference"] == [18.0]

    def test_bad_reference_table_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("21.0\n14.1\n")
        code, _, err = run_cli([
            "zeros", "--tmin", "10", "--tmax", "12", "--reference", str(bad),
        ], capsys)
        assert code == 2
        assert "NonMonotonicError" in err

    @pytest.mark.parametrize("window", [
        ["--tmax", "inf"], ["--tmin", "nan"], ["--step", "inf"],
        ["--tmax", "1e300", "--step", "0.5"], ["--step", "1e-300"],
    ], ids=["tmax-inf", "tmin-nan", "step-inf", "tmax-1e300", "step-1e-300"])
    def test_unusable_window_is_usage_error(self, capsys, window):
        code, _, err = run_cli(["zeros", *window], capsys)
        assert code == 2
        assert "ConfigError" in err


class TestDoublingCommand:
    def test_first_zero_by_index(self, capsys, tmp_path):
        out_path = tmp_path / "doubling.json"
        code, _, err = run_cli([
            "doubling", "--zero-index", "1", "--nbase", "4096", "--m", "5",
            "--out", str(out_path),
        ], capsys)
        assert code == 0
        results = json.loads(out_path.read_text())["results"]
        assert all(0.98 <= m <= 1.02 for m in results["moduli"])
        gap = results["exponent_gap_mod_log2_period"]
        assert abs(gap["re"]) <= 0.05 and abs(gap["im"]) <= 0.05
        # measurement vs candidate constants is in the report and the summary
        assert "candidate_halving_constants" in results
        assert "candidate 2^-z" in err

    def test_control_point(self, capsys):
        code, out, _ = run_cli([
            "doubling", "--z", "0.75+5i", "--nbase", "4096", "--m", "5",
        ], capsys)
        assert code == 0
        fitted = json.loads(out)["results"]["fitted_exponent"]
        assert abs(complex(fitted["re"], fitted["im"])) <= 0.1

    def test_m_zero_is_usage_error(self, capsys):
        code, _, _ = run_cli(["doubling", "--z", "2+0i", "--m", "0"], capsys)
        assert code == 2

    def test_unknown_zero_index_is_usage_error(self, capsys):
        code, _, _ = run_cli(["doubling", "--zero-index", "4000"], capsys)
        assert code == 2

    def test_exceeding_budget_is_usage_error(self, capsys):
        code, _, _ = run_cli([
            "doubling", "--z", "0.5+14.1i", "--nbase", str(1 << 22), "--m", "8",
        ], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", [
        ["--n", "5000"],
        ["--accelerate"],
        ["--accel-order", "30"],
        ["--hl-constant", "3"],
        ["--guard-radius", "1e-3"],
        ["--tolerance", "1e-8"],
    ])
    def test_evaluation_config_flags_are_usage_errors(self, capsys, flag):
        # the experiment sums plain regularized sums to nbase*2^m and reads no
        # config field, so these flags would be echoed in the report without
        # taking effect
        code, _, err = run_cli(["doubling", "--zero-index", "1", *flag], capsys)
        assert code == 2
        assert flag[0] in err


class TestErrscanCommand:
    def test_critical_line_slope(self, capsys, tmp_path):
        out_path = tmp_path / "errscan.json"
        csv_path = tmp_path / "errscan.csv"
        code, _, _ = run_cli([
            "errscan", "--z", "0.5+10i", "--out", str(out_path),
            "--csv", str(csv_path),
        ], capsys)
        assert code == 0
        results = json.loads(out_path.read_text())["results"]
        assert abs(results["fitted_slope"] - (-0.5)) <= 0.1
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "n,error,domain_ok"

    def test_real_axis_slope(self, capsys):
        code, out, _ = run_cli(["errscan", "--z", "0.75+0i"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["fitted_slope"] - (-0.75)) <= 0.1

    def test_insufficient_domain(self, capsys):
        code, _, err = run_cli([
            "errscan", "--z", "0.5+1000000i", "--nmax", "4096",
        ], capsys)
        assert code == 1
        assert "InsufficientDomain" in err
        assert "2*pi*n/C" in err


class TestUnreadConfigFlags:
    CASES = [
        (["eval", "--z", "0.5+14i"], ["--hl-constant", "7"]),
        (["eval", "--z", "0.5+14i"], ["--tolerance", "3"]),
        (["residual"], ["--hl-constant", "3"]),
        (["residual"], ["--tolerance", "1e-8"]),
        (["zeros"], ["--hl-constant", "3"]),
        (["zeros"], ["--no-accelerate"]),
        (["errscan", "--z", "0.5+10i"], ["--accelerate"]),
        (["errscan", "--z", "0.5+10i"], ["--tolerance", "1e-8"]),
        (["eval", "--z", "0.5+14i"], ["--accel-order", "30"]),
        (["residual"], ["--accel-order", "30"]),
        (["zeros"], ["--accel-order", "30"]),
        (["errscan", "--z", "0.5+10i"], ["--accel-order", "30"]),
        (["zeros"], ["--n", "5000"]),
        (["errscan", "--z", "0.5+10i"], ["--n", "5000"]),
        (["eval", "--z", "0.5+14i"], ["--no-accelerate"]),
        (["residual"], ["--no-accelerate"]),
        (["residual"], ["--n", "5000"]),
    ]

    @pytest.mark.parametrize("args,flag", CASES,
                             ids=[args[0] + flag[0] for args, flag in CASES])
    def test_usage_error(self, capsys, tmp_path, args, flag):
        # no command reads these config fields, so the flags would be echoed
        # in the report's config block without taking effect
        code, _, err = run_cli([*args, *flag, "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert flag[0] in err


class TestReportConfig:
    # each report's config block holds exactly the config fields the command
    # reads
    CASES = [
        (["eval", "--z", "0.5+14i"], ["n_terms", "guard_radius"]),
        (["zeros", "--tmin", "14", "--tmax", "15"], ["guard_radius", "tolerance"]),
        (["doubling", "--zero-index", "1", "--nbase", "64", "--m", "2"], []),
        (["errscan", "--z", "0.5+10i", "--nmax", "4096"], ["hl_constant", "guard_radius"]),
    ]

    @pytest.mark.parametrize("args,fields", CASES, ids=[args[0] for args, _ in CASES])
    def test_json_config_keys(self, capsys, tmp_path, args, fields):
        out_path = tmp_path / "report.json"
        assert run_cli([*args, "--out", str(out_path)], capsys)[0] == 0
        assert list(json.loads(out_path.read_text())["config"]) == fields

    def test_csv_config_comments(self, capsys, tmp_path):
        residual, errscan = tmp_path / "residual.csv", tmp_path / "errscan.csv"
        assert run_cli(["residual", "--rcount", "2", "--icount", "2", "--imax", "5",
                        "--out", str(residual)], capsys)[0] == 0
        assert run_cli(["errscan", "--z", "0.5+10i", "--nmax", "4096",
                        "--csv", str(errscan), "--out", str(tmp_path / "e.json")],
                       capsys)[0] == 0
        for path, fields in ((residual, ["guard_radius"]),
                             (errscan, ["hl_constant", "guard_radius"])):
            comment = path.read_text().splitlines()[0]
            assert list(json.loads(comment.removeprefix("# config: "))) == fields

    def test_eval_series_value_keys(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "0.5+14i"], capsys)
        assert code == 0
        assert list(json.loads(out)["results"]["zeta_hat_eta"]) == ["value", "n_used", "est_error"]


class TestInvalidValues:
    # a value out of range is refused before any series is summed
    CASES = [
        *[(args, ["--guard-radius", bad])
          for args in (["eval", "--z", "0.5+14i"], ["residual"], ["zeros"],
                       ["errscan", "--z", "0.5+10i"])
          for bad in ("0", "-1", "nan")],
        *[(["zeros"], ["--tolerance", bad]) for bad in ("0", "-1", "nan")],
        *[(["errscan", "--z", "0.5+10i"], ["--hl-constant", bad]) for bad in ("1", "0.5", "nan")],
    ]

    @pytest.mark.parametrize("args,flag", CASES,
                             ids=[args[0] + "".join(flag) for args, flag in CASES])
    def test_usage_error_before_summing(self, capsys, monkeypatch, tmp_path, args, flag):
        def refuse(*args, **kwargs):
            pytest.fail("a series was summed before the value was checked")
        monkeypatch.setattr(series, "_partial_sums", refuse)
        monkeypatch.chdir(tmp_path)  # residual writes to its default output path
        code, _, err = run_cli([*args, *flag], capsys)
        assert code == 2
        assert flag[0].removeprefix("--").replace("-", "_") in err
        assert not list(tmp_path.iterdir())


class TestTermBudget:
    # a term count past the budget is refused before any series is summed,
    # as doubling refuses a schedule past it
    CASES = [
        ["eval", "--z", "0.5+10i", "--n", str(DOUBLING_BUDGET + 1)],
        ["eval", "--z", "0.5+10i", "--n", str(1 << 40)],
        ["errscan", "--z", "0.5+10i", "--nmax", str(2 * DOUBLING_BUDGET)],
        ["errscan", "--z", "0.5+10i", "--nmax", str(1 << 40)],
    ]

    @pytest.mark.parametrize("args", CASES, ids=[args[0] + args[-1] for args in CASES])
    def test_usage_error_before_summing(self, capsys, monkeypatch, args):
        def refuse(*args, **kwargs):
            pytest.fail("a series was summed before the term budget was checked")
        monkeypatch.setattr(series, "_partial_sums", refuse)
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "BudgetError" in err


class TestDeterminism:
    @staticmethod
    def stable_sections(path):
        report = json.loads(path.read_text())
        report.pop("manifest")
        return json.dumps(report, sort_keys=True)

    def test_reports_identical_across_runs(self, capsys, tmp_path):
        args_sets = [
            ["eval", "--z", "0.3+8i", "--n", "2000"],
            ["doubling", "--z", "0.5+14.134725i", "--nbase", "1024", "--m", "4"],
            ["errscan", "--z", "0.5+10i", "--nmax", "16384"],
        ]
        for base_args in args_sets:
            first = tmp_path / "first.json"
            second = tmp_path / "second.json"
            assert run_cli(base_args + ["--out", str(first)], capsys)[0] == 0
            assert run_cli(base_args + ["--out", str(second)], capsys)[0] == 0
            assert self.stable_sections(first) == self.stable_sections(second)

    def test_csv_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli([
                "residual", "--rcount", "2", "--icount", "2", "--imax", "5",
                "--out", str(path),
            ], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "zetalab.cli", "eval", "--z", "2+0i", "--n", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert '"zeta_hat_eta"' in result.stdout
