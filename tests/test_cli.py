import json
import subprocess
import sys

import pytest

from dataclasses import asdict

from zetalab import (
    DOUBLING_BUDGET,
    cli,
    error_scaling_scan,
    reference_table_path,
    series,
    zeta_hat_eta,
    zeta_hat_regularized,
)
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

    def test_large_real_part_within_bound(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "1e20+0i"], capsys)
        assert code == 0
        payload = json.loads(out)["results"]["zeta_hat_eta"]
        value = complex(payload["value"]["re"], payload["value"]["im"])
        assert abs(value - 1.0) <= payload["est_error"]

    def test_malformed_z_is_usage_error(self, capsys):
        code, _, _ = run_cli(["eval", "--z", "abc"], capsys)
        assert code == 2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "2+0i", "--format", "text"], capsys)
        assert code == 0
        z_line, *value_lines = out.splitlines()
        assert parse_complex(z_line.removeprefix("z = ")) == 2 + 0j
        lines = {line.split(":")[0].strip(): line for line in value_lines}
        # each value shows its own truncation index
        assert lines["zeta_partial"].endswith("(n = 10000)")
        n_used = zeta_hat_eta(2 + 0j).n_used
        assert n_used < 100
        assert f"(n = {n_used}, est_error " in lines["zeta_hat_eta"]
        # each value is printed in the --z literal form, exact to the double
        printed = lines["zeta_hat_eta"].split(": ")[1].split("  (")[0]
        assert parse_complex(printed) == zeta_hat_eta(2 + 0j).value


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
        # the one grid point lies within the guard of the prefactor
        # singularity at 1 + 2*pi*i/ln 2: nothing is checked, so the run must
        # not report PASS
        out_path = tmp_path / "residual.csv"
        code, out, _ = run_cli([
            "residual", "--rmin", "0.9999995", "--rmax", "0.9999999", "--rcount", "1",
            "--imin", "9.064720284", "--imax", "9.064720284", "--icount", "1",
            "--out", str(out_path),
        ], capsys)
        assert code == 1
        assert "no point evaluated -> FAIL" in out and "PASS" not in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# config: {}"
        assert [line.rsplit(",", 1)[1] for line in lines[2:]] == ["skipped"]

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

    def test_zero_table_without_zero_index_is_usage_error(self, capsys, tmp_path):
        # with --z the table is never read, so the path would be echoed in the
        # manifest without taking effect
        out_path = tmp_path / "doubling.json"
        code, _, err = run_cli([
            "doubling", "--z", "0.75+5i", "--zero-table", str(tmp_path / "table.txt"),
            "--out", str(out_path),
        ], capsys)
        assert code == 2
        assert "--zero-table" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("where", [["--z", "0.5+14i", "--zero-index", "1"], []],
                             ids=["both", "neither"])
    def test_exactly_one_point_flag(self, capsys, monkeypatch, where):
        def refuse(*args, **kwargs):
            pytest.fail("a series was summed before the flags were checked")
        monkeypatch.setattr(series, "_partial_sums", refuse)
        code, out, err = run_cli(["doubling", *where, "--nbase", "64", "--m", "2"], capsys)
        assert code == 2
        assert "--z" in err and "--zero-index" in err
        assert out == ""

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
        # the singularity guard radius is a fixed constant
        (["eval", "--z", "0.5+14i"], ["--guard-radius", "1e-3"]),
        (["residual"], ["--guard-radius", "1e-3"]),
        (["zeros"], ["--guard-radius", "1e-3"]),
        (["errscan", "--z", "0.5+10i"], ["--guard-radius", "1e-3"]),
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
        (["eval", "--z", "0.5+14i"], ["n_terms"]),
        (["zeros", "--tmin", "14", "--tmax", "15"], ["tolerance"]),
        (["doubling", "--zero-index", "1", "--nbase", "64", "--m", "2"], []),
        (["errscan", "--z", "0.5+10i", "--nmax", "4096"], ["hl_constant"]),
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
        for path, fields in ((residual, []), (errscan, ["hl_constant"])):
            comment = path.read_text().splitlines()[0]
            assert list(json.loads(comment.removeprefix("# config: "))) == fields

    def test_eval_series_value_keys(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "0.5+14i"], capsys)
        assert code == 0
        assert list(json.loads(out)["results"]["zeta_hat_eta"]) == ["value", "n_used", "est_error"]


class TestManifest:
    # manifest.parameters holds every flag of the command except --out, a
    # complex value in the --z literal form and an unset flag as ""
    CASES = [
        (["eval", "--z", "0.5+14i"], {"z": "0.5+14.0i", "format": "json", "n": "10000"}),
        (["zeros", "--tmin", "14", "--tmax", "15"],
         {"tmin": "14.0", "tmax": "15.0", "step": "0.05", "reference": "",
          "match_tol": "1e-06", "tolerance": "1e-10"}),
        (["doubling", "--zero-index", "1", "--nbase", "64", "--m", "2"],
         {"z": "", "zero_index": "1", "zero_table": "", "nbase": "64", "m": "2"}),
        (["errscan", "--z", "0.5+10i", "--nmax", "4096"],
         {"z": "0.5+10.0i", "nmin": "256", "nmax": "4096", "csv": "", "hl_constant": "2.0"}),
    ]

    @pytest.mark.parametrize("args,parameters", CASES, ids=[args[0] for args, _ in CASES])
    def test_parameters_are_the_flags(self, capsys, tmp_path, args, parameters):
        out_path = tmp_path / "report.json"
        assert run_cli([*args, "--out", str(out_path)], capsys)[0] == 0
        manifest = json.loads(out_path.read_text())["manifest"]
        assert manifest["command"] == args[0]
        assert manifest["parameters"] == parameters


class TestSharedParser:
    # one parser serves every main() call in a process, and no parsed value
    # carries over from one call to the next

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        import argparse

        assert run_cli(["eval", "--z", "2+0i", "--n", "10"], capsys)[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(["eval", "--z", "2+0i", "--n", "10"], capsys)[0] == 0
        assert built == []

    def test_config_flag_does_not_carry_over(self, capsys):
        args = ["errscan", "--z", "0.5+10i", "--nmax", "4096"]
        code, out, _ = run_cli([*args, "--hl-constant", "3"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {"hl_constant": 3.0}
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["config"] == {"hl_constant": 2.0}

    def test_format_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "2+0i", "--n", "10", "--format", "text"], capsys)
        assert code == 0 and out.startswith("z = ")
        code, out, _ = run_cli(["eval", "--z", "2+0i", "--n", "10"], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["parameters"]["format"] == "json"


class TestUnusableFiles:
    # a file that cannot be read or written is a usage error named on stderr,
    # not a traceback; an input table is read before any series is summed
    INPUTS = [
        (["zeros", "--tmin", "14", "--tmax", "15", "--reference", "missing.txt"],
         "FileNotFoundError"),
        (["zeros", "--tmin", "14", "--tmax", "15", "--reference", "."], "IsADirectoryError"),
        (["doubling", "--zero-index", "1", "--zero-table", "missing.txt"], "FileNotFoundError"),
    ]

    @pytest.mark.parametrize("args,named", INPUTS,
                             ids=["zeros-missing", "zeros-directory", "doubling-missing"])
    def test_unreadable_input(self, capsys, monkeypatch, tmp_path, args, named):
        def refuse(*args, **kwargs):
            pytest.fail("a series was summed before the table was read")
        monkeypatch.setattr(series, "_partial_sums", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert f"error: {named}" in err
        assert out == ""

    @pytest.mark.parametrize("args,flag", [
        (["eval", "--z", "2+0i", "--n", "10"], "--out"),
        (["errscan", "--z", "0.5+10i", "--nmax", "4096"], "--csv"),
    ], ids=["eval-out", "errscan-csv"])
    def test_unwritable_output(self, capsys, tmp_path, args, flag):
        # a regular file where the report's directory should be
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli([*args, flag, str(blocker / "r.json")], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("args", [
        ["eval", "--z", "2+0i", "--out", "blocker/r.json"],
        ["residual", "--rcount", "2", "--icount", "2", "--out", "blocker/r.csv"],
        ["zeros", "--tmin", "14", "--tmax", "15", "--out", "blocker/sub/r.json"],
        ["doubling", "--zero-index", "1", "--out", "blocker/r.json"],
        ["errscan", "--z", "0.5+10i", "--nmax", "4096", "--out", "r.json",
         "--csv", "blocker/e.csv"],
    ], ids=["eval", "residual", "zeros", "doubling", "errscan-csv"])
    def test_unwritable_output_found_before_any_sum(self, capsys, monkeypatch, tmp_path, args):
        # a regular file where a directory of the path should be; no report,
        # not even errscan's JSON beside its CSV, is left behind
        def refuse(*args, **kwargs):
            pytest.fail("a series was summed before the output path was checked")
        monkeypatch.setattr(series, "_partial_sums", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "error: NotADirectoryError" in err
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    def test_errscan_writes_its_csv_before_its_report(self, capsys, monkeypatch, tmp_path):
        written = []
        monkeypatch.setattr(cli, "atomic_write_text", lambda path, text: written.append(path))
        code, _, _ = run_cli(["errscan", "--z", "0.5+10i", "--nmax", "4096",
                              "--out", str(tmp_path / "r.json"),
                              "--csv", str(tmp_path / "e.csv")], capsys)
        assert code == 0
        assert written == [str(tmp_path / "e.csv"), str(tmp_path / "r.json")]


class TestInvalidValues:
    # a value out of range is refused before any series is summed; stderr
    # names the config field, or the flag where the flag no longer exists
    CASES = [
        # the guard radius is a fixed constant, so any --guard-radius is an
        # unrecognized argument
        *[(args, ["--guard-radius", bad], "--guard-radius")
          for args in (["eval", "--z", "0.5+14i"], ["residual"], ["zeros"],
                       ["errscan", "--z", "0.5+10i"])
          for bad in ("0", "-1", "nan")],
        *[(["zeros"], ["--tolerance", bad], "tolerance") for bad in ("0", "-1", "nan", "inf")],
        *[(["errscan", "--z", "0.5+10i"], ["--hl-constant", bad], "hl_constant")
          for bad in ("1", "0.5", "nan", "inf")],
        *[(args, [flag, bad], flag)
          for args, flag in ((["zeros", "--reference", str(reference_table_path())],
                              "--match-tol"),
                             (["residual"], "--tol"))
          for bad in ("inf", "nan", "0", "-1")],
        *[(["residual"], [flag, bad], flag)
          for flag, bad in (("--imax", "inf"), ("--imin", "nan"), ("--imax", "1e400"))],
    ]

    @pytest.mark.parametrize("args,flag,named", CASES,
                             ids=[args[0] + "".join(flag) for args, flag, _ in CASES])
    def test_usage_error_before_summing(self, capsys, monkeypatch, tmp_path, args, flag, named):
        def refuse(*args, **kwargs):
            pytest.fail("a series was summed before the value was checked")
        monkeypatch.setattr(series, "_partial_sums", refuse)
        monkeypatch.chdir(tmp_path)  # residual writes to its default output path
        code, _, err = run_cli([*args, *flag], capsys)
        assert code == 2
        assert named in err
        assert not list(tmp_path.iterdir())


class TestFloatFormat:
    # every float of a report reads back as a float equal to the library's
    # value, whole numbers included (2.0 and 0.0, not 2 and 0)

    @staticmethod
    def assert_same(got, want):
        if isinstance(want, complex):
            want = {"re": want.real, "im": want.imag}
        if isinstance(want, dict):
            assert list(got) == list(want)
            for key in want:
                TestFloatFormat.assert_same(got[key], want[key])
        elif isinstance(want, list):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                TestFloatFormat.assert_same(g, w)
        else:
            assert type(got) is type(want) and got == want

    def test_eval(self, capsys):
        code, out, _ = run_cli(["eval", "--z", "2+0i", "--n", "1000"], capsys)
        assert code == 0
        report = json.loads(out)
        z = 2 + 0j
        plain, alternating, _ = series.partial_sums(z, 1000)
        self.assert_same(report["config"], {"n_terms": 1000})
        self.assert_same(report["results"], {
            "zeta_partial": plain,
            "eta_partial": alternating,
            "zeta_hat_regularized": zeta_hat_regularized(z, 1000),
            "zeta_hat_eta": asdict(zeta_hat_eta(z)),
        })

    def test_errscan(self, capsys):
        code, out, _ = run_cli(["errscan", "--z", "0.5+10i", "--nmax", "4096"], capsys)
        assert code == 0
        report = json.loads(out)
        scan = error_scaling_scan(0.5 + 10j, [256, 512, 1024, 2048, 4096], hl_constant=2.0)
        self.assert_same(report["config"], {"hl_constant": 2.0})
        self.assert_same(report["results"], {
            "point": scan.point,
            "n_grid": scan.n_grid,
            "errors": scan.errors,
            "domain_ok": scan.domain_ok,
            "fitted_slope": scan.fitted_slope,
            "reference_slope": scan.reference_slope,
            "slope_deviation": scan.fitted_slope - scan.reference_slope,
        })


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


class TestBorweinBudget:
    # a point whose Borwein series is longer than BORWEIN_BUDGET is refused
    # before its weights are built; building them here would fail the test

    @pytest.fixture(autouse=True)
    def no_weights(self, monkeypatch):
        def refuse(n):
            pytest.fail(f"Borwein weights of length {n} were built")
        monkeypatch.setattr(series, "_borwein_weights", refuse)

    def test_eval_reports_it_per_value(self, capsys):
        # 1e20 needs about 8.9e19 terms, past the range of int64
        for t in ("1000000", "1e20"):
            code, out, err = run_cli(["eval", "--z", f"0.5+{t}i"], capsys)
            assert code == 1
            results = json.loads(out)["results"]
            assert results["zeta_hat_eta"]["error"] == "BudgetError"
            assert all("re" in results[name]
                       for name in ("zeta_partial", "eta_partial", "zeta_hat_regularized"))
            assert "BudgetError" in err

    def test_zeros_is_usage_error(self, capsys):
        # the grid near 1e20 is 32768 steps within one ulp, 16384, so it
        # rounds to 2 distinct points, each past the range of int64 in length
        for window in (["--tmin", "1000000", "--tmax", "1000001"],
                       ["--tmin", "1e20", "--tmax", "100000000000000016384", "--step", "0.5"]):
            code, _, err = run_cli(["zeros", *window], capsys)
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
