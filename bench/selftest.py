"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

A short run of every workload, untraced and traced, must print every metric
``BENCHMARK.json`` names, with its unit.  Corrupted references and a
non-deterministic report must be counted as failed jobs, which shows that
the checkers really check.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from worker import run_jobs  # noqa: E402
from zetalab import reference_table_path  # noqa: E402
import zetalab.cli  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    text = "\n".join(report)
    for name, unit in declared.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", text, re.M), name
    for fact in ("fail_ratio", "max_err", "determinism", "cores", "python", "numpy",
                 "commit", "CSL_THREADS", "load_average", "system_settings"):
        assert re.search(rf"^\s+{fact}\s", text, re.M), fact


def _spec(workload, tmp_path):
    table_path = str(reference_table_path())
    inputs = workloads.make_inputs(workload, 5, workloads.read_table(table_path), table_path)
    return {"workload": workload, "inputs": inputs[:1], "seconds": 0, "trace": False,
            "min_jobs": 1, "out_dir": str(tmp_path / "out"), "trace_path": ""}


def _corrupt_expected_zero(inp, tmp_path):
    inp["expected"][0] += 1e-3


def _corrupt_cli_table(inp, tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{t + 1e-3 if t == inp['expected'][0] else t!r}\n"
                             for t in workloads.read_table(inp["reference"])))
    inp["reference"] = str(table)


def _corrupt_zero_ordinate(inp, tmp_path):
    inp["ordinate"] += 1e-3


def _corrupt_eval_reference(inp, tmp_path):
    inp["eval"]["zeta"][0] *= 1.0 + 1e-6


def _corrupt_residual_reference(inp, tmp_path):
    inp["residual"]["zeta"][-1][1] *= 1.0 + 1e-6


@pytest.mark.parametrize("workload, corrupt", [
    ("zeros_scan", None),
    ("zeros_scan", _corrupt_expected_zero),
    ("zeros_scan", _corrupt_cli_table),
    ("doubling_sweep", None),
    ("doubling_sweep", _corrupt_zero_ordinate),
    ("strip_mix", None),
    ("strip_mix", _corrupt_eval_reference),
    ("strip_mix", _corrupt_residual_reference),
])
def test_corrupted_reference_counts_as_failure(workload, corrupt, tmp_path):
    spec = _spec(workload, tmp_path)
    if corrupt is not None:
        corrupt(spec["inputs"][0], tmp_path)
    stats = run_jobs(spec)
    assert stats["attempted"] == 2
    assert stats["failed"] == (0 if corrupt is None else 2), stats["failures"]


def test_nondeterministic_results_count_as_failure(tmp_path, monkeypatch):
    calls = []
    original = zetalab.cli.error_scaling_scan

    def drifting(*args, **kwargs):
        report = original(*args, **kwargs)
        calls.append(None)
        errors = report.errors[:-1] + [report.errors[-1] * (1.0 + 1e-9 * len(calls))]
        return dataclasses.replace(report, errors=errors)

    monkeypatch.setattr(zetalab.cli, "error_scaling_scan", drifting)
    stats = run_jobs(_spec("strip_mix", tmp_path))
    assert stats["attempted"] == 2 and stats["failed"] == 1
    assert "differ from its first run" in stats["failures"][0]
