"""zetalab benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload zeros_scan --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports ``zetalab`` from the
checkout's ``src`` directory and builds nothing.  ``--workload all`` (the
default) runs the three workloads one after another.

Each workload runs in its own fresh worker process (``bench/worker.py``):
one client in a closed loop, no threads, CSL_THREADS removed from its
environment.  The seed chooses the inputs; zetalab receives only the
generated CLI flags.  Every report is checked (see ``bench/workloads.py``)
and repeated inputs must give byte-identical ``config`` and ``results``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps zetalab's
public functions in the worker, interleaves traced and untraced jobs and
prints the per-layer metrics (``bench/spans.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Set-up time comes from separate fresh processes and is the median of
several.  See ``bench/NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, make_inputs, read_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 9
TAIL_BEYOND = 10
MIN_JOBS = 2
# Every child process must end before this many seconds have passed.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

MAX_ERR_MEANING = {
    "zeros_scan": "largest |found - table| ordinate difference",
    "doubling_sweep": "largest |exponent gap| component at the zeros",
    "strip_mix": "largest relative error of eval and residual lhs against mpmath",
}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> str:
    env = {k: v for k, v in os.environ.items() if k != "CSL_THREADS"}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return proc.stdout


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def machine_facts() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "CSL_THREADS": os.environ.get("CSL_THREADS", "unset") + " (removed for the worker)",
        "system_settings": "untouched: no cache dropping, CPU pinning, frequency or "
                           "priority changes",
    }


def end_to_end(stats: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """(metrics, report-only extras) from one untraced worker's stats."""
    times = sorted(stats["job_times"])
    n = len(times)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    values = {
        "setup_s": statistics.median(setup_samples),
        "job_s.p50": statistics.median(times),
        "job_s.tail": times[tail_index],
        "jobs_per_s": stats["timed_ok"] / sum(times),
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extras = {
        "job_s.tail percentile": f"p{100.0 * (tail_index + 1) / n:.1f} of {n} samples"
                                 + ("" if n > TAIL_BEYOND else " (fewer than 11: maximum)"),
        "setup_s samples": len(setup_samples),
    }
    return metrics, extras


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()
    from zetalab import reference_table_path

    table_path = str(reference_table_path())
    inputs = make_inputs(name, seed, read_table(table_path), table_path)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        spec = {
            "workload": name,
            "inputs": inputs,
            "seconds": seconds,
            "trace": trace,
            "min_jobs": MIN_JOBS,
            "out_dir": str(run_dir / "out"),
            "trace_path": str((WORK / f"trace-{name}-seed{seed}.jsonl").relative_to(ROOT)),
        }
        (run_dir / "spec.json").write_text(json.dumps(spec))
        _child([str(run_dir / "spec.json"), str(run_dir / "stats.json")], deadline)
        stats = json.loads((run_dir / "stats.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    extras = {
        "fail_ratio": f"{stats['failed'] / stats['attempted']:.6g} ratio "
                      f"({stats['failed']} of {stats['attempted']} jobs, warm-up included)",
        "max_err": f"{stats['max_err']:.6g} 1 ({MAX_ERR_MEANING[name]})",
        "determinism": f"{stats['determinism_compared']} repeated jobs compared byte for byte",
    }
    if trace:
        metrics = stats["per_layer"]
        extras["spans"] = spec["trace_path"]
        extras["traced/untraced jobs"] = (f"{len(stats['traced_job_times'])}"
                                          f"/{len(stats['job_times'])}")
    else:
        samples = [json.loads(_child(["--setup"], deadline))["setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        metrics, more = end_to_end(stats, samples)
        extras.update(more)
    facts = machine_facts()
    facts["load_average"] = (f"before {' '.join(f'{x:.2f}' for x in load_before)}, after "
                             f"{' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    return {"name": name, "stats": stats, "metrics": metrics, "extras": extras, "facts": facts}


def print_report(result: dict, seed: int, seconds: float, trace: bool) -> None:
    print(f"== {result['name']}  seed {seed}  {seconds:g} s  trace {int(trace)}")
    for key, value in result["facts"].items():
        print(f"  {key:<22} {value}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<56} {metric['value']:.6g} {metric['unit']}")
    for key, value in result["extras"].items():
        print(f"  {key:<22} {value}")
    for failure in result["stats"]["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"no zetalab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        results = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result, args.seed, args.seconds, trace)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["stats"]["attempted"] for r in results)
    failed = sum(r["stats"]["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
