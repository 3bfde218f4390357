"""One workload in one fresh process: set-up, closed loop, checks.

    python3 bench/worker.py --setup            print this process's set-up time
    python3 bench/worker.py SPEC.json OUT.json run the jobs SPEC.json describes

``bench/run.py`` starts this script with CSL_THREADS removed from the
environment; ``zetalab`` is imported from the ``src`` directory next to
``bench``.  Set-up is timed before anything of ``zetalab`` is imported:
importing ``zetalab`` and its CLI and loading the packaged zero table.

The loop is closed with one client: each job starts after the previous one
ends, and calls ``zetalab.cli.main(argv)`` in this process.  Job time covers
only those calls; reading and checking the reports comes after.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer, per_layer_metrics
from workloads import CHECKERS, CheckFailed, job_commands


def timed_setup() -> float:
    start = time.perf_counter()
    import zetalab.cli  # noqa: F401  (the CLI is part of what a user's process loads)
    from zetalab import load_zero_table, reference_table_path

    load_zero_table(reference_table_path())
    return time.perf_counter() - start


def run_job(workload: str, inp: dict, out_dir: str, sink) -> tuple[float, list[str]]:
    """Run the CLI calls of one job; returns (seconds, failure messages)."""
    import zetalab.cli as cli

    failures = []
    commands = job_commands(workload, inp, out_dir)
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for label, argv in commands:
            try:
                code = cli.main(argv)
            except Exception:
                failures.append(f"{label} raised {traceback.format_exc(limit=-1).strip()}")
                continue
            if code != 0:
                failures.append(f"{label} exited {code}")
    return time.perf_counter() - start, failures


def _read_reports(out_dir: str) -> dict:
    files = {}
    for name in os.listdir(out_dir):
        if not name.startswith("."):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                files[name] = handle.read()
    return files


def _clear_reports(out_dir: str) -> None:
    for name in os.listdir(out_dir):
        os.unlink(os.path.join(out_dir, name))


def run_jobs(spec: dict) -> dict:
    """The closed loop for ``spec['seconds']``; returns counts, times, checks.

    Jobs cycle through the input pool.  The first job is a warm-up: it is
    checked and counted as attempted, but its time is not a sample.  With
    tracing on, every other job is traced, offset by one on each pass over
    the pool so that each input is run both ways.
    """
    workload = spec["workload"]
    inputs = spec["inputs"]
    checker = CHECKERS[workload]
    sink = io.StringIO()
    tracer = Tracer() if spec["trace"] else None
    out_dirs = []
    for k in range(len(inputs)):
        out_dirs.append(os.path.join(spec["out_dir"], f"in{k}"))
        os.makedirs(out_dirs[-1], exist_ok=True)

    stable_first: dict[int, str] = {}
    failures: list[str] = []
    times: list[float] = []
    traced_times: list[float] = []
    attempted = failed = compared = timed_ok = 0
    max_err = 0.0

    def one_job(i: int, k: int, traced: bool) -> tuple[float, bool]:
        nonlocal attempted, failed, compared, max_err
        _clear_reports(out_dirs[k])
        sink.seek(0)
        sink.truncate()
        if traced:
            tracer.install(job=i)
        try:
            elapsed, problems = run_job(workload, inputs[k], out_dirs[k], sink)
        finally:
            if traced:
                tracer.uninstall()
        if not problems:
            try:
                err, stable = checker(inputs[k], _read_reports(out_dirs[k]))
                max_err = max(max_err, err)
                if k in stable_first:
                    compared += 1
                    if stable != stable_first[k]:
                        problems.append(f"input {k}: config/results differ from its first run")
                else:
                    stable_first[k] = stable
            except (CheckFailed, KeyError, ValueError, TypeError, OSError) as exc:
                problems.append(f"input {k}: {type(exc).__name__}: {exc}")
        attempted += 1
        if problems:
            failed += 1
            failures.extend(problems)
        return elapsed, not problems

    one_job(-1, 0, False)  # warm-up
    pool = len(inputs)
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    while time.perf_counter() < deadline or i < spec["min_jobs"]:
        traced = tracer is not None and (i + i // pool) % 2 == 1
        elapsed, ok = one_job(i, i % pool, traced)
        if traced:
            traced_times.append(elapsed)
        else:
            times.append(elapsed)
            timed_ok += ok
        i += 1

    stats = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "job_times": times,
        "timed_ok": timed_ok,
        "max_err": max_err,
        "determinism_compared": compared,
    }
    if tracer is not None:
        tracer.write(spec["trace_path"])
        stats["traced_job_times"] = traced_times
        stats["per_layer"] = per_layer_metrics(tracer.spans, traced_times, times)
    return stats


def main(argv: list[str]) -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    setup_s = timed_setup()
    import zetalab

    if not os.path.abspath(zetalab.__file__).startswith(src + os.sep):
        print(f"zetalab was imported from {zetalab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if argv[1:] == ["--setup"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    spec_path, result_path = argv[1:]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    stats = run_jobs(spec)
    stats["setup_s"] = setup_s
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
