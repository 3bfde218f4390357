"""Span tracing of zetalab's public functions, from outside the package.

The traced run replaces public functions at the module attribute where their
callers look them up (``zetalab.zeros.zeta_hat_eta``, ``zetalab.cli.main``,
...) with wrappers that record a span: name, start, end, parent span and job
id, plus a few counters.  Nothing under ``src/`` is edited, and the originals
are put back when the traced job ends.  Spans stay in memory and are written
out once, at the end of the run.

Term generation, extended-precision accumulation and tail averaging all
happen inside one public call, so they cannot be told apart from here: that
split needs spans inside the program.

A target the program no longer has is skipped, and its metrics read 0; a
counter that no longer fits a target's arguments or result records nothing.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time


def _terms_n(args, kwargs, result):
    return {"terms": args[1]}


def _terms_used(args, kwargs, result):
    return {"terms": result.n_used}


def _terms_config(args, kwargs, result):
    return {"terms": args[1].n_terms}


def _terms_marks(args, kwargs, result):
    marks = args[1]
    return {"terms": marks[-1] if marks else 0}


def _zeros_found(args, kwargs, result):
    return {"found": len(result)}


def _bytes_written(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


#: (module, attribute, span name, counter) for every wrapped lookup site.
TARGETS = (
    ("zetalab.cli", "main", "cli.main", None),
    ("zetalab.cli", "zeta_partial", "series.zeta_partial", _terms_n),
    ("zetalab.cli", "eta_partial", "series.eta_partial", _terms_n),
    ("zetalab.cli", "zeta_hat_regularized", "series.zeta_hat_regularized", _terms_n),
    ("zetalab.cli", "zeta_hat_eta", "series.zeta_hat_eta", _terms_used),
    ("zetalab.zeros", "zeta_hat_eta", "series.zeta_hat_eta", _terms_used),
    ("zetalab.functional_equation", "zeta_hat_eta", "series.zeta_hat_eta", _terms_used),
    ("zetalab.experiments", "zeta_hat_eta", "series.zeta_hat_eta", _terms_used),
    ("zetalab.zeros", "zeta_hat_eta_with_derivative", "series.zeta_hat_eta_with_derivative",
     _terms_config),
    ("zetalab.experiments", "zeta_hat_regularized_schedule",
     "series.zeta_hat_regularized_schedule", _terms_marks),
    ("zetalab.cli", "scan_zeros", "zeros.scan_zeros", _zeros_found),
    ("zetalab.zeros", "refine_zero", "zeros.refine_zero", None),
    ("zetalab.cli", "crosscheck_zeros", "zeros.crosscheck_zeros", None),
    ("zetalab.cli", "load_zero_table", "zeros.load_zero_table", None),
    ("zetalab.functional_equation", "log_gamma", "special_functions.log_gamma", None),
    ("zetalab.functional_equation", "h_factor", "functional_equation.h_factor", None),
    ("zetalab.cli", "functional_equation_residual",
     "functional_equation.functional_equation_residual", None),
    ("zetalab.cli", "h_doubling", "experiments.h_doubling", None),
    ("zetalab.cli", "error_scaling_scan", "experiments.error_scaling_scan", None),
    ("zetalab.cli", "json_dumps", "reporting.json_dumps", None),
    ("zetalab.cli", "csv_text", "reporting.csv_text", None),
    ("zetalab.cli", "ordered_map", "reporting.ordered_map", None),
    ("zetalab.zeros", "ordered_map", "reporting.ordered_map", None),
    ("zetalab.cli", "atomic_write_text", "reporting.atomic_write_text", _bytes_written),
)

#: Per-layer metrics in report order, with units.  ``calls``, ``self_s``,
#: ``terms``, ``failed`` and ``bytes`` are per traced job.
PER_LAYER_UNITS = {
    "series.zeta_hat_eta.calls": "count/job",
    "series.zeta_hat_eta.self_s": "s/job",
    "series.zeta_hat_eta.terms": "count/job",
    "series.zeta_hat_eta_with_derivative.calls": "count/job",
    "series.zeta_hat_eta_with_derivative.self_s": "s/job",
    "series.zeta_hat_regularized_schedule.calls": "count/job",
    "series.zeta_hat_regularized_schedule.self_s": "s/job",
    "series.zeta_hat_regularized_schedule.terms": "count/job",
    "series.zeta_partial.self_s": "s/job",
    "series.eta_partial.self_s": "s/job",
    "series.zeta_hat_regularized.self_s": "s/job",
    "series.ns_per_term": "ns",
    "series.self_share": "ratio",
    "zeros.scan_zeros.self_s": "s/job",
    "zeros.grid_points": "count/job",
    "zeros.refine_zero.calls": "count/job",
    "zeros.refine_zero.self_s": "s/job",
    "zeros.refine_zero.failed": "count/job",
    "zeros.newton_evals": "count/job",
    "zeros.refine_useful_ratio": "ratio",
    "zeros.crosscheck_zeros.self_s": "s/job",
    "zeros.load_zero_table.self_s": "s/job",
    "special_functions.log_gamma.calls": "count/job",
    "special_functions.log_gamma.self_s": "s/job",
    "functional_equation.h_factor.self_s": "s/job",
    "functional_equation.functional_equation_residual.self_s": "s/job",
    "experiments.h_doubling.self_s": "s/job",
    "experiments.error_scaling_scan.self_s": "s/job",
    "reporting.json_dumps.self_s": "s/job",
    "reporting.csv_text.self_s": "s/job",
    "reporting.ordered_map.self_s": "s/job",
    "reporting.atomic_write_text.self_s": "s/job",
    "reporting.atomic_write_text.bytes": "B/job",
    "cli.main.self_s": "s/job",
    "trace.self_s_sum": "s/job",
    "trace.job_s.p50": "s",
    "trace.untraced_job_s.p50": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "failed", "counts")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.failed = False
        self.counts = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "failed": self.failed,
                "counts": self.counts}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.job = None

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def install(self, job) -> None:
        """Wrap every target that exists; spans of this job carry ``job``."""
        self.job = job
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _has_ancestor(spans, span, name) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def per_layer_metrics(spans: list[Span], traced_times: list[float],
                      untraced_times: list[float]) -> dict:
    """Per-job layer metrics from the span tree of ``len(traced_times)`` jobs.

    Self time is a span's duration minus its children's durations: spans of
    one process nest strictly, so children never overlap.
    """
    jobs = max(len(traced_times), 1)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for span, children in zip(spans, child_time):
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", span.end - span.start - children)
        add(f"{span.name}.failed", span.failed)
        for key, value in (span.counts or {}).items():
            add(f"{span.name}.{key}", value)
        if span.name == "series.zeta_hat_eta" and _has_ancestor(spans, span, "zeros.scan_zeros") \
                and not _has_ancestor(spans, span, "zeros.refine_zero"):
            add("zeros.grid_points", 1)
        if span.name == "series.zeta_hat_eta_with_derivative" \
                and _has_ancestor(spans, span, "zeros.refine_zero"):
            add("zeros.newton_evals", 1)

    series_self = sum(v for k, v in totals.items()
                      if k.startswith("series.") and k.endswith(".self_s"))
    series_terms = sum(v for k, v in totals.items()
                       if k.startswith("series.") and k.endswith(".terms"))
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    refinements = totals.get("zeros.refine_zero.calls", 0.0)
    traced_p50 = statistics.median(traced_times) if traced_times else 0.0
    untraced_p50 = statistics.median(untraced_times) if untraced_times else 0.0
    derived = {
        "series.ns_per_term": 1e9 * series_self / series_terms if series_terms else 0.0,
        "series.self_share": series_self / sum(traced_times) if traced_times else 0.0,
        "zeros.refine_useful_ratio": (totals.get("zeros.scan_zeros.found", 0.0) / refinements
                                      if refinements else 0.0),
        "trace.self_s_sum": self_sum / jobs,
        "trace.job_s.p50": traced_p50,
        "trace.untraced_job_s.p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    }
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        value = derived[key] if key in derived else totals.get(key, 0.0) / jobs
        metrics[key] = {"value": float(value), "unit": unit}
    return metrics
