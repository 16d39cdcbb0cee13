"""In-process span tracer for the per-layer metrics.

Functions are wrapped from outside the program, named by dotted path.  A
path that no longer resolves (a refactor renamed or folded the function)
makes its layer ``absent`` instead of failing the run.  Spans are kept in
memory: (span id, name, start, end, parent span id, thread id).

busy_s is wall time inside a span.  On the sweep's pool threads it includes
the time a thread waits for the interpreter lock, so the busy times of
concurrent spans can add up to more than the sweep's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# Span name -> dotted paths of the bindings to wrap.  A module that imports
# a function by name holds its own binding, so the wrapper goes where the
# function is looked up at call time (e.g. optimize binds solve_s).
SPANS = {
    "cli.compute_record": ("fsgsense.cli.compute_record",),
    "cli.sweep": ("fsgsense.cli._run_sweep",),
    "cli.write_csv": ("fsgsense.cli._write_csv",),
    "optimize.maximize_precision": (
        "fsgsense.cli.maximize_precision",
        "fsgsense.optimize.maximize_precision",
    ),
    "optimize.maximize_privacy": (
        "fsgsense.cli.maximize_privacy",
        "fsgsense.optimize.maximize_privacy",
    ),
    "family.solve_s": ("fsgsense.optimize.solve_s",),
    "family.blocks_from_params": ("fsgsense.optimize.blocks_from_params",),
    "metrology.qfim_fsg": ("fsgsense.optimize.qfim_fsg", "fsgsense.metrology.qfim_fsg"),
    "metrology.precision": (
        "fsgsense.optimize.precision",
        "fsgsense.homodyne.precision",
        "fsgsense.metrology.precision",
    ),
    "kernels.family_scan": ("fsgsense.kernels.family_scan",),
    "kernels.homodyne_scan": ("fsgsense.kernels.homodyne_scan",),
    "kernels.mle_trials": ("fsgsense.kernels.mle_trials",),
    "homodyne.optimize_homodyne_angle": ("fsgsense.cli.optimize_homodyne_angle",),
    "homodyne.homodyne_fim": ("fsgsense.homodyne.homodyne_fim",),
    "homodyne.mc_estimate": ("fsgsense.cli.mc_estimate",),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Span name -> function(args, kwargs, result) returning {counter: amount}.
# Counters whose arguments moved are reported absent, like missing spans.
COUNTERS = {
    "kernels.family_scan": lambda a, k, r: {"points": len(_arg(a, k, 0, "ts"))},
    "kernels.homodyne_scan": lambda a, k, r: {"points": len(_arg(a, k, 5, "thetas"))},
    "kernels.mle_trials": lambda a, k, r: {"trials": len(_arg(a, k, 0, "tr_s"))},
    "cli.write_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "optimize.maximize_precision": lambda a, k, r: {"golden_iters": r.iterations},
    "optimize.maximize_privacy": lambda a, k, r: {"golden_iters": r.iterations},
    "homodyne.homodyne_fim": lambda a, k, r: {"max_M": _arg(a, k, 0, "blocks").M},
    "homodyne.mc_estimate": lambda a, k, r: {
        "samples": _arg(a, k, 2, "mc").trials
        * _arg(a, k, 2, "mc").n_samples
        * _arg(a, k, 0, "blocks").M
    },
}
_MAXED = {"max_M"}


def resolve(path: str):
    """(owner module, attribute) for a dotted path, or None if it is gone."""
    module_name, _, attr = path.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    """Wraps the functions in SPANS while installed; use as a context manager."""

    def __init__(self, spans=SPANS, counters=COUNTERS):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()  # span names, or "<span>.<counter>"
        self._spans_table = spans
        self._counters = counters
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    def __enter__(self):
        for name, paths in self._spans_table.items():
            found = [r for r in map(resolve, paths) if r is not None]
            if not found:
                self.absent.add(name)
            for owner, attr in found:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        return False

    def _wrap(self, name, fn):
        counter = self._counters.get(name)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result):
        try:
            amounts = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, OSError):
            self.absent.add(f"{name}.*")
            return
        with self._lock:
            for key, amount in amounts.items():
                full = f"{name}.{key}"
                if key in _MAXED:
                    self.counts[full] = max(self.counts[full], amount)
                else:
                    self.counts[full] += amount

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (sum of durations) and self_s.

        Self time is a span's duration minus that of its direct child spans;
        children are on the parent's thread because parents come from a
        per-thread stack.
        """
        child_s: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_s[span_id]
        return out

    def is_absent(self, span: str, counter: str | None = None) -> bool:
        if span in self.absent or span not in self._spans_table:
            return True
        return counter is not None and f"{span}.*" in self.absent


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metric values from one traced run; None means absent."""
    summary = tracer.summary()
    counts = tracer.counts

    def span(name, field):
        if tracer.is_absent(name):
            return None
        return summary.get(name, {}).get(field, 0)

    def count(name, key):
        if tracer.is_absent(name, key):
            return None
        return counts.get(f"{name}.{key}", 0)

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return scale * num / den if den else 0.0

    precision_calls = span("optimize.maximize_precision", "calls")
    privacy_calls = span("optimize.maximize_privacy", "calls")
    rows = None if None in (precision_calls, privacy_calls) else precision_calls + privacy_calls
    golden = [
        count("optimize.maximize_precision", "golden_iters"),
        count("optimize.maximize_privacy", "golden_iters"),
    ]
    return {
        "cli.compute_record.calls": span("cli.compute_record", "calls"),
        "cli.compute_record.busy_s": span("cli.compute_record", "busy_s"),
        "cli.sweep.wall_s": span("cli.sweep", "busy_s"),
        "cli.write_csv.busy_s": span("cli.write_csv", "busy_s"),
        "cli.write_csv.bytes": count("cli.write_csv", "bytes"),
        "optimize.maximize_precision.calls": precision_calls,
        "optimize.maximize_precision.busy_s": span("optimize.maximize_precision", "busy_s"),
        "optimize.maximize_privacy.calls": privacy_calls,
        "optimize.maximize_privacy.busy_s": span("optimize.maximize_privacy", "busy_s"),
        "optimize.golden_iters": None if None in golden else sum(golden),
        "optimize.family_scans_per_row": ratio(span("kernels.family_scan", "calls"), rows),
        "family.solve_s.calls": span("family.solve_s", "calls"),
        "family.solve_s.busy_s": span("family.solve_s", "busy_s"),
        "family.blocks_from_params.calls": span("family.blocks_from_params", "calls"),
        "metrology.qfim_fsg.calls": span("metrology.qfim_fsg", "calls"),
        "metrology.qfim_fsg.busy_s": span("metrology.qfim_fsg", "busy_s"),
        "metrology.precision.calls": span("metrology.precision", "calls"),
        "kernels.family_scan.calls": span("kernels.family_scan", "calls"),
        "kernels.family_scan.points": count("kernels.family_scan", "points"),
        "kernels.family_scan.busy_s": span("kernels.family_scan", "busy_s"),
        "kernels.family_scan.ns_per_point": ratio(
            span("kernels.family_scan", "busy_s"),
            count("kernels.family_scan", "points"),
            1e9,
        ),
        "kernels.homodyne_scan.calls": span("kernels.homodyne_scan", "calls"),
        "kernels.homodyne_scan.points": count("kernels.homodyne_scan", "points"),
        "kernels.homodyne_scan.busy_s": span("kernels.homodyne_scan", "busy_s"),
        "kernels.mle_trials.calls": span("kernels.mle_trials", "calls"),
        "kernels.mle_trials.trials": count("kernels.mle_trials", "trials"),
        "kernels.mle_trials.busy_s": span("kernels.mle_trials", "busy_s"),
        "homodyne.optimize_homodyne_angle.calls": span(
            "homodyne.optimize_homodyne_angle", "calls"
        ),
        "homodyne.optimize_homodyne_angle.busy_s": span(
            "homodyne.optimize_homodyne_angle", "busy_s"
        ),
        "homodyne.optimize_homodyne_angle.self_s": span(
            "homodyne.optimize_homodyne_angle", "self_s"
        ),
        "homodyne.homodyne_fim.calls": span("homodyne.homodyne_fim", "calls"),
        "homodyne.homodyne_fim.busy_s": span("homodyne.homodyne_fim", "busy_s"),
        "homodyne.homodyne_fim.max_M": count("homodyne.homodyne_fim", "max_M"),
        "homodyne.mc_estimate.busy_s": span("homodyne.mc_estimate", "busy_s"),
        "homodyne.mc_estimate.self_s": span("homodyne.mc_estimate", "self_s"),
        "homodyne.samples_drawn": count("homodyne.mc_estimate", "samples"),
    }
