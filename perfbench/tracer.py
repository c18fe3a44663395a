"""Span and counter tracing of the thckit pipeline from outside the library.

The tracer replaces the module attributes the pipeline looks up at each
layer boundary (for example ``thckit.consistency.stratified_bootstrap_ci``)
with wrappers that record a span per call and update that layer's counters.
No library code changes: a boundary the code no longer calls reports zero
calls, and a name that no longer exists is listed as missing.

A span is ``[layer, start, end, parent]`` where ``parent`` is the index of
the enclosing span (-1 for none). A layer's self time is the summed
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# (module, attribute, layer, counter name or None)
BOUNDARIES = (
    ("thckit.cli", "load_dataset", "dataset.parse", "parse"),
    ("thckit.consistency", "slice_scores", "dataset.slice", "slice"),
    ("thckit.consistency", "stratified_bootstrap_ci", "stats.bootstrap", "bootstrap"),
    ("thckit.consistency", "mean_and_spread", "stats.mean_sd", "mean_sd"),
    ("thckit.consistency", "kendalltau", "consistency.kendall", "kendalltau"),
    ("thckit.consistency", "kendall_w", "consistency.kendall", None),
    ("thckit.consistency", "mean_pairwise_tau", "consistency.kendall", None),
    ("thckit.consistency", "compute_rankings", "ranking", "ranking"),
    ("thckit.cli", "build_consistency_report", "consistency", "consistency"),
    ("thckit.report", "build_consistency_report", "consistency", "consistency"),
    ("thckit.cli", "write_report_bundle", "report.export", "export"),
)

# Counts that must repeat exactly across traced runs of one input.
EXACT_COUNTS = (
    "dataset.rows", "dataset.slice_calls", "dataset.slice_records_scanned",
    "stats.bootstrap_calls", "stats.replicates", "stats.entries_resampled",
    "stats.unique_cell_ratio",
    "consistency.kendalltau_calls", "ranking.calls", "consistency.profiles",
)

# Unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "dataset.rows": "count", "dataset.parse_s": "s", "dataset.rows_per_s": "1/s",
    "dataset.slice_calls": "count", "dataset.slice_s": "s",
    "dataset.slice_records_scanned": "count",
    "stats.bootstrap_calls": "count", "stats.bootstrap_s": "s", "stats.replicates": "count",
    "stats.entries_resampled": "count", "stats.replicates_per_s": "1/s",
    "stats.cell_ms_p50": "ms", "stats.cell_ms_p90": "ms", "stats.unique_cell_ratio": "ratio",
    "stats.mean_sd_calls": "count", "stats.mean_sd_s": "s",
    "consistency.kendalltau_calls": "count", "consistency.kendall_s": "s",
    "ranking.calls": "count", "ranking.settings": "count", "ranking.s": "s",
    "consistency.profiles": "count", "consistency.skipped": "count", "consistency.self_s": "s",
    "report.export_s": "s", "report.files": "count", "report.bytes": "bytes",
    "cli.self_s": "s", "cli.cpu_s": "s", "trace.overhead_s": "s",
}


def _bound(sig: inspect.Signature | None, args: tuple, kwargs: dict) -> dict[str, Any]:
    """Arguments by parameter name, defaults filled in."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.count_errors: Counter[str] = Counter()
        self.cell_ms: list[float] = []
        self._cells: set[tuple] = set()
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, layer, counter in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer, counter))

    def span(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span of ``layer``."""
        index = len(self.spans)
        self.spans.append([layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, layer: str, counter: str | None) -> Callable:
        count = getattr(self, f"_count_{counter}") if counter else None
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None  # counters that need arguments then record a count error

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            result = self.span(layer, fn, *args, **kwargs)
            if count is not None:
                try:
                    count(sig, args, kwargs, result, self.spans[index][2] - self.spans[index][1])
                except Exception:  # a changed signature must not break the traced run
                    self.count_errors[counter] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters; each runs after its span has closed ----------------------

    def _count_parse(self, sig, args, kwargs, result, seconds) -> None:
        self.counts["dataset.rows"] += len(result)

    def _count_slice(self, sig, args, kwargs, result, seconds) -> None:
        a = _bound(sig, args, kwargs)
        self.counts["dataset.slice_calls"] += 1
        self.counts["dataset.slice_records_scanned"] += len(
            a["dataset"].records_for(a["hyperparameter"]))

    def _count_bootstrap(self, sig, args, kwargs, result, seconds) -> None:
        a = _bound(sig, args, kwargs)
        rows = a["matrix"].rows
        entries = sum(len(row) for row in rows)
        self.counts["stats.bootstrap_calls"] += 1
        self.counts["stats.replicates"] += a["resamples"]
        self.counts["stats.entries_resampled"] += a["resamples"] * entries
        digest = hashlib.sha256()
        for row in rows:
            digest.update(len(row).to_bytes(8, "little"))
            digest.update(row.tobytes())
        self._cells.add((a["resamples"], a["confidence"], digest.hexdigest()))
        self.cell_ms.append(1000.0 * seconds)

    def _count_mean_sd(self, sig, args, kwargs, result, seconds) -> None:
        self.counts["stats.mean_sd_calls"] += 1

    def _count_kendalltau(self, sig, args, kwargs, result, seconds) -> None:
        self.counts["consistency.kendalltau_calls"] += 1

    def _count_ranking(self, sig, args, kwargs, result, seconds) -> None:
        self.counts["ranking.calls"] += 1
        self.counts["ranking.settings"] += len(_bound(sig, args, kwargs)["settings"])

    def _count_consistency(self, sig, args, kwargs, result, seconds) -> None:
        report, profiles = result
        self.counts["consistency.profiles"] += len(profiles)
        self.counts["consistency.skipped"] += len(report.skipped)

    def _count_export(self, sig, args, kwargs, result, seconds) -> None:
        self.counts["report.files"] += len(result)
        self.counts["report.bytes"] += sum(os.path.getsize(path) for path in result)

    # -- summary ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), children in zip(self.spans, child_time):
            totals[layer] += end - start - children
        return totals

    def metrics(self, cpu_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run (see perfbench/README.md)."""
        own = self.self_times()
        c = self.counts
        calls = c["stats.bootstrap_calls"]
        cells = self.cell_ms
        out: dict[str, float] = {name: c[name] for name in (
            "dataset.rows", "dataset.slice_calls", "dataset.slice_records_scanned",
            "stats.bootstrap_calls", "stats.replicates", "stats.entries_resampled",
            "stats.mean_sd_calls", "consistency.kendalltau_calls", "ranking.calls",
            "ranking.settings", "consistency.profiles", "consistency.skipped",
            "report.files", "report.bytes")}
        out.update({
            "dataset.parse_s": own["dataset.parse"],
            "dataset.rows_per_s": _rate(c["dataset.rows"], own["dataset.parse"]),
            "dataset.slice_s": own["dataset.slice"],
            "stats.bootstrap_s": own["stats.bootstrap"],
            "stats.replicates_per_s": _rate(c["stats.replicates"], own["stats.bootstrap"]),
            "stats.cell_ms_p50": statistics.median(cells) if cells else 0.0,
            # Reported only where at least ten cells lie beyond it.
            "stats.cell_ms_p90": (statistics.quantiles(cells, n=10, method="inclusive")[8]
                                  if len(cells) >= 100 else 0.0),
            "stats.unique_cell_ratio": len(self._cells) / calls if calls else 0.0,
            "stats.mean_sd_s": own["stats.mean_sd"],
            "consistency.kendall_s": own["consistency.kendall"],
            "ranking.s": own["ranking"],
            "consistency.self_s": own["consistency"],
            "report.export_s": own["report.export"],
            "cli.self_s": own["cli"],
            "cli.cpu_s": cpu_s,
        })
        return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
