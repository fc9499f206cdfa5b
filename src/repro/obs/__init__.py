"""Observability: metrics, tracing, and the cross-run report browser.

This package is the telemetry substrate under the matching system:

* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges and fixed-bucket histograms with deterministic
  ``repro-metrics/v1`` JSON snapshots and Prometheus-style exposition;
* :mod:`repro.obs.trace` — span-based tracing to a JSONL log, following
  one pair fingerprint → cache probe → matcher dispatch → store append;
* :mod:`repro.obs.report` — the ``repro report`` scanner: per-run
  summaries and cross-run trends over a tree of JSONL result stores.

Layering: :mod:`~repro.obs.metrics` and :mod:`~repro.obs.trace` import
only the standard library, so every layer may use them — the result
caches keep their counters in a registry and the pipeline traces into
:data:`~repro.obs.trace.NULL_TRACER` when no tracer is given.
``repro.core`` takes no metrics registry.  See
``docs/observability.md`` for the metric name catalog and span schema.
"""

from repro.obs.metrics import (
    METRIC_CATALOG,
    METRICS_FORMAT,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.obs.report import (
    REPORT_FORMAT,
    RunSummary,
    render_report,
    report_to_json,
    scan_results,
)

__all__ = [
    "METRIC_CATALOG",
    "METRICS_FORMAT",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "REPORT_FORMAT",
    "RunSummary",
    "render_report",
    "report_to_json",
    "scan_results",
]
