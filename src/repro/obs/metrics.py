"""The metrics substrate: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe bag of named metrics with two
export forms: a deterministic ``repro-metrics/v1`` JSON snapshot (every
key sorted, so two identical runs serialise identically) and a
Prometheus-style text exposition.  The registry is deliberately passive —
instrumented code calls ``registry.counter(name).inc(...)`` and nothing
else; collection, aggregation and export are the caller's business.

Metric names are a closed catalogue: :data:`METRIC_CATALOG` below is the
single source of truth, and the ``drift-metric-names`` lint rule keeps it
in sync with the documented catalog in ``docs/observability.md`` (both
directions).  Asking the registry for a name outside the catalogue is a
programming error and raises immediately, so a typo cannot silently mint
a new time series.

The module sits below every other layer (it imports only the standard
library); engine, cache and pipeline accept a registry duck-typed, so
``repro.core`` and ``repro.service`` never import ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

__all__ = [
    "METRIC_CATALOG",
    "METRICS_FORMAT",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
]

#: Format tag carried by every JSON snapshot.
METRICS_FORMAT = "repro-metrics/v1"

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

# The closed catalogue of metric names.  Keys are the wire names; the
# ``drift-metric-names`` lint rule diffs these keys against the metric
# name catalog table in docs/observability.md, both directions — add a
# name here and the lint fails until the doc row exists, and vice versa.
METRIC_CATALOG = {
    "repro_cache_hits_total": {
        "type": "counter",
        "help": "Result-cache lookups answered from the cache, by tier.",
    },
    "repro_cache_misses_total": {
        "type": "counter",
        "help": "Result-cache lookups that found nothing, by tier.",
    },
    "repro_cache_stores_total": {
        "type": "counter",
        "help": "Records written into the result cache, by tier.",
    },
    "repro_cache_evictions_total": {
        "type": "counter",
        "help": "Entries evicted to respect a tier's capacity bound.",
    },
    "repro_engine_pairs_total": {
        "type": "counter",
        "help": "Pairs settled by the engine, by status.",
    },
    "repro_engine_queries_total": {
        "type": "counter",
        "help": "Oracle queries spent by freshly matched pairs, by kind.",
    },
    "repro_engine_match_seconds": {
        "type": "histogram",
        "help": "Wall-clock seconds per matcher dispatch inside the engine.",
    },
    "repro_runs_total": {
        "type": "counter",
        "help": "Service runs started (one per RunStarted event).",
    },
    "repro_run_seconds": {
        "type": "histogram",
        "help": "Wall-clock seconds per completed service run.",
    },
    "repro_run_pairs_total": {
        "type": "counter",
        "help": "Pairs settled by the service pipeline, by outcome.",
    },
    "repro_task_seconds": {
        "type": "histogram",
        "help": "Wall-clock seconds per executed task, as measured by the executor.",
    },
    "repro_store_flushes_total": {
        "type": "counter",
        "help": "Records appended and flushed to a JSONL result store.",
    },
    "repro_store_torn_lines": {
        "type": "gauge",
        "help": "Torn (unparseable) lines the last store load skipped.",
    },
    "repro_daemon_jobs_total": {
        "type": "counter",
        "help": "Daemon jobs finished, by final state.",
    },
    "repro_fleet_runs_total": {
        "type": "counter",
        "help": "Fleet runs finished by the coordinator, by outcome.",
    },
    "repro_fleet_run_seconds": {
        "type": "histogram",
        "help": "Wall-clock seconds per fleet run, dispatch through merge.",
    },
    "repro_fleet_shards_total": {
        "type": "counter",
        "help": "Shard dispatches settled by the coordinator, by outcome.",
    },
    "repro_fleet_peer_failures_total": {
        "type": "counter",
        "help": "Worker daemons the coordinator gave up on, by reason.",
    },
    "repro_cachenet_requests_total": {
        "type": "counter",
        "help": "Remote-cache requests answered by the server, by op.",
    },
    "repro_cachenet_errors": {
        "type": "counter",
        "help": "Remote-cache wire failures absorbed by local degradation.",
    },
    "repro_cachenet_reconnects_total": {
        "type": "counter",
        "help": "Fresh connections the remote cache tier opened after a failure.",
    },
}


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable, sortable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name, help text, and the registry's lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock) -> None:
        self.name = name
        self.help = help_text
        self._lock = lock
        self._samples: dict = {}

    def labelsets(self) -> list[tuple]:
        with self._lock:
            return sorted(self._samples)


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels):
        with self._lock:
            return self._samples.get(_label_key(labels), 0)

    def total(self):
        """Sum across every label set."""
        with self._lock:
            return sum(self._samples.values())

    def snapshot_samples(self) -> list[dict]:
        with self._lock:
            return [
                {"labels": dict(key), "value": self._samples[key]}
                for key in sorted(self._samples)
            ]

    def expose(self) -> list[str]:
        return [
            _sample_line(self.name, sample["labels"], sample["value"])
            for sample in self.snapshot_samples()
        ]


class Gauge(_Metric):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def set(self, value: int | float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = value

    def value(self, **labels):
        with self._lock:
            return self._samples.get(_label_key(labels), 0)

    snapshot_samples = Counter.snapshot_samples
    expose = Counter.expose


class Histogram(_Metric):
    """Fixed-bucket histogram: cumulative bucket counts, sum and count."""

    kind = "histogram"

    def __init__(self, name, help_text, lock, buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: int | float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._samples[key] = state
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state["counts"][index] += 1
                    break
            state["sum"] += value
            state["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            state = self._samples.get(_label_key(labels))
            return 0 if state is None else state["count"]

    def snapshot_samples(self) -> list[dict]:
        with self._lock:
            samples = []
            for key in sorted(self._samples):
                state = self._samples[key]
                cumulative, running = {}, 0
                for bound, bucket_count in zip(self.buckets, state["counts"]):
                    running += bucket_count
                    cumulative[_le_label(bound)] = running
                cumulative["+Inf"] = state["count"]
                samples.append({
                    "labels": dict(key),
                    "buckets": cumulative,
                    "sum": state["sum"],
                    "count": state["count"],
                })
            return samples

    def expose(self) -> list[str]:
        lines = []
        for sample in self.snapshot_samples():
            labels = sample["labels"]
            for le, cumulative in sample["buckets"].items():
                lines.append(_sample_line(
                    self.name + "_bucket", {**labels, "le": le}, cumulative
                ))
            lines.append(_sample_line(self.name + "_sum", labels, sample["sum"]))
            lines.append(_sample_line(self.name + "_count", labels, sample["count"]))
        return lines


def _le_label(bound: float) -> str:
    """Bucket bound as a label value: integral bounds lose the '.0'."""
    return str(int(bound)) if bound == int(bound) else str(bound)


def _sample_line(name: str, labels: dict, value) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{labels[key]}"' for key in sorted(labels)
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named bag of metrics sharing one lock, with deterministic export."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    def counter(self, name: str) -> Counter:
        return self._metric(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._metric(name, "gauge")

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self._metric(name, "histogram", buckets=buckets)

    def _metric(self, name: str, kind: str, buckets=None):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                spec = METRIC_CATALOG.get(name)
                if spec is None:
                    raise ValueError(
                        f"unknown metric {name!r}: every metric name must be "
                        "declared in METRIC_CATALOG (and documented in "
                        "docs/observability.md)"
                    )
                if spec["type"] != kind:
                    raise ValueError(
                        f"metric {name!r} is catalogued as a {spec['type']}, "
                        f"not a {kind}"
                    )
                if kind == "histogram":
                    metric = Histogram(
                        name, spec["help"], self._lock,
                        buckets=buckets or DEFAULT_BUCKETS,
                    )
                else:
                    metric = _KINDS[kind](name, spec["help"], self._lock)
                self._metrics[name] = metric
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    f"not a {kind}"
                )
            return metric

    def snapshot(self) -> dict:
        """The full ``repro-metrics/v1`` snapshot, every key sorted."""
        with self._lock:
            metrics = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                metrics[name] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "samples": metric.snapshot_samples(),
                }
            return {"format": METRICS_FORMAT, "metrics": metrics}

    def to_prometheus(self) -> str:
        """Prometheus-style text exposition of every registered metric."""
        lines = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_json(self, path) -> None:
        """Atomically publish the snapshot as JSON (tmp + rename)."""
        target = Path(path)
        payload = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, target)
