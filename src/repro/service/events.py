"""Typed lifecycle events and the observer protocol of the service layer.

:meth:`repro.service.pipeline.MatchingService.stream` is a generator of
the events defined here — one :class:`RunStarted` first, then one
:class:`TaskStarted`/:class:`CacheHit` per pair followed by its
:class:`TaskCompleted` or :class:`TaskFailed` (plus a
:class:`StoreFlushed` after every record that reaches the JSONL store),
and exactly one :class:`RunCompleted` last.  Events are frozen dataclasses
with a :meth:`~ServiceEvent.to_dict` JSON form, so an event stream can be
logged, shipped or replayed without the service layer knowing who listens.

Consumers either iterate the generator directly or register
:class:`Observer` objects with the service; three stock observers cover
the common cases:

* :class:`ProgressObserver` — a progress line every N finished pairs
  (quiet between lines; what ``repro run --progress`` wires up),
* :class:`EventLogObserver` — append-only JSONL event log,
* :class:`StatsObserver` — in-memory counters for tests and dashboards.

Observer failures are deliberately *not* swallowed: a broken observer is
a bug in the caller's wiring, and silently dropping its exception would
hide it.

Because events are JSON both ways — :meth:`~ServiceEvent.to_dict` out,
:func:`event_from_dict` back in — an event stream crosses process and
socket boundaries losslessly enough for observers: the matching daemon
serialises events onto its wire protocol and ``repro watch`` rebuilds
typed events on the client, so the same ``ProgressObserver`` works
against an in-process run and a remote one.  The wire form of an
event is its fields; :class:`RunCompleted`'s is every field of its
:class:`RunTotals`, query spend included, and :func:`event_from_dict`
rebuilds it around a :class:`RunTotals` rather than a full
:class:`~repro.service.pipeline.ServiceReport` (the per-pair records
were already streamed one event each).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from functools import cache
from typing import IO, Protocol, runtime_checkable

__all__ = [
    "ServiceEvent",
    "RunStarted",
    "TaskStarted",
    "CacheHit",
    "TaskCompleted",
    "TaskFailed",
    "StoreFlushed",
    "RunCompleted",
    "RunTotals",
    "matched",
    "event_from_dict",
    "Observer",
    "ProgressObserver",
    "EventLogObserver",
    "StatsObserver",
]


@dataclass(frozen=True)
class ServiceEvent:
    """Base class of every service lifecycle event."""

    @property
    def kind(self) -> str:
        """The event's type name (``"TaskCompleted"`` etc.)."""
        return type(self).__name__

    def to_dict(self) -> dict:
        """A JSON-ready dict of the event: ``{"event": kind}`` plus its fields."""
        # type(self).__name__ rather than the kind property: this runs
        # once per daemon event, and the property call is a fifth of it.
        return {"event": type(self).__name__, **self.__dict__}


@dataclass(frozen=True)
class RunStarted(ServiceEvent):
    """A run began; emitted once, before any pair is touched.

    Attributes:
        total: pairs this run will account for (after shard filtering).
        executor: the execution backend's name.
        store_path: the JSONL result store, if one is attached.
        seed: the run seed (per-pair seeds derive from it).
        shard: ``(index, count)`` when this is one shard of a larger run.
    """

    total: int
    executor: str
    store_path: str | None = None
    seed: int | None = None
    shard: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        # JSON has no tuples: a shard read off the wire arrives as a list.
        if self.shard is not None:
            object.__setattr__(self, "shard", tuple(self.shard))


@dataclass(frozen=True)
class TaskStarted(ServiceEvent):
    """A pair was handed to the executor (not served by store or cache)."""

    index: int
    pair_id: str | None
    equivalence: str


@dataclass(frozen=True)
class CacheHit(ServiceEvent):
    """A pair was answered without executing anything.

    Attributes:
        source: ``"store"`` when resume found the pair in the result
            store, ``"cache"`` when the result cache had it.
        record: the run record the hit produced.
        duration_s: wall-clock seconds the settle took (fingerprint +
            cache probe + store append); ``None`` for store hits, which
            re-use a prior run's record without doing any work.
    """

    index: int
    pair_id: str | None
    source: str
    record: dict
    duration_s: float | None = None


@dataclass(frozen=True)
class TaskCompleted(ServiceEvent):
    """A freshly executed pair produced witnesses.

    ``duration_s`` is the matcher-dispatch wall clock measured by the
    executor (in the worker process for pooled backends).  It never
    enters the persisted record — stores stay byte-identical across
    serial, parallel and sharded runs — so it rides on the event only.
    """

    index: int
    pair_id: str | None
    record: dict
    duration_s: float | None = None


@dataclass(frozen=True)
class TaskFailed(ServiceEvent):
    """A freshly executed pair's matcher raised instead of matching.

    ``duration_s`` mirrors :class:`TaskCompleted`: the executor-measured
    dispatch wall clock, carried on the event and never in the record.
    """

    index: int
    pair_id: str | None
    record: dict
    duration_s: float | None = None

    @property
    def error(self) -> str | None:
        """The recorded ``"ExceptionName: message"`` failure."""
        return self.record.get("error")


@dataclass(frozen=True)
class StoreFlushed(ServiceEvent):
    """One record reached the JSONL result store (append + flush).

    Attributes:
        path: the store file.
        records_written: cumulative records this run has flushed.
    """

    path: str
    records_written: int


def matched(record: dict) -> bool:
    """Whether a run record answered its pair: it carries a ``result``.

    The one rule every run view counts ``matched``/``failed`` by, so a
    failed pair stays failed whether it was executed, served from the
    cache or resumed from the store.
    """
    return bool(record.get("result"))


@dataclass(frozen=True)
class RunTotals:
    """A run's outcomes and oracle-query spend, counted off its records.

    The one run summary: the service report, the fleet report and
    ``repro report``'s store summary extend it, each built by
    :meth:`from_records`, so views given the same records agree.  A
    :class:`RunCompleted` round trip keeps every field (:meth:`to_dict`);
    a subclass's own fields, such as per-pair records, stay on the
    producing side.

    Attributes:
        total: pairs accounted for.
        matched, failed: pairs with and without a result (:func:`matched`).
        resumed, cache_hits, executed: pairs whose status is ``resumed``,
            ``cached``, and ``ok`` or ``failed``.
        queries, quantum_queries: oracle queries spent by freshly
            executed (``ok``) pairs.
        statuses: pairs per status; classes: pairs per equivalence class.
        elapsed: wall-clock seconds of the run.
        executor: the execution backend's name.
    """

    total: int = 0
    matched: int = 0
    failed: int = 0
    resumed: int = 0
    cache_hits: int = 0
    executed: int = 0
    queries: int = 0
    quantum_queries: int = 0
    statuses: dict[str, int] = field(default_factory=dict)
    classes: dict[str, int] = field(default_factory=dict)
    elapsed: float | None = 0.0
    executor: str | None = "?"

    @classmethod
    def from_records(
        cls, records: Iterable[dict], /, *, elapsed, executor, **fields
    ):
        """Count ``records`` in one pass; ``fields`` fill a subclass's own.

        A record without a status or class counts under ``"?"``.
        """
        statuses: Counter[str] = Counter()
        classes: Counter[str] = Counter()
        answered = queries = quantum_queries = 0
        for record in records:
            status = record.get("status") or "?"
            statuses[status] += 1
            classes[record.get("equivalence") or "?"] += 1
            if matched(record):
                answered += 1
            if status == "ok":
                result = record.get("result") or {}
                queries += result.get("queries", 0)
                quantum_queries += result.get("quantum_queries", 0)
        total = statuses.total()
        return cls(
            total=total,
            matched=answered,
            failed=total - answered,
            resumed=statuses["resumed"],
            cache_hits=statuses["cached"],
            executed=statuses["ok"] + statuses["failed"],
            queries=queries,
            quantum_queries=quantum_queries,
            statuses=dict(statuses),
            classes=dict(classes),
            elapsed=elapsed,
            executor=executor,
            **fields,
        )

    def to_dict(self) -> dict:
        """Every :class:`RunTotals` field, JSON-ready."""
        return {name: getattr(self, name) for name in _field_names(RunTotals)}

    def summary(self) -> str:
        """One-line aggregate: outcomes, answer sources, wall clock."""
        return (
            f"{self.matched}/{self.total} matched ({self.failed} failed), "
            f"{self.cache_hits} cached, {self.resumed} resumed, "
            f"{self.executed} executed via {self.executor} in "
            f"{self.elapsed:.2f}s"
        )


@dataclass(frozen=True)
class RunCompleted(ServiceEvent):
    """The run finished; carries its :class:`RunTotals` (the full
    :class:`~repro.service.pipeline.ServiceReport` in process)."""

    report: RunTotals

    def to_dict(self) -> dict:
        return {"event": self.kind, **self.report.to_dict()}


_EVENT_TYPES = {cls.__name__: cls for cls in ServiceEvent.__subclasses__()}


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _from_fields(cls, data: dict):
    """Build ``cls`` from the frame's values for its fields."""
    try:
        return cls(**{name: data[name] for name in _field_names(cls) if name in data})
    except TypeError as error:  # a required field is missing, or malformed
        raise ValueError(f"malformed {data['event']} frame: {error}") from None


def event_from_dict(data: dict) -> ServiceEvent:
    """Rebuild a typed event from :meth:`ServiceEvent.to_dict` output.

    The inverse that lets observers watch a run they did not produce —
    an event log replay, or a daemon's wire frames.  ``RunCompleted``
    comes back with a :class:`RunTotals` as its report.  Keys that are
    not fields are ignored.  Raises :class:`ValueError` on an unknown or
    missing ``"event"`` kind, or a frame that lacks a field without a
    default.
    """
    kind = data.get("event")
    event_type = _EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if event_type is None:
        raise ValueError(f"not a service event dict (event kind {kind!r})")
    if event_type is RunCompleted:
        return RunCompleted(report=_from_fields(RunTotals, data))
    return _from_fields(event_type, data)


@runtime_checkable
class Observer(Protocol):
    """Anything with a ``notify(event)`` method can watch a run."""

    def notify(self, event: ServiceEvent) -> None:
        """Receive one lifecycle event."""


class ProgressObserver:
    """Print a progress line every ``every`` finished pairs.

    A pair counts as finished when its :class:`TaskCompleted`,
    :class:`TaskFailed` or :class:`CacheHit` arrives; the final tally is
    always printed at :class:`RunCompleted`, so short runs are never
    silent.  Its failed count is the run report's, which includes pairs
    whose failure the cache or the store answered.

    Args:
        stream: output text stream; defaults to ``sys.stderr`` so progress
            never mixes with a report printed on stdout.
        every: line cadence in pairs.
    """

    def __init__(self, stream: IO[str] | None = None, every: int = 1) -> None:
        if every <= 0:
            raise ValueError(f"progress cadence must be positive, got {every}")
        self._stream = stream
        self._every = every
        self._total = 0
        self._done = 0

    def _out(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def notify(self, event: ServiceEvent) -> None:
        if isinstance(event, RunStarted):
            self._total = event.total
            self._done = 0
            print(
                f"run started: {event.total} pairs via {event.executor}",
                file=self._out(),
            )
            return
        if isinstance(event, (TaskCompleted, TaskFailed, CacheHit)):
            self._done += 1
            if self._done % self._every == 0:
                label = event.pair_id if event.pair_id is not None else event.index
                print(
                    f"[{self._done}/{self._total}] {label}: "
                    f"{event.record.get('status', '?')}",
                    file=self._out(),
                )
            return
        if isinstance(event, RunCompleted):
            print(
                f"run completed: {self._done}/{self._total} pairs, "
                f"{event.report.failed} failed",
                file=self._out(),
            )


class EventLogObserver:
    """Append every event as one JSON line to a log file.

    The file is opened lazily on the first event and flushed per line, so
    a crash loses at most the record being written; :meth:`close` (or the
    context-manager form) releases the handle.
    """

    def __init__(self, path) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    @property
    def path(self):
        """The log file path."""
        return self._path

    def notify(self, event: ServiceEvent) -> None:
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event.to_dict()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLogObserver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _TimingStats:
    """Sum/min/max accumulator over the ``duration_s`` of one event kind."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s: float | None = None
        self.max_s: float | None = None

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = duration_s if self.min_s is None else min(self.min_s, duration_s)
        self.max_s = duration_s if self.max_s is None else max(self.max_s, duration_s)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }


class StatsObserver:
    """Count events in memory — the assertion-friendly observer.

    The pair outcomes are read off each :class:`RunCompleted`'s
    :class:`RunTotals`, so they equal the sum of the runs' reports; a
    stream cut before its ``RunCompleted`` adds nothing to them.

    Attributes:
        runs_started, runs_completed: run boundary counts.
        started: pairs handed to the executor.
        completed: freshly executed pairs that produced witnesses (the
            reports' ``ok`` status count).
        failed: settled pairs without a result (:func:`matched`), however
            they were answered — the reports' ``failed``.
        cache_hits: pairs the result cache answered; resumed: pairs
            replayed from the result store.
        store_flushes: records flushed to the JSONL store.
        completed_timing, cache_hit_timing: sum/min/max accumulators over
            the ``duration_s`` of :class:`TaskCompleted` and
            :class:`CacheHit` events (events without a duration — store
            hits, or streams from older producers — are not counted).
    """

    def __init__(self) -> None:
        self.runs_started = 0
        self.runs_completed = 0
        self.started = 0
        self.completed = 0
        self.failed = 0
        self.cache_hits = 0
        self.resumed = 0
        self.store_flushes = 0
        self.completed_timing = _TimingStats()
        self.cache_hit_timing = _TimingStats()

    def notify(self, event: ServiceEvent) -> None:
        if isinstance(event, RunStarted):
            self.runs_started += 1
        elif isinstance(event, TaskStarted):
            self.started += 1
        elif isinstance(event, TaskCompleted):
            if event.duration_s is not None:
                self.completed_timing.add(event.duration_s)
        elif isinstance(event, CacheHit):
            if event.duration_s is not None:
                self.cache_hit_timing.add(event.duration_s)
        elif isinstance(event, StoreFlushed):
            self.store_flushes += 1
        elif isinstance(event, RunCompleted):
            report = event.report
            self.runs_completed += 1
            self.completed += report.statuses.get("ok", 0)
            self.failed += report.failed
            self.cache_hits += report.cache_hits
            self.resumed += report.resumed

    def as_dict(self) -> dict:
        """The counters as a plain dict (stable keys for reports)."""
        return {
            "runs_started": self.runs_started,
            "runs_completed": self.runs_completed,
            "started": self.started,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "store_flushes": self.store_flushes,
            "timings": {
                "completed": self.completed_timing.as_dict(),
                "cache_hit": self.cache_hit_timing.as_dict(),
            },
        }
