"""Unit tests for the service event protocol and the stock observers.

The contract under test: a run's event stream opens with ``RunStarted``,
closes with ``RunCompleted``, brackets every executed pair between its
``TaskStarted`` and its ``TaskCompleted``/``TaskFailed``, reports every
store append as a ``StoreFlushed``, and marks pairs answered without
execution as ``CacheHit`` (source ``"cache"`` or ``"store"``).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.service.cache import build_cache
from repro.service.events import (
    CacheHit,
    EventLogObserver,
    Observer,
    ProgressObserver,
    RunTotals,
    RunCompleted,
    RunStarted,
    StatsObserver,
    StoreFlushed,
    TaskCompleted,
    TaskFailed,
    TaskStarted,
    event_from_dict,
)
from repro.service.pipeline import MatchingService
from repro.service.workload import generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small corpus: the tractable classes x 2 families (one adversarial)."""
    root = tmp_path_factory.mktemp("events_corpus")
    generate_corpus(
        root,
        num_lines=4,
        classes=None,
        families=("random", "adversarial"),
        pairs_per_class=1,
        seed=13,
    )
    return root


class TestEventStreamShape:
    def test_cold_run_event_ordering(self, corpus, tmp_path):
        store = tmp_path / "results.jsonl"
        events = list(
            MatchingService().stream(corpus, store_path=store, seed=3)
        )
        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunCompleted)
        total = events[0].total
        assert events[0].executor == "serial"
        assert events[0].store_path == str(store)

        started = [e for e in events if isinstance(e, TaskStarted)]
        finished = [e for e in events if isinstance(e, (TaskCompleted, TaskFailed))]
        flushes = [e for e in events if isinstance(e, StoreFlushed)]
        assert len(started) == len(finished) == len(flushes) == total
        # Every pair's TaskStarted precedes its completion event.
        positions = {
            (type(e).__name__, getattr(e, "index", None)): i
            for i, e in enumerate(events)
            if isinstance(e, (TaskStarted, TaskCompleted, TaskFailed))
        }
        for event in finished:
            assert (
                positions[("TaskStarted", event.index)]
                < positions[(type(event).__name__, event.index)]
            )
        # Flush counters are cumulative and end at the total.
        assert [e.records_written for e in flushes] == list(range(1, total + 1))
        assert events[-1].report.executed == total

    def test_warm_run_yields_cache_hits_and_no_tasks(self, corpus):
        service = MatchingService(cache=build_cache())
        service.run_manifest(corpus, seed=3)
        events = list(service.stream(corpus, seed=3))
        hits = [e for e in events if isinstance(e, CacheHit)]
        assert len(hits) == events[0].total
        assert all(hit.source == "cache" for hit in hits)
        assert not any(isinstance(e, (TaskStarted, TaskCompleted)) for e in events)

    def test_resumed_pairs_surface_as_store_hits(self, corpus, tmp_path):
        store = tmp_path / "results.jsonl"
        MatchingService().run_manifest(corpus, store_path=store, seed=3)
        events = list(
            MatchingService().stream(corpus, store_path=store, resume=True, seed=3)
        )
        hits = [e for e in events if isinstance(e, CacheHit)]
        assert len(hits) == events[0].total
        assert all(hit.source == "store" for hit in hits)

    def test_failures_surface_as_task_failed(self, corpus):
        from repro.core.engine import MatchingConfig

        events = list(
            MatchingService(MatchingConfig(max_queries=1)).stream(corpus, seed=3)
        )
        failed = [e for e in events if isinstance(e, TaskFailed)]
        assert failed
        assert all("Error" in e.error for e in failed)

    def test_events_serialise_to_json(self, corpus):
        for event in MatchingService().stream(corpus, seed=3):
            payload = json.loads(json.dumps(event.to_dict()))
            assert payload["event"] == event.kind


class TestStatsObserver:
    def test_counts_a_cold_and_warm_run(self, corpus):
        stats = StatsObserver()
        service = MatchingService(cache=build_cache(), observers=[stats])
        cold = service.run_manifest(corpus, seed=3)
        assert stats.runs_started == stats.runs_completed == 1
        assert stats.started == stats.completed + stats.failed == cold.total
        assert stats.cache_hits == 0 and stats.store_flushes == 0
        service.run_manifest(corpus, seed=3)
        assert stats.runs_completed == 2
        assert stats.cache_hits == cold.total
        assert stats.started == cold.total  # warm run submitted nothing
        assert stats.as_dict()["cache_hits"] == cold.total

    def test_failed_counts_cached_failures_too(self, corpus):
        # A failure answered from the cache is still a failed pair, the
        # same rule the report's `failed` counts by.
        stats = StatsObserver()
        service = MatchingService(cache=build_cache(), observers=[stats])
        cold = service.run_manifest(corpus, seed=3)
        warm = service.run_manifest(corpus, seed=3)
        assert warm.cache_hits == warm.total and warm.failed == cold.failed > 0
        assert stats.failed == cold.failed + warm.failed

    def test_satisfies_the_observer_protocol(self):
        assert isinstance(StatsObserver(), Observer)
        assert isinstance(ProgressObserver(stream=io.StringIO()), Observer)

    def test_accumulates_duration_timings(self):
        stats = StatsObserver()
        for duration in (0.5, 0.25, 0.75):  # dyadic: sums are exact
            stats.notify(TaskCompleted(index=0, pair_id="p",
                                       record={}, duration_s=duration))
        stats.notify(TaskCompleted(index=1, pair_id="q", record={}))
        stats.notify(CacheHit(index=2, pair_id="r", source="cache",
                              record={}, duration_s=0.25))
        stats.notify(CacheHit(index=3, pair_id="s", source="store",
                              record={}))  # store resume: no duration
        timings = stats.as_dict()["timings"]
        assert timings["completed"] == {
            "count": 3, "total_s": 1.5, "min_s": 0.25, "max_s": 0.75,
        }
        assert timings["cache_hit"] == {
            "count": 1, "total_s": 0.25, "min_s": 0.25, "max_s": 0.25,
        }

    def test_live_run_populates_completed_timings(self, corpus):
        stats = StatsObserver()
        MatchingService(observers=[stats]).run_manifest(corpus, seed=3)
        timing = stats.completed_timing
        assert timing.count == stats.completed > 0
        assert timing.min_s is not None and timing.min_s >= 0.0
        assert timing.max_s >= timing.min_s
        assert timing.total_s >= timing.max_s


class TestProgressObserver:
    def test_line_per_n_pairs(self, corpus):
        out = io.StringIO()
        observer = ProgressObserver(stream=out, every=2)
        report = MatchingService(observers=[observer]).run_manifest(corpus, seed=3)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith(f"run started: {report.total} pairs")
        assert lines[-1].startswith(f"run completed: {report.total}/{report.total}")
        # One progress line per 2 finished pairs, between the banners.
        assert len(lines) == 2 + report.total // 2
        assert all("[" in line for line in lines[1:-1])

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            ProgressObserver(every=0)
        with pytest.raises(ValueError):
            ProgressObserver(every=-3)

    def test_exact_line_formats(self):
        """The lines are a stable, parseable contract, not just noise."""
        out = io.StringIO()
        observer = ProgressObserver(stream=out, every=2)
        observer.notify(RunStarted(total=3, executor="serial",
                                   store_path=None, seed=7, shard=None))
        observer.notify(TaskCompleted(index=0, pair_id="pair-a",
                                      record={"status": "ok"}))
        observer.notify(TaskFailed(index=1, pair_id="pair-b",
                                   record={"status": "failed"}))
        observer.notify(CacheHit(index=2, pair_id=None, source="cache",
                                 record={}))
        observer.notify(RunCompleted(report=RunTotals(
            total=3, matched=1, failed=1, resumed=0, cache_hits=1,
            executed=2, elapsed=0.5, executor="serial",
        )))
        assert out.getvalue().splitlines() == [
            "run started: 3 pairs via serial",
            # every=2: pair 1 is silent, pair 2 prints, pair 3 (a cache
            # hit with no pair_id: index label, '?' status) is silent.
            "[2/3] pair-b: failed",
            "run completed: 3/3 pairs, 1 failed",
        ]

    def test_every_n_batching_and_index_fallback(self):
        out = io.StringIO()
        observer = ProgressObserver(stream=out, every=3)
        observer.notify(RunStarted(total=4, executor="serial",
                                   store_path=None, seed=None, shard=None))
        for index in range(4):
            observer.notify(CacheHit(index=index, pair_id=None,
                                     source="cache", record={}))
        observer.notify(RunCompleted(report=RunTotals(
            total=4, matched=0, failed=0, resumed=0, cache_hits=4,
            executed=0, elapsed=0.1, executor="serial",
        )))
        lines = out.getvalue().splitlines()
        # Only the third pair hits the cadence; missing pair_id falls
        # back to the index and a record without "status" prints '?'.
        assert lines == [
            "run started: 4 pairs via serial",
            "[3/4] 2: ?",
            "run completed: 4/4 pairs, 0 failed",
        ]


class TestEventLogObserver:
    def test_writes_one_json_line_per_event(self, corpus, tmp_path):
        log_path = tmp_path / "events.jsonl"
        with EventLogObserver(log_path) as log:
            MatchingService(observers=[log]).run_manifest(corpus, seed=3)
        entries = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert entries[0]["event"] == "RunStarted"
        assert entries[-1]["event"] == "RunCompleted"
        kinds = {entry["event"] for entry in entries}
        assert {"TaskStarted"} <= kinds
        assert entries[-1]["total"] == entries[0]["total"]

    def test_close_is_idempotent(self, tmp_path):
        log = EventLogObserver(tmp_path / "events.jsonl")
        log.close()
        log.close()


class TestEventRoundTrip:
    """to_dict -> event_from_dict must be lossless enough for observers."""

    def test_each_event_kind_round_trips(self):
        events = [
            RunStarted(total=3, executor="serial", store_path="s.jsonl",
                       seed=7, shard=(1, 4)),
            TaskStarted(index=2, pair_id="p", equivalence="N-I"),
            CacheHit(index=0, pair_id="p", source="store",
                     record={"status": "resumed"}),
            TaskCompleted(index=1, pair_id=None, record={"status": "ok"}),
            TaskFailed(index=2, pair_id="q", record={"error": "E: boom"}),
            StoreFlushed(path="s.jsonl", records_written=4),
        ]
        for event in events:
            rebuilt = event_from_dict(json.loads(json.dumps(event.to_dict())))
            assert rebuilt == event

    def test_duration_fields_round_trip(self):
        """`duration_s` is part of the wire form — telemetry survives a
        relay, both as a value and as its `None` absence."""
        timed = [
            CacheHit(index=0, pair_id="p", source="cache",
                     record={"status": "cached"}, duration_s=0.0025),
            TaskCompleted(index=1, pair_id="q", record={"status": "ok"},
                          duration_s=0.75),
            TaskFailed(index=2, pair_id="r", record={"error": "E"},
                       duration_s=1.5),
        ]
        for event in timed:
            payload = json.loads(json.dumps(event.to_dict()))
            assert payload["duration_s"] == event.duration_s
            rebuilt = event_from_dict(payload)
            assert rebuilt == event
            assert rebuilt.duration_s == event.duration_s
        # Store resumes and older producers send null durations.
        bare = TaskCompleted(index=0, pair_id="p", record={"status": "ok"})
        assert bare.duration_s is None
        assert event_from_dict(bare.to_dict()).duration_s is None

    def test_run_completed_comes_back_as_summary(self, corpus):
        stream = MatchingService().stream(corpus, seed=3)
        completed = [e for e in stream if isinstance(e, RunCompleted)][0]
        rebuilt = event_from_dict(completed.to_dict())
        assert isinstance(rebuilt, RunCompleted)
        summary = rebuilt.report
        assert isinstance(summary, RunTotals)
        assert summary.total == completed.report.total
        assert summary.matched == completed.report.matched
        assert summary.executed == completed.report.executed
        assert summary.executor == completed.report.executor
        # The summary round-trips through to_dict identically: observers
        # downstream of a relay see the same counters.
        assert RunCompleted(report=summary).to_dict() == completed.to_dict()
        assert str(summary.total) in summary.summary()

    def test_rebuilt_events_drive_stats_observer_identically(self, corpus):
        direct, relayed = StatsObserver(), StatsObserver()
        for event in MatchingService().stream(corpus, seed=3):
            direct.notify(event)
            relayed.notify(event_from_dict(event.to_dict()))
        assert relayed.as_dict() == direct.as_dict()

    def test_run_completed_keeps_the_query_spend(self):
        report = RunTotals(
            total=4, matched=3, failed=1, resumed=0, cache_hits=1,
            executed=3, queries=57, quantum_queries=12,
            statuses={"ok": 2, "failed": 1, "cached": 1},
            classes={"N-I": 2, "I-P": 2}, elapsed=0.5, executor="serial",
        )
        rebuilt = event_from_dict(
            json.loads(json.dumps(RunCompleted(report=report).to_dict()))
        )
        assert rebuilt == RunCompleted(report=report)

    def test_missing_required_field_is_named(self):
        with pytest.raises(ValueError, match="'pair_id'"):
            event_from_dict({"event": "TaskStarted", "index": 1})
        with pytest.raises(ValueError, match="'records_written'"):
            event_from_dict({"event": "StoreFlushed", "path": "s.jsonl"})
        # Fields with a default may be omitted, as older producers did
        # with duration_s.
        older = event_from_dict({"event": "TaskCompleted", "index": 0,
                                 "pair_id": "p", "record": {}})
        assert older.duration_s is None

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="not a service event"):
            event_from_dict({"event": "Nonsense"})
        with pytest.raises(ValueError, match="not a service event"):
            event_from_dict({"total": 3})
        with pytest.raises(ValueError, match="not a service event"):
            event_from_dict({"event": ["RunStarted"]})
