"""End-to-end observability: metrics, traces and stats must reconcile.

The acceptance contract of the `repro.obs` layer is not "numbers exist"
but "every view agrees": the per-tier cache counters in a metrics
snapshot equal the cache's own `CacheStats`, which equal what a
`StatsObserver` saw on the event stream; a span log reconstructs each
pair's journey as a connected tree whose `match` duration is the same
number the `TaskCompleted` event carried; and the daemon's `metrics` op
reconciles with its `stats` op.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service import (
    DaemonClient,
    MatchingDaemon,
    RunState,
    SerialExecutor,
    StatsObserver,
    generate_corpus,
)
from repro.service.cache import build_cache
from repro.service.pipeline import MatchingService

TIMEOUT = 30.0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs_corpus")
    generate_corpus(
        root,
        num_lines=4,
        families=("random",),
        pairs_per_class=1,
        seed=11,
    )
    return root


def _counter_value(snapshot: dict, name: str, **labels):
    """One counter summed over every sample whose labels include `labels`."""
    metric = snapshot["metrics"].get(name, {"samples": []})
    return sum(
        sample["value"]
        for sample in metric["samples"]
        if labels.items() <= sample["labels"].items()
    )


class TestMetricsReconcile:
    def test_snapshot_stats_and_observer_agree(self, corpus):
        metrics = MetricsRegistry()
        cache = build_cache()
        cache.bind_metrics(metrics)
        stats = StatsObserver()
        service = MatchingService(
            cache=cache,
            executor=SerialExecutor(),
            observers=[stats],
            metrics=metrics,
        )
        cold = service.run_manifest(corpus, seed=5)
        warm = service.run_manifest(corpus, seed=5)
        assert cold.executed == cold.total > 0
        assert warm.cache_hits == warm.total and warm.executed == 0

        snapshot = metrics.snapshot()
        tier = cache.metrics_tier
        # The three views of the cache: the registry, the cache's own
        # stats, and the observer watching the event stream.
        assert _counter_value(
            snapshot, "repro_cache_hits_total", tier=tier
        ) == cache.stats.hits == stats.cache_hits == warm.total
        assert _counter_value(
            snapshot, "repro_cache_misses_total", tier=tier
        ) == cache.stats.misses == cold.total
        assert _counter_value(
            snapshot, "repro_cache_stores_total", tier=tier
        ) == cache.stats.stores == cold.total
        assert cache.stats.as_dict()["hits"] == stats.cache_hits

        # Pipeline counters: one run each way, every pair accounted for.
        assert _counter_value(snapshot, "repro_runs_total") == 2
        assert _counter_value(
            snapshot, "repro_run_pairs_total", outcome="completed"
        ) == cold.total
        assert _counter_value(
            snapshot, "repro_run_pairs_total", outcome="cached"
        ) == warm.total

        # The executed pairs' oracle spend, counted as each one settles.
        assert _counter_value(
            snapshot, "repro_engine_queries_total", kind="classical"
        ) == cold.queries
        task_seconds = snapshot["metrics"]["repro_task_seconds"]["samples"][0]
        assert task_seconds["count"] == cold.total
        run_seconds = snapshot["metrics"]["repro_run_seconds"]["samples"][0]
        assert run_seconds["count"] == 2

        # The observer's latency accumulators cover the same pairs.
        assert stats.completed_timing.count == cold.total
        assert stats.cache_hit_timing.count == warm.total

    def test_snapshot_is_json_round_trippable(self, corpus):
        metrics = MetricsRegistry()
        MatchingService(metrics=metrics).run_manifest(corpus, seed=5)
        snapshot = metrics.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestSpanTree:
    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "memory+disk"])
    def test_every_stage_links_back_to_its_pair(self, corpus, tmp_path, disk):
        trace_path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_path)
        service = MatchingService(
            cache=build_cache(disk_dir=tmp_path / "cache" if disk else None),
            executor=SerialExecutor(),
            tracer=tracer,
        )
        events = list(service.stream(
            corpus, store_path=tmp_path / "run.jsonl", seed=5
        ))
        tracer.close()
        spans = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        by_id = {span["span_id"]: span for span in spans}
        pairs = [s for s in spans if s["name"] == "pair"]
        completions = [e for e in events if e.kind == "TaskCompleted"]
        assert len(pairs) == len(completions) > 0

        # Connectivity: every non-root span's parent exists and is a
        # pair span — the tree is fingerprint → ... → store_append.
        children_of = {}
        for span in spans:
            if span["name"] in ("pair", "cache_prefetch"):
                assert span["parent_id"] is None
                continue
            parent = by_id.get(span["parent_id"])
            assert parent is not None, f"orphan span {span}"
            assert parent["name"] == "pair"
            children_of.setdefault(parent["span_id"], set()).add(span["name"])
        for pair in pairs:
            assert children_of[pair["span_id"]] == {
                "fingerprint", "cache_probe", "match", "store_append",
            }

        # The match span is the executor's own measurement — the same
        # number the TaskCompleted event carried.
        match_by_pair_id = {
            s["attrs"]["pair_id"]: s["duration_s"]
            for s in spans if s["name"] == "match"
        }
        for event in completions:
            assert match_by_pair_id[event.pair_id] == event.duration_s

        # Every pair is keyed inside its own fingerprint span, before the
        # one batched cache_prefetch hint and any probe.
        [prefetch] = [s for s in spans if s["name"] == "cache_prefetch"]
        fingerprints = [s for s in spans if s["name"] == "fingerprint"]
        assert len(fingerprints) == len(pairs)
        assert all(
            s["start_s"] + s["duration_s"] <= prefetch["start_s"]
            for s in fingerprints
        )
        prefetched = prefetch["start_s"] + prefetch["duration_s"]
        assert all(
            s["start_s"] >= prefetched for s in spans if s["name"] == "cache_probe"
        )


class TestDaemonMetricsOp:
    def test_metrics_op_reconciles_with_stats_op(self, corpus, tmp_path):
        daemon = MatchingDaemon(
            store_dir=tmp_path / "runs", host="127.0.0.1", port=0
        )
        daemon.start()
        try:
            with DaemonClient.from_address(
                daemon.address, timeout=TIMEOUT
            ) as client:
                ack = client.submit(corpus, seed=5)
                assert client.watch(ack["run_id"], []) == RunState.COMPLETED
                # Resubmit: the shared cache answers every pair.
                second = client.submit(corpus, seed=5)
                assert client.watch(second["run_id"], []) == RunState.COMPLETED
                stats = client.stats()
                response = client.metrics()
        finally:
            daemon.stop()
        assert response["ok"] is True and response["op"] == "metrics"
        snapshot = response["metrics"]
        assert snapshot["format"] == "repro-metrics/v1"

        # The daemon's default cache is memory in front of disk: the
        # stats op reads the stack out of its two leaf tiers' series.
        cache_block = stats["cache"]
        assert "tiered" not in {
            sample["labels"]["tier"]
            for sample in snapshot["metrics"]["repro_cache_hits_total"]["samples"]
        }
        assert _counter_value(
            snapshot, "repro_cache_hits_total", tier="memory"
        ) + _counter_value(
            snapshot, "repro_cache_hits_total", tier="disk"
        ) == cache_block["hits"]
        assert _counter_value(
            snapshot, "repro_cache_misses_total", tier="disk"
        ) == cache_block["misses"]
        assert _counter_value(
            snapshot, "repro_cache_stores_total", tier="disk"
        ) == cache_block["stores"]
        assert cache_block["hits"] > 0  # the resubmit hit the cache
        assert set(cache_block) == {
            "hits", "misses", "stores", "evictions", "scheme_hits", "size",
        }
        assert _counter_value(
            snapshot, "repro_daemon_jobs_total", state=str(RunState.COMPLETED)
        ) == stats["runs"]["completed"] == 2
