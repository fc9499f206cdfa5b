"""Seeded counter parity: every view of a run counts each pair once.

The pipeline is the one place that counts run series, under every
executor.  So for a serial and a pooled backend alike, the metrics
registry, the `StatsObserver` watching the event stream and the run
reports must agree pair for pair, over a cold pass, a warm pass answered
by the cache and a resumed pass answered by the store, on corpora whose
adversarial near-misses fail.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ParallelExecutor,
    SerialExecutor,
    StatsObserver,
    generate_corpus,
)
from repro.service.cache import build_cache
from repro.service.pipeline import MatchingService

SEEDS = (3, 5, 8)

EXECUTORS = {
    "serial": SerialExecutor,
    "parallel": lambda: ParallelExecutor(workers=2),
}

#: repro_run_pairs_total outcome -> the record status it counts.
OUTCOME_STATUS = {
    "completed": "ok",
    "failed": "failed",
    "cached": "cached",
    "resumed": "resumed",
}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_observer_and_reports_agree(tmp_path, executor, seed):
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, num_lines=4, seed=seed)
    metrics = MetricsRegistry()
    stats = StatsObserver()
    service = MatchingService(
        cache=build_cache(),
        executor=EXECUTORS[executor](),
        observers=[stats],
        metrics=metrics,
    )
    cold_store = tmp_path / "cold.jsonl"
    cold = service.run_manifest(corpus, store_path=cold_store, seed=seed)
    warm = service.run_manifest(
        corpus, store_path=tmp_path / "warm.jsonl", seed=seed
    )
    resumed = service.run_manifest(
        corpus, store_path=cold_store, resume=True, seed=seed
    )
    reports = (cold, warm, resumed)
    assert cold.executed == cold.total and cold.failed > 0
    assert warm.cache_hits == warm.total and warm.failed == cold.failed
    assert resumed.resumed == resumed.total

    pairs = metrics.counter("repro_run_pairs_total")
    for outcome, status in OUTCOME_STATUS.items():
        assert pairs.value(outcome=outcome) == sum(
            report.statuses.get(status, 0) for report in reports
        ), outcome

    queries = metrics.counter("repro_engine_queries_total")
    assert queries.value(kind="classical") == cold.queries > 0
    assert queries.value(kind="quantum") == cold.quantum_queries > 0
    assert metrics.histogram("repro_task_seconds").count() == cold.executed

    assert stats.failed == sum(report.failed for report in reports)
    assert stats.cache_hits == sum(report.cache_hits for report in reports)
    assert stats.resumed == sum(report.resumed for report in reports)
