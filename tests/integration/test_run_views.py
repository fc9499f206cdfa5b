"""Every view of a run reports the same totals.

A run is summarised by the in-process ``ServiceReport``, the wire form
of its ``RunCompleted``, the ``<store>.meta.json`` sidecar, ``repro
report``'s ``summarize_store`` of the written store, the fleet's
``FleetReport`` and the live progress/daemon counters.  All of them are
``RunTotals`` counted off records, so these tests drive corpora with
adversarial (failing) pairs through cold, warm and resumed passes and
require the views to agree on every field they share.  The one
documented difference is resume: the report relabels replayed pairs
``resumed`` and leaves their queries out of the spend, while the store
keeps each pair's original record.
"""

from __future__ import annotations

import io
import json
import re

import pytest

from repro.core.equivalence import EquivalenceType
from repro.fleet import FleetCoordinator
from repro.obs.report import summarize_store
from repro.service import (
    DaemonClient,
    MatchingDaemon,
    MatchingService,
    ProgressObserver,
    RunCompleted,
    build_cache,
    event_from_dict,
    generate_corpus,
)

#: Classical classes whose adversarial near-misses fail, plus quantum N-I.
CLASSES = (
    EquivalenceType.I_P,
    EquivalenceType.I_NP,
    EquivalenceType.P_I,
    EquivalenceType.P_N,
    EquivalenceType.N_I,
)

#: Counters every view carries.
COUNTS = ("total", "matched", "failed", "resumed", "cache_hits", "executed")
#: The query spend and the status and class mix of a run.
SPEND = ("queries", "quantum_queries", "statuses", "classes")
#: What the wire form and the sidecar carry: every RunTotals field.
WIRE = COUNTS + SPEND + ("elapsed", "executor")

_PROGRESS_DONE = re.compile(r"run completed: \d+/\d+ pairs, (\d+) failed")


def make_corpus(path, seed):
    generate_corpus(
        path,
        num_lines=3,
        classes=CLASSES,
        families=("random", "adversarial"),
        pairs_per_class=1,
        seed=seed,
    )
    return path


def fields(view, names) -> dict:
    return {name: getattr(view, name) for name in names}


def progress_failed(text: str) -> int:
    return int(_PROGRESS_DONE.search(text).group(1))


class _Completed:
    """Keeps the RunCompleted event a run streamed."""

    def __init__(self) -> None:
        self.event = None

    def notify(self, event) -> None:
        if isinstance(event, RunCompleted):
            self.event = event


def check_wire_and_sidecar(report, seed) -> None:
    wire = event_from_dict(
        json.loads(json.dumps(RunCompleted(report=report).to_dict()))
    ).report
    assert fields(wire, WIRE) == fields(report, WIRE), f"seed {seed}"
    meta_path = report.store_path.with_name(
        report.store_path.name + ".meta.json"
    )
    meta = json.loads(meta_path.read_text())
    assert {name: meta[name] for name in WIRE} == fields(report, WIRE), (
        f"seed {seed}"
    )


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_serial_views_agree_cold_warm_and_resumed(tmp_path, seed):
    corpus = make_corpus(tmp_path / "corpus", seed)
    service = MatchingService(cache=build_cache())
    cold = service.run_manifest(
        corpus, seed=seed, store_path=tmp_path / "cold.jsonl"
    )
    warm = service.run_manifest(
        corpus, seed=seed, store_path=tmp_path / "warm.jsonl"
    )
    assert cold.failed > 0 and cold.executed == cold.total, f"seed {seed}"
    assert warm.cache_hits == warm.total and warm.queries == 0, f"seed {seed}"
    for report in (cold, warm):
        check_wire_and_sidecar(report, seed)
        summary = summarize_store(report.store_path)
        assert fields(summary, WIRE) == fields(report, WIRE), (
            f"seed {seed}"
        )
    assert fields(warm, ("matched", "failed", "classes")) == fields(
        cold, ("matched", "failed", "classes")
    ), f"seed {seed}"

    # Resume: shard 0 of 2 runs first, then the full run resumes it.
    uncached = MatchingService()
    store = tmp_path / "resumed.jsonl"
    first = uncached.run_manifest(
        corpus, seed=seed, store_path=store, shard=(0, 2)
    )
    resumed = uncached.run_manifest(
        corpus, seed=seed, store_path=store, resume=True
    )
    check_wire_and_sidecar(resumed, seed)
    assert resumed.resumed == first.total > 0, f"seed {seed}"
    assert resumed.queries == cold.queries - first.queries, f"seed {seed}"
    summary = summarize_store(store)
    # The store keeps the records the cold run would have written...
    assert fields(summary, ("total", "matched", "failed") + SPEND) == fields(
        cold, ("total", "matched", "failed") + SPEND
    ), f"seed {seed}"
    # ...while the report reads the replayed pairs as resumed.
    assert summary.resumed == 0, f"seed {seed}"
    assert resumed.statuses["resumed"] == first.total, f"seed {seed}"
    assert fields(resumed, ("matched", "failed", "classes")) == fields(
        cold, ("matched", "failed", "classes")
    ), f"seed {seed}"


@pytest.mark.parametrize("seed", [1, 5])
def test_fleet_views_agree_with_a_serial_run(tmp_path, seed):
    corpus = make_corpus(tmp_path / "corpus", seed)
    serial = MatchingService(cache=build_cache())
    serial_cold = serial.run_manifest(
        corpus, seed=seed, store_path=tmp_path / "serial.jsonl"
    )
    serial_warm = serial.run_manifest(corpus, seed=seed)
    workers = [
        MatchingDaemon(
            store_dir=tmp_path / f"worker-{name}",
            socket_path=tmp_path / f"{name}.sock",
        )
        for name in "ab"
    ]
    for worker in workers:
        worker.start()
    completed = _Completed()
    try:
        coordinator = FleetCoordinator(
            [worker.address for worker in workers],
            work_dir=tmp_path / "fleet",
            observers=[completed],
            timeout=10.0,
        )
        cold = coordinator.run(corpus, seed=seed)
        cold_wire = completed.event.to_dict()
        warm = coordinator.run(corpus, seed=seed)
        warm_wire = completed.event.to_dict()
    finally:
        for worker in workers:
            worker.stop()
    for fleet, serial_report, wire in (
        (cold, serial_cold, cold_wire),
        (warm, serial_warm, warm_wire),
    ):
        assert fields(fleet, COUNTS + SPEND) == fields(
            serial_report, COUNTS + SPEND
        ), f"seed {seed}"
        assert {name: wire[name] for name in WIRE} == fields(fleet, WIRE), (
            f"seed {seed}"
        )
        assert fleet.to_dict()["failed"] == fleet.failed, f"seed {seed}"
    merged = summarize_store(cold.output)
    assert fields(merged, COUNTS + SPEND) == fields(
        summarize_store(serial_cold.store_path), COUNTS + SPEND
    ), f"seed {seed}"


def test_live_failed_counts_include_answered_failures(tmp_path):
    """Failures a warm pass answers from the cache still count as failed:
    in the progress line, the daemon's ``status``/``stats`` and the
    ``RunCompleted`` summary alike."""
    corpus = make_corpus(tmp_path / "corpus", seed=5)
    service = MatchingService(cache=build_cache())
    cold = service.run_manifest(corpus, seed=1)
    assert cold.failed > 0
    progress = io.StringIO()
    completed = _Completed()
    warm = service.run_manifest(
        corpus,
        seed=1,
        observers=[ProgressObserver(stream=progress, every=100), completed],
    )
    assert warm.cache_hits == warm.total
    wire = event_from_dict(completed.event.to_dict()).report
    assert progress_failed(progress.getvalue()) == wire.failed == cold.failed

    daemon = MatchingDaemon(
        store_dir=tmp_path / "runs", socket_path=tmp_path / "d.sock"
    )
    daemon.start()
    try:
        with DaemonClient.from_address(daemon.address, timeout=30.0) as client:
            first = client.submit(corpus, seed=1)["run_id"]
            client.watch(first)
            second = client.submit(corpus, seed=1)["run_id"]
            progress = io.StringIO()
            client.watch(second, [ProgressObserver(stream=progress, every=100)])
            run = client.status(second)["run"]
            stats = client.stats()
    finally:
        daemon.stop()
    assert run["summary"]["cache_hits"] == run["total"]
    assert (
        progress_failed(progress.getvalue())
        == run["failed"]
        == run["summary"]["failed"]
        == cold.failed
    )
    assert stats["pairs"]["failed"] == 2 * cold.failed
