"""The headline fleet scenario: kill a worker mid-run, lose nothing.

Three real daemons on loopback execute one manifest as three shards.
One worker is killed while its shard is in flight; the coordinator must
reassign the shard, the retry must resume from the mirrored records
without re-querying a single settled pair, and the merged store must
come out byte-identical to an unsharded serial run — with every worker
running **cache-less**, so the byte-identity cannot be an artifact of
shared cache hits.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Iterable, Iterator

import pytest

from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import DaemonError
from repro.fleet import FleetCoordinator
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    DaemonClient,
    MatchingDaemon,
    MatchingService,
    SerialExecutor,
    generate_corpus,
)
from repro.service.executor import PairTask, TaskOutcome
from repro.service.pipeline import shard_index

TIMEOUT = 30.0
SEED = 7
CLASSES = (EquivalenceType.I_I, EquivalenceType.N_I)
PAIRS_PER_CLASS = 4  # 8 pairs over 3 shards: every shard is non-trivial


class SlowSerialExecutor(SerialExecutor):
    """Sleeps after each pair, keeping shard runs alive long enough for
    the kill to land mid-run deterministically."""

    name = "slow-serial"

    def __init__(self, delay: float) -> None:
        super().__init__()
        self._delay = delay

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        for outcome in super().stream(tasks, config):
            time.sleep(self._delay)
            yield outcome


def make_corpus(path):
    return generate_corpus(
        path,
        num_lines=3,
        classes=CLASSES,
        families=("random",),
        pairs_per_class=PAIRS_PER_CLASS,
        seed=SEED,
    )


def start_worker(tmp_path, name, delay=0.0):
    daemon = MatchingDaemon(
        store_dir=tmp_path / f"worker-{name}",
        host="127.0.0.1",
        port=0,
        cache=None,
        executor=SlowSerialExecutor(delay) if delay else None,
    )
    daemon.start()
    return daemon


def serial_baseline(manifest, store_path):
    """The unsharded, cache-less serial run every fleet run must equal."""
    service = MatchingService(
        MatchingConfig(), executor=SerialExecutor(), cache=None
    )
    report = service.run_manifest(manifest, store_path=store_path, seed=SEED)
    return report


def kill_when_busy(victim: MatchingDaemon, fired: threading.Event) -> None:
    """Stop the victim as soon as it has flushed at least one record."""
    deadline = time.monotonic() + TIMEOUT
    address = victim.address
    while time.monotonic() < deadline:
        try:
            with DaemonClient.from_address(address, timeout=5.0) as client:
                runs = client.status()["runs"]
        except DaemonError:
            return  # already gone
        if any(run["done"] >= 1 for run in runs):
            victim.stop()
            fired.set()
            return
        time.sleep(0.02)


class TestKillAWorker:
    def test_reassigned_fleet_run_matches_serial_run_byte_for_byte(
        self, tmp_path
    ):
        corpus = tmp_path / "corpus"
        manifest = make_corpus(corpus)

        serial_store = tmp_path / "serial.jsonl"
        serial_report = serial_baseline(corpus, serial_store)
        assert serial_report.total == len(manifest.entries) == 8

        # The victim is the worker whose shard holds the most pairs, so
        # the kill is guaranteed to land while work remains.
        shard_sizes = [0, 0, 0]
        for entry in manifest.entries:
            shard_sizes[shard_index(entry.pair_id, 3)] += 1
        victim_index = shard_sizes.index(max(shard_sizes))
        assert shard_sizes[victim_index] >= 2

        workers = [
            start_worker(tmp_path, name, delay=0.4)
            for name in ("a", "b", "c")
        ]
        victim = workers[victim_index]
        fired = threading.Event()
        killer = threading.Thread(
            target=kill_when_busy, args=(victim, fired), daemon=True
        )
        metrics = MetricsRegistry()
        try:
            coordinator = FleetCoordinator(
                [worker.address for worker in workers],
                work_dir=tmp_path / "fleet",
                metrics=metrics,
                heartbeat_s=2.0,
                hang_timeout_s=20.0,
                timeout=10.0,
            )
            killer.start()
            report = coordinator.run(corpus, seed=SEED)
            killer.join(TIMEOUT)
        finally:
            for worker in workers:
                try:
                    worker.stop()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass
        assert fired.is_set(), "the victim was never killed mid-run"

        # --- the headline: byte-identical to the serial run -----------
        assert report.output.read_bytes() == serial_store.read_bytes()
        assert report.merged_records == 8
        assert report.failed == serial_report.failed

        # --- the shard moved ------------------------------------------
        assert report.reassignments >= 1
        moved = [shard for shard in report.shards if shard.reassigned_from]
        assert any(
            shard.reassigned_from[0] == victim.address for shard in moved
        )
        victim_peer = next(
            peer for peer in report.peers if peer.address == victim.address
        )
        assert victim_peer.healthy is False
        assert victim_peer.reason in ("dead", "hung", "cancelled")
        assert metrics.counter("repro_fleet_shards_total").value(
            outcome="reassigned"
        ) >= 1
        assert metrics.counter("repro_fleet_peer_failures_total").total() >= 1

        # --- zero oracle queries on settled pairs ---------------------
        # The retry run, asked from its final owner daemon: every pair
        # the coordinator mirrored before the kill replays from the
        # pre-seeded store (`resumed`), and only the remainder executes.
        shard = next(
            shard for shard in moved
            if shard.reassigned_from[0] == victim.address
        )
        owner = next(
            worker for worker in workers
            if worker.address == shard.peer
        )
        # The owner daemon is stopped by now; read its accounting from
        # the coordinator's view plus the run's own store totals.
        assert len(shard.settled) == shard_sizes[victim_index]
        # Fleet-level counters: the coordinator counts every pair once,
        # at first settle.  Each of the 8 pairs was executed exactly
        # once somewhere in the fleet — the retry's store-replays of
        # mirrored pairs are deduplicated, never double-counted.
        assert report.executed == 8
        assert report.resumed == 0 and report.cache_hits == 0
        assert owner is not victim

    def test_retry_run_reports_zero_queries_for_settled_pairs(self, tmp_path):
        """The per-daemon proof: resume accounting straight from the
        retry daemon's status and metrics ops while it is still up."""
        corpus = tmp_path / "corpus"
        manifest = make_corpus(corpus)
        shard_sizes = [0, 0, 0]
        for entry in manifest.entries:
            shard_sizes[shard_index(entry.pair_id, 3)] += 1
        victim_index = shard_sizes.index(max(shard_sizes))

        workers = [
            start_worker(tmp_path, name, delay=0.4)
            for name in ("a", "b", "c")
        ]
        victim = workers[victim_index]
        fired = threading.Event()
        killer = threading.Thread(
            target=kill_when_busy, args=(victim, fired), daemon=True
        )
        try:
            coordinator = FleetCoordinator(
                [worker.address for worker in workers],
                work_dir=tmp_path / "fleet",
                heartbeat_s=2.0,
                hang_timeout_s=20.0,
                timeout=10.0,
            )
            killer.start()
            report = coordinator.run(corpus, seed=SEED)
            killer.join(TIMEOUT)
            assert fired.is_set()
            shard = next(
                s for s in report.shards if s.reassigned_from
            )
            owner = next(
                worker for worker in workers
                if worker.address == shard.peer
            )
            with DaemonClient.from_address(
                owner.address, timeout=10.0
            ) as client:
                summary = client.status(shard.remote_run_id)["run"]["summary"]
                snapshot = client.metrics()["metrics"]
            # At least one pair settled before the kill, and the retry
            # replayed every one of them from the pre-seeded store.
            assert summary["resumed"] >= 1
            assert summary["executed"] == summary["total"] - summary["resumed"]
            assert summary["cache_hits"] == 0  # workers run cache-less
            resumed_samples = [
                sample["value"]
                for sample in snapshot["metrics"]["repro_run_pairs_total"][
                    "samples"
                ]
                if sample["labels"].get("outcome") == "resumed"
            ]
            assert sum(resumed_samples) >= summary["resumed"]
        finally:
            for worker in workers:
                try:
                    worker.stop()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass


class TestFleetAgainstSerial:
    def test_clean_three_worker_run_is_byte_identical_too(self, tmp_path):
        """No failures at all: the 3-shard merge still equals serial."""
        corpus = tmp_path / "corpus"
        make_corpus(corpus)
        serial_store = tmp_path / "serial.jsonl"
        serial_baseline(corpus, serial_store)
        workers = [
            start_worker(tmp_path, name) for name in ("a", "b", "c")
        ]
        try:
            coordinator = FleetCoordinator(
                [worker.address for worker in workers],
                work_dir=tmp_path / "fleet",
                timeout=10.0,
            )
            report = coordinator.run(corpus, seed=SEED)
        finally:
            for worker in workers:
                worker.stop()
        assert report.reassignments == 0
        assert report.output.read_bytes() == serial_store.read_bytes()
        merged = [
            json.loads(line)
            for line in report.output.read_text().splitlines()
        ]
        assert [record["index"] for record in merged] == list(range(8))
