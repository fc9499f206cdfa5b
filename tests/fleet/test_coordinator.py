"""Unit-level coordinator behaviour: peers, validation, small real fleets.

The full kill-a-worker scenario lives in ``test_fleet_integration.py``;
here each moving part is exercised against at most a couple of real
loopback daemons.
"""

from __future__ import annotations

import gc
import json
import time
import warnings
from collections import Counter

import pytest

from repro.exceptions import DaemonError, FleetError
from repro.fleet import FleetCoordinator, FleetPeer, normalize_peer
from repro.obs.metrics import MetricsRegistry
from repro.service import MatchingDaemon, StatsObserver, generate_corpus
from repro.service.events import RunCompleted, RunStarted
from repro.service.pipeline import ResultStore

from repro.core.equivalence import EquivalenceType

CLASSES = (EquivalenceType.I_I, EquivalenceType.N_I)


def make_corpus(path, pairs_per_class=1, seed=7):
    return generate_corpus(
        path,
        num_lines=3,
        classes=CLASSES,
        families=("random",),
        pairs_per_class=pairs_per_class,
        seed=seed,
    )


def start_worker(tmp_path, name, **kwargs):
    daemon = MatchingDaemon(
        store_dir=tmp_path / f"worker-{name}",
        host="127.0.0.1",
        port=0,
        cache=None,
        **kwargs,
    )
    daemon.start()
    return daemon


class TestNormalizePeer:
    def test_bare_host_port_becomes_tcp(self):
        assert normalize_peer("worker-a:7700") == "tcp:worker-a:7700"

    def test_explicit_forms_pass_through(self):
        assert normalize_peer("tcp:worker-a:7700") == "tcp:worker-a:7700"
        assert normalize_peer("unix:/tmp/d.sock") == "unix:/tmp/d.sock"

    def test_garbage_is_refused(self):
        for bad in ("worker-a", "worker-a:port", "http:worker:80x"):
            with pytest.raises(FleetError, match="not a peer address"):
                normalize_peer(bad)

    def test_peer_objects_normalize_too(self):
        assert FleetPeer("worker-a:7700").address == "tcp:worker-a:7700"


class TestConstruction:
    def test_needs_at_least_one_peer(self, tmp_path):
        with pytest.raises(FleetError, match="at least one peer"):
            FleetCoordinator([], work_dir=tmp_path)

    def test_timeouts_must_be_positive(self, tmp_path):
        with pytest.raises(FleetError, match="positive"):
            FleetCoordinator(
                ["h:1"], work_dir=tmp_path, heartbeat_s=0
            )
        with pytest.raises(FleetError, match="positive"):
            FleetCoordinator(
                ["h:1"], work_dir=tmp_path, hang_timeout_s=-1
            )

    def test_max_attempts_must_be_positive(self, tmp_path):
        with pytest.raises(FleetError, match="max_attempts"):
            FleetCoordinator(["h:1"], work_dir=tmp_path, max_attempts=0)

    def test_garbled_remote_cache_is_refused(self, tmp_path):
        # Unchecked, every worker would refuse each shard's submit and be
        # marked dead for it, hiding the fault behind "no healthy peers".
        with pytest.raises(DaemonError, match="not a daemon address"):
            FleetCoordinator(["h:1"], work_dir=tmp_path, remote_cache="cache-host")


class TestCheckPeers:
    def test_dead_peer_is_marked_unhealthy(self, tmp_path):
        coordinator = FleetCoordinator(
            ["127.0.0.1:1"], work_dir=tmp_path, timeout=2.0
        )
        (probe,) = coordinator.check_peers()
        assert probe["healthy"] is False
        assert "error" in probe
        assert coordinator.peers[0].healthy is False

    def test_live_peer_reports_healthy_with_pid(self, tmp_path):
        worker = start_worker(tmp_path, "a")
        try:
            _, _, address = worker.address.partition(":")
            coordinator = FleetCoordinator(
                [f"tcp:{address}"], work_dir=tmp_path, timeout=5.0
            )
            (probe,) = coordinator.check_peers()
            assert probe["healthy"] is True
            assert isinstance(probe["pid"], int)
        finally:
            worker.stop()

    def test_recovered_peer_is_rehabilitated(self, tmp_path):
        worker = start_worker(tmp_path, "a")
        try:
            coordinator = FleetCoordinator(
                [worker.address], work_dir=tmp_path, timeout=5.0
            )
            coordinator.peers[0].healthy = False
            (probe,) = coordinator.check_peers()
            assert probe["healthy"] is True
        finally:
            worker.stop()


class TestRun:
    def test_no_healthy_peers_fails_fast(self, tmp_path):
        make_corpus(tmp_path / "corpus")
        metrics = MetricsRegistry()
        coordinator = FleetCoordinator(
            ["127.0.0.1:1"], work_dir=tmp_path / "fleet",
            metrics=metrics, timeout=2.0,
        )
        with pytest.raises(FleetError, match="no healthy peers"):
            coordinator.run(tmp_path / "corpus")
        assert metrics.counter("repro_fleet_runs_total").value(
            state="failed"
        ) == 1

    def test_missing_manifest_fails_before_dispatch(self, tmp_path):
        coordinator = FleetCoordinator(
            ["127.0.0.1:1"], work_dir=tmp_path / "fleet"
        )
        with pytest.raises(FleetError, match="manifest not found"):
            coordinator.run(tmp_path / "nowhere")

    def test_run_closes_every_client_it_opens(self, tmp_path):
        corpus = tmp_path / "corpus"
        make_corpus(corpus)
        worker = start_worker(tmp_path, "a")
        try:
            coordinator = FleetCoordinator(
                [worker.address], work_dir=tmp_path / "fleet", timeout=10.0
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                coordinator.run(corpus, seed=3)
                gc.collect()
        finally:
            worker.stop()
        assert not [
            warning for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]

    def test_single_worker_fleet_completes_and_reports(self, tmp_path):
        corpus = tmp_path / "corpus"
        make_corpus(corpus)
        worker = start_worker(tmp_path, "a")
        stats = StatsObserver()
        events: list = []

        class Recorder:
            def notify(self, event) -> None:
                events.append(event)

        metrics = MetricsRegistry()
        try:
            coordinator = FleetCoordinator(
                [worker.address],
                work_dir=tmp_path / "fleet",
                observers=[stats, Recorder()],
                metrics=metrics,
                timeout=10.0,
            )
            report = coordinator.run(corpus, seed=7)
        finally:
            worker.stop()
        assert report.run_id == "fleet-0001"
        assert report.total == 2
        assert report.merged_records == 2
        assert report.failed == 0
        assert report.executed == 2
        assert report.reassignments == 0
        assert report.output.exists()
        # Observers saw one logical run: boundaries once, each pair once.
        kinds = [type(event).__name__ for event in events]
        assert kinds.count("RunStarted") == 1
        assert kinds.count("RunCompleted") == 1
        assert kinds.count("TaskStarted") == 2
        started = [e for e in events if isinstance(e, RunStarted)]
        assert started[0].executor == "fleet[1]"
        completed = [e for e in events if isinstance(e, RunCompleted)]
        assert completed[0].report.total == 2
        assert metrics.counter("repro_fleet_shards_total").value(
            outcome="completed"
        ) == 1
        assert metrics.counter("repro_fleet_runs_total").value(
            state="completed"
        ) == 1
        assert metrics.histogram("repro_fleet_run_seconds").count() == 1

    def test_two_worker_fleet_partitions_the_manifest(self, tmp_path):
        corpus = tmp_path / "corpus"
        make_corpus(corpus, pairs_per_class=2)  # 4 pairs
        workers = [start_worker(tmp_path, name) for name in ("a", "b")]
        try:
            coordinator = FleetCoordinator(
                [worker.address for worker in workers],
                work_dir=tmp_path / "fleet",
                timeout=10.0,
            )
            report = coordinator.run(corpus, seed=7)
        finally:
            for worker in workers:
                worker.stop()
        assert report.total == report.merged_records == 4
        assert len(report.shards) == 2
        shard_pairs = [len(shard.settled) for shard in report.shards]
        assert sum(shard_pairs) == 4
        # Shard stores land under the run directory, merged on top.
        for shard in report.shards:
            assert shard.store_path.exists()
        merged = [
            json.loads(line)
            for line in report.output.read_text().splitlines()
        ]
        assert [record["index"] for record in merged] == [0, 1, 2, 3]

    def test_pair_counts_equal_the_merged_store_statuses(self, tmp_path):
        corpus = tmp_path / "corpus"
        make_corpus(corpus, pairs_per_class=2)  # 4 pairs
        # A worker with its default cache, so the rerun is all hits.
        worker = MatchingDaemon(
            store_dir=tmp_path / "worker", host="127.0.0.1", port=0
        )
        worker.start()
        try:
            coordinator = FleetCoordinator(
                [worker.address], work_dir=tmp_path / "fleet", timeout=10.0
            )
            cold = coordinator.run(corpus, seed=7)
            warm = coordinator.run(corpus, seed=7)
        finally:
            worker.stop()
        assert (cold.executed, warm.cache_hits) == (4, 4)
        for report in (cold, warm):
            statuses = Counter(
                record["status"]
                for record in ResultStore(report.output).read_records()
            )
            assert report.executed == statuses["ok"] + statuses["failed"]
            assert report.cache_hits == statuses["cached"]
            assert report.resumed == statuses["resumed"] == 0

    def test_run_ids_advance_across_runs(self, tmp_path):
        corpus = tmp_path / "corpus"
        make_corpus(corpus)
        worker = start_worker(tmp_path, "a")
        try:
            coordinator = FleetCoordinator(
                [worker.address], work_dir=tmp_path / "fleet", timeout=10.0
            )
            first = coordinator.run(corpus, seed=7)
            second = coordinator.run(corpus, seed=7)
        finally:
            worker.stop()
        assert (first.run_id, second.run_id) == ("fleet-0001", "fleet-0002")

    def test_shard_exhaustion_names_the_last_failure(self, tmp_path):
        corpus = tmp_path / "corpus"
        make_corpus(corpus)
        worker = start_worker(tmp_path, "a")
        address = worker.address
        worker.stop()
        # The port answered the constructor-time normalization but is
        # dead by run time; every attempt must fail and say why.
        deadline = time.monotonic() + 10.0
        coordinator = FleetCoordinator(
            [address], work_dir=tmp_path / "fleet",
            timeout=2.0, max_attempts=2,
        )
        with pytest.raises(FleetError, match="no healthy peers"):
            coordinator.run(corpus)
        assert time.monotonic() < deadline
