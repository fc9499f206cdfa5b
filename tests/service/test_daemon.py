"""Socket-level integration tests for the matching daemon.

Every test here talks to a real :class:`MatchingDaemon` over a real
socket (TCP loopback by default, a Unix socket where the transport
itself is under test) — the protocol framing, threading and shutdown
behaviour are the subject, so nothing is mocked.
"""

from __future__ import annotations

import gc
import io
import json
import re
import socket
import threading
import time
import warnings
from collections.abc import Iterable, Iterator

import pytest

import repro.service.daemon as daemon_module
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import DaemonConnectionError, DaemonError
from repro.service import (
    DaemonClient,
    MatchingDaemon,
    RunState,
    SerialExecutor,
    StatsObserver,
    generate_corpus,
)
from repro.service.executor import PairTask, TaskOutcome
from repro.service.framed import Session
from repro.service.pipeline import ResultStore
from tests.wire import ReplyServer

TIMEOUT = 30.0

CLASSES = (EquivalenceType.I_I, EquivalenceType.N_I)


def make_corpus(path, seed=7):
    return generate_corpus(
        path,
        num_lines=3,
        classes=CLASSES,
        families=("random",),
        pairs_per_class=1,
        seed=seed,
    )


class SlowSerialExecutor(SerialExecutor):
    """A serial executor that sleeps after each pair — keeps runs 'active'
    long enough for cancellation and queueing races to be deterministic."""

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


class GatedSerialExecutor(SerialExecutor):
    """A serial executor that holds every batch until ``gate`` is set —
    parks the worker thread so a later submit stays queued."""

    name = "gated-serial"

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        assert self.gate.wait(TIMEOUT)
        yield from super().stream(tasks, config)


@pytest.fixture
def corpus(tmp_path):
    make_corpus(tmp_path / "corpus")
    return tmp_path / "corpus"


def start_daemon(tmp_path, **kwargs):
    daemon = MatchingDaemon(
        store_dir=tmp_path / "runs", host="127.0.0.1", port=0, **kwargs
    )
    daemon.start()
    return daemon


def client_for(daemon: MatchingDaemon) -> DaemonClient:
    return DaemonClient.from_address(daemon.address, timeout=TIMEOUT)


def raw_connection(daemon: MatchingDaemon) -> socket.socket:
    """A bare TCP connection, for speaking the protocol by hand."""
    _, _, rest = daemon.address.partition(":")
    host, _, port = rest.rpartition(":")
    connection = socket.create_connection((host, int(port)), timeout=TIMEOUT)
    return connection


def wait_until(predicate, timeout=TIMEOUT, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def daemon(tmp_path):
    server = start_daemon(tmp_path)
    yield server
    server.stop()


@pytest.fixture
def slow_daemon(tmp_path):
    server = start_daemon(tmp_path, executor=SlowSerialExecutor(0.4))
    yield server
    server.stop()


class TestRoundTrip:
    def test_submit_manifest_completes_and_persists(self, daemon, corpus):
        with client_for(daemon) as client:
            ack = client.submit(corpus, seed=7)
            assert ack["run_id"] == "run-0001"
            stats = StatsObserver()
            state = client.watch(ack["run_id"], [stats])
            status = client.status(ack["run_id"])["run"]
        assert state == RunState.COMPLETED
        assert stats.runs_started == 1
        assert stats.completed + stats.failed == 2
        assert status["state"] == RunState.COMPLETED
        assert status["summary"]["total"] == 2
        records = ResultStore(ack["store"]).load()
        assert len(records) == 2

    def test_pairs_submission(self, daemon, corpus):
        with client_for(daemon) as client:
            pair = {
                "circuit1": str(corpus / "random-i-i-000-c1.real"),
                "circuit2": str(corpus / "random-i-i-000-c2.real"),
                "equivalence": "I-I",
            }
            ack = client.submit(pairs=[pair], seed=1)
            state = client.watch(ack["run_id"])
            status = client.status(ack["run_id"])["run"]
        assert state == RunState.COMPLETED
        assert status["source"] == "pairs[1]"
        records = ResultStore(ack["store"]).load()
        assert list(records) == ["pair-0000"]

    def test_unix_socket_transport(self, tmp_path, corpus):
        daemon = MatchingDaemon(
            store_dir=tmp_path / "runs", socket_path=tmp_path / "d.sock"
        )
        daemon.start()
        try:
            assert daemon.address == f"unix:{tmp_path / 'd.sock'}"
            with DaemonClient(
                socket_path=tmp_path / "d.sock", timeout=TIMEOUT
            ) as client:
                assert client.ping()["ok"] is True
                ack = client.submit(corpus, seed=7)
                assert client.watch(ack["run_id"]) == RunState.COMPLETED
        finally:
            daemon.stop()
        assert not (tmp_path / "d.sock").exists()


class TestSharedCache:
    def test_second_submit_spends_zero_oracle_queries(self, daemon, corpus):
        """The acceptance criterion: a warm resubmission never builds an
        oracle — every pair is answered by the shared result cache."""
        with client_for(daemon) as client:
            first = client.submit(corpus, seed=7)
            assert client.watch(first["run_id"]) == RunState.COMPLETED
            second = client.submit(corpus, seed=7)
            assert client.watch(second["run_id"]) == RunState.COMPLETED
            summary = client.status(second["run_id"])["run"]["summary"]
            stats = client.stats()
        assert summary["executed"] == 0
        assert summary["cache_hits"] == summary["total"] == 2
        assert stats["cache"]["hits"] >= 2
        # The cached records still reach the second run's own store.
        records = ResultStore(second["store"]).load()
        assert len(records) == 2
        assert all(record["status"] == "cached" for record in records.values())

    def test_wide_resubmission_spends_zero_queries(self, daemon, tmp_path):
        """The PR-5 acceptance criterion at the daemon layer: a warm
        resubmission of a *wide* (>= 16-line) corpus — keyed by sampled
        probe fingerprints, since exact tabulation is unaffordable —
        executes nothing, and the stats op attributes the hits to the
        probe scheme on the wire."""
        wide = tmp_path / "wide"
        generate_corpus(
            wide,
            families=("wide",),
            classes=(EquivalenceType.I_P, EquivalenceType.P_I),
            pairs_per_class=1,
            seed=23,
        )
        with client_for(daemon) as client:
            first = client.submit(wide, seed=7)
            assert client.watch(first["run_id"]) == RunState.COMPLETED
            second = client.submit(wide, seed=7)
            assert client.watch(second["run_id"]) == RunState.COMPLETED
            summary = client.status(second["run_id"])["run"]["summary"]
            stats = client.stats()
        assert summary["executed"] == 0
        assert summary["cache_hits"] == summary["total"] == 2
        scheme_hits = stats["cache"]["scheme_hits"]
        assert scheme_hits.get("probe", 0) >= 2
        assert "unversioned" not in scheme_hits

    def test_cache_shared_across_clients_and_submission_kinds(
        self, daemon, corpus
    ):
        with client_for(daemon) as client:
            ack = client.submit(corpus, seed=7)
            assert client.watch(ack["run_id"]) == RunState.COMPLETED
        # A different client, submitting one of the same pairs ad hoc.
        with client_for(daemon) as other:
            pair = {
                "circuit1": str(corpus / "random-i-i-000-c1.real"),
                "circuit2": str(corpus / "random-i-i-000-c2.real"),
                "equivalence": "I-I",
            }
            ack = other.submit(pairs=[pair])
            assert other.watch(ack["run_id"]) == RunState.COMPLETED
            summary = other.status(ack["run_id"])["run"]["summary"]
        assert summary["executed"] == 0
        assert summary["cache_hits"] == 1


class TestConcurrency:
    def test_submit_while_previous_run_is_active_queues(
        self, slow_daemon, corpus
    ):
        with client_for(slow_daemon) as client:
            first = client.submit(corpus, seed=7)
            wait_until(
                lambda: client.status(first["run_id"])["run"]["state"]
                == RunState.RUNNING,
                message="first run to start",
            )
            second = client.submit(corpus, seed=7, store=str(corpus / "2.jsonl"))
            assert client.status(second["run_id"])["run"]["state"] == RunState.QUEUED
            assert client.watch(first["run_id"]) == RunState.COMPLETED
            assert client.watch(second["run_id"]) == RunState.COMPLETED

    def test_queue_full_rejects_submit(self, tmp_path, corpus):
        daemon = start_daemon(
            tmp_path,
            executor=SlowSerialExecutor(0.4),
            max_queued=1,
        )
        try:
            with client_for(daemon) as client:
                first = client.submit(corpus, seed=7)
                wait_until(
                    lambda: client.status(first["run_id"])["run"]["state"]
                    == RunState.RUNNING,
                    message="first run to start",
                )
                client.submit(corpus, seed=7)  # fills the single queue slot
                with pytest.raises(DaemonError, match="queue is full"):
                    client.submit(corpus, seed=7)
        finally:
            daemon.stop()

    def test_multiple_clients_interleave(self, daemon, corpus):
        with client_for(daemon) as one, client_for(daemon) as two:
            ack = one.submit(corpus, seed=7)
            # The second client probes and submits while the first watches.
            assert two.ping()["ok"] is True
            other = two.submit(corpus, seed=7, store=str(corpus / "b.jsonl"))
            assert one.watch(ack["run_id"]) == RunState.COMPLETED
            assert two.watch(other["run_id"]) == RunState.COMPLETED
            states = {
                run["run_id"]: run["state"] for run in one.status()["runs"]
            }
        assert states == {
            ack["run_id"]: RunState.COMPLETED,
            other["run_id"]: RunState.COMPLETED,
        }


class TestCancellation:
    def test_cancel_running_run_keeps_flushed_records(
        self, slow_daemon, corpus
    ):
        with client_for(slow_daemon) as client:
            ack = client.submit(corpus, seed=7)
            wait_until(
                lambda: client.status(ack["run_id"])["run"]["done"] >= 1,
                message="one pair to finish",
            )
            response = client.cancel(ack["run_id"])
            assert response["ok"] is True
            wait_until(
                lambda: client.status(ack["run_id"])["run"]["state"]
                in RunState.FINAL,
                message="run to settle",
            )
            status = client.status(ack["run_id"])["run"]
            stats = client.stats()
        assert status["state"] == RunState.CANCELLED
        assert stats["runs"]["cancelled"] == 1
        records = ResultStore(ack["store"]).load()
        assert 1 <= len(records) <= 2  # whatever was flushed survives

    def test_cancel_queued_run_settles_immediately(self, slow_daemon, corpus):
        with client_for(slow_daemon) as client:
            first = client.submit(corpus, seed=7)
            wait_until(
                lambda: client.status(first["run_id"])["run"]["state"]
                == RunState.RUNNING,
                message="first run to start",
            )
            second = client.submit(corpus, seed=7, store=str(corpus / "2.jsonl"))
            response = client.cancel(second["run_id"])
            assert response["state"] == RunState.CANCELLED
            # Watching a cancelled queued run terminates immediately.
            assert client.watch(second["run_id"]) == RunState.CANCELLED
            assert client.watch(first["run_id"]) == RunState.COMPLETED

    def test_cancelled_run_resumes_on_resubmit(self, slow_daemon, corpus):
        with client_for(slow_daemon) as client:
            ack = client.submit(corpus, seed=7)
            wait_until(
                lambda: client.status(ack["run_id"])["run"]["done"] >= 1,
                message="one pair to finish",
            )
            client.cancel(ack["run_id"])
            wait_until(
                lambda: client.status(ack["run_id"])["run"]["state"]
                in RunState.FINAL,
                message="run to settle",
            )
            resumed = client.submit(
                corpus, seed=7, resume=True, store=ack["store"]
            )
            assert client.watch(resumed["run_id"]) == RunState.COMPLETED
            summary = client.status(resumed["run_id"])["run"]["summary"]
        assert summary["resumed"] >= 1
        assert len(ResultStore(ack["store"]).load()) == 2


class TestShutdown:
    def test_shutdown_mid_run_is_clean_and_store_resumable(
        self, tmp_path, corpus
    ):
        daemon = start_daemon(tmp_path, executor=SlowSerialExecutor(0.4))
        with client_for(daemon) as client:
            ack = client.submit(corpus, seed=7)
            wait_until(
                lambda: client.status(ack["run_id"])["run"]["done"] >= 1,
                message="one pair to finish",
            )
            client.shutdown()
        daemon.serve_forever()  # blocks only until the stop completes
        # The interrupted run kept everything already flushed...
        records = ResultStore(ack["store"]).load()
        assert len(records) >= 1
        # ...and a fresh daemon resumes it to completion.
        second = start_daemon(tmp_path / "second")
        try:
            with client_for(second) as client:
                resumed = client.submit(
                    corpus, seed=7, resume=True, store=ack["store"]
                )
                assert client.watch(resumed["run_id"]) == RunState.COMPLETED
                summary = client.status(resumed["run_id"])["run"]["summary"]
            assert summary["resumed"] >= 1
        finally:
            second.stop()
        assert len(ResultStore(ack["store"]).load()) == 2

    def test_submit_after_shutdown_is_refused(self, tmp_path):
        daemon = start_daemon(tmp_path)
        with client_for(daemon) as client:
            client.shutdown()
        daemon.serve_forever()
        with pytest.raises(DaemonError):
            client_for(daemon).ping()


class TestFailurePaths:
    def test_unknown_run(self, daemon):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="unknown run"):
                client.status("run-9999")
            with pytest.raises(DaemonError, match="unknown run"):
                list(client.events("run-9999"))

    def test_submit_validation_errors(self, daemon, tmp_path):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="exactly one of"):
                client.request({"op": "submit"})
            with pytest.raises(DaemonError, match="manifest not found"):
                client.submit(tmp_path / "nope")
            with pytest.raises(DaemonError, match="circuit not found"):
                client.submit(
                    pairs=[
                        {
                            "circuit1": str(tmp_path / "a.real"),
                            "circuit2": str(tmp_path / "b.real"),
                            "equivalence": "I-I",
                        }
                    ]
                )
            with pytest.raises(DaemonError, match="missing 'equivalence'"):
                client.submit(pairs=[{"circuit1": "x", "circuit2": "y"}])

    def test_client_disconnect_mid_events_leaves_daemon_healthy(
        self, slow_daemon, corpus
    ):
        with client_for(slow_daemon) as client:
            ack = client.submit(corpus, seed=7)
        # Subscribe by hand, read the ack and the first frame, then vanish.
        connection = raw_connection(slow_daemon)
        reader = connection.makefile("r", encoding="utf-8")
        connection.sendall(
            (json.dumps({"op": "events", "run_id": ack["run_id"]}) + "\n").encode()
        )
        assert json.loads(reader.readline())["ok"] is True
        reader.readline()  # one event frame, then hang up mid-stream
        connection.close()
        # The daemon shrugs it off: the run completes, new clients work.
        with client_for(slow_daemon) as client:
            assert client.ping()["ok"] is True
            assert client.watch(ack["run_id"]) == RunState.COMPLETED

    def test_failed_connect_closes_its_socket(self, tmp_path):
        client = DaemonClient(socket_path=tmp_path / "missing.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                client.connect()
            except DaemonConnectionError:
                pass
            else:  # pragma: no cover - nothing listens there
                pytest.fail("connect to a missing socket succeeded")
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_failed_run_is_reported_not_fatal(self, daemon, tmp_path, corpus):
        # A manifest that parses but references a missing circuit file
        # makes the run fail server-side; the daemon must survive it.
        broken = tmp_path / "broken"
        broken.mkdir()
        manifest = json.loads((corpus / "manifest.json").read_text())
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with client_for(daemon) as client:
            ack = client.submit(broken)
            wait_until(
                lambda: client.status(ack["run_id"])["run"]["state"]
                in RunState.FINAL,
                message="broken run to settle",
            )
            status = client.status(ack["run_id"])["run"]
            assert status["state"] == RunState.FAILED
            assert status["error"]
            # Daemon still serves: a good run right after succeeds.
            ack = client.submit(corpus, seed=7)
            assert client.watch(ack["run_id"]) == RunState.COMPLETED


class TestEventStream:
    def test_replay_after_completion_is_complete_and_ordered(
        self, daemon, corpus
    ):
        with client_for(daemon) as client:
            ack = client.submit(corpus, seed=7)
            client.watch(ack["run_id"])
            frames = []
            stream = client.events(ack["run_id"])
            while True:
                try:
                    frames.append(next(stream))
                except StopIteration as stop:
                    final_state = stop.value
                    break
        assert final_state == RunState.COMPLETED
        kinds = [frame["event"] for frame in frames]
        assert kinds[0] == "RunStarted"
        assert kinds[-1] == "RunCompleted"
        assert kinds.count("TaskStarted") == 2
        assert kinds.count("StoreFlushed") == 2

    def test_no_replay_on_finished_run_yields_nothing(self, daemon, corpus):
        with client_for(daemon) as client:
            ack = client.submit(corpus, seed=7)
            client.watch(ack["run_id"])
            frames = list(client.events(ack["run_id"], replay=False))
        assert frames == []

    def test_watch_drives_stock_observers_like_in_process(
        self, daemon, corpus
    ):
        stats = StatsObserver()
        with client_for(daemon) as client:
            ack = client.submit(corpus, seed=7)
            client.watch(ack["run_id"], [stats])
        assert stats.as_dict()["runs_started"] == 1
        assert stats.as_dict()["runs_completed"] == 1
        assert stats.as_dict()["started"] == 2
        assert stats.as_dict()["completed"] + stats.as_dict()["failed"] == 2
        assert stats.as_dict()["store_flushes"] == 2


class TestConstruction:
    def test_bad_queue_bound(self, tmp_path):
        with pytest.raises(DaemonError, match="max_queued"):
            MatchingDaemon(
                store_dir=tmp_path, host="127.0.0.1", port=0, max_queued=0
            )

    def test_client_address_parsing(self):
        with pytest.raises(DaemonError, match="not a daemon address"):
            DaemonClient.from_address("http://example.com")
        with pytest.raises(DaemonError, match="exactly one transport"):
            DaemonClient()


class TestScalarFieldTypes:
    """A scalar request field of the wrong type gets an error frame."""

    @staticmethod
    def _refused(daemon, corpus, match, **fields):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match=match):
                client.request(
                    {"op": "submit", "manifest": str(corpus), **fields}
                )
            assert client.status()["runs"] == []

    @pytest.mark.parametrize("seed", ["\u00e9", "7", True, [1], 1.5])
    def test_seed_must_be_an_int_or_null(self, daemon, corpus, seed):
        self._refused(daemon, corpus, "'seed' must be", seed=seed)

    def test_resume_must_be_a_bool(self, daemon, corpus, tmp_path):
        self._refused(
            daemon, corpus, "'resume' must be",
            resume="false", store=str(tmp_path / "runs" / "mine.jsonl"),
        )

    def test_store_must_be_a_string(self, daemon, corpus):
        self._refused(daemon, corpus, "'store' must be", store=5)

    @pytest.mark.parametrize("manifest", [5, ["corpus"], {"path": "corpus"}])
    def test_manifest_must_be_a_string(self, daemon, corpus, manifest):
        self._refused(daemon, corpus, "'manifest' must be", manifest=manifest)

    @pytest.mark.parametrize("field", ["circuit1", "circuit2", "equivalence"])
    @pytest.mark.parametrize("value", [5, ["I-I"], {"label": "I-I"}, True])
    def test_pair_fields_must_be_strings(self, daemon, corpus, field, value):
        pair = {
            "circuit1": str(corpus / "random-i-i-000-c1.real"),
            "circuit2": str(corpus / "random-i-i-000-c2.real"),
            "equivalence": "I-I",
            field: value,
        }
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match=f"{field!r} must be a string"):
                client.request({"op": "submit", "pairs": [pair]})
            assert client.status()["runs"] == []

    def test_events_replay_must_be_a_bool(self, daemon, corpus):
        with client_for(daemon) as client:
            run_id = client.submit(corpus)["run_id"]
            assert client.watch(run_id, []) == "completed"
            with pytest.raises(DaemonError, match="'replay' must be"):
                list(client.events(run_id, replay="false"))

    @pytest.mark.parametrize("op", ["status", "cancel", "fetch_store", "events"])
    def test_run_id_must_be_a_string(self, daemon, corpus, op):
        with client_for(daemon) as client:
            run_id = client.submit(corpus)["run_id"]
            assert client.watch(run_id, []) == "completed"
            with pytest.raises(DaemonError, match="'run_id' must be a string"):
                client.request({"op": op, "run_id": [run_id]})


class TestPathFieldValues:
    """A path the daemon could never open is refused at submit, naming the
    field, instead of being queued to fail as a raw ``ValueError`` or
    ``FileNotFoundError``."""

    _refused = staticmethod(TestScalarFieldTypes._refused)

    def test_store_with_a_nul_byte(self, daemon, corpus, tmp_path):
        self._refused(
            daemon, corpus, "'store' must not contain a NUL byte",
            store=str(tmp_path / "runs" / "mine\x00.jsonl"),
        )

    def test_store_in_a_missing_directory(self, daemon, corpus, tmp_path):
        missing = tmp_path / "no-such-dir"
        self._refused(
            daemon, corpus,
            re.escape(f"'store' directory does not exist: {missing}"),
            store=str(missing / "mine.jsonl"),
        )
        assert not missing.exists()

    def test_manifest_with_a_nul_byte(self, daemon, corpus):
        with client_for(daemon) as client:
            with pytest.raises(
                DaemonError, match="'manifest' must not contain a NUL byte"
            ):
                client.request(
                    {"op": "submit", "manifest": str(corpus) + "\x00"}
                )
            assert client.status()["runs"] == []

    def test_a_store_in_an_existing_directory_still_runs(
        self, daemon, corpus, tmp_path
    ):
        store = tmp_path / "mine.jsonl"
        with client_for(daemon) as client:
            run_id = client.submit(corpus, store=store)["run_id"]
            assert client.watch(run_id, []) == "completed"
        assert store.exists()


class TestReviewRegressions:
    """Fixes surfaced by review: validation, memory, timeouts."""

    def test_submit_resume_without_store_is_rejected(self, daemon, corpus):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="resume requires"):
                client.submit(corpus, resume=True)

    def test_history_limit_bounds_replay_but_keeps_status(
        self, tmp_path, corpus
    ):
        daemon = start_daemon(tmp_path, history_limit=1)
        try:
            with client_for(daemon) as client:
                first = client.submit(corpus, seed=7)
                assert client.watch(first["run_id"]) == RunState.COMPLETED
                second = client.submit(corpus, seed=7)
                assert client.watch(second["run_id"]) == RunState.COMPLETED
                # The third submit trims run-0001's history (run-0002 is
                # the single retained finished run).
                third = client.submit(corpus, seed=7)
                assert client.watch(third["run_id"]) == RunState.COMPLETED
                assert list(client.events(first["run_id"])) == []
                replay = list(client.events(second["run_id"]))
                assert replay and replay[-1]["event"] == "RunCompleted"
                # Status and summary survive the trim.
                status = client.status(first["run_id"])["run"]
                assert status["state"] == RunState.COMPLETED
                assert status["summary"]["total"] == 2
        finally:
            daemon.stop()

    def test_client_timeout_raises_daemon_error_not_traceback(
        self, slow_daemon, corpus
    ):
        with client_for(slow_daemon) as submitter:
            ack = submitter.submit(corpus, seed=7)
        impatient = DaemonClient.from_address(slow_daemon.address, timeout=0.05)
        with impatient:
            # A quiet-but-open connection is a timeout, not a loss — the
            # distinction lets heartbeat callers probe before reconnecting.
            with pytest.raises(DaemonError, match="no frame within"):
                # The run takes ~0.8s; a 50ms timeout trips mid-stream.
                impatient.watch(ack["run_id"])
        with client_for(slow_daemon) as client:
            assert client.watch(ack["run_id"]) == RunState.COMPLETED

    def test_resume_with_different_pairs_reruns_instead_of_replaying(
        self, daemon, corpus
    ):
        def pair(stem):
            return {
                "circuit1": str(corpus / f"{stem}-c1.real"),
                "circuit2": str(corpus / f"{stem}-c2.real"),
                "equivalence": "I-I",
            }

        with client_for(daemon) as client:
            first = client.submit(pairs=[pair("random-i-i-000")], seed=1)
            assert client.watch(first["run_id"]) == RunState.COMPLETED
            # Resume the SAME pair against the same store: replayed.
            same = client.submit(
                pairs=[pair("random-i-i-000")], seed=1,
                resume=True, store=first["store"],
            )
            assert client.watch(same["run_id"]) == RunState.COMPLETED
            summary = client.status(same["run_id"])["run"]["summary"]
            assert summary["resumed"] == 1 and summary["executed"] == 0
            # Resume a DIFFERENT pair against that store: the positional
            # id collides (pair-0000) but the content digest does not —
            # the pair must re-run, not inherit the old pair's record.
            other = client.submit(
                pairs=[pair("random-n-i-000")], seed=1,
                resume=True, store=first["store"],
            )
            assert client.watch(other["run_id"]) == RunState.COMPLETED
            summary = client.status(other["run_id"])["run"]["summary"]
            assert summary["resumed"] == 0

    def test_slow_events_subscriber_is_dropped_not_buffered(self):
        from repro.service.daemon import (
            _DROPPED,
            SUBSCRIBER_BUFFER_LIMIT,
            DaemonJob,
        )

        job = DaemonJob("run-0001")
        subscription = job.subscribe(replay=False)
        for index in range(SUBSCRIBER_BUFFER_LIMIT + 2):
            job.publish({"event": "TaskStarted", "index": index})
        drained = []
        while True:
            item = subscription.get()
            if item is _DROPPED:
                break
            drained.append(item)
        assert len(drained) == SUBSCRIBER_BUFFER_LIMIT
        # The job forgot the subscriber: later publishes skip it.
        job.publish({"event": "TaskStarted", "index": -1})
        assert subscription.empty()


class TestAuth:
    def test_client_handshake_is_transparent(self, tmp_path, corpus):
        daemon = start_daemon(tmp_path, auth_token="sesame")
        try:
            with DaemonClient.from_address(
                daemon.address, timeout=TIMEOUT, auth_token="sesame"
            ) as client:
                ack = client.submit(str(corpus), seed=7)
                assert client.watch(ack["run_id"]) == RunState.COMPLETED
        finally:
            daemon.stop()

    def test_wrong_client_token_raises_on_connect(self, tmp_path):
        daemon = start_daemon(tmp_path, auth_token="sesame")
        try:
            client = DaemonClient.from_address(
                daemon.address, timeout=TIMEOUT, auth_token="wrong"
            )
            with pytest.raises(DaemonError, match="auth failed"):
                client.connect()
        finally:
            daemon.stop()


class TestFetchStore:
    def test_records_come_back_in_file_order(self, daemon, corpus):
        with client_for(daemon) as client:
            ack = client.submit(str(corpus), seed=7)
            assert client.watch(ack["run_id"]) == RunState.COMPLETED
            response = client.fetch_store(ack["run_id"])
            assert response["state"] == RunState.COMPLETED
            assert response["torn_lines"] == 0
            with open(ack["store"], "r", encoding="utf-8") as handle:
                on_disk = [
                    json.loads(line) for line in handle if line.strip()
                ]
            assert response["records"] == on_disk
            assert len(on_disk) == 2

    def test_unknown_run_is_an_error(self, daemon):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="unknown run"):
                client.fetch_store("run-9999")

    def test_torn_trailing_line_is_skipped_and_counted(self, daemon, corpus):
        with client_for(daemon) as client:
            ack = client.submit(str(corpus), seed=7)
            assert client.watch(ack["run_id"]) == RunState.COMPLETED
            with open(ack["store"], "a", encoding="utf-8") as handle:
                handle.write('{"pair_id": "torn')
            with pytest.warns(UserWarning, match=":3: skipping"):
                response = client.fetch_store(ack["run_id"])
            assert response["torn_lines"] == 1
            assert len(response["records"]) == 2

    def test_non_object_line_is_skipped_and_counted(self, daemon, corpus):
        with client_for(daemon) as client:
            ack = client.submit(str(corpus), seed=7)
            assert client.watch(ack["run_id"]) == RunState.COMPLETED
            with open(ack["store"], "a", encoding="utf-8") as handle:
                handle.write("[1, 2]\n")
            with pytest.warns(UserWarning, match=":3: skipping"):
                response = client.fetch_store(ack["run_id"])
            assert response["torn_lines"] == 1
            assert len(response["records"]) == 2
            assert all(isinstance(r, dict) for r in response["records"])


class TestClientFrameLimit:
    """DaemonClient bounds response lines by the servers' MAX_FRAME_CHARS."""

    @pytest.fixture
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_FRAME_CHARS", 64)

    def test_over_limit_response_raises_and_closes(self, small_limit):
        server = ReplyServer(json.dumps({"ok": True, "pad": "x" * 200}))
        client = DaemonClient.from_address(server.address, timeout=TIMEOUT)
        try:
            with pytest.raises(DaemonError, match="frame too large"):
                client.ping()
            # The connection was dropped: the next request dials afresh.
            with pytest.raises(DaemonError, match="frame too large"):
                client.ping()
            assert server.connections == 2
        finally:
            client.close()
            server.close()

    def test_response_at_the_limit_is_read(self, small_limit):
        reply = json.dumps({"ok": True, "pad": ""})
        reply = json.dumps({"ok": True, "pad": "x" * (64 - len(reply))})
        assert len(reply) == 64
        server = ReplyServer(reply)
        client = DaemonClient.from_address(server.address, timeout=TIMEOUT)
        try:
            assert client.ping() == json.loads(reply)
            assert client.ping()["ok"] is True  # same connection, still framed
            assert server.connections == 1
        finally:
            client.close()
            server.close()


class TestShardSubmit:
    def test_shards_partition_the_manifest(self, daemon, corpus):
        with client_for(daemon) as client:
            totals = []
            for index in range(2):
                ack = client.submit(str(corpus), seed=7, shard=(index, 2))
                assert client.watch(ack["run_id"]) == RunState.COMPLETED
                summary = client.status(ack["run_id"])["run"]["summary"]
                totals.append(summary["total"])
            assert sum(totals) == 2  # every manifest pair in exactly one shard

    def test_shard_accepts_the_string_form(self, daemon, corpus):
        with client_for(daemon) as client:
            ack = client.submit(str(corpus), seed=7, shard="0/1")
            assert client.watch(ack["run_id"]) == RunState.COMPLETED
            assert client.status(ack["run_id"])["run"]["summary"]["total"] == 2

    def test_shard_requires_a_manifest(self, daemon, corpus):
        manifest = json.loads(
            (corpus / "manifest.json").read_text(encoding="utf-8")
        )
        entry = manifest["entries"][0]
        pair = {
            "circuit1": str(corpus / entry["circuit1"]),
            "circuit2": str(corpus / entry["circuit2"]),
            "equivalence": entry["equivalence"],
        }
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="requires a manifest"):
                client.submit(pairs=[pair], shard=(0, 2))

    def test_malformed_shards_are_rejected(self, daemon, corpus):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="shard"):
                client.request({
                    "op": "submit", "manifest": str(corpus), "shard": [1],
                })
            with pytest.raises(DaemonError):
                client.submit(str(corpus), shard="2/2")  # index out of range


class TestRecordsPreseed:
    def test_preseeded_resume_spends_zero_queries(self, daemon, corpus):
        with client_for(daemon) as client:
            first = client.submit(str(corpus), seed=7)
            assert client.watch(first["run_id"]) == RunState.COMPLETED
            records = client.fetch_store(first["run_id"])["records"]
            retry = client.submit(
                str(corpus), seed=7, records=records, resume=True
            )
            assert client.watch(retry["run_id"]) == RunState.COMPLETED
            summary = client.status(retry["run_id"])["run"]["summary"]
            assert summary["resumed"] == len(records) == 2
            assert summary["executed"] == 0
            assert summary["cache_hits"] == 0
            # The retry's store holds exactly the seeded records.
            assert client.fetch_store(retry["run_id"])["records"] == records

    def test_partial_seed_runs_only_the_missing_pairs(self, daemon, corpus):
        with client_for(daemon) as client:
            first = client.submit(str(corpus), seed=7, shard=(0, 2))
            assert client.watch(first["run_id"]) == RunState.COMPLETED
            records = client.fetch_store(first["run_id"])["records"]
            retry = client.submit(
                str(corpus), seed=7, records=records, resume=True
            )
            assert client.watch(retry["run_id"]) == RunState.COMPLETED
            summary = client.status(retry["run_id"])["run"]["summary"]
            assert summary["resumed"] == len(records)
            assert summary["total"] == 2

    def test_records_must_carry_pair_ids(self, daemon, corpus):
        with client_for(daemon) as client:
            with pytest.raises(DaemonError, match="pair_id"):
                client.submit(
                    str(corpus), records=[{"result": None}], resume=True
                )


class TestEventsReconnect:
    def test_stream_survives_one_disconnect_without_duplicates(
        self, slow_daemon, corpus
    ):
        with client_for(slow_daemon) as client:
            ack = client.submit(str(corpus), seed=7)
            stream = client.events(ack["run_id"])
            first = next(stream)
            assert first["event"] == "RunStarted"
            # Sever the transport under the generator's feet; the next
            # read sees EOF, and the generator must reconnect, replay
            # and skip what it already delivered.
            client._connection.shutdown(socket.SHUT_RDWR)
            events = [first]
            while True:
                try:
                    events.append(next(stream))
                except StopIteration as stop:
                    state = stop.value
                    break
            assert state == RunState.COMPLETED
            kinds = [event["event"] for event in events]
            assert kinds.count("RunStarted") == 1
            assert kinds.count("RunCompleted") == 1
            settled = [
                event["pair_id"] for event in events
                if event["event"] in ("TaskCompleted", "TaskFailed", "CacheHit")
            ]
            assert sorted(settled) == sorted(set(settled))
            assert len(settled) == 2

    def test_second_disconnect_raises(self, slow_daemon, corpus):
        from repro.exceptions import DaemonConnectionError

        with client_for(slow_daemon) as client:
            ack = client.submit(str(corpus), seed=7)
            stream = client.events(ack["run_id"], reconnects=0)
            next(stream)
            client._connection.shutdown(socket.SHUT_RDWR)
            with pytest.raises(DaemonConnectionError):
                while True:
                    next(stream)

    def test_no_reconnect_without_replay(self, slow_daemon, corpus):
        from repro.exceptions import DaemonConnectionError

        with client_for(slow_daemon) as client:
            ack = client.submit(str(corpus), seed=7)
            stream = client.events(ack["run_id"], replay=False)
            next(stream)
            client._connection.shutdown(socket.SHUT_RDWR)
            with pytest.raises(DaemonConnectionError):
                while True:
                    next(stream)


class TestEventFrames:
    """The events op's bytes: one ``json.dumps(event)`` line per
    published event, in publish order, then the terminator frame."""

    def test_warm_run_frames_are_the_published_events_in_order(self, tmp_path):
        corpus = tmp_path / "corpus"
        generate_corpus(
            corpus,
            num_lines=3,
            classes=CLASSES,
            families=("random",),
            pairs_per_class=60,
            seed=11,
        )
        executor = GatedSerialExecutor()
        daemon = start_daemon(tmp_path, executor=executor)
        try:
            with client_for(daemon) as client:
                cold = client.submit(corpus, seed=7)
                assert client.watch(cold["run_id"]) == RunState.COMPLETED
                executor.gate.clear()
                pair = {
                    "circuit1": str(corpus / "random-i-i-000-c1.real"),
                    "circuit2": str(corpus / "random-i-i-000-c2.real"),
                    "equivalence": "I-I",
                }
                client.submit(pairs=[pair], seed=1)  # parks the worker
                warm = client.submit(corpus, seed=7)
            connection = raw_connection(daemon)
            reader = connection.makefile("r", encoding="utf-8")
            try:
                connection.sendall(
                    (json.dumps({"op": "events", "run_id": warm["run_id"]})
                     + "\n").encode()
                )
                ack = json.loads(reader.readline())
                assert ack["ok"] is True and ack["state"] == RunState.QUEUED
                executor.gate.set()
                lines = []
                while not lines or not json.loads(lines[-1]).get("done"):
                    lines.append(reader.readline())
            finally:
                reader.close()
                connection.close()
            history = daemon._jobs[warm["run_id"]]._history
        finally:
            daemon.stop()
        # RunStarted, a CacheHit and a StoreFlushed per pair, RunCompleted.
        assert len(history) == 2 + 2 * 120
        assert lines[:-1] == [json.dumps(event) + "\n" for event in history]
        assert json.loads(lines[-1]) == {
            "ok": True,
            "protocol": MatchingDaemon.PROTOCOL,
            "op": "events",
            "done": True,
            "run_id": warm["run_id"],
            "state": RunState.COMPLETED,
        }

    def test_dropped_subscriber_gets_the_queued_frames_then_the_error(
        self, tmp_path
    ):
        limit = daemon_module.SUBSCRIBER_BUFFER_LIMIT
        daemon = MatchingDaemon(
            store_dir=tmp_path / "runs", host="127.0.0.1", port=0, cache=None
        )
        job = daemon_module.DaemonJob("run-0001")
        daemon._jobs[job.run_id] = job

        class FloodingWriter(io.StringIO):
            """Publishes past the buffer limit while the ack goes out, so
            the drop marker is queued behind ``limit`` undelivered frames."""

            flooded = False

            def write(self, text):
                if not self.flooded:
                    self.flooded = True
                    for index in range(limit + 2):
                        job.publish({"event": "TaskStarted", "index": index})
                return super().write(text)

        writer = FloodingWriter()
        reply = daemon._handle_events(
            {"op": "events", "run_id": job.run_id},
            Session(writer, authenticated=True),
        )
        lines = writer.getvalue().splitlines(keepends=True)
        assert json.loads(lines[0])["op"] == "events"
        assert lines[1:] == [
            json.dumps({"event": "TaskStarted", "index": index}) + "\n"
            for index in range(limit)
        ]
        assert reply["ok"] is False
        assert "events subscription dropped" in reply["error"]
