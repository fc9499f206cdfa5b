"""One store handle per run, released on every way out.

A run opens its JSONL result store once and appends every record
through that handle; completion, a closed event stream, a daemon
``cancel`` and a raising executor all close it.  A write that fails
midway drops the handle, and the next run's open repairs the torn tail.
"""

from __future__ import annotations

import builtins
import os
import time
from pathlib import Path

import pytest

import repro.service.pipeline as pipeline_module
from repro.core.equivalence import EquivalenceType
from repro.service import (
    DaemonClient,
    MatchingDaemon,
    MatchingService,
    RunState,
    SerialExecutor,
    generate_corpus,
)
from repro.service.pipeline import ResultStore
from tests.service.test_daemon import SlowSerialExecutor

TIMEOUT = 30.0


@pytest.fixture
def corpus(tmp_path):
    """Six 3-line pairs."""
    generate_corpus(
        tmp_path / "corpus",
        num_lines=3,
        classes=(EquivalenceType.I_I, EquivalenceType.N_I, EquivalenceType.NP_I),
        families=("random",),
        pairs_per_class=2,
        seed=7,
    )
    return tmp_path / "corpus"


def descriptors_to(path: Path) -> list[int]:
    """This process's open file descriptors that point at ``path``."""
    target = os.path.realpath(path)
    found = []
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}") == target:
                found.append(int(name))
        except OSError:  # closed between listdir and readlink
            continue
    return found


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


class RaisingExecutor(SerialExecutor):
    """Completes one pair, then fails the way a broken backend would."""

    name = "raising"

    def stream(self, tasks, config):
        for outcome in super().stream(tasks, config):
            yield outcome
            raise RuntimeError("executor exploded")


class TestOneOpenPerRun:
    def test_six_pair_run_opens_its_store_once(
        self, corpus, tmp_path, monkeypatch
    ):
        store_path = tmp_path / "results.jsonl"
        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file) == store_path:
                opens.append(args[0] if args else kwargs.get("mode", "r"))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        report = MatchingService().run_manifest(
            corpus, store_path=store_path, seed=5
        )
        monkeypatch.undo()
        assert report.total == 6
        assert len(ResultStore(store_path).read_records()) == 6
        assert opens == ["a+b"]

    def test_append_is_still_called_once_per_record(
        self, corpus, tmp_path, monkeypatch
    ):
        appended = []
        real_append = ResultStore.append

        def recording_append(self, record):
            appended.append(record["pair_id"])
            real_append(self, record)

        monkeypatch.setattr(ResultStore, "append", recording_append)
        report = MatchingService().run_manifest(
            corpus, store_path=tmp_path / "results.jsonl", seed=5
        )
        assert sorted(appended) == sorted(r["pair_id"] for r in report.records)


@needs_proc
class TestHandleReleased:
    def test_after_a_completed_run(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        events = MatchingService().stream(corpus, store_path=store_path, seed=5)
        kinds = []
        for event in events:
            kinds.append(type(event).__name__)
            if kinds[-1] == "RunCompleted":
                # The consumer has not asked past the last event yet.
                assert descriptors_to(store_path) == []
        assert kinds[-1] == "RunCompleted"
        assert descriptors_to(store_path) == []

    def test_after_closing_the_stream_at_the_first_event(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        events = MatchingService().stream(corpus, store_path=store_path, seed=5)
        next(events)  # RunStarted: the store is open from here on
        assert len(descriptors_to(store_path)) == 1
        events.close()
        assert descriptors_to(store_path) == []
        assert store_path.exists()

    def test_after_an_executor_raises(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        service = MatchingService(executor=RaisingExecutor())
        with pytest.raises(RuntimeError, match="executor exploded"):
            service.run_manifest(corpus, store_path=store_path, seed=5)
        assert descriptors_to(store_path) == []
        assert len(ResultStore(store_path).read_records()) == 1

    def test_after_a_daemon_cancel(self, corpus, tmp_path):
        daemon = MatchingDaemon(
            store_dir=tmp_path / "runs",
            host="127.0.0.1",
            port=0,
            executor=SlowSerialExecutor(0.3),
        )
        daemon.start()
        try:
            with DaemonClient.from_address(daemon.address, timeout=TIMEOUT) as client:
                ack = client.submit(corpus, seed=7)
                deadline = time.monotonic() + TIMEOUT
                while client.status(ack["run_id"])["run"]["done"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert len(descriptors_to(ack["store"])) == 1
                client.cancel(ack["run_id"])
                assert client.watch(ack["run_id"]) == RunState.CANCELLED
            assert descriptors_to(ack["store"]) == []
        finally:
            daemon.stop()


class TestTornWrite:
    def test_a_write_that_fails_midway_fails_the_run_and_resume_repairs_it(
        self, corpus, tmp_path, monkeypatch
    ):
        store_path = tmp_path / "results.jsonl"
        real_open = builtins.open

        class TearingHandle:
            """Writes half of the third record, then reports a full disk."""

            def __init__(self, handle):
                self._handle = handle
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    self._handle.write(data[: len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def tearing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return TearingHandle(handle) if mode == "a+b" else handle

        monkeypatch.setattr(pipeline_module, "open", tearing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            MatchingService().run_manifest(corpus, store_path=store_path, seed=5)
        monkeypatch.undo()
        assert not store_path.read_bytes().endswith(b"\n")

        with pytest.warns(UserWarning, match="re-run on resume"):
            report = MatchingService().run_manifest(
                corpus, store_path=store_path, resume=True, seed=5
            )
        assert report.resumed == 2 and report.executed == 4
        store = ResultStore(store_path)
        with pytest.warns(UserWarning, match=r":3: skipping"):
            records = store.read_records()
        assert store.torn_lines == 1
        assert len(records) == 6
        assert sorted(r["pair_id"] for r in records) == sorted(
            r["pair_id"] for r in report.records
        )
