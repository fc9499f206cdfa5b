"""Unit tests for the execution backends.

The load-bearing property is the acceptance criterion of the service
subsystem: every backend — serial and four-process parallel — produces
byte-identical per-task outcomes for the same seed, because every task
carries its own derived RNG seed and shares no state with its
neighbours; backends differ only in the arrival order of
:meth:`Executor.stream`.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.circuits.random import random_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.core.verify import make_instance
from repro.service import executor as executor_module
from repro.service.executor import (
    PairTask,
    ParallelExecutor,
    SerialExecutor,
    TaskOutcome,
    derive_seed,
)


def _canonical(outcomes) -> bytes:
    """Outcomes as canonical JSON bytes, sorted by task index.

    ``duration_s`` is dropped: it is telemetry (``compare=False`` on the
    dataclass), measured per process, and never part of the byte-identity
    contract between serial and parallel execution.
    """
    payload = []
    for outcome in outcomes:
        data = dataclasses.asdict(outcome)
        data.pop("duration_s", None)
        payload.append(data)
    return json.dumps(
        sorted(payload, key=lambda outcome: outcome["index"]),
        sort_keys=True,
    ).encode("utf-8")


@pytest.fixture
def tasks(rng):
    """A mixed batch: tractable classes plus one UNIQUE-SAT-hard failure."""
    classes = [
        EquivalenceType.I_N,
        EquivalenceType.I_P,
        EquivalenceType.P_I,
        EquivalenceType.N_I,
        EquivalenceType.NP_I,
        EquivalenceType.N_N,  # hard: records an error instead of witnesses
    ]
    batch = []
    for index, equivalence in enumerate(classes):
        base = random_circuit(4, 16, rng)
        c1, c2, _ = make_instance(base, equivalence, rng)
        batch.append(
            PairTask(
                index=index,
                circuit1=c1,
                circuit2=c2,
                equivalence=equivalence.label,
                seed=derive_seed(1234, index),
                pair_id=f"pair-{index}",
            )
        )
    return batch


class TestDeriveSeed:
    def test_deterministic_and_decorrelated(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_none_base_stays_none(self):
        assert derive_seed(None, 5) is None


class TestSerialExecutor:
    def test_stream_preserves_task_order_with_errors_recorded(self, tasks):
        outcomes = list(SerialExecutor().stream(tasks, MatchingConfig()))
        assert [outcome.index for outcome in outcomes] == list(range(len(tasks)))
        assert [outcome.pair_id for outcome in outcomes] == [
            task.pair_id for task in tasks
        ]
        hard = outcomes[-1]
        assert not hard.matched and "UNIQUE-SAT" in hard.error
        for outcome in outcomes[:-1]:
            assert outcome.matched and outcome.matcher is not None

    def test_stream_consumes_tasks_lazily(self, tasks):
        """One task in, one outcome out: the pipeline interleaves task
        production with the outcome stream."""
        pulled = []

        def task_source():
            for task in tasks[:3]:
                pulled.append(task.index)
                yield task

        stream = SerialExecutor().stream(task_source(), MatchingConfig())
        assert pulled == []
        next(stream)
        assert pulled == [0]
        next(stream)
        assert pulled == [0, 1]

    def test_results_are_plain_json(self, tasks):
        outcomes = SerialExecutor().stream(tasks[:2], MatchingConfig())
        json.dumps([outcome.result for outcome in outcomes])  # must not raise


class TestParallelExecutor:
    def test_four_workers_byte_identical_to_serial(self, tasks):
        config = MatchingConfig()
        serial = SerialExecutor().stream(tasks, config)
        parallel = ParallelExecutor(workers=4).stream(tasks, config)
        assert _canonical(serial) == _canonical(parallel)

    def test_chunked_stream_covers_every_task(self, tasks):
        outcomes = list(ParallelExecutor(workers=2).stream(tasks, MatchingConfig()))
        assert sorted(outcome.index for outcome in outcomes) == list(
            range(len(tasks))
        )

    def test_single_worker_falls_back_to_serial_path(self, tasks):
        outcomes = list(
            ParallelExecutor(workers=1).stream(tasks[:2], MatchingConfig())
        )
        assert len(outcomes) == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_worker_exceptions_reach_the_consumer(self, tasks):
        bad = dataclasses.replace(tasks[0], equivalence="NOT-A-CLASS")
        stream = ParallelExecutor(workers=2).stream(
            [bad, tasks[1]], MatchingConfig()
        )
        with pytest.raises(ValueError, match="unknown equivalence label"):
            list(stream)

    @pytest.mark.parametrize(
        ("count", "workers", "chunk_sizes"),
        [
            (6, 2, [1] * 6),
            (16, 2, [2] * 8),
            (100, 3, [9] * 11 + [1]),
        ],
    )
    def test_batch_spreads_over_about_four_chunks_per_worker(
        self, monkeypatch, count, workers, chunk_sizes
    ):
        """Contiguous chunks, in task order, at most ``4 * workers`` of
        them, and never more pool workers than chunks."""
        submitted, pool_sizes = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers, mp_context=None):
                pool_sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

            def submit(self, fn, chunk, config):
                submitted.append([task.index for task in chunk])
                return super().submit(fn, chunk, config)

        def stub_task(engine, task):
            return TaskOutcome(
                index=task.index, pair_id=None, equivalence=task.equivalence
            )

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(executor_module, "_execute_task", stub_task)
        outcomes = list(
            ParallelExecutor(workers=workers).stream(
                _dummy_batch(count), MatchingConfig()
            )
        )
        assert sorted(outcome.index for outcome in outcomes) == list(range(count))
        assert [len(chunk) for chunk in submitted] == chunk_sizes
        assert [index for chunk in submitted for index in chunk] == list(
            range(count)
        )
        assert pool_sizes == [min(workers, len(chunk_sizes))]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers must inherit the patched task function",
    )
    def test_abandoning_the_stream_cancels_queued_chunks(
        self, monkeypatch, tmp_path
    ):
        """Closing the stream early runs only the chunks already started,
        not every chunk of the batch (regression: the pool's shutdown
        waited for all queued chunks)."""
        ledger = _count_executed_tasks(monkeypatch, tmp_path)
        batch = _dummy_batch(16)
        stream = ParallelExecutor(workers=2).stream(batch, MatchingConfig())
        next(stream)
        stream.close()
        assert ledger.stat().st_size < len(batch)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers must inherit the patched task function",
    )
    def test_an_interrupted_consumer_cancels_queued_chunks(
        self, monkeypatch, tmp_path
    ):
        """Ctrl-C while the consumer holds an outcome also cancels the
        queued chunks, and the interrupt itself reaches the caller."""
        ledger = _count_executed_tasks(monkeypatch, tmp_path)
        batch = _dummy_batch(16)
        stream = ParallelExecutor(workers=2).stream(batch, MatchingConfig())
        next(stream)
        with pytest.raises(KeyboardInterrupt):
            stream.throw(KeyboardInterrupt())
        assert ledger.stat().st_size < len(batch)


def _dummy_batch(count: int) -> list[PairTask]:
    """Circuit-free tasks for tests that patch out the engine."""
    return [
        PairTask(index=index, circuit1=None, circuit2=None, equivalence="I-I")
        for index in range(count)
    ]


def _count_executed_tasks(monkeypatch, tmp_path):
    """Patch the task function to append one byte per executed task to a
    file (forked workers inherit the patch) and take 0.15 s; return the
    file's path."""
    ledger = tmp_path / "executed"

    def counting_task(engine, task):
        with open(ledger, "ab") as handle:
            handle.write(b".")
        time.sleep(0.15)
        return TaskOutcome(
            index=task.index, pair_id=None, equivalence=task.equivalence
        )

    monkeypatch.setattr(executor_module, "_execute_task", counting_task)
    return ledger
