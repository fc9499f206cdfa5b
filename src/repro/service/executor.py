"""Execution backends: stream pair tasks through workers, as completed.

Executors take an iterable of :class:`PairTask` and a
:class:`~repro.core.engine.MatchingConfig` and yield one
:class:`TaskOutcome` per task from :meth:`Executor.stream` in
*as-completed* order — the streaming contract the service pipeline
consumes so store writes and observer notifications overlap execution
instead of waiting for the whole batch.  Two invariants make the
backends interchangeable:

* **Determinism** — each task carries its own RNG seed, derived from the
  run seed and the task index by :func:`derive_seed` (a SHA-256 mix, so
  nearby indices get unrelated streams).  No state is shared between
  tasks, so executing them serially, in shuffled order, or on four
  processes yields identical per-task outcomes; only the *arrival order*
  of the stream may differ between backends.
* **Serialised results** — outcomes carry results as JSON dicts (the
  :mod:`repro.service.serialize` format) rather than live objects, so
  crossing a process or thread boundary is not observable downstream.

:class:`SerialExecutor` runs in-process and consumes its task iterable
lazily (task in, outcome out, one at a time); :class:`ParallelExecutor`
shards the batch into contiguous chunks over a ``ProcessPoolExecutor``
(fork start method where the platform offers it — the matcher registry is
populated at import time and forked workers inherit it for free) and
yields chunks as they finish; :class:`OverlapExecutor` runs any inner
executor on a background thread behind a bounded queue, so a consumer
doing I/O (JSONL store appends) overlaps with oracle execution.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue as _queue
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.core.engine import MatchingConfig, MatchingEngine
from repro.service import serialize

__all__ = [
    "PairTask",
    "TaskOutcome",
    "derive_seed",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "OverlapExecutor",
]


@dataclass(frozen=True)
class PairTask:
    """One pair to match, self-contained and picklable.

    Attributes:
        index: position in the batch (stable across backends; streams may
            deliver outcomes out of index order).
        circuit1, circuit2: the pair — circuits or permutations (picklable;
            live oracles are not shipped across processes).
        equivalence: the promised class, as its "X-Y" label.
        seed: per-task RNG seed (``None`` = fresh randomness, which
            forfeits serial/parallel reproducibility for this task).
        pair_id: optional stable identifier carried through to the outcome
            (corpus entries use it for resume bookkeeping).
    """

    index: int
    circuit1: object
    circuit2: object
    equivalence: str
    seed: int | None = None
    pair_id: str | None = None


@dataclass(frozen=True)
class TaskOutcome:
    """The executed counterpart of one :class:`PairTask`.

    Attributes:
        index: the task's batch position.
        pair_id: the task's identifier, if any.
        equivalence: the promised class label.
        result: the serialised :class:`~repro.core.problem.MatchingResult`
            (:func:`repro.service.serialize.result_to_dict`), or ``None``
            when the matcher failed.
        error: ``"ExceptionName: message"`` on failure.
        matcher: name of the registry entry that ran.
        duration_s: wall clock of the engine dispatch, measured where the
            task ran (the worker process for pooled backends).  Excluded
            from equality — a replayed outcome with a different timing is
            still the *same* outcome, which is what keeps serial and
            batch comparisons (and byte-identical records) meaningful.
    """

    index: int
    pair_id: str | None
    equivalence: str
    result: dict | None = None
    error: str | None = None
    matcher: str | None = None
    duration_s: float | None = field(default=None, compare=False)

    @property
    def matched(self) -> bool:
        """Whether the task produced witnesses."""
        return self.result is not None


def derive_seed(base_seed: int | None, index: int) -> int | None:
    """A per-task seed decorrelated from neighbours but fully determined.

    Hashing ``base_seed:index`` (rather than e.g. adding them) keeps task
    streams statistically independent while remaining identical no matter
    which worker, chunk or process order executes the task.
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(f"{base_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _execute_task(engine: MatchingEngine, task: PairTask) -> TaskOutcome:
    """Run one task through the engine's guarded dispatch (shared error format)."""
    started = time.perf_counter()
    [entry] = engine.match_many(
        [(task.circuit1, task.circuit2, task.equivalence)], rng=task.seed
    )
    duration_s = time.perf_counter() - started
    return TaskOutcome(
        index=task.index,
        pair_id=task.pair_id,
        equivalence=task.equivalence,
        result=serialize.result_to_dict(entry.result) if entry.result else None,
        error=entry.error,
        matcher=entry.matcher,
        duration_s=duration_s,
    )


def _execute_chunk(
    tasks: list[PairTask], config: MatchingConfig
) -> list[TaskOutcome]:
    """Process-pool worker entry point: one engine per chunk, tasks in order."""
    engine = MatchingEngine(config)
    return [_execute_task(engine, task) for task in tasks]


class Executor(ABC):
    """Strategy interface for running a stream of pair tasks."""

    #: Human-readable backend name for reports.
    name: str = "executor"

    @abstractmethod
    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        """Yield one outcome per task, as completed.

        Arrival order is backend-specific (serial backends preserve task
        order; pooled backends yield whichever chunk finishes first); the
        per-task outcomes themselves are deterministic either way because
        every task carries its own seed.
        """


class SerialExecutor(Executor):
    """Run tasks one after another in the calling process.

    The task iterable is consumed lazily: each task is pulled, executed
    and its outcome yielded before the next task is even looked at, so a
    generator of tasks interleaves perfectly with the outcome stream.

    Each :meth:`stream` call builds its own :class:`MatchingEngine`; an
    engine holds no state between runs, so there is nothing to keep warm.

    Args:
        metrics: optional metrics registry (duck-typed
            :class:`repro.obs.metrics.MetricsRegistry`) handed to every
            engine this executor builds, so engine-level counters
            (``repro_engine_pairs_total`` and friends) land in-process.
            Pooled backends cannot offer this — their engines live in
            worker processes — which is why the knob sits here and not on
            :class:`Executor`.
    """

    name = "serial"

    def __init__(self, *, metrics=None) -> None:
        self._metrics = metrics

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        engine = MatchingEngine(config, metrics=self._metrics)
        for task in tasks:
            yield _execute_task(engine, task)


class ParallelExecutor(Executor):
    """Shard tasks into chunks across a process pool, yield as completed.

    Args:
        workers: pool size; defaults to the CPU count.
        chunk_size: tasks per submitted chunk; defaults to spreading the
            batch over ``4 * workers`` chunks so an unlucky chunk of slow
            pairs cannot serialise the run.
    """

    name = "parallel"

    def __init__(self, workers: int | None = None, chunk_size: int | None = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(f"worker count must be positive, got {workers}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        self._workers = workers if workers is not None else (os.cpu_count() or 2)
        self._chunk_size = chunk_size

    @property
    def workers(self) -> int:
        """The configured pool size."""
        return self._workers

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if self._workers == 1 or len(tasks) <= 1:
            yield from _execute_chunk(tasks, config)
            return
        chunk_size = self._chunk_size
        if chunk_size is None:
            chunk_size = max(1, -(-len(tasks) // (4 * self._workers)))
        chunks = [
            tasks[start : start + chunk_size]
            for start in range(0, len(tasks), chunk_size)
        ]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        with ProcessPoolExecutor(
            max_workers=min(self._workers, len(chunks)), mp_context=context
        ) as pool:
            futures = [pool.submit(_execute_chunk, chunk, config) for chunk in chunks]
            for future in as_completed(futures):
                yield from future.result()


#: Queue sentinel marking the end of an overlap stream.
_DONE = object()


class OverlapExecutor(Executor):
    """Pipeline an inner executor with the consumer over a bounded queue.

    A background thread drains ``inner.stream`` into a queue while the
    caller consumes outcomes from this stream — so the consumer's blocking
    work (JSONL store appends, observer I/O) overlaps with oracle
    execution instead of alternating with it.  The queue is bounded, so a
    slow consumer back-pressures the producer instead of buffering the
    whole run.

    Outcome order is exactly the inner executor's order; an exception on
    the producer side (not a matcher failure, which is an outcome — a
    genuinely broken task) is re-raised in the consumer.

    Args:
        inner: the executor doing the actual matching; defaults to a
            :class:`SerialExecutor`.
        buffer_size: maximum outcomes in flight between the threads.
    """

    def __init__(self, inner: Executor | None = None, buffer_size: int = 64) -> None:
        if buffer_size <= 0:
            raise ValueError(f"buffer size must be positive, got {buffer_size}")
        self._inner = inner if inner is not None else SerialExecutor()
        self._buffer_size = buffer_size
        self.name = f"overlap[{self._inner.name}]"

    @property
    def inner(self) -> Executor:
        """The wrapped executor."""
        return self._inner

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        outcomes: _queue.Queue = _queue.Queue(maxsize=self._buffer_size)
        cancelled = threading.Event()
        failure: list[BaseException] = []

        def produce() -> None:
            try:
                for outcome in self._inner.stream(tasks, config):
                    outcomes.put(outcome)
                    if cancelled.is_set():
                        break
            except BaseException as error:  # noqa: BLE001 - re-raised in consumer
                failure.append(error)
            finally:
                outcomes.put(_DONE)

        producer = threading.Thread(
            target=produce, name="repro-overlap-producer", daemon=True
        )
        producer.start()
        finished = False
        try:
            while True:
                outcome = outcomes.get()
                if outcome is _DONE:
                    finished = True
                    break
                yield outcome
        finally:
            # A consumer that abandons the stream early (break, observer
            # exception, GeneratorExit) leaves the producer blocked on a
            # full queue; cancel it and drain to the sentinel so join()
            # cannot deadlock.  At most one more outcome is computed.
            cancelled.set()
            while not finished:
                if outcomes.get() is _DONE:
                    finished = True
            producer.join()
        if failure:
            raise failure[0]
