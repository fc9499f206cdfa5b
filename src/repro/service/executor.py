"""Execution backends: stream pair tasks through workers, as completed.

Executors take an iterable of :class:`PairTask` and a
:class:`~repro.core.engine.MatchingConfig` and yield one
:class:`TaskOutcome` per task from :meth:`Executor.stream` in
*as-completed* order — the streaming contract the service pipeline
consumes so store writes and observer notifications follow each pair
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
  crossing a process boundary is not observable downstream.

:class:`SerialExecutor` runs in-process and consumes its task iterable
lazily (task in, outcome out, one at a time); :class:`ParallelExecutor`
shards the batch into contiguous chunks over a ``ProcessPoolExecutor``
(fork start method where the platform offers it — the dispatch table is
built at import time and forked workers inherit it for free) and yields
chunks as they finish.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
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
        matcher: name of the dispatch-table row that ran.
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
    """

    name = "serial"

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        engine = MatchingEngine(config)
        for task in tasks:
            yield _execute_task(engine, task)


class ParallelExecutor(Executor):
    """Shard tasks into chunks across a process pool, yield as completed.

    The batch is spread over about ``4 * workers`` contiguous chunks, so
    an unlucky chunk of slow pairs cannot serialise the run.  A consumer
    that abandons the stream (``close()``, an exception, a daemon cancel)
    cancels every chunk still queued; only the running ones finish.

    Args:
        workers: pool size; defaults to the CPU count.
    """

    name = "parallel"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(f"worker count must be positive, got {workers}")
        self._workers = workers if workers is not None else (os.cpu_count() or 2)

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
        per_chunk = max(1, -(-len(tasks) // (4 * self._workers)))
        chunks = [
            tasks[start : start + per_chunk]
            for start in range(0, len(tasks), per_chunk)
        ]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool = ProcessPoolExecutor(
            max_workers=min(self._workers, len(chunks)), mp_context=context
        )
        try:
            futures = [pool.submit(_execute_chunk, chunk, config) for chunk in chunks]
            for future in as_completed(futures):
                yield from future.result()
        finally:
            pool.shutdown(cancel_futures=True)
