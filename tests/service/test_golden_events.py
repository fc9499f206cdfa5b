"""Golden event sequences of the matching pipeline.

Every corpus run is the event stream of ``MatchingService.stream``, so
this table pins that stream for one small seeded corpus across the run
matrix: serial and 2-worker pooled executors; fresh, cache-warm and
resumed runs; with and without a result store; with and without
``verify``.  A resumed run needs a store, which leaves 20 cases.

Each event is pinned as ``kind index pair_id status verified source
records_written`` (``-`` where the event has no such field); durations
never enter the table.  A ``StoreFlushed`` carries the index and pair id
of the event it follows.  Pooled completions arrive in as-completed
order, so a pooled case pins its execution-phase events sorted by
``(index, kind)`` with ``records_written`` blanked, and the ordering
rules of ``docs/events.md`` are asserted on the raw stream of every
case.  The recorded table is never edited.

The scenarios, all on a cache:
  * fresh — an empty in-memory cache, so each pair is keyed inside its
    own pair span;
  * warm — a memory + disk stack (the prefetch key path) warmed by an
    earlier run stopped after its third outcome;
  * resumed — an empty in-memory cache and a store holding the first two
    records of an earlier run stopped after its second flush.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.equivalence import EquivalenceType
from repro.service.cache import build_cache
from repro.service.executor import ParallelExecutor, SerialExecutor
from repro.service.pipeline import MatchingService
from repro.service.workload import generate_corpus

EXECUTORS = ("serial", "pooled")
SCENARIOS = ("fresh", "warm", "resumed")
CASES = [
    f"{executor}/{scenario}/{store}/{verify}"
    for executor, scenario, store, verify in itertools.product(
        EXECUTORS, SCENARIOS, ("store", "nostore"), ("verify", "noverify")
    )
    if not (scenario == "resumed" and store == "nostore")
]
OUTCOMES = ("TaskCompleted", "TaskFailed")
EXECUTION = ("TaskStarted", *OUTCOMES)
#: A pair's execution-phase events in stream order: the sort within an index.
PHASE_ORDER = (*EXECUTION, "StoreFlushed")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Six 4-line pairs: verified, unverifiable, failing and quantum ones."""
    root = tmp_path_factory.mktemp("golden_events_corpus")
    generate_corpus(
        root,
        num_lines=4,
        classes=tuple(
            EquivalenceType.from_label(label) for label in ("I-I", "I-P", "N-I")
        ),
        families=("random", "adversarial"),
        pairs_per_class=1,
        seed=11,
    )
    return root


def _stop_after(events, kinds, count) -> None:
    """Consume ``events`` until ``count`` events of ``kinds``, then close."""
    seen = 0
    for event in events:
        seen += event.kind in kinds
        if seen == count:
            break
    events.close()


def _run(case: str, corpus, tmp_path) -> list:
    executor_name, scenario, store_mode, verify_mode = case.split("/")
    verify = verify_mode == "verify"
    store = tmp_path / "run.jsonl" if store_mode == "store" else None
    cache = build_cache()
    if scenario == "warm":
        cache = build_cache(disk_dir=tmp_path / "cache")
        _stop_after(
            MatchingService(cache=cache, verify=verify).stream(corpus, seed=5),
            OUTCOMES, 3,
        )
    elif scenario == "resumed":
        _stop_after(
            MatchingService(verify=verify).stream(corpus, store_path=store, seed=5),
            ("StoreFlushed",), 2,
        )
    executor = (
        SerialExecutor() if executor_name == "serial" else ParallelExecutor(workers=2)
    )
    service = MatchingService(executor=executor, cache=cache, verify=verify)
    return list(
        service.stream(
            corpus, store_path=store, resume=scenario == "resumed", seed=5
        )
    )


def _rows(events, pooled: bool) -> list[str]:
    """The pinned form of a stream (execution phase sorted when pooled)."""
    rows = []
    anchor = (None, None)
    for event in events:
        record = getattr(event, "record", None) or {}
        index = getattr(event, "index", None)
        pair_id = getattr(event, "pair_id", None)
        if event.kind == "StoreFlushed":
            index, pair_id = anchor
        else:
            anchor = (index, pair_id)
        written = getattr(event, "records_written", None)
        phase = event.kind in EXECUTION or (
            event.kind == "StoreFlushed" and rows[-1][2]
        )
        if pooled and phase:
            written = None
        fields = (
            event.kind, index, pair_id, record.get("status"),
            record.get("verified"), getattr(event, "source", None), written,
        )
        text = " ".join("-" if value is None else str(value) for value in fields)
        rows.append((index if phase else -1, event.kind, phase, text))
    if pooled:
        head = [row for row in rows if not row[2] and row[1] != "RunCompleted"]
        body = sorted(
            (row for row in rows if row[2]),
            key=lambda row: (row[0], PHASE_ORDER.index(row[1])),
        )
        tail = [row for row in rows if row[1] == "RunCompleted"]
        rows = head + body + tail
    return [row[3] for row in rows]


def _assert_ordering_rules(events) -> None:
    """The ordering guarantees of docs/events.md on a raw stream."""
    kinds = [event.kind for event in events]
    assert kinds[0] == "RunStarted" and kinds.count("RunStarted") == 1
    assert kinds[-1] == "RunCompleted" and kinds.count("RunCompleted") == 1
    # Settled pairs never wait on the executor.
    execution = [i for i, kind in enumerate(kinds) if kind in EXECUTION]
    hits = [i for i, kind in enumerate(kinds) if kind == "CacheHit"]
    if execution and hits:
        assert max(hits) < min(execution)
    started = {}
    for position, event in enumerate(events):
        if event.kind == "TaskStarted":
            started[event.index] = position
        elif event.kind in OUTCOMES:
            assert started[event.index] < position
    written = []
    for position, event in enumerate(events):
        if event.kind == "StoreFlushed":
            assert kinds[position - 1] in ("CacheHit", *OUTCOMES)
            written.append(event.records_written)
    assert written == list(range(1, len(written) + 1))


#: Recorded from the pipeline; never edited.
GOLDEN: dict[str, tuple[str, ...]] = {
    "serial/fresh/store/verify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok True - -",
        "StoreFlushed 0 random-i-i-000 - - - 1",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok True - -",
        "StoreFlushed 1 random-i-p-000 - - - 2",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok True - -",
        "StoreFlushed 2 random-n-i-000 - - - 3",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - 4",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - 5",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - 6",
        "RunCompleted - - - - - -",
    ),
    "serial/fresh/store/noverify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok - - -",
        "StoreFlushed 0 random-i-i-000 - - - 1",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok - - -",
        "StoreFlushed 1 random-i-p-000 - - - 2",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok - - -",
        "StoreFlushed 2 random-n-i-000 - - - 3",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - 4",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - 5",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - 6",
        "RunCompleted - - - - - -",
    ),
    "serial/fresh/nostore/verify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok True - -",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok True - -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok True - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "RunCompleted - - - - - -",
    ),
    "serial/fresh/nostore/noverify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok - - -",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok - - -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok - - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "RunCompleted - - - - - -",
    ),
    "serial/warm/store/verify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "StoreFlushed 0 random-i-i-000 - - - 1",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "StoreFlushed 1 random-i-p-000 - - - 2",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "StoreFlushed 2 random-n-i-000 - - - 3",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - 4",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - 5",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - 6",
        "RunCompleted - - - - - -",
    ),
    "serial/warm/store/noverify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "StoreFlushed 0 random-i-i-000 - - - 1",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "StoreFlushed 1 random-i-p-000 - - - 2",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "StoreFlushed 2 random-n-i-000 - - - 3",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - 4",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - 5",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - 6",
        "RunCompleted - - - - - -",
    ),
    "serial/warm/nostore/verify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "RunCompleted - - - - - -",
    ),
    "serial/warm/nostore/noverify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "RunCompleted - - - - - -",
    ),
    "serial/resumed/store/verify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 resumed True store -",
        "CacheHit 1 random-i-p-000 resumed True store -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok True - -",
        "StoreFlushed 2 random-n-i-000 - - - 1",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - 2",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - 3",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - 4",
        "RunCompleted - - - - - -",
    ),
    "serial/resumed/store/noverify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 resumed - store -",
        "CacheHit 1 random-i-p-000 resumed - store -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok - - -",
        "StoreFlushed 2 random-n-i-000 - - - 1",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - 2",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - 3",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - 4",
        "RunCompleted - - - - - -",
    ),
    "pooled/fresh/store/verify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok True - -",
        "StoreFlushed 0 random-i-i-000 - - - -",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok True - -",
        "StoreFlushed 1 random-i-p-000 - - - -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok True - -",
        "StoreFlushed 2 random-n-i-000 - - - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/fresh/store/noverify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok - - -",
        "StoreFlushed 0 random-i-i-000 - - - -",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok - - -",
        "StoreFlushed 1 random-i-p-000 - - - -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok - - -",
        "StoreFlushed 2 random-n-i-000 - - - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/fresh/nostore/verify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok True - -",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok True - -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok True - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/fresh/nostore/noverify": (
        "RunStarted - - - - - -",
        "TaskStarted 0 random-i-i-000 - - - -",
        "TaskCompleted 0 random-i-i-000 ok - - -",
        "TaskStarted 1 random-i-p-000 - - - -",
        "TaskCompleted 1 random-i-p-000 ok - - -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok - - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/warm/store/verify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "StoreFlushed 0 random-i-i-000 - - - 1",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "StoreFlushed 1 random-i-p-000 - - - 2",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "StoreFlushed 2 random-n-i-000 - - - 3",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/warm/store/noverify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "StoreFlushed 0 random-i-i-000 - - - 1",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "StoreFlushed 1 random-i-p-000 - - - 2",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "StoreFlushed 2 random-n-i-000 - - - 3",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/warm/nostore/verify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/warm/nostore/noverify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 cached - cache -",
        "CacheHit 1 random-i-p-000 cached - cache -",
        "CacheHit 2 random-n-i-000 cached - cache -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/resumed/store/verify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 resumed True store -",
        "CacheHit 1 random-i-p-000 resumed True store -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok True - -",
        "StoreFlushed 2 random-n-i-000 - - - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok False - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok False - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - -",
        "RunCompleted - - - - - -",
    ),
    "pooled/resumed/store/noverify": (
        "RunStarted - - - - - -",
        "CacheHit 0 random-i-i-000 resumed - store -",
        "CacheHit 1 random-i-p-000 resumed - store -",
        "TaskStarted 2 random-n-i-000 - - - -",
        "TaskCompleted 2 random-n-i-000 ok - - -",
        "StoreFlushed 2 random-n-i-000 - - - -",
        "TaskStarted 3 adversarial-i-i-000 - - - -",
        "TaskCompleted 3 adversarial-i-i-000 ok - - -",
        "StoreFlushed 3 adversarial-i-i-000 - - - -",
        "TaskStarted 4 adversarial-i-p-000 - - - -",
        "TaskFailed 4 adversarial-i-p-000 failed - - -",
        "StoreFlushed 4 adversarial-i-p-000 - - - -",
        "TaskStarted 5 adversarial-n-i-000 - - - -",
        "TaskCompleted 5 adversarial-n-i-000 ok - - -",
        "StoreFlushed 5 adversarial-n-i-000 - - - -",
        "RunCompleted - - - - - -",
    ),
}


def test_the_table_covers_the_run_matrix():
    assert len(CASES) == 20
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_event_sequence(case, corpus, tmp_path):
    events = _run(case, corpus, tmp_path)
    _assert_ordering_rules(events)
    assert tuple(_rows(events, case.startswith("pooled"))) == GOLDEN[case]
