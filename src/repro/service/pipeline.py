"""The :class:`MatchingService` — cache + executor + engine as a pipeline.

The service is the production front door the ROADMAP asks for, and its
primitive is **streaming**: :meth:`MatchingService.stream` is a generator
of typed :mod:`repro.service.events` — it takes a corpus manifest (or
in-memory pairs), skips whatever a previous run already answered (resume
via the JSONL result store), answers whatever an earlier batch or run
already answered (the result cache, consulted *before* any oracle is
built — a warm-cache run performs zero oracle queries), hands the
remainder to an execution backend's as-completed stream, and appends one
JSON record per pair to the store the moment the pair finishes.
:meth:`~MatchingService.run_manifest` and :meth:`~MatchingService.match_pairs`
are thin consumers of that stream that forward events to registered
:class:`~repro.service.events.Observer`\\ s and return the final
:class:`ServiceReport`.

Runs shard: ``shard=(i, n)`` deterministically keeps the pairs whose id
hashes to bucket ``i`` of ``n`` (:func:`shard_index`), with per-pair
seeds still derived from the *manifest* position — so the union of the
``n`` shard stores (:func:`merge_stores`) is byte-identical to the store
of one unsharded run.

Records are JSON dicts end to end — the executor, the cache and the
store all speak :mod:`repro.service.serialize` — so a serial run, a
4-worker run, an overlap run and a cache replay of the same manifest
write interchangeable stores.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
import warnings
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.analysis.report import format_table
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.core.verify import verify_match
from repro.exceptions import FingerprintError, ServiceError
from repro.service import serialize
from repro.service.cache import ResultCache
from repro.service.events import (
    CacheHit,
    Observer,
    RunCompleted,
    RunStarted,
    ServiceEvent,
    StoreFlushed,
    TaskCompleted,
    TaskFailed,
    TaskStarted,
)
from repro.service.executor import (
    Executor,
    PairTask,
    SerialExecutor,
    derive_seed,
)
from repro.service.fingerprint import (
    KEY_VERSION,
    FingerprintRegistry,
    pair_key,
    registry_for_config,
)
from repro.service.workload import (
    MANIFEST_NAME,
    CorpusManifest,
    load_entry_circuits,
)

__all__ = [
    "ResultStore",
    "ServiceReport",
    "MatchingService",
    "RUN_META_FORMAT",
    "parse_shard",
    "shard_index",
    "merge_stores",
]

#: Format tag of the per-run ``<store>.meta.json`` timing sidecar.
RUN_META_FORMAT = "repro-run-meta/v1"


class _NullSpan:
    """Placeholder span when tracing is off."""

    __slots__ = ()
    span_id = None

    def end(self) -> None:
        return None


class _NullTracer:
    """Do-nothing tracer, so the pipeline never branches on tracing.

    The service takes tracers duck-typed (``repro.service`` never imports
    ``repro.obs``); pass a :class:`repro.obs.trace.Tracer` to get a real
    span log with the same call sites.
    """

    def start(self, name, parent=None, **attrs):
        return _NULL_SPAN

    @contextlib.contextmanager
    def span(self, name, parent=None, **attrs):
        yield _NULL_SPAN

    def record(self, name, duration_s, parent=None, **attrs):
        return _NULL_SPAN


_NULL_SPAN = _NullSpan()
_NULL_TRACER = _NullTracer()


class ResultStore:
    """Append-only JSONL store of per-pair run records, keyed by pair id.

    One JSON object per line; the readers tolerate a torn final line (a
    crash mid-append) by skipping, with a warning, anything that does not
    parse as an object — which is exactly what resume needs: the
    half-written pair is simply re-run.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        #: Torn lines skipped by the most recent read —
        #: surfaced as the ``repro_store_torn_lines`` gauge and in
        #: ``repro report``, so silent corruption stays visible.
        self.torn_lines = 0

    @property
    def path(self) -> Path:
        """The JSONL file backing the store."""
        return self._path

    @property
    def exists(self) -> bool:
        """Whether the store file exists on disk."""
        return self._path.exists()

    def read_records(self) -> list[dict]:
        """Every record in file order (append order, duplicates included).

        A line that does not parse as a JSON object — a crash mid-append
        leaves at most one, at the end — is torn: it is skipped with a
        :class:`UserWarning` naming the line and counted in
        :attr:`torn_lines`, so a resume both survives the torn record and
        tells the operator it happened.
        """
        records: list[dict] = []
        self.torn_lines = 0
        if not self.exists:
            return records
        with open(self._path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None
                if not isinstance(record, dict):
                    self.torn_lines += 1
                    warnings.warn(
                        f"{self._path}:{lineno}: skipping truncated or "
                        "malformed record (crash mid-append?); the pair "
                        "will be re-run on resume",
                        stacklevel=3,
                    )
                    continue
                records.append(record)
        return records

    def load(self) -> dict[str, dict]:
        """All complete records by pair id, newest occurrence winning.

        Torn lines are skipped and counted as by :meth:`read_records`.
        """
        records: dict[str, dict] = {}
        for record in self.read_records():
            pair_id = record.get("pair_id")
            if isinstance(pair_id, str):
                records[pair_id] = record
        return records

    def touch(self) -> None:
        """Materialise the (possibly empty) store file on disk.

        Runs call this up front so a shard that owns zero pairs still
        leaves a store behind — ``repro merge`` can then take one store
        per shard without guessing which shards happened to be empty.
        """
        self._path.touch(exist_ok=True)

    def append(self, record: dict) -> None:
        """Append one record and flush it to disk.

        If a crash left the file without a trailing newline (a torn
        record), a newline is inserted first — otherwise the new record
        would concatenate onto the partial line and both would be lost.
        """
        with open(self._path, "a+b") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write((json.dumps(record) + "\n").encode("utf-8"))
            handle.flush()


# ---------------------------------------------------------------------------
# Sharding and merging
# ---------------------------------------------------------------------------
def parse_shard(spec: str) -> tuple[int, int]:
    """Parse an ``"i/n"`` shard spec into a validated ``(index, count)``."""
    index_text, _, count_text = spec.partition("/")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ServiceError(
            f"shard must look like 'i/n' (e.g. 0/3), got {spec!r}"
        ) from None
    if count <= 0:
        raise ServiceError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ServiceError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return index, count


def shard_index(pair_id: str, count: int) -> int:
    """The shard bucket of a pair id — a stable SHA-256 partition.

    Hashing (rather than round-robin by position) keeps the partition
    independent of manifest ordering and identical on every machine, so
    ``n`` hosts can each run their shard of the same manifest with no
    coordination beyond agreeing on ``n``.
    """
    if count <= 0:
        raise ServiceError(f"shard count must be positive, got {count}")
    digest = hashlib.sha256(pair_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


def merge_stores(
    output: str | Path, inputs: Sequence[str | Path]
) -> int:
    """Union shard result stores into one, ordered by manifest index.

    Each input is read through :meth:`ResultStore.load` (newest record per
    pair wins; torn lines are skipped with a warning), the union is sorted
    by the records' manifest ``index``, and the result is written fresh to
    ``output``.  Because shard runs keep manifest positions (and therefore
    per-pair seeds), merging the ``n`` shard stores of a manifest
    reproduces the unsharded *serial* run's store byte for byte — shard
    stores written by a ``--workers N`` run are completion-ordered, but
    the index sort makes the merged output identical either way.

    Returns:
        The number of records written.

    Raises:
        ServiceError: when an input store is missing or the inputs share a
            pair id with conflicting records (overlapping, non-disjoint
            shards).
    """
    merged: dict[str, dict] = {}
    for path in inputs:
        store = ResultStore(path)
        if not store.exists:
            raise ServiceError(f"{store.path}: result store does not exist")
        for pair_id, record in store.load().items():
            previous = merged.get(pair_id)
            if previous is not None and previous != record:
                raise ServiceError(
                    f"pair {pair_id!r} has conflicting records across the "
                    "input stores; shards of one run never overlap, so "
                    "these stores do not belong to the same run"
                )
            merged[pair_id] = record
    records = sorted(
        merged.values(),
        key=lambda record: (record.get("index", 0), record.get("pair_id", "")),
    )
    output = Path(output)
    # Publish atomically: an interrupted merge must not leave a torn
    # store where a complete shard store (or a previous merge) stood.
    tmp = output.with_suffix(output.suffix + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, output)
    return len(records)


def _write_run_meta(store: ResultStore, report: "ServiceReport", seed) -> None:
    """Publish the run's ``<store>.meta.json`` timing sidecar atomically.

    Store records are byte-identical across serial, parallel and sharded
    runs, so wall-clock facts must never enter them; this sidecar carries
    the run's aggregate timing instead, and ``repro report`` merges it
    back into the per-store summary.  Written via tmp + rename so a crash
    mid-write cannot leave a torn sidecar.
    """
    meta = {
        "format": RUN_META_FORMAT,
        "store": store.path.name,
        "executor": report.executor,
        "seed": seed,
        "elapsed": report.elapsed,
        "total": report.total,
        "matched": report.matched,
        "failed": report.failed,
        "resumed": report.resumed,
        "cache_hits": report.cache_hits,
        "executed": report.executed,
        "torn_lines": store.torn_lines,
        "shard": list(report.shard) if report.shard is not None else None,
    }
    path = store.path.with_name(store.path.name + ".meta.json")
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ServiceReport:
    """Outcome of one service run: per-pair records plus throughput stats.

    Attributes:
        records: one JSON record per pair, in manifest order.  Statuses:
            ``ok`` (freshly executed), ``failed`` (matcher raised),
            ``cached`` (served by the result cache) and whatever a resumed
            record carried when it was first written.
        resumed: how many pairs were skipped because the store already had
            them.
        executed: how many pairs actually went through an executor.
        elapsed: wall-clock seconds for the run.
        shard: the ``(index, count)`` shard this run covered, if any.
    """

    def __init__(
        self,
        records: list[dict],
        *,
        resumed: int,
        cache_hits: int,
        executed: int,
        elapsed: float,
        executor: str,
        store_path: Path | None = None,
        shard: tuple[int, int] | None = None,
    ) -> None:
        self.records = records
        self.resumed = resumed
        self.cache_hits = cache_hits
        self.executed = executed
        self.elapsed = elapsed
        self.executor = executor
        self.store_path = store_path
        self.shard = shard

    # -- aggregates ------------------------------------------------------------
    @property
    def total(self) -> int:
        """Number of pairs this run accounted for."""
        return len(self.records)

    @property
    def matched(self) -> int:
        """Pairs with witnesses (fresh, cached or resumed)."""
        return sum(1 for record in self.records if record.get("result"))

    @property
    def failed(self) -> int:
        """Pairs whose matcher raised (fresh, cached or resumed)."""
        return self.total - self.matched

    @property
    def classical_queries(self) -> int:
        """Classical oracle queries spent on freshly executed pairs."""
        return sum(
            record["result"]["queries"]
            for record in self.records
            if record.get("status") == "ok" and record.get("result")
        )

    @property
    def quantum_queries(self) -> int:
        """Quantum oracle queries spent on freshly executed pairs."""
        return sum(
            record["result"]["quantum_queries"]
            for record in self.records
            if record.get("status") == "ok" and record.get("result")
        )

    @property
    def pairs_per_second(self) -> float:
        """Throughput over the pairs actually processed this run."""
        processed = self.executed + self.cache_hits
        if processed == 0 or self.elapsed <= 0:
            return 0.0
        return processed / self.elapsed

    # -- rendering -------------------------------------------------------------
    def as_rows(self) -> list[tuple[object, ...]]:
        """Table rows (pair, class, family, status, matcher, queries, quantum)."""
        rows: list[tuple[object, ...]] = []
        for record in self.records:
            result = record.get("result") or {}
            rows.append(
                (
                    record.get("pair_id", record.get("index", "-")),
                    record.get("equivalence", "-"),
                    record.get("family") or "-",
                    record.get("status", "-"),
                    record.get("matcher") or "-",
                    result.get("queries", 0),
                    result.get("quantum_queries", 0),
                )
            )
        return rows

    def to_table(self, title: str | None = None) -> str:
        """Render the run through :func:`repro.analysis.report.format_table`."""
        return format_table(
            ["pair", "class", "family", "status", "matcher", "queries", "quantum"],
            self.as_rows(),
            title=title,
        )

    def summary(self) -> str:
        """One-line aggregate with throughput."""
        prefix = ""
        if self.shard is not None:
            prefix = f"shard {self.shard[0]}/{self.shard[1]}: "
        return (
            f"{prefix}{self.matched}/{self.total} matched ({self.failed} failed), "
            f"{self.cache_hits} cached, {self.resumed} resumed, "
            f"{self.executed} executed via {self.executor} in "
            f"{self.elapsed:.2f}s ({self.pairs_per_second:.1f} pairs/s); "
            f"{self.classical_queries} classical + "
            f"{self.quantum_queries} quantum queries spent"
        )


class _Unit:
    """One pair flowing through the pipeline (internal bookkeeping)."""

    __slots__ = ("position", "pair_id", "circuit1", "circuit2", "label", "meta", "key")

    def __init__(self, position, pair_id, circuit1, circuit2, label, meta):
        self.position = position
        self.pair_id = pair_id
        self.circuit1 = circuit1
        self.circuit2 = circuit2
        self.label = label
        self.meta = meta
        self.key = None


class MatchingService:
    """High-throughput, cached, resumable, shard-aware matching over corpora.

    Args:
        config: the :class:`~repro.core.engine.MatchingConfig` policy every
            pair is matched under (also part of every cache key).
        executor: execution backend; defaults to
            :class:`~repro.service.executor.SerialExecutor`.
        cache: optional :class:`~repro.service.cache.ResultCache` consulted
            per pair before any oracle exists.
        verify: exhaustively verify the witnesses of freshly executed
            pairs (white-box, exponential in width — meant for corpora of
            small circuits, where it catches promise-violating
            near-misses; recorded as ``verified`` on the run record).
        observers: :class:`~repro.service.events.Observer` objects notified
            of every event by the consuming entry points
            (:meth:`run_manifest` / :meth:`match_pairs`; the raw
            :meth:`stream` generator leaves delivery to its caller).
        fingerprint_registry: the
            :class:`~repro.service.fingerprint.FingerprintRegistry` cache
            keys and pair digests are computed with; defaults to the one
            the config's ``fingerprint_scheme``/``probe_count`` knobs
            describe.
        metrics: optional metrics registry (duck-typed
            :class:`repro.obs.metrics.MetricsRegistry`): runs, per-pair
            outcomes, task/run latency histograms and store flushes are
            counted on it.  Bind the same registry to the cache
            (``cache.bind_metrics``) for per-tier hit/miss counters.
        tracer: optional span tracer (duck-typed
            :class:`repro.obs.trace.Tracer`): each pair gets a root
            ``pair`` span with ``fingerprint`` / ``cache_probe`` /
            ``match`` / ``store_append`` children.
    """

    def __init__(
        self,
        config: MatchingConfig | None = None,
        *,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        verify: bool = False,
        observers: Sequence[Observer] = (),
        fingerprint_registry: FingerprintRegistry | None = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self._config = config if config is not None else MatchingConfig()
        self._executor = executor if executor is not None else SerialExecutor()
        self._cache = cache
        self._verify = verify
        self._observers = tuple(observers)
        self._registry = (
            fingerprint_registry
            if fingerprint_registry is not None
            else registry_for_config(self._config)
        )
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else _NULL_TRACER

    # -- introspection ---------------------------------------------------------
    @property
    def config(self) -> MatchingConfig:
        """The matching policy."""
        return self._config

    @property
    def executor(self) -> Executor:
        """The execution backend."""
        return self._executor

    @property
    def cache(self) -> ResultCache | None:
        """The result cache, if any."""
        return self._cache

    @property
    def observers(self) -> tuple[Observer, ...]:
        """The observers registered at construction."""
        return self._observers

    @property
    def fingerprint_registry(self) -> FingerprintRegistry:
        """The identity registry cache keys are computed with."""
        return self._registry

    @property
    def metrics(self):
        """The metrics registry runs are counted on, if any."""
        return self._metrics

    # -- internal --------------------------------------------------------------
    def _cache_key(self, unit: _Unit) -> str | None:
        if self._cache is None:
            return None
        try:
            fp1 = self._registry.fingerprint(
                unit.circuit1, with_inverse=self._config.with_inverse
            )
            fp2 = self._registry.fingerprint(
                unit.circuit2, with_inverse=self._config.with_inverse
            )
        except FingerprintError:
            return None
        equivalence = EquivalenceType.from_label(unit.label)
        return pair_key(fp1, fp2, equivalence, self._config)

    def _base_record(self, unit: _Unit) -> dict:
        record = {
            "pair_id": unit.pair_id,
            "index": unit.position,
            "equivalence": unit.label,
            "cache_key": unit.key,
            "key_version": KEY_VERSION,
        }
        record.update(unit.meta)
        return record

    @staticmethod
    def _replayable(done: dict[str, dict]) -> dict[str, dict]:
        """The store records resume may trust: current key version only.

        Records written under an older identity contract (v1 stores have
        no ``key_version`` field) are treated as clean misses — the pair
        is simply re-run — so a version bump can never replay a result
        the current fingerprint scheme would not have produced.
        """
        return {
            pair_id: record
            for pair_id, record in done.items()
            if record.get("key_version") == KEY_VERSION
        }

    def _stream_units(
        self,
        units: list[_Unit],
        *,
        done: dict[str, dict],
        store: ResultStore | None,
        seed: int | None,
        shard: tuple[int, int] | None = None,
    ) -> Iterator[ServiceEvent]:
        """The event-stream core every entry point is built on.

        Phase one walks the units in manifest order, settling whatever the
        result store (resume) or the result cache already answers — no
        oracle is ever built for those.  Phase two feeds the remainder to
        the executor as a lazy task stream and relays outcomes as they
        complete, appending each record to the store the moment it exists
        so an interrupt loses at most the pair in flight.
        """
        start = time.perf_counter()
        metrics = self._metrics
        tracer = self._tracer
        store_path = str(store.path) if store is not None else None
        if store is not None:
            store.touch()
        yield RunStarted(
            total=len(units),
            executor=self._executor.name,
            store_path=store_path,
            seed=seed,
            shard=shard,
        )
        if metrics is not None:
            metrics.counter("repro_runs_total").inc()
            if store is not None:
                # Torn lines the resume load skipped (0 on a fresh store).
                metrics.gauge("repro_store_torn_lines").set(store.torn_lines)

        records: dict[int, dict] = {}
        resumed = 0
        cache_hits = 0
        flushed = 0
        pending: list[_Unit] = []
        pair_spans: dict[int, object] = {}

        def flush(record: dict, parent=None) -> StoreFlushed:
            nonlocal flushed
            with tracer.span("store_append", parent=parent):
                store.append(record)
            flushed += 1
            if metrics is not None:
                metrics.counter("repro_store_flushes_total").inc()
            return StoreFlushed(path=store_path, records_written=flushed)

        def settled(outcome_label: str) -> None:
            if metrics is not None:
                metrics.counter("repro_run_pairs_total").inc(outcome=outcome_label)

        # A cache stack with a network tier exposes a `prefetch` hint:
        # resolve every non-resumed key in one batched round trip up
        # front, so the per-unit probes below are answered from the
        # tier's buffer — one network exchange per run, not per pair.
        # Purely local stacks have no `prefetch` and take the unchanged
        # per-unit path (keys computed inside the pair span).
        prefetched = False
        prefetcher = getattr(self._cache, "prefetch", None)
        if prefetcher is not None:
            with tracer.span("cache_prefetch", total=len(units)):
                for unit in units:
                    if unit.pair_id is not None and unit.pair_id in done:
                        continue
                    unit.key = self._cache_key(unit)
                prefetcher(
                    [unit.key for unit in units if unit.key is not None]
                )
            prefetched = True

        for unit in units:
            if unit.pair_id is not None and unit.pair_id in done:
                # Shallow copy so the store's record keeps its original
                # status; in this report the pair reads as "resumed" and
                # its (historical) queries are excluded from the spend.
                record = dict(done[unit.pair_id])
                record["status"] = "resumed"
                records[unit.position] = record
                resumed += 1
                settled("resumed")
                yield CacheHit(
                    index=unit.position,
                    pair_id=unit.pair_id,
                    source="store",
                    record=record,
                )
                continue
            pair_span = tracer.start(
                "pair", pair_id=unit.pair_id, index=unit.position
            )
            settle_started = time.perf_counter()
            with tracer.span("fingerprint", parent=pair_span):
                if not prefetched:
                    unit.key = self._cache_key(unit)
            if unit.key is not None:
                with tracer.span("cache_probe", parent=pair_span):
                    cached = self._cache.get(unit.key)
                if cached is not None:
                    record = self._base_record(unit)
                    record.update(
                        status="cached",
                        matcher=cached.get("matcher"),
                        error=cached.get("error"),
                        result=cached.get("result"),
                    )
                    records[unit.position] = record
                    cache_hits += 1
                    settled("cached")
                    # Persist before yielding: a consumer that stops at
                    # this event must still find the record in the store.
                    flushed_event = (
                        flush(record, pair_span) if store is not None else None
                    )
                    pair_span.end()
                    yield CacheHit(
                        index=unit.position,
                        pair_id=unit.pair_id,
                        source="cache",
                        record=record,
                        duration_s=time.perf_counter() - settle_started,
                    )
                    if flushed_event is not None:
                        yield flushed_event
                    continue
            pair_spans[unit.position] = pair_span
            pending.append(unit)

        by_position = {unit.position: unit for unit in pending}
        # TaskStarted events are minted as the executor *pulls* tasks (a
        # serial backend pulls one at a time, pooled backends pull ahead)
        # and relayed before the outcome they precede; a deque because the
        # overlap executor pulls from a producer thread.
        submitted: deque[TaskStarted] = deque()

        def tasks() -> Iterator[PairTask]:
            for unit in pending:
                submitted.append(
                    TaskStarted(
                        index=unit.position,
                        pair_id=unit.pair_id,
                        equivalence=unit.label,
                    )
                )
                yield PairTask(
                    index=unit.position,
                    circuit1=unit.circuit1,
                    circuit2=unit.circuit2,
                    equivalence=unit.label,
                    seed=derive_seed(seed, unit.position),
                    pair_id=unit.pair_id,
                )

        executed = 0
        for outcome in self._executor.stream(tasks(), self._config):
            while submitted:
                yield submitted.popleft()
            unit = by_position[outcome.index]
            record = self._base_record(unit)
            record.update(
                status="ok" if outcome.matched else "failed",
                matcher=outcome.matcher,
                error=outcome.error,
                result=outcome.result,
            )
            if self._verify and outcome.matched:
                result = serialize.result_from_dict(outcome.result)
                record["verified"] = verify_match(
                    unit.circuit1,
                    unit.circuit2,
                    EquivalenceType.from_label(unit.label),
                    result,
                )
            if unit.key is not None:
                # Failures are cached too: under a fixed policy the verdict
                # is the verdict (clear the cache to force a retry), and a
                # warm re-run of a manifest must spend zero oracle queries.
                self._cache.put(
                    unit.key,
                    {
                        "matcher": outcome.matcher,
                        "error": outcome.error,
                        "result": outcome.result,
                    },
                )
            records[outcome.index] = record
            executed += 1
            pair_span = pair_spans.pop(outcome.index, _NULL_SPAN)
            if outcome.duration_s is not None:
                # The executor measured the matcher dispatch (possibly in
                # a worker process); log it as a completed child span.
                tracer.record(
                    "match",
                    outcome.duration_s,
                    parent=pair_span,
                    pair_id=outcome.pair_id,
                    matcher=outcome.matcher,
                )
                if metrics is not None:
                    metrics.histogram("repro_task_seconds").observe(
                        outcome.duration_s
                    )
            settled("completed" if outcome.matched else "failed")
            # Persist before yielding the completion event, so stopping
            # the stream at any event never loses an already-seen pair.
            flushed_event = (
                flush(record, pair_span) if store is not None else None
            )
            pair_span.end()
            event_type = TaskCompleted if outcome.matched else TaskFailed
            yield event_type(
                index=outcome.index,
                pair_id=outcome.pair_id,
                record=record,
                duration_s=outcome.duration_s,
            )
            if flushed_event is not None:
                yield flushed_event
        while submitted:  # pragma: no cover - an executor that over-pulls
            yield submitted.popleft()

        report = ServiceReport(
            records=[records[position] for position in sorted(records)],
            resumed=resumed,
            cache_hits=cache_hits,
            executed=executed,
            elapsed=time.perf_counter() - start,
            executor=self._executor.name,
            store_path=store.path if store is not None else None,
            shard=shard,
        )
        if metrics is not None:
            metrics.histogram("repro_run_seconds").observe(report.elapsed)
            if store is not None:
                metrics.gauge("repro_store_torn_lines").set(store.torn_lines)
        if store is not None:
            # Durations never enter the records (stores stay byte-identical
            # across serial/parallel/shard runs); the run's wall clock goes
            # in an atomic sidecar that `repro report` merges back in.
            _write_run_meta(store, report, seed)
        yield RunCompleted(report=report)

    def _consume(
        self,
        events: Iterator[ServiceEvent],
        observers: Sequence[Observer] | None,
    ) -> ServiceReport:
        """Drain an event stream into observers; return the final report."""
        watchers = self._observers + tuple(observers or ())
        report: ServiceReport | None = None
        for event in events:
            for observer in watchers:
                observer.notify(event)
            if isinstance(event, RunCompleted):
                report = event.report
        if report is None:  # pragma: no cover - stream() always completes
            raise ServiceError("event stream ended without a RunCompleted")
        return report

    def _manifest_units(
        self,
        manifest: CorpusManifest,
        root: str | Path,
        done: dict[str, dict],
        shard: tuple[int, int] | None,
    ) -> list[_Unit]:
        units = []
        for position, entry in enumerate(manifest.entries):
            if shard is not None and shard_index(entry.pair_id, shard[1]) != shard[0]:
                # Not this shard's pair.  Positions keep counting, so the
                # surviving units' seeds match the unsharded run's.
                continue
            if entry.pair_id in done:
                # Circuits of already-answered pairs are never even loaded.
                circuit1 = circuit2 = None
            else:
                circuit1, circuit2 = load_entry_circuits(entry, root)
            units.append(
                _Unit(
                    position,
                    entry.pair_id,
                    circuit1,
                    circuit2,
                    entry.equivalence,
                    {
                        "family": entry.family,
                        "expected_equivalent": entry.expected_equivalent,
                    },
                )
            )
        return units

    # -- entry points ----------------------------------------------------------
    def stream(
        self,
        manifest: CorpusManifest | str | Path,
        *,
        root: str | Path | None = None,
        store_path: str | Path | None = None,
        resume: bool = False,
        seed: int | None = None,
        shard: tuple[int, int] | str | None = None,
    ) -> Iterator[ServiceEvent]:
        """Execute a corpus manifest as a stream of lifecycle events.

        The primitive behind :meth:`run_manifest`: a generator yielding
        :class:`~repro.service.events.RunStarted` first,
        :class:`~repro.service.events.RunCompleted` (carrying the
        :class:`ServiceReport`) last, and per-pair events in between, in
        the executor's as-completed order.  Store records are appended as
        their events are yielded, so a consumer that stops early keeps
        everything already streamed.

        Args:
            manifest: a loaded :class:`CorpusManifest` or a path to one
                (a directory is taken to contain ``manifest.json``).
            root: directory circuit paths are relative to; defaults to the
                manifest's directory when a path was given, else the
                current directory.
            store_path: JSONL result store to stream records to.
            resume: skip pairs whose ids the store already holds (requires
                ``store_path``).
            seed: run seed; per-pair seeds derive from it and the pair's
                manifest position, so a resumed run, a shard run and an
                unsharded run all execute a given pair with the same seed.
            shard: ``(index, count)`` or an ``"i/n"`` spec restricting the
                run to the pairs :func:`shard_index` assigns to bucket
                ``index``; merge the shard stores with
                :func:`merge_stores`.
        """
        if isinstance(manifest, (str, Path)):
            path = Path(manifest)
            if path.is_dir():
                path = path / MANIFEST_NAME
            if root is None:
                root = path.parent
            manifest = CorpusManifest.load(path)
        if root is None:
            root = Path(".")
        if resume and store_path is None:
            raise ServiceError("resume requires a result store path")
        if isinstance(shard, str):
            shard = parse_shard(shard)
        elif shard is not None:
            index, count = shard
            if count <= 0 or not 0 <= index < count:
                raise ServiceError(f"invalid shard {index}/{count}")

        store = ResultStore(store_path) if store_path is not None else None
        done = (
            self._replayable(store.load())
            if (resume and store is not None)
            else {}
        )
        units = self._manifest_units(manifest, root, done, shard)
        return self._stream_units(
            units, done=done, store=store, seed=seed, shard=shard
        )

    def run_manifest(
        self,
        manifest: CorpusManifest | str | Path,
        *,
        root: str | Path | None = None,
        store_path: str | Path | None = None,
        resume: bool = False,
        seed: int | None = None,
        shard: tuple[int, int] | str | None = None,
        observers: Sequence[Observer] | None = None,
    ) -> ServiceReport:
        """Execute a corpus manifest and return the final report.

        A thin consumer of :meth:`stream` (same arguments): every event is
        forwarded to the service's observers plus any passed here, and the
        :class:`ServiceReport` carried by the final
        :class:`~repro.service.events.RunCompleted` is returned.
        """
        return self._consume(
            self.stream(
                manifest,
                root=root,
                store_path=store_path,
                resume=resume,
                seed=seed,
                shard=shard,
            ),
            observers,
        )

    def _pair_digest(self, circuit1, circuit2, label: str) -> str | None:
        """A content digest identifying an ad-hoc pair, or None if opaque.

        Positional ``pair-NNNN`` ids alone would let a resume against a
        store written for *different* pairs replay the wrong results;
        records carry this digest so resume can insist the content
        matches, not just the position.  The payload is versioned (and
        scheme-qualified, via the fingerprint keys), so stores written
        under a different identity contract never digest-match.
        """
        try:
            fp1 = self._registry.fingerprint(circuit1)
            fp2 = self._registry.fingerprint(circuit2)
        except FingerprintError:
            return None
        payload = f"{KEY_VERSION}|{label}|{fp1.key}|{fp2.key}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def _pair_units(
        self,
        pairs: Iterable[Sequence],
        equivalence: EquivalenceType | str | None,
        *,
        with_digests: bool = False,
    ) -> list[_Unit]:
        """Normalise ``(c1, c2[, equivalence])`` pairs into positioned units.

        Ad-hoc pairs get deterministic ``pair-NNNN`` ids from their batch
        position, so a pair stream attached to a result store is resumable
        and mergeable exactly like a manifest run.  ``with_digests``
        additionally stamps each unit's record with :meth:`_pair_digest`
        (only wanted when a store is attached — it costs a truth-table
        tabulation per circuit).
        """
        if isinstance(equivalence, EquivalenceType):
            equivalence = equivalence.label
        units = []
        for position, pair in enumerate(pairs):
            if len(pair) == 3:
                circuit1, circuit2, label = pair
            elif len(pair) == 2:
                circuit1, circuit2 = pair
                label = equivalence
            else:
                raise ServiceError(
                    f"pair #{position} has {len(pair)} elements; expected "
                    "(c1, c2) or (c1, c2, equivalence)"
                )
            if label is None:
                raise ServiceError(
                    f"pair #{position} names no equivalence class and no "
                    "batch-wide default was given"
                )
            if isinstance(label, EquivalenceType):
                label = label.label
            else:
                label = EquivalenceType.from_label(label).label
            meta = {}
            if with_digests:
                meta["pair_digest"] = self._pair_digest(circuit1, circuit2, label)
            units.append(
                _Unit(position, f"pair-{position:04d}", circuit1, circuit2, label, meta)
            )
        return units

    def stream_pairs(
        self,
        pairs: Iterable[Sequence],
        *,
        equivalence: EquivalenceType | str | None = None,
        seed: int | None = None,
        store_path: str | Path | None = None,
        resume: bool = False,
    ) -> Iterator[ServiceEvent]:
        """Execute in-memory pairs as a stream of lifecycle events.

        The pair-list counterpart of :meth:`stream`: accepts ``(circuit1,
        circuit2)`` tuples, which take the ``equivalence`` default, or
        ``(circuit1, circuit2, equivalence)`` tuples.  Each
        pair is assigned the deterministic id ``pair-NNNN`` from its batch
        position, so attaching a ``store_path`` makes ad-hoc submissions
        resumable (``resume=True`` skips ids the store already answered) —
        this is what lets the matching daemon persist every submission,
        manifest or not, as an ordinary JSONL result store.

        Positional ids alone cannot tell two different pair lists apart,
        so store records carry a content digest of the pair and resume
        only trusts a stored record whose digest matches — submitting
        *different* pairs against an old store re-runs them instead of
        silently replaying the previous submission's results.
        """
        if resume and store_path is None:
            raise ServiceError("resume requires a result store path")
        units = self._pair_units(
            pairs, equivalence, with_digests=store_path is not None
        )
        store = ResultStore(store_path) if store_path is not None else None
        done = (
            self._replayable(store.load())
            if (resume and store is not None)
            else {}
        )
        if done:
            digests = {
                unit.pair_id: unit.meta.get("pair_digest") for unit in units
            }
            done = {
                pair_id: record
                for pair_id, record in done.items()
                if digests.get(pair_id) is not None
                and record.get("pair_digest") == digests[pair_id]
            }
        return self._stream_units(units, done=done, store=store, seed=seed)

    def match_pairs(
        self,
        pairs: Iterable[Sequence],
        *,
        equivalence: EquivalenceType | str | None = None,
        seed: int | None = None,
        observers: Sequence[Observer] | None = None,
    ) -> ServiceReport:
        """Run in-memory pairs (the :meth:`stream_pairs` shape) as a pipeline.

        A thin consumer of :meth:`stream_pairs` with the service's cache,
        executor and observers in the loop.  No store is involved — pass
        ``store_path`` to :meth:`stream_pairs` (or use :meth:`run_manifest`)
        for resumable runs.
        """
        return self._consume(
            self.stream_pairs(pairs, equivalence=equivalence, seed=seed),
            observers,
        )
