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
4-worker run and a cache replay of the same manifest write
interchangeable stores.
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
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.report import format_table
from repro.circuits.io import real
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.core.verify import verify_match
from repro.exceptions import FingerprintError, ReproError, ServiceError
from repro.obs.metrics import UNCOUNTED
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.service import serialize
from repro.service.cache import ResultCache
from repro.service.events import (
    CacheHit,
    Observer,
    RunCompleted,
    RunStarted,
    RunTotals,
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
    OracleFingerprint,
    build_registry,
    config_digest,
    effective_inverse,
    pair_key,
)
from repro.service.workload import CorpusManifest, resolve_manifest

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


class ResultStore:
    """Append-only JSONL store of per-pair run records, keyed by pair id.

    One JSON object per line; the readers tolerate a torn final line (a
    crash mid-append) by skipping, with a warning, anything that does not
    parse as an object — which is exactly what resume needs: the
    half-written pair is simply re-run.

    Appends go through one handle that stays open until :meth:`close`
    (or the end of a ``with`` block), so a run opens its store once
    rather than once per record.  Forked pool workers inherit the
    descriptor — it is flushed after every record, so nothing is
    buffered at a fork — and never write to it.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._handle = None
        #: Torn lines skipped by the most recent read —
        #: surfaced as the ``repro_store_torn_lines`` gauge and in
        #: ``repro report``, so silent corruption stays visible.
        self.torn_lines = 0

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        return self.newest(self.read_records())

    @staticmethod
    def newest(records: Iterable[dict]) -> dict[str, dict]:
        """One record per string pair id, the newest occurrence winning.

        The dedup rule of :meth:`load`: a store appended to by a resumed
        or repeated run still holds each pair once.
        """
        latest: dict[str, dict] = {}
        for record in records:
            pair_id = record.get("pair_id")
            if isinstance(pair_id, str):
                latest[pair_id] = record
        return latest

    def open(self) -> None:
        """Open the append handle, creating the file (idempotent).

        Runs call this up front so a shard that owns zero pairs still
        leaves a store behind — ``repro merge`` can then take one store
        per shard without guessing which shards happened to be empty.
        If a crash left the file without a trailing newline (a torn
        record), a newline is written first — otherwise the next record
        would concatenate onto the partial line and both would be lost.
        """
        if self._handle is not None:
            return
        handle = open(self._path, "a+b")
        try:
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
                    handle.flush()
        except BaseException:
            handle.close()
            raise
        self._handle = handle

    def close(self) -> None:
        """Close the append handle, if open (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def append(self, record: dict) -> None:
        """Append one record and flush it, opening the handle if needed.

        The flush hands the line to the operating system without an
        fsync: the record survives the process dying, not a host crash
        (only :func:`merge_stores` and the run-meta sidecar fsync).  A
        write or flush that raises drops the handle, so the next
        :meth:`open` repairs whatever partial line it left.
        """
        if self._handle is None:
            self.open()
        handle = self._handle
        try:
            handle.write((json.dumps(record) + "\n").encode("utf-8"))
            handle.flush()
        except BaseException:
            self._handle = None
            with contextlib.suppress(OSError):
                handle.close()
            raise


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


def _write_run_meta(store: ResultStore, completed: RunCompleted, seed) -> None:
    """Publish the run's ``<store>.meta.json`` timing sidecar atomically.

    Store records are byte-identical across serial, parallel and sharded
    runs, so wall-clock facts must never enter them; this sidecar carries
    the run's aggregate timing instead — the counters of the run's
    :class:`~repro.service.events.RunCompleted` wire form — and ``repro
    report`` merges it back into the per-store summary.  Written via
    tmp + rename so a crash mid-write cannot leave a torn sidecar.
    """
    shard = completed.report.shard
    meta = completed.to_dict()
    del meta["event"]
    meta.update(
        format=RUN_META_FORMAT,
        store=store.path.name,
        seed=seed,
        torn_lines=store.torn_lines,
        shard=list(shard) if shard is not None else None,
    )
    path = store.path.with_name(store.path.name + ".meta.json")
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True, kw_only=True)
class ServiceReport(RunTotals):
    """Outcome of one service run: per-pair records plus throughput stats.

    The counters are the :class:`~repro.service.events.RunTotals` of
    :attr:`records`.

    Attributes:
        records: one JSON record per pair, in manifest order.  Statuses:
            ``ok`` (freshly executed), ``failed`` (matcher raised),
            ``cached`` (served by the result cache) and ``resumed``
            (already in the store; the store keeps the original status,
            and its historical queries are excluded from the spend).
        store_path: the run's JSONL result store, if one was attached.
        shard: the ``(index, count)`` shard this run covered, if any.
    """

    records: list[dict] = field(default_factory=list, repr=False)
    store_path: Path | None = None
    shard: tuple[int, int] | None = None

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
            f"{prefix}{super().summary()} "
            f"({self.pairs_per_second:.1f} pairs/s); "
            f"{self.queries} classical + "
            f"{self.quantum_queries} quantum queries spent"
        )


#: A unit whose fingerprints have not been computed yet.
_UNFINGERPRINTED = object()


class _Unit:
    """One pair flowing through the pipeline's stages (internal bookkeeping).

    A unit carries its recorded class ``label`` and that label parsed,
    ``equivalence``, its cache ``key`` once :meth:`_Run.key_all` has
    computed it, and its root ``pair`` ``span`` from ``key_all`` to
    persist.  A manifest unit carries its two circuit ``paths`` (plain
    strings) and parses a file only when a circuit is asked for, at most
    once; an in-memory unit is built with its ``circuits``.  Persist
    drops them (:meth:`release`) once the pair is settled.  A unit parsed
    on a memo miss keeps its circuits until then, so a cold run with a
    cache still holds every pending pair's circuits; only cache-less runs
    and warm-memo runs parse lazily.
    """

    __slots__ = (
        "position", "pair_id", "label", "equivalence", "meta", "key", "paths",
        "circuits", "fingerprints", "span",
    )

    def __init__(
        self, position, pair_id, label, equivalence, meta, *,
        paths=None, circuits=(None, None),
    ):
        self.position = position
        self.pair_id = pair_id
        self.label = label
        self.equivalence = equivalence
        self.meta = meta
        self.key = None
        self.paths = paths
        self.circuits = list(circuits)
        self.fingerprints = _UNFINGERPRINTED
        self.span = NULL_SPAN

    def circuit(self, side: int):
        """The pair's circuit on ``side`` (0 or 1), parsed on first use."""
        circuit = self.circuits[side]
        if circuit is None and self.paths is not None:
            circuit = self.circuits[side] = real.read_real(self.paths[side])
        return circuit

    def release(self) -> None:
        """Drop the circuits of a settled pair."""
        self.circuits = [None, None]


def _resume_store(
    store_path: str | Path | None, resume: bool
) -> tuple[ResultStore | None, dict[str, dict]]:
    """A run's result store, if any, and the records resume may replay.

    Only records of the current key version replay: a record written
    under an older identity contract (v1 stores have no ``key_version``)
    is a clean miss and its pair re-runs.
    """
    if store_path is None:
        if resume:
            raise ServiceError("resume requires a result store path")
        return None, {}
    store = ResultStore(store_path)
    if not resume:
        return store, {}
    return store, {
        pair_id: record
        for pair_id, record in store.load().items()
        if record.get("key_version") == KEY_VERSION
    }


def _record(unit: _Unit, status: str, verdict: dict) -> dict:
    """The run record of ``unit`` settled as ``status`` with ``verdict``, the
    ``{"matcher", "error", "result"}`` dict the result cache stores."""
    return {
        "pair_id": unit.pair_id,
        "index": unit.position,
        "equivalence": unit.label,
        "cache_key": unit.key,
        "key_version": KEY_VERSION,
        **unit.meta,
        "status": status,
        "matcher": verdict.get("matcher"),
        "error": verdict.get("error"),
        "result": verdict.get("result"),
    }


class _Run:
    """One run's state and the stages that share it (internal).

    :meth:`MatchingService._stream_units` wires the stages.  Whatever a stage reads per pair is looked up here once per run: the
    service's collaborators, the config digest every key shares and the
    metric children (:data:`~repro.obs.metrics.UNCOUNTED` without a
    registry, so no stage branches on metrics).
    """

    def __init__(self, service: "MatchingService", *, done, store, seed, shard):
        self.started = time.perf_counter()
        self.service = service
        self.fingerprints = service._fingerprints
        cache = self.cache = service._cache
        self.tracer = service._tracer
        self.done = done
        self.store = store
        self.seed = seed
        self.shard = shard
        self.store_path = str(store.path) if store is not None else None
        # Every key of the run shares one policy: digest it once.
        self.digest = config_digest(service._config) if cache is not None else None
        # The unit whose keying raised, and the error settle raises there.
        self.key_error: tuple[_Unit, Exception] | None = None
        self.records: dict[int, dict] = {}
        self.pending: list[_Unit] = []
        self.flushed = 0
        self.resumed = self.flushes = self.task_seconds = self.run_seconds = UNCOUNTED
        self.settled = dict.fromkeys((CacheHit, TaskCompleted, TaskFailed), UNCOUNTED)
        self.spend = ((UNCOUNTED, "queries"), (UNCOUNTED, "quantum_queries"))
        metrics = service._metrics
        if metrics is not None:
            metrics.counter("repro_runs_total").inc()
            if store is not None:
                # Torn lines the resume load skipped (0 on a fresh store).
                metrics.gauge("repro_store_torn_lines").set(store.torn_lines)
            pairs = metrics.counter("repro_run_pairs_total")
            self.resumed = pairs.labels(outcome="resumed")
            self.settled = {
                CacheHit: pairs.labels(outcome="cached"),
                TaskCompleted: pairs.labels(outcome="completed"),
                TaskFailed: pairs.labels(outcome="failed"),
            }
            self.flushes = metrics.counter("repro_store_flushes_total").labels()
            queries = metrics.counter("repro_engine_queries_total")
            self.spend = (
                (queries.labels(kind="classical"), "queries"),
                (queries.labels(kind="quantum"), "quantum_queries"),
            )
            self.task_seconds = metrics.histogram("repro_task_seconds")
            self.run_seconds = metrics.histogram("repro_run_seconds")
        if store is not None:
            store.open()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def key(self, unit: _Unit) -> str | None:
        """The unit's pair key, or ``None`` if a circuit is unfingerprintable."""
        fingerprints = self.fingerprints(unit)
        if fingerprints is None:
            return None
        return pair_key(*fingerprints, unit.equivalence, self.digest)

    def key_all(self, units: list[_Unit]) -> None:
        """Key every unit resume leaves, then hint the keys to the cache.

        Each such unit opens its root ``pair`` span here, with a
        ``fingerprint`` child around its keying.  The keys then go to
        :meth:`~repro.service.cache.ResultCache.prefetch` in one batch,
        inside a ``cache_prefetch`` span: a network tier resolves them
        in one round trip and answers settle's probes from its buffer.
        Keying stops at a pair whose file cannot be read; settle raises
        that error when it reaches the pair, so the pairs before it still
        settle and ``--resume`` finishes the rest.
        """
        tracer = self.tracer
        cache = self.cache
        for unit in units:
            if unit.pair_id in self.done:
                continue
            span = unit.span = tracer.start(
                "pair", pair_id=unit.pair_id, index=unit.position
            )
            with tracer.span("fingerprint", parent=span):
                if cache is not None:
                    try:
                        unit.key = self.key(unit)
                    except (OSError, ReproError) as error:
                        self.key_error = (unit, error)
                        break
        if cache is not None:
            with tracer.span("cache_prefetch", total=len(units)):
                cache.prefetch([unit.key for unit in units if unit.key is not None])

    def settle(self, unit: _Unit) -> tuple[ServiceEvent, ...]:
        """Answer ``unit`` from the store, then the cache, or mark it pending
        (no events: :meth:`execute` takes it from there)."""
        if unit.pair_id in self.done:
            # Shallow copy so the store's record keeps its original
            # status; in this report the pair reads as "resumed" and its
            # (historical) queries are excluded from the spend.
            record = dict(self.done[unit.pair_id])
            record["status"] = "resumed"
            self.records[unit.position] = record
            self.resumed.inc()
            return (CacheHit(
                index=unit.position, pair_id=unit.pair_id, source="store", record=record
            ),)
        if self.key_error is not None and self.key_error[0] is unit:
            raise self.key_error[1]
        started = time.perf_counter()
        if unit.key is not None:
            with self.tracer.span("cache_probe", parent=unit.span):
                cached = self.cache.get(unit.key)
            if cached is not None:
                return self.persist(unit, CacheHit(
                    index=unit.position, pair_id=unit.pair_id, source="cache",
                    record=_record(unit, "cached", cached),
                    duration_s=time.perf_counter() - started,
                ))
        self.pending.append(unit)
        return ()

    def execute(self) -> Iterator[ServiceEvent]:
        """Run the pending units; yield each outcome's events as it completes.

        ``TaskStarted`` events are minted as the executor *pulls* tasks (a
        serial backend pulls one at a time, pooled backends pull ahead)
        and relayed before the outcome they precede.  Everything here —
        the tasks() generator, the units' lazy parsing and this queue —
        runs on the consuming thread.
        """
        pending = self.pending
        by_position = {unit.position: unit for unit in pending}
        submitted: deque[TaskStarted] = deque()

        def tasks() -> Iterator[PairTask]:
            for unit in pending:
                submitted.append(TaskStarted(
                    index=unit.position, pair_id=unit.pair_id, equivalence=unit.label
                ))
                yield PairTask(
                    index=unit.position,
                    circuit1=unit.circuit(0),
                    circuit2=unit.circuit(1),
                    equivalence=unit.label,
                    seed=derive_seed(self.seed, unit.position),
                    pair_id=unit.pair_id,
                )

        service = self.service
        verify = service._verify
        for outcome in service._executor.stream(tasks(), service._config):
            while submitted:
                yield submitted.popleft()
            unit = by_position[outcome.index]
            matched, result = outcome.matched, outcome.result
            verdict = {
                "matcher": outcome.matcher, "error": outcome.error, "result": result
            }
            record = _record(unit, "ok" if matched else "failed", verdict)
            if verify and matched:
                record["verified"] = verify_match(
                    unit.circuit(0), unit.circuit(1), unit.equivalence,
                    serialize.result_from_dict(result),
                )
            if unit.key is not None:
                # Failures are cached too: under a fixed policy the verdict
                # is the verdict (clear the cache to force a retry), and a
                # warm re-run of a manifest must spend zero oracle queries.
                self.cache.put(unit.key, verdict)
            if outcome.duration_s is not None:
                # The executor measured the matcher dispatch (possibly in
                # a worker process); log it as a completed child span.
                self.tracer.record(
                    "match", outcome.duration_s, parent=unit.span,
                    pair_id=outcome.pair_id, matcher=outcome.matcher,
                )
                self.task_seconds.observe(outcome.duration_s)
            if matched:
                for counter, spent in self.spend:
                    if result.get(spent):
                        counter.inc(result[spent])
            yield from self.persist(unit, (TaskCompleted if matched else TaskFailed)(
                index=outcome.index, pair_id=outcome.pair_id, record=record,
                duration_s=outcome.duration_s,
            ))
        while submitted:  # pragma: no cover - an executor that over-pulls
            yield submitted.popleft()

    def persist(self, unit: _Unit, event: ServiceEvent) -> tuple[ServiceEvent, ...]:
        """File a settled unit's record; return its event, then ``StoreFlushed``.

        The record is appended and flushed before either event reaches the
        consumer, so one that stops at the event finds it in the store.
        """
        record = event.record
        self.records[unit.position] = record
        unit.release()
        self.settled[type(event)].inc()
        span = unit.span
        if self.store is None:
            span.end()
            return (event,)
        with self.tracer.span("store_append", parent=span):
            self.store.append(record)
        self.flushed += 1
        self.flushes.inc()
        span.end()
        return event, StoreFlushed(path=self.store_path, records_written=self.flushed)

    def finish(self) -> RunCompleted:
        """The run's ``RunCompleted``, after run latency and the meta sidecar."""
        ordered = [self.records[position] for position in sorted(self.records)]
        store = self.store
        report = ServiceReport.from_records(
            ordered,
            elapsed=time.perf_counter() - self.started,
            executor=self.service._executor.name,
            records=ordered,
            store_path=store.path if store is not None else None,
            shard=self.shard,
        )
        completed = RunCompleted(report=report)
        self.run_seconds.observe(report.elapsed)
        if store is not None:
            # Every record is written; a consumer that stops at the last
            # event must not find the handle still open.
            store.close()
            # Durations never enter the records (stores stay byte-identical
            # across serial/parallel/shard runs); the run's wall clock goes
            # in an atomic sidecar that `repro report` merges back in.
            _write_run_meta(store, completed, self.seed)
        return completed


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
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`:
            runs, per-pair outcomes, oracle queries of executed pairs,
            task/run latency histograms and store flushes are counted on
            it, in the consuming process for every executor.  Bind the
            same registry to the cache (``cache.bind_metrics``) to export
            its per-tier hit/miss counters alongside.
        tracer: optional :class:`repro.obs.trace.Tracer`: each pair gets
            a root ``pair`` span with ``fingerprint`` / ``cache_probe`` /
            ``match`` / ``store_append`` children.  Without one the
            pipeline traces into :data:`repro.obs.trace.NULL_TRACER`, so
            it never branches on tracing.
    """

    def __init__(
        self,
        config: MatchingConfig | None = None,
        *,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        verify: bool = False,
        observers: Sequence[Observer] = (),
        metrics=None,
        tracer=None,
    ) -> None:
        self._config = config if config is not None else MatchingConfig()
        self._executor = executor if executor is not None else SerialExecutor()
        self._cache = cache
        self._verify = verify
        self._observers = tuple(observers)
        self._registry = build_registry(
            self._config.fingerprint_scheme, probe_count=self._config.probe_count
        )
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER

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
    def metrics(self):
        """The metrics registry runs are counted on, if any."""
        return self._metrics

    # -- internal --------------------------------------------------------------
    def _fingerprints(
        self, unit: _Unit
    ) -> tuple[OracleFingerprint, OracleFingerprint] | None:
        """Both circuits' fingerprints under the config's inverse access.

        Computed once per unit; ``None`` if a circuit is unfingerprintable.
        A manifest unit is keyed by its files' bytes through the registry's
        content memo, so a circuit seen before in this process is neither
        parsed nor tabulated again.
        """
        if unit.fingerprints is _UNFINGERPRINTED:
            with_inverse = self._config.with_inverse
            try:
                if unit.paths is None:
                    unit.fingerprints = tuple(
                        self._registry.fingerprint(circuit, with_inverse=with_inverse)
                        for circuit in unit.circuits
                    )
                else:
                    # Units are fingerprinted before anything parses
                    # them, so unit.circuit(side) reads the file anew.
                    fingerprint_file = self._registry.fingerprint_file
                    unit.fingerprints = (
                        fingerprint_file(
                            unit.paths[0], lambda: unit.circuit(0),
                            with_inverse=with_inverse,
                        ),
                        fingerprint_file(
                            unit.paths[1], lambda: unit.circuit(1),
                            with_inverse=with_inverse,
                        ),
                    )
            except FingerprintError:
                unit.fingerprints = None
        return unit.fingerprints

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

        Wires the five stages of a :class:`_Run`: :meth:`~_Run.key_all`
        keys every unit resume leaves and hints the keys to the cache;
        :meth:`~_Run.settle` walks the units in manifest order, answering
        whatever the result store (resume) or the result cache already
        holds, so no oracle is ever built for those; :meth:`~_Run.execute` feeds the rest to the
        executor and relays outcomes as they complete; every new record
        goes through :meth:`~_Run.persist`, so an interrupt loses at most
        the pair in flight; :meth:`~_Run.finish` closes with the report.
        The store is opened once, before the first event, and closed on
        every way out: completion, a closed stream, an interrupt, a
        raising executor.
        """
        run = _Run(self, done=done, store=store, seed=seed, shard=shard)
        try:
            yield RunStarted(
                total=len(units),
                executor=self._executor.name,
                store_path=run.store_path,
                seed=seed,
                shard=shard,
            )
            run.key_all(units)
            for unit in units:
                yield from run.settle(unit)
            yield from run.execute()
            yield run.finish()
        finally:
            run.close()

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

    @staticmethod
    def _manifest_units(
        manifest: CorpusManifest,
        root: str | Path,
        shard: tuple[int, int] | None,
    ) -> list[_Unit]:
        """Fresh units from the manifest's :class:`EntrySpec`\\ s (joined
        and validated once per manifest, see
        :meth:`CorpusManifest.entry_specs`)."""
        units = []
        for position, spec in enumerate(manifest.entry_specs(os.fspath(root))):
            if shard is not None and shard_index(spec.pair_id, shard[1]) != shard[0]:
                # Not this shard's pair.  Positions keep counting, so the
                # surviving units' seeds match the unsharded run's.
                continue
            # Circuits load lazily: a pair answered by the store, or by
            # the cache through the content memo, never parses its files.
            pair_id, label, equivalence, meta, paths = spec
            units.append(_Unit(position, pair_id, label, equivalence, meta, paths=paths))
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
            path = resolve_manifest(manifest)
            if root is None:
                root = path.parent
            manifest = CorpusManifest.load(path)
        if root is None:
            root = Path(".")
        store, done = _resume_store(store_path, resume)
        if isinstance(shard, str):
            shard = parse_shard(shard)
        elif shard is not None:
            index, count = shard
            if count <= 0 or not 0 <= index < count:
                raise ServiceError(f"invalid shard {index}/{count}")
        units = self._manifest_units(manifest, root, shard)
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

    def _pair_digest(self, unit: _Unit) -> str | None:
        """A content digest identifying an ad-hoc pair, or None if opaque.

        Positional ``pair-NNNN`` ids alone would let a resume against a
        store written for *different* pairs replay the wrong results;
        records carry this digest so resume can insist the content
        matches, not just the position.  The payload is versioned (and
        scheme-qualified, via the fingerprint keys), so stores written
        under a different identity contract never digest-match.

        The digest keys fingerprints as taken without inverse access
        (pre-built oracles keep their own), derived from the unit's
        cache-key fingerprints rather than computed a second time.
        """
        fingerprints = self._fingerprints(unit)
        if fingerprints is None:
            return None
        keys = [
            replace(fp, with_inverse=effective_inverse(circuit, False)).key
            for fp, circuit in zip(fingerprints, unit.circuits)
        ]
        payload = f"{KEY_VERSION}|{unit.label}|{keys[0]}|{keys[1]}"
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
        (only wanted when a store is attached — it fingerprints both
        circuits, which the cache key then reuses).
        """
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
            if not isinstance(label, EquivalenceType):
                label = EquivalenceType.from_label(label)
            unit = _Unit(
                position, f"pair-{position:04d}", label.label, label, {},
                circuits=(circuit1, circuit2),
            )
            if with_digests:
                unit.meta["pair_digest"] = self._pair_digest(unit)
            units.append(unit)
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
        store, done = _resume_store(store_path, resume)
        units = self._pair_units(pairs, equivalence, with_digests=store is not None)
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
