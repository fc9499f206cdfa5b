"""The long-lived matching daemon: one warm cache and executor, many runs.

Every ``repro run`` so far has been a one-shot process — import, build an
engine, fill a cache, exit, repeat.  :class:`MatchingDaemon` keeps all of
that alive: a single server process owns one executor (by default a
:class:`~repro.service.executor.SerialExecutor`) and one shared
:class:`~repro.service.cache.ResultCache` across arbitrarily many
submissions, so concurrent clients benefit from each other's work instead
of re-fingerprinting the same pairs.

The wire protocol (``repro-daemon/v1``, specified in
``docs/protocol.md``) is newline-delimited JSON over a Unix or TCP
socket.  Clients send request frames (``{"op": ...}``) and read response
frames; the ``events`` op turns the connection into a subscription that
replays and then live-streams the run's
:mod:`repro.service.events` dicts, which is how ``repro watch`` drives
ordinary :class:`~repro.service.events.Observer` objects against a
remote run.  The socket plumbing (framing, auth, accept loop) is the
shared :class:`~repro.service.framed.FramedServer`; the daemon adds its op
table, handlers and worker thread.

Jobs flow through a bounded queue consumed by a single worker thread —
one run executes at a time (its executor may itself be a process pool),
later submissions queue, and a full queue rejects the submit rather than
buffering unboundedly.  Each run streams its records into a per-run
JSONL :class:`~repro.service.pipeline.ResultStore` under the daemon's
store directory, so daemon runs stay resumable and mergeable exactly
like CLI runs: a run cancelled (or a daemon shut down) mid-flight keeps
every record already flushed, and resubmitting with ``resume`` picks up
where it stopped.

:class:`DaemonClient` is the Python-side counterpart the CLI commands
(``repro serve`` / ``repro submit`` / ``repro watch`` / ``repro
daemon``) are built on.
"""

from __future__ import annotations

import contextlib
import json
import queue as _queue
import socket
import threading
import time
from collections.abc import Iterator, Sequence
from pathlib import Path

from repro.circuits.io import load_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import (
    DaemonConnectionError,
    DaemonError,
    DaemonTimeoutError,
    ServiceError,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache, TieredCache, build_cache
from repro.service.events import Observer, event_from_dict, matched
from repro.service.executor import Executor, SerialExecutor
from repro.service.framed import MAX_FRAME_CHARS, FramedServer, Session
from repro.service.pipeline import MatchingService, ResultStore, parse_shard
from repro.service.workload import resolve_manifest

__all__ = [
    "PROTOCOL_VERSION",
    "RunState",
    "DaemonJob",
    "MatchingDaemon",
    "DaemonClient",
]

#: Wire-protocol version stamped on every response frame.
PROTOCOL_VERSION = "repro-daemon/v1"

#: Subscription-queue sentinel marking the end of a job's event stream.
_EOS = None

#: Subscription-queue sentinel: the subscriber fell too far behind and
#: was dropped (its connection gets an error frame instead of a stream).
_DROPPED = object()

#: How many undelivered events a subscriber may buffer before it is
#: dropped.  Bounds daemon memory against a stalled `events` client the
#: same way the job queue bounds it against submit floods.
SUBSCRIBER_BUFFER_LIMIT = 4096

#: Default-argument sentinel ("build the standard cache"), distinct from
#: an explicit ``cache=None`` ("run without a result cache").
_DEFAULT_CACHE = object()

#: Base backoff (seconds) between an events-stream disconnect and the
#: client's reconnect attempt; grows linearly per attempt, capped below.
EVENTS_RECONNECT_BACKOFF_S = 0.2
EVENTS_RECONNECT_BACKOFF_MAX_S = 2.0


class RunState:
    """The lifecycle states of a daemon run (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a run can no longer leave.
    FINAL = (COMPLETED, FAILED, CANCELLED)


class DaemonJob:
    """One submitted run: its parameters, state, and event history.

    The job doubles as the event broker for its run: the worker thread
    :meth:`publish`\\ es every lifecycle event dict, subscribers get the
    history replayed and then live events until the job reaches a final
    state.  All state transitions happen under the job's lock, so a
    subscriber can never miss the gap between replay and live stream.
    """

    def __init__(
        self,
        run_id: str,
        *,
        manifest: str | None = None,
        pairs: list[dict] | None = None,
        store: str | None = None,
        seed: int | None = None,
        resume: bool = False,
        shard: tuple[int, int] | None = None,
        records: list[dict] | None = None,
        remote_cache: str | None = None,
    ) -> None:
        self.run_id = run_id
        self.manifest = manifest
        self.pairs = pairs
        self.store = store
        self.seed = seed
        self.resume = resume
        self.shard = shard
        self.records = records
        self.remote_cache = remote_cache
        self.state = RunState.QUEUED
        self.error: str | None = None
        self.summary: dict | None = None
        self.total = 0
        self.done = 0
        self.failed = 0
        self._lock = threading.Lock()
        self._history: list[dict] = []
        self._subscribers: list[_queue.SimpleQueue] = []
        self._cancel = threading.Event()

    # -- broker ----------------------------------------------------------------
    def publish(self, event: dict) -> None:
        """Record one event dict and fan it out to live subscribers.

        Delivery happens under the job lock (the queues are unbounded,
        so the puts cannot block): a subscriber that registered is
        guaranteed every subsequent publish — there is no gap between
        the replay a subscription sees and the live stream it joins.
        A subscriber that has fallen ``SUBSCRIBER_BUFFER_LIMIT`` events
        behind is dropped (with a marker, so its handler can tell the
        client) instead of buffering a large run in daemon memory.
        """
        with self._lock:
            self._history.append(event)
            kind = event.get("event")
            if kind == "RunStarted":
                self.total = event.get("total", 0)
            elif kind in ("TaskCompleted", "TaskFailed", "CacheHit"):
                self.done += 1
                # Every settled pair without a result, however it was
                # answered, so a finished run's count is summary.failed.
                if not matched(event.get("record") or {}):
                    self.failed += 1
            elif kind == "RunCompleted":
                # Captured here, not by the worker loop: ``to_dict()``
                # readers take this lock, so the summary must be written
                # under it too.
                self.summary = event
            kept = []
            for subscriber in self._subscribers:
                if subscriber.qsize() >= SUBSCRIBER_BUFFER_LIMIT:
                    subscriber.put(_DROPPED)
                    continue
                subscriber.put(event)
                kept.append(subscriber)
            self._subscribers = kept

    def subscribe(self, *, replay: bool = True) -> _queue.SimpleQueue:
        """A queue that yields this run's events, then the end sentinel.

        With ``replay`` the full history is pre-loaded (so late joiners —
        even after completion — see the whole run); without it only
        events published after the call arrive.
        """
        subscriber: _queue.SimpleQueue = _queue.SimpleQueue()
        with self._lock:
            if replay:
                for event in self._history:
                    subscriber.put(event)
            if self.state in RunState.FINAL:
                subscriber.put(_EOS)
            else:
                self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: _queue.SimpleQueue) -> None:
        """Detach a subscriber (a disconnected client)."""
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def finish(self, state: str, error: str | None = None) -> bool:
        """Move to a final state and release every live subscriber.

        Idempotent: returns False (and changes nothing) when the job
        already reached a final state — so the worker and a concurrent
        canceller cannot double-settle one run.
        """
        with self._lock:
            if self.state in RunState.FINAL:
                return False
            self.state = state
            self.error = error
            subscribers = self._subscribers
            self._subscribers = []
            for subscriber in subscribers:
                subscriber.put(_EOS)
        return True

    # -- cancellation ----------------------------------------------------------
    def start_running(self) -> bool:
        """Atomically move ``queued`` → ``running`` (the worker's claim).

        Returns False when the job is no longer queued — a canceller got
        there first — in which case the worker must skip it.
        """
        with self._lock:
            if self.state != RunState.QUEUED:
                return False
            self.state = RunState.RUNNING
            return True

    def cancel(self) -> bool:
        """Request cancellation; returns True when this call settled it.

        A still-queued job settles to ``cancelled`` immediately (the
        worker will skip it); a running one only gets the flag and stops
        at its next event boundary, where the worker settles it.
        """
        self._cancel.set()
        with self._lock:
            if self.state != RunState.QUEUED:
                return False
            self.state = RunState.CANCELLED
            subscribers = self._subscribers
            self._subscribers = []
            for subscriber in subscribers:
                subscriber.put(_EOS)
        return True

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancel.is_set()

    def clear_history(self) -> None:
        """Drop a *finished* run's event history (replay then yields nothing).

        The daemon calls this to bound memory: per-pair event dicts are
        the only per-run state that grows with corpus size, and the run's
        records are already persisted in its JSONL store.  No-op while
        the run is live (subscribers still need the replay gap closed).
        """
        with self._lock:
            if self.state in RunState.FINAL:
                self._history.clear()

    # -- wire form -------------------------------------------------------------
    def to_dict(self) -> dict:
        """The job as a JSON-ready status record."""
        with self._lock:
            return {
                "run_id": self.run_id,
                "state": self.state,
                "source": (
                    self.manifest
                    if self.manifest is not None
                    else f"pairs[{len(self.pairs or [])}]"
                ),
                "store": self.store,
                "seed": self.seed,
                "resume": self.resume,
                "shard": list(self.shard) if self.shard is not None else None,
                "total": self.total,
                "done": self.done,
                "failed": self.failed,
                "error": self.error,
                "summary": self.summary,
            }


class MatchingDaemon(FramedServer):
    """A socket server running matching jobs against shared warm state.

    Args:
        config: the :class:`~repro.core.engine.MatchingConfig` every run
            is matched under (one policy per daemon — the cache-key
            contract makes mixed policies in one cache safe, but one
            policy keeps runs comparable).
        store_dir: directory receiving one ``<run_id>.jsonl`` result
            store per submission (created if missing).
        socket_path, host, port, insecure: the transport settings of
            :class:`~repro.service.framed.FramedServer` (Unix socket, or
            TCP with ``port=0`` picking a free port).
        cache: shared result cache; defaults to
            :func:`~repro.service.cache.build_cache` with the cache
            persisted under ``store_dir/cache``.  Pass ``None`` explicitly
            to run without a result cache.
        executor: execution backend; defaults to a
            :class:`~repro.service.executor.SerialExecutor`.
        verify: exhaustively verify witnesses of freshly executed pairs.
        remote_cache: a ``repro-cache/v1`` cache-server address
            (``unix:<path>`` / ``tcp:<host>:<port>``, see
            ``docs/remote-cache.md``) every run's lookups also consult —
            the daemon's local cache fronts the shared remote tier, so a
            fleet of daemons shares one warm-hit pool.  A submit may name
            its own address per run.  The remote connection presents this
            daemon's own ``auth_token`` and degrades to local-only when
            the server is unreachable.
        auth_token: shared secret clients must present via the ``auth``
            op before any stateful request (see
            :class:`~repro.service.framed.FramedServer`).  Also presented
            to the ``remote_cache`` server (one fleet-wide shared secret).
        max_queued: bound on jobs waiting to run; a submit beyond it is
            rejected with an error frame instead of queueing unboundedly.
        history_limit: how many *finished* runs keep their event history
            replayable.  Per-pair event dicts are the only per-run state
            that grows with corpus size, so older finished runs drop
            theirs (their status, summary and JSONL store all remain) —
            bounding a long-lived daemon's memory.
    """

    PROTOCOL = PROTOCOL_VERSION
    SERVER_NAME = "daemon"
    COMMAND = "repro serve"

    def __init__(
        self,
        config: MatchingConfig | None = None,
        *,
        store_dir: str | Path,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        cache: ResultCache | None = _DEFAULT_CACHE,  # type: ignore[assignment]
        executor: Executor | None = None,
        verify: bool = False,
        remote_cache: str | None = None,
        auth_token: str | None = None,
        insecure: bool = False,
        max_queued: int = 16,
        history_limit: int = 64,
    ) -> None:
        super().__init__(
            socket_path=socket_path,
            host=host,
            port=port,
            auth_token=auth_token,
            insecure=insecure,
        )
        if max_queued <= 0:
            raise DaemonError(f"max_queued must be positive, got {max_queued}")
        if history_limit <= 0:
            raise DaemonError(
                f"history_limit must be positive, got {history_limit}"
            )
        self._history_limit = history_limit
        self._config = config if config is not None else MatchingConfig()
        self._store_dir = Path(store_dir)
        self._store_dir.mkdir(parents=True, exist_ok=True)
        if cache is _DEFAULT_CACHE:
            cache = build_cache(disk_dir=self._store_dir / "cache")
        self._cache = cache
        self._metrics = MetricsRegistry()
        if self._cache is not None:
            self._cache.bind_metrics(self._metrics)
        self._executor = executor if executor is not None else SerialExecutor()
        self._verify = verify
        if remote_cache is not None:
            # Fail fast on a garbled address; reachability is checked
            # lazily (an unreachable server degrades, never refuses).
            DaemonClient.from_address(remote_cache)
        self._remote_cache_default = remote_cache
        # One RemoteCache per distinct address, created lazily by the
        # worker thread (_run_job) and torn down by _on_stop(); the lock
        # covers the dict, not the tiers — each RemoteCache serialises
        # its own traffic under its own cache lock.
        self._remote_caches: dict[str, object] = {}
        self._remote_caches_lock = threading.Lock()
        self._pending: _queue.Queue = _queue.Queue(maxsize=max_queued)
        self._jobs: dict[str, DaemonJob] = {}
        self._jobs_lock = threading.Lock()
        self._run_counter = 0
        self._worker_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def store_dir(self) -> Path:
        """The directory holding per-run result stores."""
        return self._store_dir

    @property
    def cache(self) -> ResultCache:
        """The shared result cache."""
        return self._cache

    @property
    def metrics(self) -> MetricsRegistry:
        """The daemon-wide metrics registry (the ``metrics`` op's source)."""
        return self._metrics

    def _on_start(self) -> None:
        self._worker_thread = threading.Thread(
            target=self._work_loop, name="repro-daemon-worker", daemon=True
        )
        self._worker_thread.start()

    def _on_stop(self) -> None:
        """Cancel active and queued runs, then drop the remote tiers.

        Cancelled runs keep every record already flushed to their store,
        so they resume cleanly on a later daemon.
        """
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.state not in RunState.FINAL:
                job.cancel()
        self._pending.put(_EOS)  # wake the worker
        if self._worker_thread is not None:
            self._worker_thread.join()
        # The worker thread is joined, so the remote tiers are quiescent;
        # dropping their connections is pure cleanup.
        with self._remote_caches_lock:
            remote_caches = dict(self._remote_caches)
            self._remote_caches.clear()
        for address in sorted(remote_caches):
            remote_caches[address].close()

    # -- ops -------------------------------------------------------------------
    def _handle_submit(self, frame: dict, session: Session) -> dict:
        if self._stopping.is_set():
            return self._error("daemon is shutting down")
        manifest = frame.get("manifest")
        pairs = frame.get("pairs")
        if (manifest is None) == (pairs is None):
            return self._error("submit needs exactly one of 'manifest' or 'pairs'")
        seed, store = frame.get("seed"), frame.get("store")
        resume = frame.get("resume", False)
        if isinstance(seed, bool) or not isinstance(seed, (int, type(None))):
            return self._error("'seed' must be an integer or null")
        if not isinstance(resume, bool):
            return self._error("'resume' must be a boolean")
        if not isinstance(store, (str, type(None))):
            return self._error("'store' must be a path string")
        if not isinstance(manifest, (str, type(None))):
            return self._error("'manifest' must be a path string")
        for name, value in (("manifest", manifest), ("store", store)):
            if value is not None and "\x00" in value:
                return self._error(f"'{name}' must not contain a NUL byte")
        if store and not Path(store).parent.is_dir():
            return self._error(
                f"'store' directory does not exist: {Path(store).parent}"
            )
        if resume and not (store or frame.get("records")):
            # Without an explicit store (or records to pre-seed a fresh
            # one) the run gets an empty store, which would make
            # "resume" a silent no-op.
            return self._error(
                "resume requires an explicit 'store' path or 'records'"
            )
        shard = frame.get("shard")
        if shard is not None:
            if manifest is None:
                return self._error("'shard' requires a manifest submission")
            try:
                if isinstance(shard, str):
                    shard = parse_shard(shard)
                elif (
                    isinstance(shard, (list, tuple))
                    and len(shard) == 2
                    and all(isinstance(part, int) for part in shard)
                ):
                    shard = parse_shard(f"{shard[0]}/{shard[1]}")
                else:
                    return self._error(
                        "'shard' must be an 'i/n' string or an [i, n] pair"
                    )
            except ServiceError as error:
                return self._error(str(error))
        records = frame.get("records")
        if records is not None:
            problem = self._validate_records(records)
            if problem is not None:
                return self._error(problem)
        remote_cache = frame.get("remote_cache")
        if remote_cache is not None:
            if not isinstance(remote_cache, str):
                return self._error("'remote_cache' must be an address string")
            try:
                DaemonClient.from_address(remote_cache)
            except DaemonError as error:
                return self._error(str(error))
        if manifest is not None:
            path = resolve_manifest(manifest)
            if not path.exists():
                return self._error(f"manifest not found: {manifest}")
            manifest = str(path)
        else:
            problem = self._validate_pairs(pairs)
            if problem is not None:
                return self._error(problem)
        with self._jobs_lock:
            self._trim_history()
            self._run_counter += 1
            run_id = f"run-{self._run_counter:04d}"
            store = store or str(self._store_dir / f"{run_id}.jsonl")
            job = DaemonJob(
                run_id,
                manifest=manifest,
                pairs=pairs,
                store=store,
                seed=seed,
                resume=resume,
                shard=shard,
                records=records,
                remote_cache=remote_cache,
            )
            try:
                self._pending.put_nowait(job)
            except _queue.Full:
                self._run_counter -= 1
                return self._error(
                    f"job queue is full ({self._pending.maxsize} queued); retry later"
                )
            self._jobs[run_id] = job
        return self._ok(
            op="submit", run_id=run_id, state=job.state, store=job.store
        )

    def _trim_history(self) -> None:
        """Drop event histories of all but the newest finished runs.

        Called with :attr:`_jobs_lock` held, on every submit — so
        retained history is bounded by ``history_limit`` runs no matter
        how long the daemon lives.  Jobs iterate in submission order
        (insertion order of ``_jobs``).
        """
        finished = [
            job for job in self._jobs.values() if job.state in RunState.FINAL
        ]
        for job in finished[: -self._history_limit]:
            job.clear_history()

    @staticmethod
    def _validate_pairs(pairs) -> str | None:
        if not isinstance(pairs, list) or not pairs:
            return "'pairs' must be a non-empty list"
        for position, pair in enumerate(pairs):
            if not isinstance(pair, dict):
                return f"pair #{position} must be an object"
            for field in ("circuit1", "circuit2", "equivalence"):
                if field not in pair:
                    return f"pair #{position} is missing {field!r}"
                if not isinstance(pair[field], str):
                    return f"pair #{position}: {field!r} must be a string"
            for field in ("circuit1", "circuit2"):
                if not Path(pair[field]).exists():
                    return f"pair #{position}: circuit not found: {pair[field]}"
            try:
                EquivalenceType.from_label(pair["equivalence"])
            except ValueError as error:
                return f"pair #{position}: {error}"
        return None

    @staticmethod
    def _validate_records(records) -> str | None:
        """Pre-seed records must at least be store-shaped (pair_id keyed)."""
        if not isinstance(records, list) or not records:
            return "'records' must be a non-empty list"
        for position, record in enumerate(records):
            if not isinstance(record, dict):
                return f"record #{position} must be an object"
            if not isinstance(record.get("pair_id"), str):
                return f"record #{position} is missing a string 'pair_id'"
        return None

    def _get_job(self, frame: dict) -> DaemonJob | str:
        run_id = frame.get("run_id")
        if run_id is None:
            return "missing 'run_id'"
        if not isinstance(run_id, str):
            return "'run_id' must be a string"
        with self._jobs_lock:
            job = self._jobs.get(run_id)
        if job is None:
            return f"unknown run {run_id!r}"
        return job

    def _handle_status(self, frame: dict, session: Session) -> dict:
        if frame.get("run_id") is not None:
            job = self._get_job(frame)
            if isinstance(job, str):
                return self._error(job)
            return self._ok(op="status", run=job.to_dict())
        with self._jobs_lock:
            # Submission order == insertion order (also correct past
            # run-9999, where lexicographic id order would not be).
            runs = [job.to_dict() for job in self._jobs.values()]
        return self._ok(op="status", runs=runs)

    def _handle_stats(self, frame: dict, session: Session) -> dict:
        # Counts derive from job states, so stats can never disagree with
        # what a status probe of the individual runs would report.
        with self._jobs_lock:
            states = [job.state for job in self._jobs.values()]
            pairs = {
                "executed": sum(
                    (job.summary or {}).get("executed", 0)
                    for job in self._jobs.values()
                ),
                "done": sum(job.done for job in self._jobs.values()),
                "failed": sum(job.failed for job in self._jobs.values()),
            }
        counts = {
            "submitted": len(states),
            "queued": states.count(RunState.QUEUED),
            "running": states.count(RunState.RUNNING),
            "completed": states.count(RunState.COMPLETED),
            "failed": states.count(RunState.FAILED),
            "cancelled": states.count(RunState.CANCELLED),
        }
        if self._cache is not None:
            # CacheStats.as_dict is the one shape both `stats` and the
            # `metrics` snapshot reconcile against; scheme_hits attribute
            # hits to the fingerprint scheme(s) of the hitting key — the
            # wire-visible evidence that warm wide traffic is served by
            # probe identities, not re-execution.
            cache_stats = {
                **self._cache.stats.as_dict(),
                "size": len(self._cache),
            }
        else:
            cache_stats = None
        return self._ok(
            op="stats",
            uptime=time.monotonic() - self._started_at,
            executor=self._executor.name,
            store_dir=str(self._store_dir),
            runs=counts,
            pairs=pairs,
            cache=cache_stats,
        )

    def _handle_cancel(self, frame: dict, session: Session) -> dict:
        job = self._get_job(frame)
        if isinstance(job, str):
            return self._error(job)
        if job.state not in RunState.FINAL:
            job.cancel()
        return self._ok(op="cancel", run_id=job.run_id, state=job.state)

    def _handle_fetch_store(self, frame: dict, session: Session) -> dict:
        """Ship a run's JSONL store to the client, record by record.

        Records come back in file order (the store is append-only, so
        that is completion order), read by :meth:`ResultStore.read_records`,
        so torn lines are skipped and counted exactly as on resume.  The op
        works in any run state — a cancelled or failed run's partial
        store is precisely what the fleet coordinator needs to reassign
        its shard without re-querying settled pairs.
        """
        job = self._get_job(frame)
        if isinstance(job, str):
            return self._error(job)
        store = ResultStore(job.store)
        records = store.read_records()
        return self._ok(
            op="fetch_store",
            run_id=job.run_id,
            state=job.state,
            store=job.store,
            records=records,
            torn_lines=store.torn_lines,
        )

    def _handle_events(self, frame: dict, session: Session) -> dict:
        """Stream a run's events ahead of the returned terminator frame."""
        job = self._get_job(frame)
        if isinstance(job, str):
            return self._error(job)
        replay = frame.get("replay", True)
        if not isinstance(replay, bool):
            return self._error("'replay' must be a boolean")
        subscription = job.subscribe(replay=replay)
        writer = session.writer
        self._send(writer, self._ok(op="events", run_id=job.run_id, state=job.state))
        try:
            while True:
                event = subscription.get()
                if event is _EOS:
                    break
                if event is _DROPPED:
                    return self._error(
                        "events subscription dropped: client fell more "
                        f"than {SUBSCRIBER_BUFFER_LIMIT} events behind"
                    )
                self._send(writer, event)
        finally:
            job.unsubscribe(subscription)
        return self._ok(op="events", done=True, run_id=job.run_id, state=job.state)

    def _handle_metrics(self, frame: dict, session: Session) -> dict:
        return self._ok(op="metrics", metrics=self._metrics.snapshot())

    OPS = {
        "ping": FramedServer._handle_ping,
        "auth": FramedServer._handle_auth,
        "submit": _handle_submit,
        "status": _handle_status,
        "stats": _handle_stats,
        "metrics": _handle_metrics,
        "cancel": _handle_cancel,
        "fetch_store": _handle_fetch_store,
        "events": _handle_events,
        "shutdown": FramedServer._handle_shutdown,
    }

    # -- the worker ------------------------------------------------------------
    def _work_loop(self) -> None:
        while True:
            job = self._pending.get()
            if job is _EOS:
                break
            if self._stopping.is_set():
                job.cancel()
                continue
            if not job.start_running():
                # A canceller settled the job while it was queued.
                continue
            self._run_job(job)

    def _events_for(self, job: DaemonJob, service: MatchingService) -> Iterator:
        if job.manifest is not None:
            return service.stream(
                job.manifest,
                store_path=job.store,
                resume=job.resume,
                seed=job.seed,
                shard=job.shard,
            )
        pairs = [
            (
                load_circuit(pair["circuit1"]),
                load_circuit(pair["circuit2"]),
                pair["equivalence"],
            )
            for pair in job.pairs
        ]
        return service.stream_pairs(
            pairs, seed=job.seed, store_path=job.store, resume=job.resume
        )

    def _remote_for(self, address: str):
        """The shared :class:`~repro.cachenet.remote.RemoteCache` for an address.

        Called from the worker thread.  A tier that degraded during an
        earlier run is dropped and rebuilt, so the next submission gets
        one fresh reconnect attempt instead of inheriting a dead
        connection forever.  The connection presents this daemon's own
        auth token — never one taken from the wire.
        """
        from repro.cachenet.remote import RemoteCache

        with self._remote_caches_lock:
            remote = self._remote_caches.get(address)
            if remote is not None and remote.degraded:
                remote.close()
                del self._remote_caches[address]
                remote = None
            if remote is None:
                remote = RemoteCache.from_address(
                    address, auth_token=self._auth_token
                )
                remote.bind_metrics(self._metrics)
                self._remote_caches[address] = remote
            return remote

    def _cache_for(self, job: DaemonJob) -> ResultCache | None:
        """The effective cache for one run: local, remote-tiered, or None."""
        address = job.remote_cache or self._remote_cache_default
        if address is None:
            return self._cache
        remote = self._remote_for(address)
        if self._cache is None:
            return remote
        # A per-run wrapper; it counts nothing itself (its member tiers
        # already count into the daemon's registry).  Local tier in
        # front: remote hits are promoted locally, local misses written
        # through to the pool.
        return TieredCache(self._cache, remote)

    def _run_job(self, job: DaemonJob) -> None:
        service = MatchingService(
            self._config,
            executor=self._executor,
            cache=self._cache_for(job),
            verify=self._verify,
            metrics=self._metrics,
        )
        outcome = RunState.COMPLETED
        error: str | None = None
        try:
            if job.records:
                self._preseed_store(job)
            # Closing the stream on every way out releases the run's
            # store handle, whether the run completes, is cancelled or
            # fails on a publish.
            with contextlib.closing(self._events_for(job, service)) as events:
                for event in events:
                    job.publish(event.to_dict())
                    if job.cancel_requested:
                        outcome = RunState.CANCELLED
                        break
        except Exception as failure:  # noqa: BLE001 - one bad run must not
            # take the worker thread (and with it the daemon) down.
            outcome = RunState.FAILED
            error = f"{type(failure).__name__}: {failure}"
        job.finish(outcome, error)
        self._metrics.counter("repro_daemon_jobs_total").inc(state=job.state)

    @staticmethod
    def _preseed_store(job: DaemonJob) -> None:
        """Append a submit's ``records`` to the run store before it runs.

        This is how a fleet coordinator moves a dead worker's settled
        pairs to the reassigned peer: seeded into the store, a
        ``resume`` run replays them as cache hits and spends zero oracle
        queries on them.  Records whose pair is already in the store are
        skipped, so re-seeding an existing store never duplicates lines.
        """
        with ResultStore(job.store) as store:
            existing = store.load()
            for record in job.records:
                if record["pair_id"] not in existing:
                    store.append(record)


class DaemonClient:
    """A blocking client for the ``repro-daemon/v1`` wire protocol.

    One client wraps one connection; requests and responses are
    line-delimited JSON frames.  Response frames with ``"ok": false``
    raise :class:`~repro.exceptions.DaemonError` carrying the server's
    message.  Usable as a context manager.

    Args:
        socket_path: connect to a Unix-socket daemon...
        host, port: ...or a TCP one.
        timeout: socket timeout in seconds (``None`` blocks forever —
            fine for :meth:`events`, which has no frame cadence).
        auth_token: shared secret for a token-protected daemon; sent as
            an ``auth`` handshake on every (re)connect.
    """

    def __init__(
        self,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float | None = None,
        auth_token: str | None = None,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise DaemonError(
                "choose exactly one transport: socket_path=... or host=/port="
            )
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self._auth_token = auth_token
        self._connection: socket.socket | None = None
        self._reader = None
        self._writer = None

    @classmethod
    def from_address(
        cls,
        address: str,
        timeout: float | None = None,
        auth_token: str | None = None,
    ) -> "DaemonClient":
        """Build a client from an ``unix:<path>`` / ``tcp:<host>:<port>`` string."""
        kind, _, rest = address.partition(":")
        if kind == "unix" and rest:
            return cls(socket_path=rest, timeout=timeout, auth_token=auth_token)
        if kind == "tcp" and rest:
            host, _, port = rest.rpartition(":")
            if host and port.isdigit():
                return cls(
                    host=host,
                    port=int(port),
                    timeout=timeout,
                    auth_token=auth_token,
                )
        raise DaemonError(
            f"not a daemon address: {address!r} "
            "(expected unix:<path> or tcp:<host>:<port>)"
        )

    @property
    def address(self) -> str:
        """The target address: ``unix:<path>`` or ``tcp:<host>:<port>``."""
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        return f"tcp:{self._host}:{self._port}"

    # -- connection ------------------------------------------------------------
    def connect(self) -> "DaemonClient":
        """Open the connection (idempotent); returns self for chaining."""
        if self._connection is not None:
            return self
        try:
            if self._socket_path is not None:
                connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    connection.settimeout(self._timeout)
                    connection.connect(str(self._socket_path))
                except OSError:
                    connection.close()
                    raise
            else:
                connection = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
        except OSError as error:
            raise DaemonConnectionError(
                f"cannot reach daemon: {error}"
            ) from None
        self._connection = connection
        self._reader = connection.makefile("r", encoding="utf-8")
        self._writer = connection.makefile("w", encoding="utf-8")
        if self._auth_token is not None:
            self._handshake()
        return self

    def _handshake(self) -> None:
        """Present the shared secret; raises (and closes) on refusal."""
        try:
            self._writer.write(
                json.dumps({"op": "auth", "token": self._auth_token}) + "\n"
            )
            self._writer.flush()
        except OSError as error:
            self.close()
            raise DaemonConnectionError(
                f"daemon connection lost: {error}"
            ) from None
        try:
            response = self._read_frame()
        except DaemonError:
            self.close()
            raise
        if response.get("ok") is not True:
            self.close()
            raise DaemonError(
                response.get("error", "daemon refused the auth handshake")
            )

    def close(self) -> None:
        """Close the connection (idempotent)."""
        for handle in (self._reader, self._writer, self._connection):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._reader = self._writer = self._connection = None

    def __enter__(self) -> "DaemonClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framing ---------------------------------------------------------------
    def _read_frame(self) -> dict:
        try:
            line = self._reader.readline(MAX_FRAME_CHARS + 1)
        except TimeoutError:
            # The connection is up but quiet — distinct from a loss, so
            # heartbeat-style callers (the fleet coordinator) can probe
            # instead of reconnecting.
            raise DaemonTimeoutError(
                f"no frame within {self._timeout}s"
            ) from None
        except OSError as error:
            raise DaemonConnectionError(
                f"daemon connection lost: {error}"
            ) from None
        if not line:
            raise DaemonConnectionError("daemon closed the connection")
        if len(line) > MAX_FRAME_CHARS and not line.endswith("\n"):
            # The rest of the line is still in flight and there is no frame
            # boundary to resynchronise on: drop the connection.
            self.close()
            raise DaemonError(
                f"frame too large: response lines are capped at "
                f"{MAX_FRAME_CHARS} characters"
            )
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as error:
            raise DaemonError(f"daemon sent a malformed frame: {error}") from None
        if not isinstance(frame, dict):
            raise DaemonError("daemon sent a non-object frame")
        return frame

    def request(self, frame: dict) -> dict:
        """Send one request frame, return the (checked) response frame."""
        self.connect()
        try:
            self._writer.write(json.dumps(frame) + "\n")
            self._writer.flush()
        except OSError as error:
            raise DaemonConnectionError(
                f"daemon connection lost: {error}"
            ) from None
        response = self._read_frame()
        if response.get("ok") is not True:
            raise DaemonError(response.get("error", "daemon refused the request"))
        return response

    # -- ops -------------------------------------------------------------------
    def ping(self) -> dict:
        """Round-trip a ``ping``; returns the response frame."""
        return self.request({"op": "ping"})

    def submit(
        self,
        manifest: str | Path | None = None,
        *,
        pairs: Sequence[dict] | None = None,
        seed: int | None = None,
        resume: bool = False,
        store: str | Path | None = None,
        shard: tuple[int, int] | str | None = None,
        records: Sequence[dict] | None = None,
        remote_cache: str | None = None,
    ) -> dict:
        """Submit a run (a manifest path or a pair list); returns the ack.

        ``shard`` restricts a manifest run to one deterministic
        ``i/n`` partition; ``records`` pre-seed the run's store before
        it starts (with ``resume`` they are replayed without re-running
        — the fleet coordinator's shard-reassignment path).
        ``remote_cache`` points this run's lookups at a shared
        ``repro-cache/v1`` server (``docs/remote-cache.md``).
        """
        frame: dict = {"op": "submit", "seed": seed, "resume": resume}
        if manifest is not None:
            frame["manifest"] = str(manifest)
        if pairs is not None:
            frame["pairs"] = list(pairs)
        if store is not None:
            frame["store"] = str(store)
        if shard is not None:
            frame["shard"] = shard if isinstance(shard, str) else list(shard)
        if records is not None:
            frame["records"] = list(records)
        if remote_cache is not None:
            frame["remote_cache"] = remote_cache
        return self.request(frame)

    def status(self, run_id: str | None = None) -> dict:
        """One run's status record, or all of them."""
        frame: dict = {"op": "status"}
        if run_id is not None:
            frame["run_id"] = run_id
        return self.request(frame)

    def stats(self) -> dict:
        """Daemon-wide counters: runs, pairs, cache hits, uptime."""
        return self.request({"op": "stats"})

    def metrics(self) -> dict:
        """The daemon's full ``repro-metrics/v1`` snapshot."""
        return self.request({"op": "metrics"})

    def cancel(self, run_id: str) -> dict:
        """Cancel a queued or running run."""
        return self.request({"op": "cancel", "run_id": run_id})

    def fetch_store(self, run_id: str) -> dict:
        """A run's JSONL store records, in file order (any run state)."""
        return self.request({"op": "fetch_store", "run_id": run_id})

    def shutdown(self) -> dict:
        """Ask the daemon to stop (cancelling anything in flight)."""
        response = self.request({"op": "shutdown"})
        self.close()
        return response

    def events(
        self,
        run_id: str,
        *,
        replay: bool = True,
        reconnects: int = 1,
    ) -> Iterator[dict]:
        """Subscribe to a run's event stream; yields raw event dicts.

        The generator ends when the run reaches a final state; the
        server's terminator frame is consumed, and its ``state`` is
        available afterwards as the generator's return value (via
        ``StopIteration.value`` — or just use :meth:`watch`).

        A *transient disconnect* (connection reset or daemon hang-up
        mid-stream — :class:`~repro.exceptions.DaemonConnectionError`,
        never a server error frame or a timeout) is survived up to
        ``reconnects`` times: the client backs off briefly, reconnects,
        re-subscribes with replay, and silently skips the events it
        already yielded — the run is unaffected, the subscriber sees an
        uninterrupted stream.  Only available when subscribing with
        ``replay`` (without the initial replay the client cannot know
        which re-replayed events predate its subscription).
        """
        self.request({"op": "events", "run_id": run_id, "replay": replay})
        attempts = 0
        yielded = 0
        skip = 0
        while True:
            try:
                frame = self._read_frame()
            except DaemonTimeoutError:
                raise
            except DaemonConnectionError:
                if attempts >= reconnects or not replay:
                    raise
                attempts += 1
                self.close()
                time.sleep(min(
                    EVENTS_RECONNECT_BACKOFF_S * attempts,
                    EVENTS_RECONNECT_BACKOFF_MAX_S,
                ))
                # Replay is append-only and in publish order, so the
                # first `yielded` event frames of the fresh subscription
                # are exactly the ones already delivered.
                self.request({"op": "events", "run_id": run_id, "replay": True})
                skip = yielded
                continue
            if "event" in frame:
                if skip > 0:
                    skip -= 1
                    continue
                yielded += 1
                yield frame
                continue
            if frame.get("ok") is not True:
                raise DaemonError(frame.get("error", "event stream broke"))
            return frame.get("state")

    def watch(
        self,
        run_id: str,
        observers: Sequence[Observer] = (),
        *,
        replay: bool = True,
    ) -> str:
        """Forward a run's events to observers; returns the final state.

        Frames are rebuilt into typed :mod:`repro.service.events` objects
        via :func:`~repro.service.events.event_from_dict`, so the stock
        observers (``ProgressObserver``, ``EventLogObserver``,
        ``StatsObserver``) behave exactly as they do in-process.
        """
        stream = self.events(run_id, replay=replay)
        while True:
            try:
                frame = next(stream)
            except StopIteration as stop:
                return stop.value
            event = event_from_dict(frame)
            for observer in observers:
                observer.notify(event)
