"""The fleet coordinator: sharded manifest runs across worker daemons.

Every ingredient exists in the single-host stack — deterministic
``--shard i/n`` runs whose merge is byte-identical to a serial run,
resumable per-run stores, and daemons accepting manifest submissions
over ``repro-daemon/v1``.  :class:`FleetCoordinator` composes them into
a fault-tolerant distributed run:

1.  probe the registered peers and keep the healthy ones,
2.  dispatch one ``shard i/n`` submission per healthy peer (``n`` =
    number of healthy peers),
3.  watch every event stream concurrently, fanning pair-level events
    into ordinary :class:`~repro.service.events.Observer` objects and
    mirroring each settled record in coordinator memory,
4.  detect a dead worker (connection lost) or a hung one (no events
    within the hang budget while the run claims to be running) and
    reassign its shard to a healthy peer — the mirrored records are
    pre-seeded into the retry's store, so the resumed run replays them
    as store hits and spends **zero oracle queries** on settled pairs,
5.  retrieve each shard's store through the ``fetch_store`` op and
    merge them with :func:`~repro.service.pipeline.merge_stores` into a
    store byte-identical to an unsharded serial run of the manifest.

The coordinator deduplicates by pair id when fanning in, so a replayed
or reassigned shard never double-counts a pair downstream: observers see
one ``RunStarted``, each pair exactly once, and one ``RunCompleted`` —
the same contract an in-process run gives them.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import (
    DaemonConnectionError,
    DaemonError,
    DaemonTimeoutError,
    FleetError,
)
from repro.fleet.runid import FleetRunIdCounter
from repro.service.daemon import DaemonClient, RunState
from repro.service.events import (
    Observer,
    ReportSummary,
    RunCompleted,
    RunStarted,
    event_from_dict,
)
from repro.service.pipeline import ResultStore, merge_stores
from repro.service.workload import MANIFEST_NAME, CorpusManifest

__all__ = [
    "FleetCoordinator",
    "FleetPeer",
    "FleetReport",
    "ShardOutcome",
    "normalize_peer",
]

#: Event kinds that settle a pair (and carry its store record).
_PAIR_EVENTS = ("TaskCompleted", "TaskFailed", "CacheHit")


def normalize_peer(address: str) -> str:
    """Canonical daemon address for a ``--peer`` argument.

    Accepts the explicit ``unix:<path>`` / ``tcp:<host>:<port>`` forms
    as well as the bare ``HOST:PORT`` shorthand the CLI documents.
    """
    kind = address.partition(":")[0]
    if kind in ("unix", "tcp"):
        DaemonClient.from_address(address)  # validates; client is unconnected
        return address
    host, _, port = address.rpartition(":")
    if host and port.isdigit():
        return f"tcp:{host}:{port}"
    raise FleetError(
        f"not a peer address: {address!r} "
        "(expected HOST:PORT, tcp:<host>:<port> or unix:<path>)"
    )


class FleetPeer:
    """One registered worker daemon and its health, as the coordinator sees it."""

    def __init__(self, address: str) -> None:
        self.address = normalize_peer(address)
        self.healthy = True
        #: Why the peer was marked unhealthy (``dead``/``hung``), if it was.
        self.reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "address": self.address,
            "healthy": self.healthy,
            "reason": self.reason,
        }


class ShardOutcome:
    """How one shard fared: final owner, remote run id, reassignments."""

    def __init__(self, index: int, count: int, store_path: Path) -> None:
        self.index = index
        self.count = count
        self.store_path = store_path
        self.peer: str | None = None
        self.remote_run_id: str | None = None
        self.attempts = 0
        self.reassigned_from: list[str] = []
        self.error: str | None = None
        #: pair_id -> store record, mirrored from the shard's event
        #: stream; doubles as the reassignment seed and the dedup set.
        self.settled: dict[str, dict] = {}
        self.started: set[str] = set()

    def to_dict(self) -> dict:
        return {
            "shard": [self.index, self.count],
            "peer": self.peer,
            "remote_run_id": self.remote_run_id,
            "attempts": self.attempts,
            "reassigned_from": list(self.reassigned_from),
            "store": str(self.store_path),
            "pairs": len(self.settled),
            "error": self.error,
        }


class FleetReport:
    """Outcome of one fleet run: merged store plus per-shard accounting."""

    def __init__(
        self,
        run_id: str,
        *,
        output: Path,
        total: int,
        merged_records: int,
        matched: int,
        failed: int,
        executed: int,
        cache_hits: int,
        resumed: int,
        elapsed: float,
        shards: list[ShardOutcome],
        peers: list[FleetPeer],
    ) -> None:
        self.run_id = run_id
        self.output = output
        self.total = total
        self.merged_records = merged_records
        self.matched = matched
        self.failed = failed
        self.executed = executed
        self.cache_hits = cache_hits
        self.resumed = resumed
        self.elapsed = elapsed
        self.shards = shards
        self.peers = peers

    @property
    def reassignments(self) -> int:
        """Shard dispatches that had to move to another peer."""
        return sum(len(shard.reassigned_from) for shard in self.shards)

    def summary(self) -> str:
        return (
            f"{self.run_id}: {self.matched}/{self.total} matched "
            f"({self.failed} failed) across {len(self.shards)} shards on "
            f"{sum(1 for peer in self.peers if peer.healthy)} peers, "
            f"{self.reassignments} reassigned, merged to {self.output} "
            f"in {self.elapsed:.2f}s"
        )

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "output": str(self.output),
            "total": self.total,
            "merged_records": self.merged_records,
            "matched": self.matched,
            "failed": self.failed,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "reassignments": self.reassignments,
            "elapsed": self.elapsed,
            "shards": [shard.to_dict() for shard in self.shards],
            "peers": [peer.to_dict() for peer in self.peers],
        }


class _ShardHung(DaemonError):
    """Internal signal: the worker is reachable but its run stalled."""


class FleetCoordinator:
    """Dispatch, watch, reassign and merge sharded runs across daemons.

    Args:
        peers: worker daemon addresses (``HOST:PORT``, ``tcp:...`` or
            ``unix:...``); at least one.
        work_dir: coordinator state — the crash-safe run-id counter and
            one directory of shard stores per fleet run.
        auth_token: shared secret presented to every peer (required when
            peers bind non-loopback TCP).
        observers: ordinary service observers receiving the fanned-in
            event stream (one ``RunStarted``, each pair once, one
            ``RunCompleted``).
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry`
            receiving the ``repro_fleet_*`` series; optional.
        heartbeat_s: how long an event stream may stay silent before the
            coordinator probes the worker's health.
        hang_timeout_s: silence budget for a *running* shard; past it
            the worker counts as hung and the shard is reassigned.
        max_attempts: dispatch attempts per shard (first try included)
            before the fleet run fails.
        timeout: socket timeout for one-shot control requests
            (ping/status/submit/fetch_store).
        remote_cache: address of a shared ``repro cache-server`` every
            shard submission names; each worker mounts it behind its
            local cache tiers, so results computed by one worker are
            cache hits on the rest.  Must resolve from the workers'
            hosts.  Optional.
    """

    def __init__(
        self,
        peers: Sequence[str],
        *,
        work_dir: str | Path,
        auth_token: str | None = None,
        observers: Sequence[Observer] = (),
        metrics=None,
        heartbeat_s: float = 5.0,
        hang_timeout_s: float = 30.0,
        max_attempts: int = 3,
        timeout: float = 10.0,
        remote_cache: str | None = None,
    ) -> None:
        if not peers:
            raise FleetError("a fleet needs at least one peer daemon")
        if heartbeat_s <= 0 or hang_timeout_s <= 0:
            raise FleetError("heartbeat and hang timeouts must be positive")
        if max_attempts <= 0:
            raise FleetError(f"max_attempts must be positive, got {max_attempts}")
        self._peers = [FleetPeer(address) for address in peers]
        self._work_dir = Path(work_dir)
        self._work_dir.mkdir(parents=True, exist_ok=True)
        self._auth_token = auth_token
        self._observers = list(observers)
        self._metrics = metrics
        self._heartbeat_s = heartbeat_s
        self._hang_timeout_s = hang_timeout_s
        self._max_attempts = max_attempts
        self._timeout = timeout
        # Shared cache server address every shard submission names, so
        # all workers mount the same remote tier — results one worker
        # computes are cache hits on every other (docs/remote-cache.md).
        self._remote_cache = remote_cache
        self._counter = FleetRunIdCounter(self._work_dir / "fleet-run-id")
        self._lock = threading.Lock()
        # Fleet-level pair counters, maintained under the lock by the
        # shard watcher threads (mirrors StatsObserver semantics).
        self._executed = 0
        self._cache_hits = 0
        self._resumed = 0

    @property
    def peers(self) -> list[FleetPeer]:
        """The registered peers (health reflects the last run/probe)."""
        return list(self._peers)

    # -- peer plumbing ---------------------------------------------------------
    def _client_for(
        self, peer: FleetPeer, timeout: float | None = None
    ) -> DaemonClient:
        return DaemonClient.from_address(
            peer.address,
            timeout=timeout if timeout is not None else self._timeout,
            auth_token=self._auth_token,
        )

    def check_peers(self) -> list[dict]:
        """Ping every peer; updates health flags and returns one dict each."""
        results = []
        for peer in self._peers:
            try:
                with self._client_for(peer) as client:
                    pong = client.ping()
            except DaemonError as error:
                with self._lock:
                    peer.healthy = False
                    peer.reason = peer.reason or "dead"
                results.append({**peer.to_dict(), "error": str(error)})
            else:
                with self._lock:
                    peer.healthy = True
                    peer.reason = None
                results.append({**peer.to_dict(), "pid": pong.get("pid")})
        return results

    def _healthy_peers(self) -> list[FleetPeer]:
        with self._lock:
            return [peer for peer in self._peers if peer.healthy]

    def _mark_unhealthy(self, peer: FleetPeer, reason: str) -> None:
        with self._lock:
            peer.healthy = False
            peer.reason = reason
        if self._metrics is not None:
            self._metrics.counter("repro_fleet_peer_failures_total").inc(
                reason=reason
            )

    def _pick_peer(self, shard: ShardOutcome) -> FleetPeer:
        healthy = self._healthy_peers()
        if not healthy:
            raise FleetError(
                f"no healthy peers left for shard {shard.index}/{shard.count}"
            )
        with self._lock:
            offset = shard.index + shard.attempts
        return healthy[offset % len(healthy)]

    # -- the run ---------------------------------------------------------------
    def run(
        self,
        manifest: str | Path,
        *,
        seed: int | None = None,
        output: str | Path | None = None,
    ) -> FleetReport:
        """Execute one manifest across the fleet; returns the merged report.

        Raises :class:`~repro.exceptions.FleetError` when no peer is
        healthy or any shard exhausts its attempts — in which case the
        per-shard stores fetched so far remain under the run's work
        directory for inspection.
        """
        started = time.monotonic()
        manifest_path = Path(manifest)
        if manifest_path.is_dir():
            manifest_path = manifest_path / MANIFEST_NAME
        if not manifest_path.exists():
            raise FleetError(f"manifest not found: {manifest}")
        total = len(CorpusManifest.load(manifest_path).entries)

        run_id = self._counter.allocate()
        run_dir = self._work_dir / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        output_path = Path(output) if output is not None else (
            run_dir / "merged.jsonl"
        )

        self.check_peers()
        healthy = self._healthy_peers()
        if not healthy:
            self._finish_run("failed", started)
            raise FleetError(
                "no healthy peers: "
                + ", ".join(peer.address for peer in self._peers)
            )
        count = len(healthy)
        with self._lock:
            self._executed = 0
            self._cache_hits = 0
            self._resumed = 0
        self._notify(RunStarted(
            total=total,
            executor=f"fleet[{count}]",
            store_path=str(output_path),
            seed=seed,
        ))

        shards = [
            ShardOutcome(index, count, run_dir / f"shard-{index}.jsonl")
            for index in range(count)
        ]
        threads = [
            threading.Thread(
                target=self._run_shard,
                args=(shard, str(manifest_path), seed),
                name=f"repro-fleet-shard-{shard.index}",
                daemon=True,
            )
            for shard in shards
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        failures = [shard for shard in shards if shard.error is not None]
        if failures:
            self._finish_run("failed", started)
            details = "; ".join(
                f"shard {shard.index}/{shard.count}: {shard.error}"
                for shard in failures
            )
            raise FleetError(f"fleet run {run_id} failed: {details}")

        merged_records = merge_stores(
            output_path, [shard.store_path for shard in shards]
        )
        merged = ResultStore(output_path).read_records()
        matched = sum(1 for record in merged if record.get("result"))
        failed = len(merged) - matched
        elapsed = self._finish_run("completed", started)
        with self._lock:
            executed = self._executed
            cache_hits = self._cache_hits
            resumed = self._resumed
        self._notify(RunCompleted(report=ReportSummary(
            total=merged_records,
            matched=matched,
            failed=failed,
            resumed=resumed,
            cache_hits=cache_hits,
            executed=executed,
            elapsed=elapsed,
            executor=f"fleet[{count}]",
        )))
        return FleetReport(
            run_id,
            output=output_path,
            total=total,
            merged_records=merged_records,
            matched=matched,
            failed=failed,
            executed=executed,
            cache_hits=cache_hits,
            resumed=resumed,
            elapsed=elapsed,
            shards=shards,
            peers=list(self._peers),
        )

    def _finish_run(self, state: str, started: float) -> float:
        elapsed = time.monotonic() - started
        if self._metrics is not None:
            self._metrics.counter("repro_fleet_runs_total").inc(state=state)
            self._metrics.histogram("repro_fleet_run_seconds").observe(elapsed)
        return elapsed

    # -- one shard, possibly across several peers ------------------------------
    def _run_shard(
        self, shard: ShardOutcome, manifest: str, seed: int | None
    ) -> None:
        try:
            self._execute_shard(shard, manifest, seed)
        except Exception as failure:  # noqa: BLE001 - the error is the
            # shard's result; run() turns any of them into one FleetError.
            with self._lock:
                shard.error = f"{type(failure).__name__}: {failure}"
            if self._metrics is not None:
                self._metrics.counter("repro_fleet_shards_total").inc(
                    outcome="failed"
                )

    def _reassign(self, shard: ShardOutcome, peer: FleetPeer, reason: str) -> None:
        self._mark_unhealthy(peer, reason)
        with self._lock:
            shard.reassigned_from.append(peer.address)
        if self._metrics is not None:
            self._metrics.counter("repro_fleet_shards_total").inc(
                outcome="reassigned"
            )

    def _execute_shard(
        self, shard: ShardOutcome, manifest: str, seed: int | None
    ) -> None:
        last_failure: str | None = None
        while True:
            with self._lock:
                if shard.attempts >= self._max_attempts:
                    raise FleetError(
                        f"gave up after {shard.attempts} attempts "
                        f"(peers tried: {', '.join(shard.reassigned_from)}; "
                        f"last failure: {last_failure})"
                    )
            peer = self._pick_peer(shard)
            with self._lock:
                shard.attempts += 1
                shard.peer = peer.address
            try:
                state = self._attempt(shard, peer, manifest, seed)
            except (DaemonConnectionError, _ShardHung) as failure:
                reason = "hung" if isinstance(failure, _ShardHung) else "dead"
                last_failure = str(failure)
                self._reassign(shard, peer, reason)
                continue
            if state == RunState.CANCELLED:
                # The worker abandoned the run — a shutting-down daemon
                # cancels its active jobs before closing, and an
                # operator cancel means the same thing to the fleet:
                # this peer will not finish the shard.
                last_failure = (
                    f"{shard.remote_run_id} on {peer.address} was cancelled"
                )
                self._reassign(shard, peer, "cancelled")
                continue
            if state != RunState.COMPLETED:
                raise FleetError(
                    f"run {shard.remote_run_id} on {peer.address} "
                    f"finished {state}"
                )
            self._harvest(shard, peer)
            if self._metrics is not None:
                self._metrics.counter("repro_fleet_shards_total").inc(
                    outcome="completed"
                )
            return

    def _attempt(
        self,
        shard: ShardOutcome,
        peer: FleetPeer,
        manifest: str,
        seed: int | None,
    ) -> str:
        """One dispatch of the shard to one peer; returns the final state.

        Raises :class:`DaemonConnectionError` when the peer dies and
        :class:`_ShardHung` when it stalls past the hang budget — both
        make :meth:`_execute_shard` reassign.  On a reassignment the
        mirrored records ride along as the submit's ``records``, so the
        peer's resumed run replays them from its pre-seeded store
        without spending oracle queries.
        """
        with self._lock:
            settled = [dict(record) for record in shard.settled.values()]
        client = self._client_for(peer, timeout=self._heartbeat_s)
        try:
            ack = client.submit(
                manifest,
                seed=seed,
                shard=(shard.index, shard.count),
                records=settled or None,
                resume=bool(settled),
                remote_cache=self._remote_cache,
            )
        except DaemonError as error:
            # Covers timeouts, resets *and* error frames (e.g. "daemon
            # is shutting down"): whatever the cause, this peer did not
            # take the shard, so the dispatch loop should try another.
            client.close()
            raise DaemonConnectionError(
                f"submit to {peer.address} failed: {error}"
            ) from None
        remote_run_id = ack["run_id"]
        with self._lock:
            shard.remote_run_id = remote_run_id
        last_live = time.monotonic()
        while True:
            stream = client.events(remote_run_id)
            try:
                while True:
                    try:
                        frame = next(stream)
                    except StopIteration as stop:
                        return stop.value
                    self._ingest(shard, frame)
                    last_live = time.monotonic()
            except DaemonTimeoutError:
                # Quiet stream: probe the run out-of-band.  A fresh
                # connection also sidesteps any half-read frame the
                # timed-out socket might hold — the replayed
                # resubscription below is deduplicated by pair id.
                client.close()
                state = self._probe_run(peer, remote_run_id)
                if state is None:
                    raise DaemonConnectionError(
                        f"{peer.address} is unreachable (or lost "
                        f"{remote_run_id})"
                    ) from None
                if state in RunState.FINAL:
                    return state
                stalled = time.monotonic() - last_live
                if state == RunState.RUNNING and stalled > self._hang_timeout_s:
                    self._cancel_quietly(peer, remote_run_id)
                    raise _ShardHung(
                        f"{remote_run_id} on {peer.address} produced no "
                        f"events for {stalled:.1f}s"
                    ) from None
                client = self._client_for(peer, timeout=self._heartbeat_s)

    def _probe_run(self, peer: FleetPeer, run_id: str) -> str | None:
        """The run's state via a fresh connection; None when the peer
        is unreachable or no longer knows the run (both mean: dead)."""
        try:
            with self._client_for(peer) as probe:
                return probe.status(run_id)["run"]["state"]
        except DaemonError:
            return None

    def _cancel_quietly(self, peer: FleetPeer, run_id: str) -> None:
        """Best effort: a hung run should not keep burning the worker."""
        try:
            with self._client_for(peer) as client:
                client.cancel(run_id)
        except DaemonError:
            pass

    def _ingest(self, shard: ShardOutcome, frame: dict) -> None:
        """Fan one raw event frame in: dedup, mirror, forward, count.

        Per-shard ``RunStarted``/``RunCompleted``/``StoreFlushed`` frames
        are swallowed — the coordinator synthesises one fleet-level pair
        of run boundaries, and store flushes happen on remote disks.
        Pair events are forwarded exactly once per pair id, so replays
        (reconnects, reassignments) stay invisible to observers.
        """
        kind = frame.get("event")
        if kind == "TaskStarted":
            pair_id = frame.get("pair_id")
            with self._lock:
                if pair_id in shard.started or pair_id in shard.settled:
                    return
                shard.started.add(pair_id)
                observers = list(self._observers)
            event = event_from_dict(frame)
            for observer in observers:
                observer.notify(event)
            return
        if kind not in _PAIR_EVENTS:
            return
        pair_id = frame.get("pair_id")
        record = frame.get("record") or {}
        with self._lock:
            if pair_id in shard.settled:
                return
            shard.settled[pair_id] = record
            if kind == "CacheHit":
                if frame.get("source") == "store":
                    self._resumed += 1
                else:
                    self._cache_hits += 1
            else:
                self._executed += 1
            observers = list(self._observers)
        event = event_from_dict(frame)
        for observer in observers:
            observer.notify(event)

    def _harvest(self, shard: ShardOutcome, peer: FleetPeer) -> None:
        """Fetch the shard's store from its final owner onto local disk.

        Written verbatim (one ``json.dumps`` line per record, exactly the
        bytes the worker's store holds), so the subsequent merge is
        byte-identical to merging the workers' own files.
        """
        with self._client_for(peer) as client:
            response = client.fetch_store(shard.remote_run_id)
        with open(shard.store_path, "w", encoding="utf-8") as handle:
            for record in response["records"]:
                handle.write(json.dumps(record) + "\n")

    def _notify(self, event) -> None:
        with self._lock:
            observers = list(self._observers)
        for observer in observers:
            observer.notify(event)
