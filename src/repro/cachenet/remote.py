"""The client-side remote tier: a :class:`ResultCache` over the wire.

:class:`RemoteCache` makes a ``repro-cache/v1`` server look like any
other cache tier, so it slots straight into the
:class:`~repro.service.cache.TieredCache` stack (local fast tier in
front, remote authoritative tier behind): a local miss falls through to
the server, a hit is promoted into the local tier, and every store is
written through.

Three mechanisms keep the network off the per-pair hot path:

* **Batched prefetch** — :meth:`prefetch` resolves a whole batch of keys
  in one ``get_many`` round trip; hits land in an internal buffer the
  following ``get`` calls consume, misses land in the negative set.  One
  round trip per run, not one per pair.
* **A bounded negative set** — keys the server answered "miss" for are
  remembered (LRU, bounded), so repeated misses never re-ask the
  network.  A ``put`` through this cache clears the key's negative
  entry, and remote stores by *other* workers become visible once the
  key ages out or the process restarts — staleness only ever delays a
  hit, never serves a wrong one.
* **Graceful degradation** — a wire failure is counted
  (``repro_cachenet_errors``), retried once on a fresh connection
  (``repro_cachenet_reconnects_total``), and past that the cache flips
  to a local no-op: every ``get`` misses, every ``put`` is dropped, and
  the run continues on its local tiers alone.  A dead cache server can
  never fail a run.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cachenet.server import GET_MANY_LIMIT
from repro.exceptions import DaemonError
from repro.service.cache import ResultCache
from repro.service.daemon import DaemonClient

__all__ = ["RemoteCache"]

#: Default bound on the in-process negative set (and prefetch buffer).
NEGATIVE_SET_LIMIT = 4096

#: Default socket timeout for cache requests, in seconds.  Deliberately
#: short: a hung cache server must degrade, not stall the run.
DEFAULT_TIMEOUT_S = 5.0


class RemoteCache(ResultCache):
    """A cache tier served by a remote ``repro-cache/v1`` server.

    Args:
        client: a :class:`~repro.service.daemon.DaemonClient` aimed at
            the cache server (the two protocols share framing, auth
            handshake and error model, so the daemon client drives both).
        negative_limit: bound on remembered misses (and buffered
            prefetch hits); the oldest entries age out first.
    """

    metrics_tier = "remote"

    def __init__(
        self, client: DaemonClient, *, negative_limit: int = NEGATIVE_SET_LIMIT
    ) -> None:
        super().__init__()
        if negative_limit <= 0:
            raise ValueError(
                f"negative_limit must be positive, got {negative_limit}"
            )
        self._client = client
        self._negative_limit = negative_limit
        self._negative: OrderedDict[str, None] = OrderedDict()
        self._buffer: OrderedDict[str, dict] = OrderedDict()
        self._degraded = False
        self._errors = 0
        self._reconnects = 0

    @classmethod
    def from_address(
        cls,
        address: str,
        *,
        auth_token: str | None = None,
        timeout: float = DEFAULT_TIMEOUT_S,
        negative_limit: int = NEGATIVE_SET_LIMIT,
    ) -> "RemoteCache":
        """Build a remote tier from ``unix:<path>`` / ``tcp:<host>:<port>``.

        Only the address is validated here; the connection opens lazily
        on the first request, so an unreachable server constructs fine
        and simply degrades on first use.
        """
        client = DaemonClient.from_address(
            address, timeout=timeout, auth_token=auth_token
        )
        return cls(client, negative_limit=negative_limit)

    # -- health ----------------------------------------------------------------
    @property
    def address(self) -> str:
        """The cache server's address."""
        return self._client.address

    @property
    def degraded(self) -> bool:
        """Whether the tier gave up on the server and went local-only."""
        with self._lock:
            return self._degraded

    @property
    def errors(self) -> int:
        """Wire failures seen so far (also ``repro_cachenet_errors``)."""
        with self._lock:
            return self._errors

    def close(self) -> None:
        """Drop the connection (reopened lazily unless degraded)."""
        self._client.close()

    # -- wire ------------------------------------------------------------------
    def _count(self, name: str, **labels) -> None:
        """Mirror a cachenet counter into the bound metrics registry."""
        if self._metrics is not None:
            self._metrics.counter(name).inc(**labels)

    def _request(self, frame: dict) -> dict | None:
        """One request with single-reconnect retry; ``None`` once degraded.

        Called with the cache lock held (all callers are ``_get``/``_put``
        hooks or :meth:`prefetch`), so the degradation flip and the error
        counters stay consistent with the stats the same lock guards.
        """
        if self._degraded:
            return None
        try:
            response = self._client.request(frame)
        except DaemonError:
            # Covers connection loss, timeouts and server error frames
            # alike: whatever went wrong, the answer is "no cache today",
            # never a failed run.
            self._errors += 1
            self._count("repro_cachenet_errors")
            self._client.close()
            try:
                self._reconnects += 1
                self._count("repro_cachenet_reconnects_total")
                response = self._client.request(frame)
            except DaemonError:
                self._errors += 1
                self._count("repro_cachenet_errors")
                self._degraded = True
                self._client.close()
                return None
        self._count("repro_cachenet_requests_total", op=frame["op"])
        return response

    # -- bounded key sets ------------------------------------------------------
    def _note_negative(self, key: str) -> None:
        self._negative[key] = None
        self._negative.move_to_end(key)
        while len(self._negative) > self._negative_limit:
            self._negative.popitem(last=False)

    def _note_buffered(self, key: str, record: dict) -> None:
        self._buffer[key] = record
        self._buffer.move_to_end(key)
        while len(self._buffer) > self._negative_limit:
            self._buffer.popitem(last=False)

    # -- ResultCache hooks (run with the lock held) ----------------------------
    def _get(self, key: str) -> dict | None:
        record = self._buffer.pop(key, None)
        if record is not None:
            return record
        if key in self._negative:
            # A remembered miss: answered locally, zero round trips.
            return None
        response = self._request({"op": "get", "key": key})
        if response is None:
            return None
        record = response.get("record")
        if isinstance(record, dict):
            return record
        self._note_negative(key)
        return None

    def _put(self, key: str, record: dict) -> None:
        # Write-through; the key stops being a known miss either way, so
        # a degraded put never shadows a later (reconnected) lookup.
        self._negative.pop(key, None)
        self._buffer.pop(key, None)
        self._request({"op": "put", "key": key, "record": record})

    def prefetch(self, keys) -> None:
        """Resolve a batch of keys in one ``get_many`` round trip.

        Hits are buffered for the ``get`` calls that follow; misses join
        the negative set.  Neither touches the hit/miss stats — the
        lookups are counted when ``get`` consumes them, so batched and
        unbatched runs report identical counters.
        """
        with self._lock:
            # dict.fromkeys dedups in first-seen order, so chunks are stable.
            wanted = [
                key
                for key in dict.fromkeys(keys)
                if key not in self._buffer and key not in self._negative
            ]
            for start in range(0, len(wanted), GET_MANY_LIMIT):
                chunk = wanted[start:start + GET_MANY_LIMIT]
                response = self._request({"op": "get_many", "keys": chunk})
                if response is None:
                    return
                records = response.get("records")
                if not isinstance(records, dict):
                    return
                for key in chunk:
                    record = records.get(key)
                    if isinstance(record, dict):
                        self._note_buffered(key, record)
                    else:
                        self._note_negative(key)

    def __len__(self) -> int:
        """The server's entry count (0 once degraded or unreachable)."""
        with self._lock:
            response = self._request({"op": "stats"})
        if response is None:
            return 0
        cache = response.get("cache")
        size = cache.get("size") if isinstance(cache, dict) else None
        return size if isinstance(size, int) else 0
