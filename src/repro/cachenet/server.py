"""The cache server: one :class:`ResultCache` shared over a socket.

:class:`CacheServer` speaks ``repro-cache/v1`` (specified in
``docs/remote-cache.md``) on the framed-socket skeleton the matching
daemon also runs on (:class:`~repro.service.framed.FramedServer`): the
same framing, error model, ``auth`` handshake and non-loopback bind
refusal, with a cache-shaped op table.  The server is a thin shell around
any existing :class:`~repro.service.cache.ResultCache` (LRU, disk,
tiered): ``get``/``put``/``get_many`` go straight through the cache's
public surface, so the backing tier's
:class:`~repro.service.cache.CacheStats` counts every remote lookup and
the ``stats`` op reconciles with it exactly.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.exceptions import DaemonError
from repro.service.cache import ResultCache
from repro.service.framed import FramedServer, Session

__all__ = ["CACHE_PROTOCOL_VERSION", "CacheServer"]

#: Wire-protocol version stamped on every response frame.
CACHE_PROTOCOL_VERSION = "repro-cache/v1"

#: Upper bound on one ``get_many`` batch; a larger request is an error
#: frame, bounding the response a single frame must carry.
GET_MANY_LIMIT = 4096


class CacheServer(FramedServer):
    """A socket server exposing one result cache to many clients.

    Args:
        cache: the backing :class:`~repro.service.cache.ResultCache`;
            every remote ``get``/``put`` lands on its public surface, so
            its stats and metrics count network traffic like local
            traffic.  :meth:`stop` leaves it untouched — a disk tier keeps
            every entry for the next server.
        socket_path, host, port, auth_token, insecure: the transport and
            auth settings of :class:`~repro.service.framed.FramedServer`.
    """

    PROTOCOL = CACHE_PROTOCOL_VERSION
    SERVER_NAME = "cache server"
    COMMAND = "repro cache-server"

    def __init__(
        self,
        cache: ResultCache,
        *,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        auth_token: str | None = None,
        insecure: bool = False,
    ) -> None:
        if cache is None:
            raise DaemonError("a cache server needs a backing cache")
        super().__init__(
            socket_path=socket_path,
            host=host,
            port=port,
            auth_token=auth_token,
            insecure=insecure,
        )
        self._cache = cache

    @property
    def cache(self) -> ResultCache:
        """The backing cache the server fronts."""
        return self._cache

    # -- ops -------------------------------------------------------------------
    def _handle_get(self, frame: dict, session: Session) -> dict:
        key = frame.get("key")
        if not isinstance(key, str):
            return self._error("get needs a string 'key'")
        record = self._cache.get(key)
        return self._ok(op="get", key=key, record=record)

    def _handle_put(self, frame: dict, session: Session) -> dict:
        key = frame.get("key")
        if not isinstance(key, str):
            return self._error("put needs a string 'key'")
        record = frame.get("record")
        if not isinstance(record, dict):
            return self._error("put needs an object 'record'")
        self._cache.put(key, record)
        return self._ok(op="put", key=key, stored=True)

    def _handle_get_many(self, frame: dict, session: Session) -> dict:
        keys = frame.get("keys")
        if not isinstance(keys, list) or not all(
            isinstance(key, str) for key in keys
        ):
            return self._error("get_many needs a list of string 'keys'")
        if len(keys) > GET_MANY_LIMIT:
            return self._error(
                f"get_many is capped at {GET_MANY_LIMIT} keys per request; "
                f"got {len(keys)}"
            )
        # One cache.get per key, so the backing CacheStats counts every
        # batched probe exactly like a single-key lookup would — the
        # `stats` op reconciles with hits+misses no matter the batching.
        records = {}
        for key in keys:
            record = self._cache.get(key)
            if record is not None:
                records[key] = record
        return self._ok(op="get_many", records=records, misses=len(keys) - len(records))

    def _handle_stats(self, frame: dict, session: Session) -> dict:
        # The exact CacheStats.as_dict shape the daemon's own stats op
        # reports for its cache, plus the entry count — the remote and
        # local views of one pool reconcile field by field.
        return self._ok(
            op="stats",
            uptime=time.monotonic() - self._started_at,
            cache={**self._cache.stats.as_dict(), "size": len(self._cache)},
        )

    OPS = {
        "ping": FramedServer._handle_ping,
        "auth": FramedServer._handle_auth,
        "get": _handle_get,
        "put": _handle_put,
        "get_many": _handle_get_many,
        "stats": _handle_stats,
        "shutdown": FramedServer._handle_shutdown,
    }
