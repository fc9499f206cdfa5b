"""CacheServer unit tests: the cache-shaped ops of ``repro-cache/v1``.

Everything here talks raw newline-delimited JSON over a socket, so the
error frames (which a :class:`DaemonClient` would raise as exceptions)
are asserted verbatim — the protocol promise under test is that errors
never close the connection.  Transport, auth and framing checks shared
with the daemon live in ``tests/service/test_framed_server.py``.
"""

from __future__ import annotations

import pytest

from repro.cachenet import CacheServer
from repro.cachenet.server import GET_MANY_LIMIT
from repro.exceptions import DaemonError
from repro.service import LRUCache

from tests.wire import Wire


@pytest.fixture
def server(tmp_path):
    server = CacheServer(LRUCache(), socket_path=tmp_path / "cache.sock")
    server.start()
    yield server
    server.stop()


@pytest.fixture
def wire(server):
    wire = Wire(server)
    yield wire
    wire.close()


class TestConstruction:
    def test_needs_a_backing_cache(self):
        with pytest.raises(DaemonError, match="backing cache"):
            CacheServer(None, socket_path="cache.sock")

class TestOps:
    def test_get_put_roundtrip(self, server, wire):
        miss = wire.roundtrip({"op": "get", "key": "k1"})
        assert miss["ok"] is True and miss["record"] is None
        stored = wire.roundtrip(
            {"op": "put", "key": "k1", "record": {"pair_id": "p"}}
        )
        assert stored["stored"] is True
        hit = wire.roundtrip({"op": "get", "key": "k1"})
        assert hit["record"] == {"pair_id": "p"}
        assert len(server.cache) == 1

    def test_get_many_mixed(self, wire):
        wire.roundtrip({"op": "put", "key": "a", "record": {"v": 1}})
        wire.roundtrip({"op": "put", "key": "b", "record": {"v": 2}})
        response = wire.roundtrip({"op": "get_many", "keys": ["a", "b", "c"]})
        assert response["records"] == {"a": {"v": 1}, "b": {"v": 2}}
        assert response["misses"] == 1

    def test_get_many_limit_is_an_error_frame(self, wire):
        keys = [f"k{i}" for i in range(GET_MANY_LIMIT + 1)]
        response = wire.roundtrip({"op": "get_many", "keys": keys})
        assert response["ok"] is False
        assert f"capped at {GET_MANY_LIMIT}" in response["error"]
        # The connection survived the refusal.
        assert wire.roundtrip({"op": "ping"})["ok"] is True

    def test_stats_reconciles_with_the_backing_cache(self, server, wire):
        wire.roundtrip({"op": "get", "key": "a"})  # miss
        wire.roundtrip({"op": "put", "key": "a", "record": {"v": 1}})
        wire.roundtrip({"op": "get", "key": "a"})  # hit
        wire.roundtrip({"op": "get_many", "keys": ["a", "b"]})  # hit + miss
        response = wire.roundtrip({"op": "stats"})
        assert response["uptime"] >= 0
        expected = {**server.cache.stats.as_dict(), "size": len(server.cache)}
        assert response["cache"] == expected
        assert response["cache"]["hits"] == 2
        assert response["cache"]["misses"] == 2
        assert response["cache"]["stores"] == 1
        assert response["cache"]["size"] == 1
        # Batched probes count exactly like single-key ones.
        stats = server.cache.stats
        assert stats.lookups == stats.hits + stats.misses == 4


class TestErrorModel:
    def test_field_validation(self, wire):
        cases = [
            ({"op": "get"}, "get needs a string 'key'"),
            ({"op": "get", "key": 7}, "get needs a string 'key'"),
            ({"op": "put", "record": {}}, "put needs a string 'key'"),
            ({"op": "put", "key": "k"}, "put needs an object 'record'"),
            ({"op": "put", "key": "k", "record": 3}, "put needs an object 'record'"),
            ({"op": "get_many"}, "get_many needs a list of string 'keys'"),
            (
                {"op": "get_many", "keys": ["a", 1]},
                "get_many needs a list of string 'keys'",
            ),
        ]
        for frame, message in cases:
            response = wire.roundtrip(frame)
            assert response["ok"] is False and response["error"] == message
        assert wire.roundtrip({"op": "ping"})["ok"] is True


class TestShutdown:
    def test_backing_cache_survives_shutdown(self, tmp_path):
        cache = LRUCache()
        server = CacheServer(cache, socket_path=tmp_path / "cache.sock")
        server.start()
        wire = Wire(server)
        wire.roundtrip({"op": "put", "key": "k", "record": {"v": 1}})
        wire.close()
        server.stop()
        assert cache.get("k") == {"v": 1}
