"""RemoteCache unit tests: write-through, negative set, prefetch and
graceful degradation.

Every test runs against a real :class:`CacheServer` on a Unix socket —
the tier's contract is about wire behaviour, so mocking the wire would
test nothing.  The backing cache's own :class:`CacheStats` double as a
wiretap: a lookup that reached the server is visible as a server-side
hit or miss, one answered locally is not.
"""

from __future__ import annotations

import json
import random

import pytest

import repro.cachenet.remote as remote_module
import repro.service.daemon as daemon_module
from repro.cachenet import CacheServer, RemoteCache
from repro.exceptions import DaemonError
from repro.obs.metrics import MetricsRegistry
from repro.circuits.random import random_circuit
from repro.core import EquivalenceType, make_instance
from repro.service import LRUCache, MatchingService, TieredCache, build_cache
from tests.wire import ReplyServer


@pytest.fixture
def server(tmp_path):
    server = CacheServer(LRUCache(), socket_path=tmp_path / "cache.sock")
    server.start()
    yield server
    server.stop()


@pytest.fixture
def remote(server):
    remote = RemoteCache.from_address(server.address)
    yield remote
    remote.close()


class TestConstruction:
    def test_from_address_rejects_garbage(self):
        with pytest.raises(DaemonError):
            RemoteCache.from_address("carrier-pigeon:coop-7")

    def test_negative_limit_must_be_positive(self, server):
        with pytest.raises(ValueError, match="negative_limit"):
            RemoteCache.from_address(server.address, negative_limit=0)

    def test_unreachable_server_constructs_fine(self, tmp_path):
        # Reachability is lazy: construction must not touch the network.
        remote = RemoteCache.from_address(f"unix:{tmp_path}/nowhere.sock")
        assert remote.degraded is False
        assert remote.get("k") is None  # degrades on first use
        assert remote.degraded is True

    def test_address_and_tier_label(self, server, remote):
        assert remote.address == server.address
        assert remote.metrics_tier == "remote"


class TestReadWrite:
    def test_write_through_and_read_back(self, server, remote):
        remote.put("k1", {"pair_id": "p"})
        assert server.cache.get("k1") == {"pair_id": "p"}
        assert remote.get("k1") == {"pair_id": "p"}
        assert remote.stats.hits == 1 and remote.stats.stores == 1

    def test_remote_sees_other_writers(self, server, remote):
        server.cache.put("k2", {"v": 2})
        assert remote.get("k2") == {"v": 2}

    def test_negative_set_answers_repeat_misses_locally(self, server, remote):
        assert remote.get("k") is None
        server_misses = server.cache.stats.misses
        assert remote.get("k") is None  # remembered: no round trip
        assert server.cache.stats.misses == server_misses
        assert remote.stats.misses == 2  # both count locally, though

    def test_put_clears_the_negative_entry(self, server, remote):
        assert remote.get("k") is None
        remote.put("k", {"v": 1})
        assert remote.get("k") == {"v": 1}

    def test_negative_set_is_bounded(self, server):
        remote = RemoteCache.from_address(server.address, negative_limit=2)
        try:
            for key in ("a", "b", "c"):
                assert remote.get(key) is None
            before = server.cache.stats.misses
            assert remote.get("a") is None  # aged out: asks the server again
            assert server.cache.stats.misses == before + 1
            assert remote.get("c") is None  # still remembered
            assert server.cache.stats.misses == before + 1
        finally:
            remote.close()

    def test_len_is_the_server_entry_count(self, server, remote):
        assert len(remote) == 0
        remote.put("k", {"v": 1})
        assert len(remote) == 1


class TestPrefetch:
    def test_prefetch_buffers_hits_and_remembers_misses(self, server, remote):
        server.cache.put("a", {"v": 1})
        server.cache.put("b", {"v": 2})
        remote.prefetch(["a", "b", "missing"])
        # Stats untouched by the prefetch itself...
        assert remote.stats.lookups == 0
        server_lookups = server.cache.stats.lookups
        # ...and the gets that follow are answered without the network.
        assert remote.get("a") == {"v": 1}
        assert remote.get("b") == {"v": 2}
        assert remote.get("missing") is None
        assert server.cache.stats.lookups == server_lookups
        assert remote.stats.hits == 2 and remote.stats.misses == 1

    def test_prefetch_skips_already_known_keys(self, server, remote):
        server.cache.put("a", {"v": 1})
        remote.prefetch(["a", "gone"])
        server_lookups = server.cache.stats.lookups
        remote.prefetch(["a", "gone", "a"])  # everything already resolved
        assert server.cache.stats.lookups == server_lookups

    def test_prefetch_chunks_at_the_wire_limit(self, server, remote, monkeypatch):
        # Shrink the chunk size; an unchunked request would be refused by
        # the server as over-limit and the tier would degrade.
        monkeypatch.setattr(remote_module, "GET_MANY_LIMIT", 2)
        keys = [f"k{i}" for i in range(5)]
        server.cache.put("k3", {"v": 3})
        remote.prefetch(keys)
        assert remote.degraded is False
        assert server.cache.stats.lookups == 5
        assert remote.get("k3") == {"v": 3}


    def test_prefetch_sends_each_repeated_key_once(self, server, monkeypatch):
        monkeypatch.setattr(remote_module, "GET_MANY_LIMIT", 2)
        remote = RemoteCache.from_address(server.address)
        metrics = MetricsRegistry()
        remote.bind_metrics(metrics)
        try:
            remote.prefetch(["a", "b", "a", "c", "b", "a"])
            # a, b and c in first-seen order: chunks [a, b] and [c].
            assert server.cache.stats.lookups == 3
            requests = metrics.counter("repro_cachenet_requests_total")
            assert requests.value(op="get_many") == 2
        finally:
            remote.close()


class TestDegradation:
    def test_dead_server_degrades_after_one_reconnect(self, server):
        remote = RemoteCache.from_address(server.address)
        metrics = MetricsRegistry()
        remote.bind_metrics(metrics)
        assert remote.get("k") is None  # live round trip
        server.stop()
        assert remote.get("other") is None  # fails, reconnects, degrades
        assert remote.degraded is True
        assert remote.errors == 2  # the failure and the failed retry
        assert metrics.counter("repro_cachenet_errors").total() == 2
        assert metrics.counter("repro_cachenet_reconnects_total").total() == 1
        # Past degradation the tier is a local no-op: no new errors.
        remote.put("k", {"v": 1})
        assert remote.get("k") is None
        assert len(remote) == 0
        assert remote.errors == 2
        remote.close()

    def test_reconnect_recovers_across_a_server_restart(self, tmp_path):
        path = tmp_path / "cache.sock"
        first = CacheServer(LRUCache(), socket_path=path)
        first.start()
        remote = RemoteCache.from_address(first.address)
        try:
            remote.put("k", {"v": 1})
            first.stop()
            second = CacheServer(LRUCache(), socket_path=path)
            second.start()
            try:
                # The held connection is dead; one fresh connection to the
                # restarted server answers, and the tier stays healthy.
                assert remote.get("k") is None  # new server, empty cache
                assert remote.degraded is False
                assert remote.errors == 1
            finally:
                second.stop()
        finally:
            remote.close()

    def test_requests_counter_labels_by_op(self, server):
        remote = RemoteCache.from_address(server.address)
        metrics = MetricsRegistry()
        remote.bind_metrics(metrics)
        try:
            remote.put("k", {"v": 1})
            remote.get("k")
            remote.prefetch(["other"])
            requests = metrics.counter("repro_cachenet_requests_total")
            assert requests.value(op="put") == 1
            assert requests.value(op="get") == 1
            assert requests.value(op="get_many") == 1
        finally:
            remote.close()


    def test_over_limit_responses_degrade_instead_of_failing_the_run(
        self, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "MAX_FRAME_CHARS", 64)
        server = ReplyServer(json.dumps({"ok": True, "pad": "x" * 200}))
        try:
            remote = RemoteCache.from_address(server.address)
            assert remote.get("k") is None
            assert remote.degraded is True
            assert remote.errors == 2  # the oversized frame and the retry
            assert server.connections == 2
            # A run over a stack with this tier behind it still succeeds.
            rng = random.Random(5)
            base = random_circuit(4, 10, rng)
            pairs = [make_instance(base, EquivalenceType.I_N, rng)[:2]]
            service = MatchingService(
                cache=TieredCache(LRUCache(), RemoteCache.from_address(server.address))
            )
            report = service.match_pairs(pairs, equivalence="I-N", seed=1)
            assert report.matched == 1 and report.failed == 0
        finally:
            server.close()


class TestTiering:
    def test_build_cache_mounts_the_remote_tier_behind_local(self, server):
        cache = build_cache(memory_size=8, remote=server.address)
        assert isinstance(cache, TieredCache)
        remote = cache.slow
        assert isinstance(remote, RemoteCache)
        try:
            # A write goes through every tier; a fresh local tier then
            # promotes the remote hit on its way back up.
            cache.put("k", {"v": 1})
            assert server.cache.get("k") == {"v": 1}
            cold = build_cache(memory_size=8, remote=server.address)
            try:
                assert cold.get("k") == {"v": 1}
                assert cold.fast.stats.stores == 1  # promoted into memory
                server_lookups = server.cache.stats.lookups
                assert cold.get("k") == {"v": 1}  # now answered locally
                assert server.cache.stats.lookups == server_lookups
            finally:
                cold.slow.close()
        finally:
            remote.close()

    def test_tiered_prefetch_reaches_the_remote_member(self, server):
        server.cache.put("k", {"v": 1})
        cache = build_cache(memory_size=8, remote=server.address)
        try:
            cache.prefetch(["k"])
            server_lookups = server.cache.stats.lookups
            assert cache.get("k") == {"v": 1}
            assert server.cache.stats.lookups == server_lookups
        finally:
            cache.slow.close()

    def test_remote_auth_token_is_presented(self, tmp_path):
        server = CacheServer(
            LRUCache(), socket_path=tmp_path / "cache.sock", auth_token="sesame"
        )
        server.start()
        try:
            authed = build_cache(
                remote=server.address, remote_auth_token="sesame"
            )
            try:
                authed.put("k", {"v": 1})
                assert server.cache.get("k") == {"v": 1}
            finally:
                authed.slow.close()
            # The wrong token degrades (the error frame is a wire failure
            # from the tier's point of view) — it must not fail the caller.
            unauthed = build_cache(remote=server.address)
            try:
                assert unauthed.get("k") is None
                assert unauthed.slow.degraded is True
            finally:
                unauthed.slow.close()
        finally:
            server.stop()
