"""Unit tests for the result caches and their pair keys."""

from __future__ import annotations

import json
import random
import threading
import warnings
from collections import OrderedDict

import pytest

from repro.circuits import library
from repro.circuits.random import random_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import (
    DiskCache,
    LRUCache,
    TieredCache,
    build_cache,
    migrate_cache,
)
from repro.service.fingerprint import (
    OracleFingerprint,
    build_registry,
    config_digest,
    pair_key,
    scheme_label,
)


def _record(tag: str) -> dict:
    return {"matcher": tag, "result": {"queries": 1}}


def _key(circuit, equivalence=EquivalenceType.I_I, config=MatchingConfig()):
    """The v2 cache key of the pair (circuit, circuit) under ``config``."""
    registry = build_registry(config.fingerprint_scheme, probe_count=config.probe_count)
    fingerprint = registry.fingerprint(circuit, with_inverse=config.with_inverse)
    return pair_key(fingerprint, fingerprint, equivalence, config)


class TestLRUCache:
    def test_roundtrip_and_stats(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("missing") is None
        cache.put("key", _record("a"))
        assert cache.get("key") == _record("a")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", _record("a"))
        cache.put("b", _record("b"))
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", _record("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        directory = tmp_path / "cache"
        DiskCache(directory).put("key", _record("a"))
        reopened = DiskCache(directory)
        assert reopened.get("key") == _record("a")
        assert len(reopened) == 1

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        for path in tmp_path.glob("*.json"):
            path.write_text("{ torn", encoding="utf-8")
        assert cache.get("key") is None

    def test_envelope_key_mismatch_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        envelope = json.loads(path.read_text())
        envelope["key"] = "some-other-key"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.get("key") is None

    def test_torn_entry_warns_misses_and_is_repaired_by_writeback(
        self, tmp_path
    ):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        # A reader on NFS-style shared storage can see a half-synced
        # file even though our own writers publish atomically.
        path.write_text('{"key": "key", "rec', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="torn shared-disk write"):
            assert cache.get("key") is None
        cache.put("key", _record("a"))  # the recomputation's write-back
        assert cache.get("key") == _record("a")

    def test_invalid_utf8_warns_and_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        path.write_bytes(b"\xff\xfe not a utf-8 json file")
        with pytest.warns(RuntimeWarning, match="undecodable cache entry"):
            assert cache.get("key") is None

    def test_non_object_envelope_warns_and_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        path.write_text('["not", "an", "envelope"]', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="not an envelope object"):
            assert cache.get("key") is None

    def test_unreadable_file_is_a_silent_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        path.unlink()
        path.mkdir()  # open() now refuses with an OSError, not a parse error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("key") is None


class TestTieredCache:
    def test_put_writes_both_and_slow_hit_promotes(self, tmp_path):
        fast, slow = LRUCache(maxsize=8), DiskCache(tmp_path)
        tiered = TieredCache(fast, slow)
        tiered.put("key", _record("a"))
        assert len(fast) == 1 and len(slow) == 1

        cold_fast = LRUCache(maxsize=8)
        tiered = TieredCache(cold_fast, slow)
        assert tiered.get("key") == _record("a")  # served by the slow tier
        assert len(cold_fast) == 1  # ...and promoted

    def test_build_cache_shapes(self, tmp_path):
        assert isinstance(build_cache(), LRUCache)
        tiered = build_cache(disk_dir=tmp_path)
        assert isinstance(tiered, TieredCache)
        assert isinstance(tiered.slow, DiskCache)

    def test_concurrent_lookups_promote_exactly_once(self, tmp_path):
        """Two threads race a cold fast tier onto the same slow-tier hit:
        the wrapper's lock serialises them, so the entry is promoted into
        L1 exactly once and the books still balance."""
        slow = DiskCache(tmp_path)
        slow.put("key", _record("a"))
        fast = LRUCache(maxsize=8)
        tiered = TieredCache(fast, slow)

        barrier = threading.Barrier(2)
        results: list[dict | None] = []

        def lookup() -> None:
            barrier.wait()
            results.append(tiered.get("key"))

        threads = [threading.Thread(target=lookup) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert results == [_record("a"), _record("a")]
        assert fast.stats.stores == 1  # exactly one L1 promotion
        assert len(fast) == 1
        stats = tiered.stats
        assert stats.hits == 2 and stats.misses == 0
        assert stats.hits + stats.misses == stats.lookups == 2


def _tier_counts(registry: MetricsRegistry, event: str) -> dict[str, int]:
    """``{tier: count}`` of one ``repro_cache_<event>_total`` series."""
    metric = registry.snapshot()["metrics"].get(f"repro_cache_{event}_total")
    counts: dict[str, int] = {}
    for sample in metric["samples"] if metric else ():
        tier = sample["labels"]["tier"]
        counts[tier] = counts.get(tier, 0) + sample["value"]
    return counts


class TestCountersLiveInTheRegistry:
    def test_nested_stack_counts_once_per_leaf_tier(self, tmp_path):
        # Memory and disk in front of an unreachable remote tier: what
        # `repro run --cache-dir D --remote-cache A --metrics M` builds.
        cache = build_cache(
            disk_dir=tmp_path / "disk",
            remote=f"unix:{tmp_path / 'nobody.sock'}",
        )
        metrics = MetricsRegistry()
        cache.bind_metrics(metrics)
        cache.put("key", _record("a"))
        assert cache.get("key") == _record("a")
        assert cache.get("other") is None

        assert _tier_counts(metrics, "hits") == {"memory": 1}
        assert _tier_counts(metrics, "misses") == {
            "memory": 1, "disk": 1, "remote": 1,
        }
        assert _tier_counts(metrics, "stores") == {
            "memory": 1, "disk": 1, "remote": 1,
        }
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "evictions": 0,
            "scheme_hits": {"unversioned": 1},
        }

    def test_binding_a_used_cache_keeps_its_counts(self, tmp_path):
        cache = build_cache(memory_size=1, disk_dir=tmp_path)
        cache.put("a", _record("a"))
        cache.put("b", _record("b"))  # evicts a from memory
        cache.get("a")  # memory miss, disk hit, promoted (evicts b)
        cache.get("nowhere")
        before = cache.stats
        assert before.as_dict() == {
            "hits": 1, "misses": 1, "stores": 2, "evictions": 2,
            "scheme_hits": {"unversioned": 1},
        }

        metrics = MetricsRegistry()
        cache.bind_metrics(metrics)
        cache.bind_metrics(metrics)  # binding again moves nothing twice
        assert cache.stats == before
        assert _tier_counts(metrics, "stores") == {"memory": 3, "disk": 2}
        assert _tier_counts(metrics, "evictions") == {"memory": 2}

        cache.get("a")
        assert cache.stats.hits == before.hits + 1
        assert _tier_counts(metrics, "hits") == {"memory": 1, "disk": 1}

    @pytest.mark.parametrize("bind_at", [0, 60, 200])
    def test_counts_equal_labelled_incs_however_late_bound(self, bind_at):
        # The cache counts through bound children; a reference registry
        # counts the same lookups with inc(**labels), the pre-binding rule.
        fingerprints = [
            OracleFingerprint(4, kind, f"{index:064x}", False, scheme)
            for index, (kind, scheme) in enumerate(
                [("function", "exact"), ("probe", "probe"), ("structure", "structure")]
            )
        ]
        digest = config_digest(MatchingConfig())
        keys = [
            pair_key(first, second, EquivalenceType.I_I, digest)
            for first in fingerprints
            for second in fingerprints
        ] + ["unversioned-a", "unversioned-b"]
        rng = random.Random(bind_at)
        cache, metrics, reference = LRUCache(maxsize=3), MetricsRegistry(), MetricsRegistry()
        shadow: OrderedDict[str, None] = OrderedDict()
        for step in range(200):
            if step == bind_at:
                cache.bind_metrics(metrics)
            key = rng.choice(keys)
            if rng.random() < 0.4:
                cache.put(key, _record(key))
                shadow[key] = None
                shadow.move_to_end(key)
                reference.counter("repro_cache_stores_total").inc(tier="memory")
                while len(shadow) > 3:
                    shadow.popitem(last=False)
                    reference.counter("repro_cache_evictions_total").inc(tier="memory")
            elif cache.get(key) is not None:
                shadow.move_to_end(key)
                reference.counter("repro_cache_hits_total").inc(
                    tier="memory", scheme=scheme_label(key)
                )
            else:
                assert key not in shadow
                reference.counter("repro_cache_misses_total").inc(tier="memory")
        cache.bind_metrics(metrics)
        assert metrics.snapshot() == reference.snapshot()
        assert set(cache.stats.scheme_hits) == {
            sample["labels"]["scheme"]
            for sample in reference.samples("repro_cache_hits_total")
        }

    def test_stats_are_an_immutable_read_out(self):
        cache = LRUCache()
        stats = cache.stats
        with pytest.raises(AttributeError):
            stats.hits += 1
        cache.get("key")
        assert stats.misses == 0 and cache.stats.misses == 1


class TestPairKeys:
    def test_wide_pair_is_cacheable_via_probe_fingerprints(self, rng):
        """v1 stranded wide pairs on structural identity; the probe tier
        keys them functionally, so a resynthesised representation hits."""
        circuit = library.increment(16)
        key = _key(circuit)
        assert ":probe:" in key
        # A structurally different but functionally equal representation
        # computes the same key — the hit v1 could never produce.
        twin = circuit.copy()
        gate = random_circuit(16, 1, rng).gates[0]
        twin.append(gate)
        twin.append(gate)  # self-inverse: applied twice == identity
        assert _key(twin) == key

    def test_a_different_policy_is_a_different_key(self, rng):
        circuit = random_circuit(4, 12, rng)
        cache = LRUCache()
        cache.put(_key(circuit, EquivalenceType.I_P), _record("i-p/x"))
        loose = _key(circuit, EquivalenceType.I_P, MatchingConfig(epsilon=0.5))
        assert loose != _key(circuit, EquivalenceType.I_P)
        assert cache.get(loose) is None

    def test_mutation_in_place_is_not_served_a_stale_key(self, rng):
        # Nothing memoises a key per circuit object: mutating a circuit in
        # place and keying it again recomputes the fingerprint.
        circuit = random_circuit(4, 8, rng)
        cache = LRUCache()
        key_before = _key(circuit)
        cache.put(key_before, _record("x"))
        circuit.append(random_circuit(4, 1, rng).gates[0])
        assert _key(circuit) != key_before
        assert cache.get(_key(circuit)) is None

    def test_injected_registry_overrides_the_config(self, rng):
        circuit = random_circuit(4, 8, rng)
        config = MatchingConfig()  # auto: 4 lines would be exact
        assert ":probe:" not in _key(circuit, config=config)
        fingerprint = build_registry("probe").fingerprint(circuit)
        key = pair_key(fingerprint, fingerprint, EquivalenceType.I_I, config)
        assert ":probe:" in key


class TestSchemeHitCounters:
    def test_hits_are_attributed_per_scheme(self, rng):
        cache = LRUCache()
        narrow = random_circuit(4, 8, rng)
        wide = library.increment(16)
        for key in (_key(narrow), _key(wide)):
            cache.put(key, _record("x"))
            cache.get(key)
            cache.get(key)
        cache.get("not a versioned key")  # miss: no scheme attribution
        assert cache.stats.scheme_hits == {"exact": 2, "probe": 2}
        assert cache.stats.hits == 4 and cache.stats.misses == 1

    def test_foreign_keys_count_as_unversioned(self):
        cache = LRUCache()
        cache.put("v1-style-key", _record("x"))
        cache.get("v1-style-key")
        assert cache.stats.scheme_hits == {"unversioned": 1}


class TestMigrateCache:
    def _plant_v1(self, directory, name="00aa.json"):
        path = directory / name
        path.write_text(
            json.dumps(
                {
                    "key": "I-P|4:function:fwd:ab|4:function:fwd:ab|0123",
                    "record": _record("v1"),
                }
            )
        )
        return path

    def test_v1_entries_are_clean_misses_for_v2_lookups(self, tmp_path, rng):
        disk = DiskCache(tmp_path)
        self._plant_v1(tmp_path)
        circuit = random_circuit(4, 8, rng)
        assert disk.get(_key(circuit, EquivalenceType.I_P)) is None

    def test_migrate_counts_by_version(self, tmp_path, rng):
        disk = DiskCache(tmp_path)
        key = _key(random_circuit(4, 8, rng), EquivalenceType.I_P)
        disk.put(key, _record("v2"))
        self._plant_v1(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        counts = migrate_cache(tmp_path)
        assert counts == {"v2": 1, "v1": 1, "unreadable": 1, "dropped": 0}
        assert len(disk) == 3  # a dry run deletes nothing

    def test_drop_v1_deletes_only_stale_entries(self, tmp_path, rng):
        disk = DiskCache(tmp_path)
        key = _key(random_circuit(4, 8, rng), EquivalenceType.I_P)
        disk.put(key, _record("v2"))
        self._plant_v1(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        counts = migrate_cache(tmp_path, drop_v1=True)
        assert counts["dropped"] == 2
        assert len(disk) == 1
        assert disk.get(key) == _record("v2")  # current entries survive

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(ServiceError):
            migrate_cache(tmp_path / "nope")
