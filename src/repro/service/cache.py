"""Result caches: in-memory LRU, on-disk store, and their tiered stack.

Caches map a :func:`~repro.service.fingerprint.pair_key` to a JSON record
``{"key": ..., "matcher": ..., "result": result_to_dict(...)}``.  Keeping
the value a plain JSON dict (rather than a live ``MatchingResult``) means
the memory tier, the disk tier and the JSONL run store all share one
format, and a cached entry read back from disk is byte-for-byte the entry
that was written.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from abc import ABC, abstractmethod
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ServiceError
from repro.obs.metrics import UNCOUNTED, BoundCounter, MetricsRegistry
from repro.service.fingerprint import KEY_PREFIX, scheme_label

__all__ = [
    "CacheStats",
    "ResultCache",
    "LRUCache",
    "DiskCache",
    "TieredCache",
    "build_cache",
    "migrate_cache",
]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/store counters of one cache: an immutable read-out that
    :attr:`ResultCache.stats` builds from the registry on every read.

    Attributes:
        scheme_hits: hits broken down by the fingerprint scheme(s) of the
            hitting key (``"exact"``, ``"probe"``, ``"structure"``, a
            ``"a+b"`` mix, or ``"unversioned"`` for foreign keys) — how
            the daemon's ``stats`` op reports where warm traffic comes
            from per scheme.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    scheme_hits: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry, tier: str) -> "CacheStats":
        """The ``repro_cache_*_total`` series of one ``tier`` label."""

        def by_scheme(event: str) -> Counter:
            counts = Counter()
            for sample in registry.samples(f"repro_cache_{event}_total"):
                if sample["labels"]["tier"] == tier:
                    counts[sample["labels"].get("scheme")] += sample["value"]
            return counts

        hits = by_scheme("hits")
        return cls(
            hits=hits.total(),
            misses=by_scheme("misses").total(),
            stores=by_scheme("stores").total(),
            evictions=by_scheme("evictions").total(),
            scheme_hits=dict(hits),
        )

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when none were made)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-ready counters — the shape the daemon's ``stats`` op reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "scheme_hits": {
                label: self.scheme_hits[label]
                for label in sorted(self.scheme_hits)
            },
        }


class ResultCache(ABC):
    """A key -> JSON-record store with hit/miss accounting.

    Thread-safe at the public surface: the daemon shares one cache
    between its worker thread (which reads and writes entries) and its
    handler threads (whose ``stats`` op reads the counters), so ``get``
    and ``put`` serialise entry access *and* counting under one
    re-entrant lock.  Subclass hooks (``_get``/``_put``) always run with
    the lock held and must not take it themselves.

    Counts live only in a :class:`~repro.obs.metrics.MetricsRegistry`
    as ``repro_cache_*_total{tier}`` series (hits also by key ``scheme``,
    see ``docs/observability.md``): a private registry until
    :meth:`bind_metrics` swaps in a shared one.  :attr:`stats` reads
    them back, so caches sharing a registry and a tier label share counts.
    Each series is counted through a child bound once per registry
    (:meth:`~repro.obs.metrics.Counter.labels`), so a lookup sorts no
    labels and looks up no metric name.
    """

    metrics_tier = "cache"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._bind_counters(MetricsRegistry())
        self._metrics_private = True

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Count into ``registry`` from now on.

        Counts made while the cache still had its private registry move
        into ``registry``, so binding a used cache neither loses nor
        double-counts; binding the bound registry again is a no-op.  The
        counter children are bound to ``registry`` afresh.
        """
        with self._lock:
            if registry is self._metrics:
                return
            if self._metrics_private:
                snapshot = self._metrics.snapshot()["metrics"]
                for name, metric in sorted(snapshot.items()):
                    for sample in metric["samples"]:
                        registry.counter(name).inc(
                            sample["value"], **sample["labels"]
                        )
            self._bind_counters(registry)
            self._metrics_private = False

    def _bind_counters(self, registry: MetricsRegistry) -> None:
        """Point this tier's counter children at ``registry``."""
        tier = self.metrics_tier
        self._metrics = registry
        self._hits = registry.counter("repro_cache_hits_total")
        self._hits_by_scheme: dict[str, BoundCounter] = {}
        self._misses, self._stores, self._evictions = (
            registry.counter(f"repro_cache_{event}_total").labels(tier=tier)
            for event in ("misses", "stores", "evictions")
        )

    def _hit_label(self, key: str) -> str:
        """The scheme label a hit on ``key`` counts under: parsed off the key."""
        return scheme_label(key)

    def _count_hit(self, key: str) -> None:
        """Count one hit under the scheme label of ``key``."""
        label = self._hit_label(key)
        child = self._hits_by_scheme.get(label)
        if child is None:
            child = self._hits_by_scheme[label] = self._hits.labels(
                tier=self.metrics_tier, scheme=label
            )
        child.inc()

    @property
    def stats(self) -> CacheStats:
        """This tier's counters, read out of its bound registry."""
        with self._lock:
            return CacheStats.from_registry(self._metrics, self.metrics_tier)

    @abstractmethod
    def _get(self, key: str) -> dict | None:
        """Fetch the record for ``key`` or ``None``."""

    @abstractmethod
    def _put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (overwriting)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of records currently stored."""

    def get(self, key: str) -> dict | None:
        """Look up ``key``, counting a hit (by key scheme) or a miss."""
        with self._lock:
            record = self._get(key)
            if record is None:
                self._misses.inc()
            else:
                self._count_hit(key)
            return record

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key``, counting the store."""
        with self._lock:
            self._put(key, record)
            self._stores.inc()

    def prefetch(self, keys) -> None:
        """A hint that ``get`` will be asked for ``keys`` soon.

        A local tier answers each ``get`` directly and ignores it; a
        :class:`~repro.cachenet.remote.RemoteCache` resolves the whole
        batch in one round trip.
        """


class LRUCache(ResultCache):
    """Bounded in-memory cache with least-recently-used eviction.

    Each record is filed with its key's scheme label, parsed once when
    it is stored, so a hit is counted without parsing its key again.
    """

    metrics_tier = "memory"

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__()
        if maxsize <= 0:
            raise ValueError(f"LRU cache needs a positive maxsize, got {maxsize}")
        self._maxsize = maxsize
        #: key -> (record, scheme label), least recently used first.
        self._entries: OrderedDict[str, tuple[dict, str]] = OrderedDict()

    @property
    def maxsize(self) -> int:
        """Capacity in records."""
        return self._maxsize

    def _get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def _hit_label(self, key: str) -> str:
        return self._entries[key][1]

    def _put(self, key: str, record: dict) -> None:
        self._entries[key] = (record, scheme_label(key))
        self._entries.move_to_end(key)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions.inc()

    def __len__(self) -> int:
        return len(self._entries)


class DiskCache(ResultCache):
    """One-JSON-file-per-key cache surviving process restarts.

    Filenames are the SHA-256 of the key, so arbitrary key strings are
    safe; the full key is stored inside the record and checked on read, so
    a (cosmically unlikely) filename collision degrades to a miss rather
    than a wrong result.  Writes go through a per-process temp file +
    ``os.replace`` so a crash mid-write leaves no torn record, two shard
    runs sharing a cache directory never clobber each other's in-flight
    writes, and an unreadable or corrupt file reads as a miss.
    """

    metrics_tier = "disk"

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__()
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        """The backing directory."""
        return self._directory

    def _path(self, key: str) -> Path:
        name = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self._directory / f"{name}.json"

    def _get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except OSError:
            # Missing file: the ordinary miss.  Other I/O refusals read
            # as misses too — correctness never depends on a hit.
            return None
        except ValueError:
            # Torn entry.  Our own writers publish atomically (temp file
            # + os.replace), but a cache directory shared over NFS-style
            # storage can expose a reader to a partially synced file —
            # truncated JSON or even invalid UTF-8 (UnicodeDecodeError
            # is a ValueError, not a JSONDecodeError).  Mirror the
            # result store's torn-line rule: warn, count it a miss, and
            # let the pair re-run.
            warnings.warn(
                f"{path}: skipping undecodable cache entry "
                "(torn shared-disk write?); treating as a miss",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        if not isinstance(envelope, dict):
            warnings.warn(
                f"{path}: cache entry is not an envelope object; "
                "treating as a miss",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        if envelope.get("key") != key:
            return None
        record = envelope.get("record")
        return record if isinstance(record, dict) else None

    def _put(self, key: str, record: dict) -> None:
        path = self._path(key)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"key": key, "record": record}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self._directory.glob("*.json"))


class TieredCache(ResultCache):
    """A fast tier in front of a persistent tier (read-through, write-both).

    Hits in the slow tier are promoted into the fast tier; every store goes
    to both, so the slow tier is the authoritative record set.

    The stack counts nothing itself; :attr:`stats` is read out of its
    members: fast + slow hits, the slow member's misses and stores (every
    stack miss and store reaches it exactly once), evictions and
    per-scheme hits summed.  Nested stacks recurse through the same rule.
    """

    def __init__(self, fast: ResultCache, slow: ResultCache) -> None:
        super().__init__()
        self._fast = fast
        self._slow = slow

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Bind both member tiers (each counts under its own label)."""
        # Outside our own lock: each member tier serialises the assignment
        # under its own lock, and nesting their locks inside ours would
        # invert the get/put ordering.
        self._fast.bind_metrics(registry)
        self._slow.bind_metrics(registry)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            fast, slow = self._fast.stats, self._slow.stats
        return CacheStats(
            hits=fast.hits + slow.hits,
            misses=slow.misses,
            stores=slow.stores,
            evictions=fast.evictions + slow.evictions,
            scheme_hits=dict(
                Counter(fast.scheme_hits) + Counter(slow.scheme_hits)
            ),
        )

    def _bind_counters(self, registry: MetricsRegistry) -> None:
        """Count nothing: the member tiers count what they serve."""
        self._metrics = registry
        self._misses = self._stores = self._evictions = UNCOUNTED

    def _count_hit(self, key: str) -> None:
        """Nothing: the member tier that hit counted it."""

    @property
    def fast(self) -> ResultCache:
        """The front (typically in-memory) tier."""
        return self._fast

    @property
    def slow(self) -> ResultCache:
        """The authoritative (typically on-disk) tier."""
        return self._slow

    def prefetch(self, keys) -> None:
        """Forward a batch-lookup hint to both member tiers.

        Stats are untouched — lookups are counted when ``get`` consumes
        them.  Deliberately outside this tier's lock, mirroring
        :meth:`bind_metrics`: each member serialises under its own lock.
        """
        self._fast.prefetch(keys)
        self._slow.prefetch(keys)

    def _get(self, key: str) -> dict | None:
        record = self._fast.get(key)
        if record is not None:
            return record
        record = self._slow.get(key)
        if record is not None:
            self._fast.put(key, record)
        return record

    def _put(self, key: str, record: dict) -> None:
        self._fast.put(key, record)
        self._slow.put(key, record)

    def __len__(self) -> int:
        return len(self._slow)


def build_cache(
    memory_size: int = 4096,
    disk_dir: str | os.PathLike | None = None,
    remote: str | None = None,
    remote_auth_token: str | None = None,
) -> ResultCache:
    """The standard cache stack: LRU, optional disk tier, optional remote tier.

    With ``remote`` (a ``unix:<path>`` / ``tcp:<host>:<port>`` cache-server
    address, see ``docs/remote-cache.md``) the local stack fronts a
    :class:`~repro.cachenet.remote.RemoteCache`: local misses fall
    through to the shared server, remote hits are promoted locally, and
    every store is written through — so a fleet of runs shares one
    warm-hit pool.  The remote tier degrades to a no-op if the server is
    unreachable; it can slow a run down, never fail one.
    """
    memory = LRUCache(maxsize=memory_size)
    local: ResultCache = memory
    if disk_dir is not None:
        local = TieredCache(memory, DiskCache(disk_dir))
    if remote is None:
        return local
    # Lazy import: repro.cachenet imports this module for the cache
    # contract, so the service layer must only reach back at call time.
    from repro.cachenet.remote import RemoteCache

    return TieredCache(
        local, RemoteCache.from_address(remote, auth_token=remote_auth_token)
    )


def migrate_cache(
    directory: str | os.PathLike, *, drop_v1: bool = False
) -> dict:
    """Inventory (and optionally clean) a disk cache across key versions.

    v1 entries can never be replayed under the v2 key contract — their
    keys lack the ``v2|`` prefix, so every v2 lookup hashes to a
    different filename and reads as a clean miss.  They only cost disk
    space; this is the ``repro cache migrate`` maintenance path that
    reclaims it.

    Args:
        directory: a :class:`DiskCache` backing directory.
        drop_v1: delete every entry that is not a current-version record
            (v1 keys and unreadable envelopes alike — neither can ever
            hit again).

    Returns:
        Counters: ``{"v2": ..., "v1": ..., "unreadable": ..., "dropped": ...}``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ServiceError(f"{directory}: not a cache directory")
    counts = {"v2": 0, "v1": 0, "unreadable": 0, "dropped": 0}
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            key = envelope.get("key") if isinstance(envelope, dict) else None
        except (OSError, json.JSONDecodeError):
            key = None
            counts["unreadable"] += 1
        else:
            if isinstance(key, str) and key.startswith(KEY_PREFIX):
                counts["v2"] += 1
                continue
            counts["v1"] += 1
        if drop_v1:
            path.unlink(missing_ok=True)
            counts["dropped"] += 1
    return counts
