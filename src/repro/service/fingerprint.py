"""Oracle identity: one versioned, three-tier fingerprint ladder.

A fingerprint identifies *what function* an oracle hides, not which Python
object wraps it, so two batches (or two processes, or two runs on
different days) that match the same pair under the same policy can share
one cached result.  A :class:`FingerprintRegistry` holds a config's two
fingerprint knobs (``fingerprint_scheme`` and ``probe_count``) and
answers with the first tier the scheme allows:

1. ``exact`` — a digest of the full truth table.  Canonical: any two
   representations of the same reversible function collide.  Exponential
   in the bit width, so it only applies up to
   :data:`FUNCTIONAL_WIDTH_LIMIT` lines.
2. ``probe`` — a digest of the function's outputs on a deterministic
   pseudo-random probe set derived from ``sha256(width:probe_salt)``.
   Width-independent and canonical across representations (a circuit,
   its resynthesis, the tabulated permutation, an opaque oracle's
   white-box peek all collide), at the cost of a *probabilistic*
   distinctness guarantee: two functions differing in ``d`` of the
   ``2**n`` truth-table entries collide with probability
   ``(1 - d/2**n)**probe_count``.  Random different functions
   essentially never collide; an adversarial near-miss differing in a
   handful of entries can — which is why distinctness-critical corpora
   (:mod:`repro.service.workload`'s ``wide`` family) place their
   perturbations on the probe set, and why ``exact`` remains available.
   An opaque oracle costs ``probe_count`` white-box evaluations at any
   width, never a ``2**n``-entry tabulation.
3. ``structure`` — a digest of the gate cascade.  Cheap at any width but
   only structural; the last-resort fallback (a structural mismatch is a
   cache miss, never a wrong hit).

Fingerprints and pair keys are **versioned**: fingerprint key fragments
render as ``fp/v2:...`` and pair keys carry the ``v2|`` prefix, so caches
and result stores written under the v1 contract read as clean misses —
never as wrong hits — once the identity scheme changes (see
``repro cache migrate`` for dropping stale v1 entries).

The cache key for a matched pair (:func:`pair_key`) combines both
fingerprints with the equivalence class and a digest of the
:class:`~repro.core.engine.MatchingConfig` policy, because the policy
changes what a matcher may do (inverse access, quantum access, budgets,
and now the fingerprint scheme itself) and therefore what is cached.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import asdict, dataclass

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import FingerprintError
from repro.oracles.oracle import CircuitOracle, ReversibleOracle, as_oracle
from repro.quantum.oracle import QuantumCircuitOracle

__all__ = [
    "FUNCTIONAL_WIDTH_LIMIT",
    "DEFAULT_PROBE_COUNT",
    "PROBE_SALT",
    "FP_VERSION",
    "KEY_VERSION",
    "KEY_PREFIX",
    "FINGERPRINT_SCHEMES",
    "CONTENT_MEMO_SIZE",
    "RACY_WINDOW_NS",
    "stat_signature",
    "stat_clock",
    "stat_vouches",
    "OracleFingerprint",
    "FingerprintRegistry",
    "build_registry",
    "probe_inputs",
    "effective_inverse",
    "content_digest",
    "content_memo_clear",
    "content_memo_size",
    "fingerprint",
    "config_digest",
    "pair_key",
    "pair_key_schemes",
    "scheme_label",
]

#: Widest circuit whose truth table is tabulated for an exact functional
#: fingerprint; beyond it the ladder falls through to the next tier
#: (sampled probes in ``auto`` mode, gate structure in ``exact`` mode).
FUNCTIONAL_WIDTH_LIMIT = 14

#: Probes per sampled-probe fingerprint unless configured otherwise.
DEFAULT_PROBE_COUNT = 64

#: Salt mixed into the probe-set derivation; part of the digest payload,
#: so changing it (a new key version) can never replay old digests.
PROBE_SALT = "repro-probe"

#: Version stamped on every fingerprint (the ``fp/v2`` key fragment).
FP_VERSION = 2

#: Version prefix of every pair key.  v1 keys had no prefix, so v1 cache
#: and store entries are textually disjoint from v2 ones: clean misses.
KEY_VERSION = "v2"
KEY_PREFIX = KEY_VERSION + "|"

#: The schemes ``build_registry`` accepts (and the CLI exposes).
FINGERPRINT_SCHEMES = ("auto", "exact", "probe")

#: Most entries the process-wide content memo
#: (:meth:`FingerprintRegistry.fingerprint_file`) and the stat memo behind
#: :func:`content_digest` each hold; beyond it the least recently used
#: entry is evicted.
CONTENT_MEMO_SIZE = 16384

#: A memoised file digest is trusted only if it was taken more than this
#: long after the file's last change (its mtime and its ctime).  A file
#: changed again within one timestamp tick of being hashed can keep its
#: whole stat tuple ("racy git", git's
#: ``Documentation/technical/racy-git.txt``), so such entries are always
#: rehashed.  2 s covers the coarsest timestamps in common use (FAT's 2 s
#: mtime) and small clock offsets between a host and a network
#: filesystem; rereading a file younger than that costs only a rehash.
RACY_WINDOW_NS = 2_000_000_000


@dataclass(frozen=True)
class OracleFingerprint:
    """Identity of one oracle for caching purposes.

    Attributes:
        num_lines: bit width of the hidden function.
        kind: ``"function"`` (truth-table digest, canonical),
            ``"probe"`` (sampled-probe digest, canonical up to probe
            collisions) or ``"structure"`` (gate-cascade digest).
        digest: hex SHA-256 of the canonical payload.
        with_inverse: whether matchers get inverse access to this oracle —
            part of the identity because it changes which algorithm runs.
        scheme: the ladder tier that produced the fingerprint
            (``exact`` / ``probe`` / ``structure``).
        version: fingerprint contract version (:data:`FP_VERSION`).
    """

    num_lines: int
    kind: str
    digest: str
    with_inverse: bool = False
    scheme: str = "exact"
    version: int = FP_VERSION

    @functools.cached_property
    def key(self) -> str:
        """The fingerprint rendered as a stable, versioned key fragment.

        Rendered once per fingerprint: the content memo hands a run the
        same objects it handed the last one.
        """
        access = "inv" if self.with_inverse else "fwd"
        return (
            f"fp/v{self.version}:{self.num_lines}:{self.scheme}:"
            f"{self.kind}:{access}:{self.digest}"
        )


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _width(target) -> int | None:
    """The bit width of a fingerprintable target, or None for foreign types."""
    if isinstance(target, Permutation):
        return target.num_bits
    if isinstance(target, (ReversibleCircuit, ReversibleOracle)):
        return target.num_lines
    if isinstance(target, QuantumCircuitOracle):
        return target.num_qubits
    return None


def _white_box(target) -> ReversibleOracle:
    """An uncharged classical view of a fingerprintable target.

    Circuits and permutations are wrapped, a quantum oracle contributes
    its hidden permutation, and classical oracles — opaque or not — are
    used as they are.  Fingerprints only ever call the white-box hatches
    (``peek_table``, ``evaluate_many``), which charge no queries.
    """
    if isinstance(target, QuantumCircuitOracle):
        target = target.permutation
    return as_oracle(target)


@functools.lru_cache(maxsize=512)
def _probe_inputs_cached(
    num_lines: int, count: int, salt: str
) -> tuple[int, ...]:
    seed = hashlib.sha256(f"{num_lines}:{salt}".encode("utf-8")).digest()
    return tuple(
        int.from_bytes(
            hashlib.sha256(seed + index.to_bytes(8, "big")).digest()[:8],
            "big",
        )
        % (1 << num_lines)
        for index in range(count)
    )


def probe_inputs(
    num_lines: int, count: int, salt: str = PROBE_SALT
) -> list[int]:
    """The deterministic pseudo-random probe set for one bit width.

    Derived from ``sha256(f"{num_lines}:{salt}")`` expanded in counter
    mode — a pure function of ``(num_lines, count, salt)``, so every
    process, host and run derives the identical set (what makes probe
    digests canonical) and the expansion is memoised per ``(num_lines,
    count, salt)`` triple.  Duplicates are possible and kept: the digest
    is over the output *sequence*, so determinism matters more than
    coverage.
    """
    if count <= 0:
        raise FingerprintError(f"probe count must be positive, got {count}")
    return list(_probe_inputs_cached(num_lines, count, salt))


def effective_inverse(target, with_inverse: bool) -> bool:
    """The inverse access a fingerprint of ``target`` records.

    Pre-built oracles contribute their own availability; raw circuits and
    permutations take ``with_inverse`` (mirroring how the engine coerces
    them).  Quantum oracles have no inverse access by construction.
    """
    if isinstance(target, ReversibleOracle):
        return target.has_inverse
    if isinstance(target, QuantumCircuitOracle):
        return False
    return with_inverse


# ---------------------------------------------------------------------------
# Content memo
# ---------------------------------------------------------------------------
#: ``(content digest, scheme, probe_count, with_inverse)`` -> fingerprint, in
#: least-recently-used order.  Process-wide, so every service in the
#: process — each daemon job, each benchmark pass — shares it.  The width
#: limit and the probe salt are module constants, so they are not part of
#: the key: code that changes either must call :func:`content_memo_clear`.
_content_memo: OrderedDict[tuple, "OracleFingerprint"] = OrderedDict()
#: path -> ``(stat signature, digest, ns recorded)``, in least-recently-used
#: order: lets :func:`content_digest` skip reading a file whose stat
#: tuple has not changed since it was hashed.
_stat_memo: OrderedDict[str, tuple[tuple, str, int]] = OrderedDict()
_content_memo_lock = threading.Lock()

#: Wall-clock nanoseconds, compared with file timestamps.  It decides only
#: whether a memoised digest is trusted, never a digest's value.
_clock = time.time_ns


def stat_signature(stat: os.stat_result) -> tuple:
    """The ``(dev, ino, size, mtime_ns, ctime_ns)`` a stat-validated entry keeps."""
    return (
        stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns,
    )


def stat_clock() -> int:
    """The time to record a stat-validated entry under; take it before reading."""
    return _clock()


def stat_vouches(signature: tuple, recorded: tuple, recorded_ns: int) -> bool:
    """Whether an entry recorded at ``recorded_ns`` under the stat signature
    ``recorded`` still vouches for a file whose signature is ``signature``.

    The "racy git" rule: the signatures must be equal and the entry must
    have been recorded more than :data:`RACY_WINDOW_NS` after both the
    file's mtime and its ctime.  The one copy of the rule, shared by
    :func:`content_digest` and the ``repro report`` summary cache.
    """
    return (
        recorded == signature
        and recorded_ns - max(signature[3], signature[4]) > RACY_WINDOW_NS
    )


def content_digest(path: str | os.PathLike) -> str:
    """The hex SHA-256 of a circuit file's bytes: its content-memo identity.

    A file is read only when the stat memo cannot vouch for it: the memo
    answers from one ``os.stat`` when the file's device, inode, size,
    mtime and ctime all equal those recorded with its digest, and that
    digest was taken more than :data:`RACY_WINDOW_NS` after both
    timestamps.  Otherwise the file is opened, ``fstat``-ed, read and
    hashed, and the result recorded under the time taken before the open.
    A deleted file raises :class:`FileNotFoundError`.
    """
    name = os.fspath(path)
    signature = stat_signature(os.stat(name))
    with _content_memo_lock:
        digest = _vouched_digest(name, signature)
    if digest is not None:
        return digest
    recorded = stat_clock()
    with open(name, "rb") as handle:
        signature = stat_signature(os.fstat(handle.fileno()))
        digest = hashlib.sha256(handle.read()).hexdigest()
    with _content_memo_lock:
        _stat_memo[name] = (signature, digest, recorded)
        _stat_memo.move_to_end(name)
        while len(_stat_memo) > CONTENT_MEMO_SIZE:
            _stat_memo.popitem(last=False)
    return digest


def _vouched_digest(name: str, signature: tuple) -> str | None:
    """The stat memo's digest of ``name`` if it vouches for ``signature``.

    Call with ``_content_memo_lock`` held.
    """
    entry = _stat_memo.get(name)
    if entry is not None and stat_vouches(signature, entry[0], entry[2]):
        _stat_memo.move_to_end(name)
        return entry[1]
    return None


def _memo_lookup(key: tuple) -> "OracleFingerprint | None":
    """The content memo's fingerprint under ``key``, refreshed as recently
    used.  Call with ``_content_memo_lock`` held."""
    found = _content_memo.get(key)
    if found is not None:
        _content_memo.move_to_end(key)
    return found


def content_memo_clear() -> None:
    """Forget every memoised file fingerprint and digest (tests and benchmarks)."""
    with _content_memo_lock:
        _content_memo.clear()
        _stat_memo.clear()


# Test hook: how many fingerprints the memo holds.
# repro: allow[drift-test-only-api]
def content_memo_size() -> int:
    """The number of fingerprints the content memo holds right now."""
    with _content_memo_lock:
        return len(_content_memo)


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------
# The two evaluation helpers are module functions so that
# ``tests/scalar_reference.py`` can swap in its scalar loops and hold
# every digest byte-identical to them.
def _table(target) -> list[int]:
    """The full truth table; circuits go through the numpy kernel."""
    return _white_box(target).peek_table()


def _outputs(target, probes: list[int]) -> list[int]:
    """The target's responses on the probe set, in one batched call."""
    return _white_box(target).evaluate_many(probes)


@dataclass(frozen=True)
class FingerprintRegistry:
    """The oracle-identity policy one :class:`MatchingConfig` names.

    Its fields are the config's two fingerprint knobs, and
    :meth:`fingerprint` walks the three-tier ladder they select (see
    :func:`build_registry`).  The width limit and the probe salt are the
    module constants :data:`FUNCTIONAL_WIDTH_LIMIT` and
    :data:`PROBE_SALT`, read at call time.

    Raises:
        FingerprintError: on an unknown scheme, or a ``probe`` scheme
            without a positive probe count.
    """

    fingerprint_scheme: str = "auto"
    probe_count: int = DEFAULT_PROBE_COUNT

    def __post_init__(self) -> None:
        if self.fingerprint_scheme not in FINGERPRINT_SCHEMES:
            raise FingerprintError(
                f"unknown fingerprint scheme {self.fingerprint_scheme!r}; "
                f"known: {', '.join(FINGERPRINT_SCHEMES)}"
            )
        if self.fingerprint_scheme == "probe" and self.probe_count <= 0:
            raise FingerprintError(
                f"probe count must be positive, got {self.probe_count}"
            )

    def fingerprint(
        self, target, *, with_inverse: bool = False
    ) -> OracleFingerprint:
        """Fingerprint a circuit, permutation or oracle.

        The first tier the scheme allows and the target supports answers:

        1. ``exact`` — a digest of the full truth table, up to
           :data:`FUNCTIONAL_WIDTH_LIMIT` lines (not under ``probe``);
        2. ``probe`` — a digest of the outputs on
           ``probe_inputs(width, probe_count, PROBE_SALT)``, evaluated in
           one batched call (not under ``exact``, nor when
           ``probe_count`` is 0);
        3. ``structure`` — a digest of a circuit's gate cascade (not
           under ``probe``).

        Pre-built oracles contribute their own inverse availability; raw
        circuits and permutations take the ``with_inverse`` argument
        (:func:`effective_inverse`).  No tier charges oracle queries.

        Raises:
            FingerprintError: when no allowed tier supports the target
                (e.g. an opaque wide oracle under the ``exact`` scheme).
        """
        scheme = self.fingerprint_scheme
        width = _width(target)
        if width is None:
            raise FingerprintError(f"cannot fingerprint a {type(target).__name__}")
        with_inverse = effective_inverse(target, with_inverse)
        if scheme != "probe" and width <= FUNCTIONAL_WIDTH_LIMIT:
            table = _table(target)
            payload = "tt:" + ",".join(map(str, table))
            return OracleFingerprint(
                width, "function", _digest(payload), with_inverse, "exact"
            )
        if scheme != "exact" and self.probe_count > 0:
            outputs = _outputs(
                target, probe_inputs(width, self.probe_count, PROBE_SALT)
            )
            payload = f"probe:{PROBE_SALT}:{self.probe_count}:" + ",".join(
                map(str, outputs)
            )
            return OracleFingerprint(
                width, "probe", _digest(payload), with_inverse, "probe"
            )
        if scheme != "probe" and isinstance(target, (ReversibleCircuit, CircuitOracle)):
            circuit = target.circuit if isinstance(target, CircuitOracle) else target
            payload = "gates:" + ";".join(repr(gate) for gate in circuit.gates)
            return OracleFingerprint(
                width, "structure", _digest(payload), with_inverse, "structure"
            )
        raise FingerprintError(
            f"cannot fingerprint a {width}-line {type(target).__name__} "
            f"under the {scheme!r} scheme"
        )

    def fingerprint_file(
        self,
        path: str | os.PathLike,
        load: Callable[[], ReversibleCircuit],
        *,
        with_inverse: bool = False,
    ) -> OracleFingerprint:
        """Fingerprint the circuit in the file at ``path``.

        ``load()`` must parse that file when called.  The answer comes
        from the process-wide content memo when it holds
        ``(content_digest(path), fingerprint_scheme, probe_count,
        with_inverse)``; otherwise ``load()`` parses the file and
        :meth:`fingerprint` digests the circuit.  This is sound because
        equal bytes parse to equal gates, and no tier reads the one thing
        a parse takes from the file's path, the circuit name.  A miss is
        remembered only if the file still hashes the same after the
        parse, so a file rewritten mid-parse never files its new circuit
        under its old bytes.  :func:`content_digest` may answer from its
        stat memo, but this memo stays keyed by the bytes' digest, so a
        stale stat entry costs at worst a rehash.  The lock covers only
        the memo's dict operations, never the reads or the digest.  A file
        the stat memo vouches for is answered from one ``os.stat`` and one
        hold of the lock.
        """
        name = os.fspath(path)
        signature = stat_signature(os.stat(name))
        policy = (self.fingerprint_scheme, self.probe_count, with_inverse)
        with _content_memo_lock:
            content = _vouched_digest(name, signature)
            found = None if content is None else _memo_lookup((content, *policy))
        if found is not None:
            return found
        if content is None:
            content = content_digest(name)
            with _content_memo_lock:
                found = _memo_lookup((content, *policy))
            if found is not None:
                return found
        key = (content, *policy)
        found = self.fingerprint(load(), with_inverse=with_inverse)
        if content_digest(path) != content:
            return found
        with _content_memo_lock:
            _content_memo[key] = found
            _content_memo.move_to_end(key)
            while len(_content_memo) > CONTENT_MEMO_SIZE:
                _content_memo.popitem(last=False)
        return found


def build_registry(
    scheme: str = "auto", *, probe_count: int = DEFAULT_PROBE_COUNT
) -> FingerprintRegistry:
    """The policy for one of the :data:`FINGERPRINT_SCHEMES`.

    * ``auto`` — exact up to :data:`FUNCTIONAL_WIDTH_LIMIT` lines,
      sampled probes beyond, structure as the last resort
      (``probe_count=0`` skips the probe tier, restoring the v1
      exact-then-structure behaviour).
    * ``exact`` — exact up to the limit, structure beyond; opaque wide
      oracles are unfingerprintable (bypass the cache).
    * ``probe`` — sampled probes at every width.
    """
    return FingerprintRegistry(scheme, probe_count)


def fingerprint(target, *, with_inverse: bool = False) -> OracleFingerprint:
    """Fingerprint ``target`` under the default ``auto`` policy.

    Raises:
        FingerprintError: when no tier supports the target.
    """
    return FingerprintRegistry().fingerprint(target, with_inverse=with_inverse)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
def config_digest(config: MatchingConfig) -> str:
    """Digest of the policy knobs that can change a matching result.

    Derived from the *sorted, complete* ``dataclasses.asdict`` dump of the
    config — a new ``MatchingConfig`` field can never be silently omitted
    from the cache key — and version-prefixed alongside the v2 pair key.
    Memoised per config (configs are frozen and hashable), so a run
    digests its policy once, not once per pair.  Equal configs can still
    dump differently (``epsilon=1`` against ``epsilon=1.0``), so the memo
    is keyed on the field types too.
    """
    return _config_digest(config, tuple(map(type, vars(config).values())))


@functools.lru_cache(maxsize=64)
def _config_digest(config: MatchingConfig, field_types: tuple) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return _digest(f"cfg/{KEY_VERSION}:" + payload)[:16]


def pair_key(
    fp1: OracleFingerprint,
    fp2: OracleFingerprint,
    equivalence: EquivalenceType,
    config: MatchingConfig | str,
) -> str:
    """The versioned cache key for one matched pair under one policy.

    ``config`` is the policy or its :func:`config_digest`; a run keys many
    pairs under one policy, so it digests the policy once and passes the
    digest.

    Contract (``docs/cache-keys.md``): a cached result may be replayed
    exactly when the key version, the two hidden functions (as seen by
    the configured fingerprint scheme), their inverse availability, the
    promised class and every policy knob of the config coincide.  The
    engine seed is deliberately *not* part of the key — any seed's
    witnesses are valid witnesses, so replays trade bitwise RNG
    reproducibility for hits (run with a cold cache when auditing
    determinism).
    """
    return (
        f"{KEY_PREFIX}{equivalence.label}|{fp1.key}|{fp2.key}|"
        f"{config if isinstance(config, str) else config_digest(config)}"
    )


def pair_key_schemes(key: str) -> tuple[str, str] | None:
    """The two fingerprint schemes recorded in a v2 pair key.

    Returns ``None`` for v1 or otherwise foreign keys — the hook cache
    statistics use to attribute hits per scheme without re-fingerprinting
    anything.
    """
    if not key.startswith(KEY_PREFIX):
        return None
    parts = key.split("|")
    if len(parts) != 5:
        return None
    schemes = []
    for fragment in parts[2:4]:
        fields = fragment.split(":")
        if len(fields) != 6 or not fields[0].startswith("fp/"):
            return None
        schemes.append(fields[2])
    return schemes[0], schemes[1]


def scheme_label(key: str) -> str:
    """A per-scheme counter label for a pair key (``"unversioned"`` for v1)."""
    schemes = pair_key_schemes(key)
    if schemes is None:
        return "unversioned"
    first, second = schemes
    return first if first == second else f"{first}+{second}"
