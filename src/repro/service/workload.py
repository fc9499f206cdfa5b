"""Workload/corpus generation: problem families across the 16 classes.

A *corpus* is a directory of RevLib ``.real`` circuit files plus a
``manifest.json`` describing pairs to match: which two files, under which
promised X-Y class, from which problem family, and whether the pair is
actually equivalent.  Three families cover the scenario space:

* ``random`` — a random MCT cascade wrapped in class-appropriate random
  transforms (:func:`repro.core.verify.make_instance`): the "generic
  function" workload on which Table 1 query counts are measured.
* ``library`` — the same construction over the named benchmark functions
  of :mod:`repro.circuits.library` (adders, hidden-weighted-bit, ...):
  structured functions a matcher might accidentally exploit.
* ``adversarial`` — near-miss pairs that are **not** equivalent: the
  correctly transformed circuit is perturbed by a single transposition
  (one fully-controlled Toffoli appended), so exactly two truth-table
  entries differ.  These probe the promise boundary — matchers may raise
  :class:`~repro.exceptions.PromiseViolationError` or return witnesses
  that fail verification, and ``expected_equivalent: false`` in the
  manifest records which outcome is the honest one.
* ``wide`` — 16–24-line pairs over the library functions, beyond the
  exact-fingerprint width limit, so corpora exercise the sampled-probe
  identity path end to end.  Odd-indexed entries are near-miss variants
  whose transposition is placed *on the probe set* (the perturbed output
  is the image of the first probe input), so probe digests are
  guaranteed to distinguish them at any probe count — the adversarial
  regime the probabilistic scheme is documented against.  Only the
  classically easy classes are generated (:func:`wide_classes`):
  quantum matchers tabulate ``2**n`` amplitudes, which is exactly what
  wide workloads must avoid.

Generation is deterministic: every pair derives its own seed from the
corpus seed and its identifier, so the same arguments reproduce the same
corpus byte-for-byte regardless of generation order.

Loading is memoised: :meth:`CorpusManifest.load` keeps each parsed
manifest file in a process-wide memo, trusted by the racy-git rule of
:func:`repro.service.fingerprint.stat_vouches`, so a rerun of an
unchanged corpus (a warm pass, a daemon resubmit) decodes and validates
nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import random as _random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.circuits import library
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate
from repro.circuits.io import real
from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType, Hardness, classify
from repro.core.verify import make_instance
from repro.exceptions import ServiceError
from repro.service.fingerprint import (
    probe_inputs,
    stat_clock,
    stat_signature,
    stat_vouches,
)

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "MANIFEST_MEMO_SIZE",
    "DEFAULT_FAMILIES",
    "KNOWN_FAMILIES",
    "WIDE_MIN_LINES",
    "WIDE_MAX_LINES",
    "CorpusEntry",
    "CorpusManifest",
    "EntrySpec",
    "tractable_classes",
    "wide_classes",
    "generate_corpus",
    "load_entry_circuits",
    "manifest_memo_clear",
    "resolve_manifest",
]

MANIFEST_FORMAT = "repro-corpus/v1"
MANIFEST_NAME = "manifest.json"
DEFAULT_FAMILIES = ("random", "library", "adversarial")
#: Every family ``generate_corpus`` accepts; ``wide`` is opt-in because
#: its pairs dwarf the default 4-line corpora.
KNOWN_FAMILIES = DEFAULT_FAMILIES + ("wide",)

#: Width range of the ``wide`` family — past the exact-fingerprint limit,
#: where only sampled-probe identities can key the cache.
WIDE_MIN_LINES = 16
WIDE_MAX_LINES = 24

#: Most parsed manifest files the process-wide manifest memo holds, each
#: with its entries' run specs; beyond it the least recently used one is
#: evicted.  Sized for the few corpora a long-lived daemon reruns.
MANIFEST_MEMO_SIZE = 16


@dataclass(frozen=True)
class CorpusEntry:
    """One pair in a corpus manifest.

    Attributes:
        pair_id: stable identifier, also the stem of the circuit filenames
            and the resume key in result stores.
        circuit1, circuit2: circuit file paths relative to the manifest.
        equivalence: promised class label ("X-Y").
        family: generating family name.
        num_lines: bit width of the pair.
        expected_equivalent: whether the pair truly is equivalent (False
            for the adversarial near-misses).
        seed: the derived seed the pair was generated from.
        equivalence_type: ``equivalence`` parsed once, at construction;
            an unknown label raises :class:`ServiceError` naming the pair.
    """

    pair_id: str
    circuit1: str
    circuit2: str
    equivalence: str
    family: str
    num_lines: int
    expected_equivalent: bool
    seed: int
    equivalence_type: EquivalenceType = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            equivalence_type = EquivalenceType.from_label(self.equivalence)
        except (AttributeError, TypeError, ValueError):
            raise ServiceError(
                f"corpus entry {self.pair_id!r} has unknown equivalence "
                f"label {self.equivalence!r}"
            ) from None
        object.__setattr__(self, "equivalence_type", equivalence_type)

    def to_dict(self) -> dict:
        """The entry as a JSON-ready dict."""
        return {
            "pair_id": self.pair_id,
            "circuit1": self.circuit1,
            "circuit2": self.circuit2,
            "equivalence": self.equivalence,
            "family": self.family,
            "num_lines": self.num_lines,
            "expected_equivalent": self.expected_equivalent,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        """Rebuild an entry from :meth:`to_dict` output.

        Raises :class:`ServiceError` on a missing field or an unknown
        equivalence label.
        """
        try:
            return cls(
                pair_id=data["pair_id"],
                circuit1=data["circuit1"],
                circuit2=data["circuit2"],
                equivalence=data["equivalence"],
                family=data["family"],
                num_lines=data["num_lines"],
                expected_equivalent=data["expected_equivalent"],
                seed=data["seed"],
            )
        except KeyError as error:
            raise ServiceError(f"corpus entry is missing field {error}") from None


class EntrySpec(NamedTuple):
    """One manifest entry as a run needs it, built once per manifest and root.

    ``meta`` is shared by every run of the manifest: read it, never
    change it.
    """

    pair_id: str
    label: str
    equivalence_type: EquivalenceType
    meta: dict
    paths: tuple[str, str]


@dataclass(frozen=True)
class CorpusManifest:
    """A generated corpus: header plus one :class:`CorpusEntry` per pair."""

    num_lines: int
    seed: int
    families: tuple[str, ...]
    classes: tuple[str, ...]
    entries: tuple[CorpusEntry, ...]

    def to_dict(self) -> dict:
        """The manifest as a JSON-ready dict."""
        return {
            "format": MANIFEST_FORMAT,
            "num_lines": self.num_lines,
            "seed": self.seed,
            "families": list(self.families),
            "classes": list(self.classes),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusManifest":
        """Rebuild a manifest, validating its format marker, header and entries."""
        if data.get("format") != MANIFEST_FORMAT:
            raise ServiceError(
                f"not a corpus manifest (format {data.get('format')!r}, "
                f"expected {MANIFEST_FORMAT!r})"
            )
        try:
            return cls(
                num_lines=data["num_lines"],
                seed=data["seed"],
                families=tuple(data["families"]),
                classes=tuple(data["classes"]),
                entries=tuple(
                    CorpusEntry.from_dict(entry) for entry in data["entries"]
                ),
            )
        except KeyError as error:
            raise ServiceError(f"corpus manifest is missing field {error}") from None

    def entry_specs(self, root: str) -> tuple[EntrySpec, ...]:
        """Every entry's :class:`EntrySpec`, its circuit paths joined under ``root``.

        Kept on the manifest for the last ``root`` asked for, so every
        run of a memoised manifest joins its paths once.
        """
        cached = self.__dict__.get("_entry_specs")
        if cached is not None and cached[0] == root:
            return cached[1]
        specs = tuple(
            EntrySpec(
                entry.pair_id,
                entry.equivalence,
                entry.equivalence_type,
                {
                    "family": entry.family,
                    "expected_equivalent": entry.expected_equivalent,
                },
                (
                    os.path.join(root, entry.circuit1),
                    os.path.join(root, entry.circuit2),
                ),
            )
            for entry in self.entries
        )
        object.__setattr__(self, "_entry_specs", (root, specs))
        return specs

    def save(self, path: str | Path) -> Path:
        """Write the manifest as JSON; returns the path written.

        Published atomically (tmp file + ``os.replace``): a concurrent
        reader — a daemon submit pointed at the corpus directory, say —
        sees either the old complete manifest or the new one, never a
        torn file.
        """
        path = Path(path)
        tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        """Read a manifest written by :meth:`save`, through the manifest memo.

        The memo answers from one ``os.stat`` when the file's device,
        inode, size, mtime and ctime all equal those recorded with its
        parse, and that parse began more than
        :data:`~repro.service.fingerprint.RACY_WINDOW_NS` after both
        timestamps (:func:`~repro.service.fingerprint.stat_vouches`).
        Otherwise the file is read, decoded and validated again, and only
        a load that succeeds is remembered.  The manifest returned may be
        shared with other loads of the same file; it is frozen.

        Raises :class:`ServiceError` on an unreadable or missing file,
        malformed JSON, a wrong format marker, a missing field or an
        unknown equivalence label.
        """
        name = os.fspath(path)
        try:
            signature = stat_signature(os.stat(name))
        except OSError as error:
            raise _unreadable(path, error) from None
        with _manifest_memo_lock:
            cached = _manifest_memo.get(name)
            if cached is not None and stat_vouches(signature, cached[0], cached[1]):
                _manifest_memo.move_to_end(name)
                return cached[2]
        recorded = stat_clock()
        try:
            with open(name, "rb") as handle:
                signature = stat_signature(os.fstat(handle.fileno()))
                text = handle.read()
        except OSError as error:
            raise _unreadable(path, error) from None
        try:
            data = json.loads(text.decode("utf-8"))
        except ValueError as error:
            raise ServiceError(f"{path}: not valid JSON ({error})") from None
        if not isinstance(data, dict):
            raise ServiceError(f"{path}: manifest must be a JSON object")
        manifest = cls.from_dict(data)
        with _manifest_memo_lock:
            _manifest_memo[name] = (signature, recorded, manifest)
            _manifest_memo.move_to_end(name)
            while len(_manifest_memo) > MANIFEST_MEMO_SIZE:
                _manifest_memo.popitem(last=False)
        return manifest


#: path -> ``(stat signature, ns recorded, manifest)``, in least-recently-used
#: order; see :meth:`CorpusManifest.load`.  The lock covers the dict
#: operations only, never a read or a parse.
_manifest_memo: OrderedDict[str, tuple[tuple, int, CorpusManifest]] = OrderedDict()
_manifest_memo_lock = threading.Lock()


def _unreadable(path, error: OSError) -> ServiceError:
    return ServiceError(f"{path}: cannot read manifest ({error.strerror or error})")


# Test hook: start a test from an empty manifest memo.
# repro: allow[drift-test-only-api]
def manifest_memo_clear() -> None:
    """Forget every memoised manifest."""
    with _manifest_memo_lock:
        _manifest_memo.clear()


def resolve_manifest(manifest: str | Path) -> Path:
    """The manifest file ``manifest`` names: a directory means its ``manifest.json``."""
    path = Path(manifest)
    return path / MANIFEST_NAME if path.is_dir() else path


def tractable_classes() -> tuple[EquivalenceType, ...]:
    """The classes matchable without inverse access or brute force.

    Trivial, classically easy and quantum-easy per the Fig. 1
    classification — the default corpus sticks to these so a plain
    ``repro run`` completes without failures; ``--classes all`` opts into
    the conditionally-easy and UNIQUE-SAT-hard classes.
    """
    allowed = (Hardness.TRIVIAL, Hardness.CLASSICAL_EASY, Hardness.QUANTUM_EASY)
    return tuple(eq for eq in EquivalenceType if classify(eq) in allowed)


def wide_classes() -> tuple[EquivalenceType, ...]:
    """The classes the ``wide`` family generates: classically easy only.

    The quantum-easy classes simulate ``2**n``-amplitude statevectors,
    which is unaffordable at 16–24 lines; the classical matchers of these
    classes spend a polynomial number of queries, each one circuit
    simulation, so wide pairs stay cheap to match.
    """
    allowed = (Hardness.TRIVIAL, Hardness.CLASSICAL_EASY)
    return tuple(eq for eq in EquivalenceType if classify(eq) in allowed)


def _entry_seed(corpus_seed: int, pair_id: str) -> int:
    digest = hashlib.sha256(f"{corpus_seed}:{pair_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _library_base(num_lines: int, index: int) -> ReversibleCircuit:
    catalogue = library.catalogue(num_lines)
    names = sorted(catalogue)
    return catalogue[names[index % len(names)]]()


def _transposition_gate(
    num_lines: int, rng: _random.Random
) -> MCTGate:
    """A fully-controlled Toffoli: swaps exactly two truth-table entries."""
    target = rng.randrange(num_lines)
    pattern = rng.getrandbits(num_lines)
    controls = tuple(
        Control(line, bool((pattern >> line) & 1))
        for line in range(num_lines)
        if line != target
    )
    return MCTGate(controls, target)


def _probe_aligned_transposition(
    circuit: ReversibleCircuit, rng: _random.Random
) -> MCTGate:
    """A transposition that perturbs the circuit *on the probe set*.

    Appending a random transposition to a 16-line circuit would change 2
    of the 65536 truth-table entries — all but invisible to a sampled
    probe digest.  The wide family's near-misses instead aim the
    transposition at the image of the **first probe input**: the
    perturbed circuit's output at that probe flips, so probe fingerprints
    distinguish the near-miss from the original at *any* probe count.
    """
    num_lines = circuit.num_lines
    image = circuit.simulate(probe_inputs(num_lines, 1)[0])
    target = rng.randrange(num_lines)
    controls = tuple(
        Control(line, bool((image >> line) & 1))
        for line in range(num_lines)
        if line != target
    )
    return MCTGate(controls, target)


def _build_pair(
    family: str,
    equivalence: EquivalenceType,
    num_lines: int,
    index: int,
    rng: _random.Random,
) -> tuple[ReversibleCircuit, ReversibleCircuit, bool]:
    """Build ``(circuit1, circuit2, expected_equivalent)`` for one entry."""
    if family == "wide":
        # Width varies across 16..24 (even, so the adder/multiplier
        # library entries participate); odd indices are near-miss
        # variants perturbed on the probe set.
        span = (WIDE_MAX_LINES - WIDE_MIN_LINES) // 2 + 1
        width = WIDE_MIN_LINES + 2 * rng.randrange(span)
        base = _library_base(width, index)
        circuit1, circuit2, _ = make_instance(base, equivalence, rng)
        if index % 2 == 1:
            circuit1.append(_probe_aligned_transposition(circuit1, rng))
            return circuit1, circuit2, False
        return circuit1, circuit2, True
    if family == "library":
        base = _library_base(num_lines, index)
    else:
        base = random_circuit(num_lines, 4 * num_lines, rng, name="base")
    circuit1, circuit2, _ = make_instance(base, equivalence, rng)
    if family == "adversarial":
        circuit1.append(_transposition_gate(num_lines, rng))
        return circuit1, circuit2, False
    return circuit1, circuit2, True


def generate_corpus(
    out_dir: str | Path,
    *,
    num_lines: int = 4,
    classes: tuple[EquivalenceType, ...] | None = None,
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    pairs_per_class: int = 1,
    seed: int | None = None,
) -> CorpusManifest:
    """Generate a corpus directory and its ``manifest.json``.

    Args:
        out_dir: directory to create/populate (circuit files + manifest).
        num_lines: bit width of every pair (except the ``wide`` family,
            which draws its own 16–24-line widths and records them per
            entry).
        classes: equivalence classes to cover; defaults to
            :func:`tractable_classes` (the ``wide`` family additionally
            restricts itself to :func:`wide_classes`).
        families: problem families to draw from (subset of
            :data:`KNOWN_FAMILIES`; ``wide`` is opt-in).
        pairs_per_class: pairs per (family, class) cell.
        seed: corpus seed; ``None`` draws one (the manifest records it, so
            every corpus is reproducible after the fact).

    Returns:
        The manifest, already saved to ``out_dir/manifest.json``.
    """
    for family in families:
        if family not in KNOWN_FAMILIES:
            raise ServiceError(
                f"unknown workload family {family!r}; "
                f"known: {', '.join(KNOWN_FAMILIES)}"
            )
    if "adversarial" in families and num_lines < 2:
        # On one line the "transposition" degenerates to a bare NOT gate,
        # which IS a valid negation witness — the pair would be genuinely
        # equivalent while labelled expected_equivalent=False.
        raise ServiceError(
            "the adversarial family needs num_lines >= 2"
        )
    if pairs_per_class <= 0:
        raise ServiceError(
            f"pairs_per_class must be positive, got {pairs_per_class}"
        )
    if classes is None:
        classes = tractable_classes()
    if seed is None:
        # Fresh corpora without an explicit seed deliberately draw one
        # from OS entropy; the drawn seed is recorded in the manifest,
        # so the corpus stays reproducible from its own metadata.
        seed = _random.SystemRandom().getrandbits(32)  # repro: allow[det-unseeded-random]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries: list[CorpusEntry] = []
    for family in families:
        family_classes = classes
        if family == "wide":
            # Wide pairs only exist for the classically easy classes;
            # other requested classes simply contribute no wide cells.
            allowed = set(wide_classes())
            family_classes = tuple(eq for eq in classes if eq in allowed)
        for equivalence in family_classes:
            for index in range(pairs_per_class):
                label = equivalence.label.lower()
                pair_id = f"{family}-{label}-{index:03d}"
                entry_seed = _entry_seed(seed, pair_id)
                rng = _random.Random(entry_seed)
                circuit1, circuit2, expected = _build_pair(
                    family, equivalence, num_lines, index, rng
                )
                file1 = f"{pair_id}-c1.real"
                file2 = f"{pair_id}-c2.real"
                real.write_real(circuit1, out_dir / file1)
                real.write_real(circuit2, out_dir / file2)
                entries.append(
                    CorpusEntry(
                        pair_id=pair_id,
                        circuit1=file1,
                        circuit2=file2,
                        equivalence=equivalence.label,
                        family=family,
                        # The wide family picks its own (wider) widths;
                        # the entry records what was actually built.
                        num_lines=circuit1.num_lines,
                        expected_equivalent=expected,
                        seed=entry_seed,
                    )
                )

    manifest = CorpusManifest(
        num_lines=num_lines,
        seed=seed,
        families=tuple(families),
        classes=tuple(eq.label for eq in classes),
        entries=tuple(entries),
    )
    manifest.save(out_dir / MANIFEST_NAME)
    return manifest


def load_entry_circuits(
    entry: CorpusEntry, root: str | Path
) -> tuple[ReversibleCircuit, ReversibleCircuit]:
    """Load one entry's circuit pair relative to the manifest directory."""
    root = Path(root)
    return (
        real.read_real(root / entry.circuit1),
        real.read_real(root / entry.circuit2),
    )
