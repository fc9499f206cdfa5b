"""Ground truth for every verdict a benchmark run produces.

Runs outside the timed region.  A pair's outcome is wrong when:

* an expected-equivalent pair has no witness, or its witness fails
  verification;
* an expected-non-equivalent pair has a witness that passes verification;
* a warm (cached) outcome differs from the cold one, unless it is the
  cold outcome of a pair with the same cache key and right for its own
  pair; or a pooled outcome differs from the serial one;
* a daemon run does not complete.

Verification is exhaustive (``verify_match``) up to ``EXHAUSTIVE_LINES``
lines.  Wider pairs are checked on sampled inputs, and the sample always
includes ``probe_inputs(n, 1)[0]``: the wide family's near-misses differ
from their partners only there and at one other input.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.circuits.io import real
from repro.core.equivalence import EquivalenceType
from repro.core.verify import reconstructed_circuit, verify_match
from repro.exceptions import ReproError
from repro.service import serialize
from repro.service.fingerprint import probe_inputs

#: Widest pair verified on every input.
EXHAUSTIVE_LINES = 4

#: Random inputs checked per pair above ``EXHAUSTIVE_LINES``.
SAMPLED_INPUTS = 64

#: The fields that make up an outcome; status and store position do not.
OUTCOME_FIELDS = ("matcher", "error", "result")


def outcome(record: dict) -> tuple:
    return tuple(record.get(name) for name in OUTCOME_FIELDS)


def witness_holds(circuit1, circuit2, label: str, result: dict, pair_id: str) -> bool:
    """Whether a serialised witness maps ``circuit2`` onto ``circuit1``."""
    equivalence = EquivalenceType.from_label(label)
    witness = serialize.result_from_dict(result)
    num_lines = circuit1.num_lines
    try:
        if num_lines <= EXHAUSTIVE_LINES:
            return verify_match(circuit1, circuit2, equivalence, witness)
        rebuilt = reconstructed_circuit(circuit2, witness)
    except ReproError:
        return False
    if rebuilt.num_lines != num_lines:
        return False
    rng = random.Random(pair_id)
    inputs = [probe_inputs(num_lines, 1)[0]]
    inputs += [rng.getrandbits(num_lines) for _ in range(SAMPLED_INPUTS)]
    return all(rebuilt.simulate(value) == circuit1.simulate(value) for value in inputs)


class GroundTruth:
    """Counts attempted pair outcomes and the wrong ones among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong: list[tuple[str, str, str]] = []
        self._circuits: dict = {}

    @property
    def failed(self) -> int:
        return len(self.wrong)

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _fail(self, context: str, pair_id: str, reason: str) -> None:
        self.wrong.append((context, pair_id, reason))

    def _pair(self, root: Path, entry):
        key = (str(root), entry.pair_id, entry.seed)
        if key not in self._circuits:
            self._circuits[key] = (
                real.read_real(root / entry.circuit1),
                real.read_real(root / entry.circuit2),
            )
        return self._circuits[key]

    def _verdict(self, entry, record: dict, root: Path) -> str | None:
        """Why ``record`` is a wrong outcome for ``entry``, or ``None``."""
        result = record.get("result")
        if result is None:
            return f"no witness: {record.get('error')}" if entry.expected_equivalent else None
        circuit1, circuit2 = self._pair(root, entry)
        holds = witness_holds(circuit1, circuit2, entry.equivalence, result, entry.pair_id)
        if entry.expected_equivalent and not holds:
            return "witness fails verification"
        if not entry.expected_equivalent and holds:
            return "non-equivalent pair verified"
        return None

    def check_verdicts(self, context: str, manifest, root: Path, records: list[dict]) -> None:
        """Check fresh records against the corpus manifest's ground truth."""
        entries = {entry.pair_id: entry for entry in manifest.entries}
        self.attempted += len(records)
        if len(records) != len(entries):
            self._fail(context, "*", f"{len(records)} records for {len(entries)} pairs")
        for record in records:
            entry = entries.get(record.get("pair_id"))
            reason = "record for an unknown pair" if entry is None else self._verdict(entry, record, root)
            if reason is not None:
                self._fail(context, str(record.get("pair_id")), reason)

    def check_same(
        self, context: str, reference: list[dict], records: list[dict],
        manifest=None, root: Path | None = None,
    ) -> None:
        """Check that ``records`` repeat the outcomes of ``reference``.

        Given the corpus (``manifest``, ``root``), a cached outcome may
        instead be that of another reference pair with the same cache key:
        a corpus can hold one function pair twice, and the later of the two
        cold executions is what the cache keeps.  Such a replay must still
        be a right verdict for its own pair.
        """
        expected = {record["pair_id"]: outcome(record) for record in reference}
        by_key: dict = {}
        for record in reference:
            by_key.setdefault(record.get("cache_key"), []).append(outcome(record))
        entries = {entry.pair_id: entry for entry in manifest.entries} if manifest else {}
        self.attempted += len(records)
        if len(records) != len(expected):
            self._fail(context, "*", f"{len(records)} records for {len(expected)} pairs")
        for record in records:
            pair_id = record.get("pair_id")
            seen = outcome(record)
            if expected.get(pair_id) == seen:
                continue
            key = record.get("cache_key")
            if key is not None and seen in by_key.get(key, ()) and pair_id in entries:
                reason = self._verdict(entries[pair_id], record, root)
            else:
                reason = "outcome differs from the reference run"
            if reason is not None:
                self._fail(context, str(pair_id), reason)

    def check_present(self, context: str, keys: list[str], found) -> None:
        """Check that every key written through to a cache is found there."""
        self.attempted += len(keys)
        for key in keys:
            if key not in found:
                self._fail(context, key, "written-through key missing")

    def check_completed(self, context: str, pairs: int, completed: bool) -> None:
        """Count a whole run that did not complete as ``pairs`` wrong outcomes."""
        if not completed:
            self.attempted += pairs
            for _ in range(pairs):
                self._fail(context, "*", "run did not complete")
