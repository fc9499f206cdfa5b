"""Golden pair digests of in-memory pair submissions.

A daemon ``pairs`` submit is persisted like a manifest run, and resume
trusts a stored record only if its ``pair_digest`` matches the resubmitted
pair.  A digest that drifts between versions would silently re-run (or,
worse, replay) a store's pairs, so these values are pinned.  The pairs are
built from fixed gate lists (no RNG) and cover raw circuits,
permutations, an inverse-granting pre-built oracle and a quantum oracle,
under default and inverse-granting configs.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits.permutation import Permutation
from repro.core.engine import MatchingConfig
from repro.oracles.oracle import CircuitOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.cache import build_cache
from repro.service.fingerprint import FingerprintRegistry
from repro.service.pipeline import MatchingService
from tests.service.test_golden_digests import fixed_circuit


def fixed_pairs() -> list[tuple]:
    circuit = fixed_circuit(4)
    return [
        (circuit, circuit, "I-I"),
        (circuit, CircuitOracle(fixed_circuit(4), with_inverse=True), "I-I"),
        (Permutation.from_circuit(circuit), circuit.inverse(), "N-I"),
        (QuantumCircuitOracle(circuit), circuit, "NP-I"),
    ]


#: (scheme, with_inverse) -> the pair digests of ``fixed_pairs``, in order.
#: Digests take fingerprints without inverse access (pre-built oracles keep
#: their own), so the config's ``with_inverse`` does not move them.
AUTO_DIGESTS = ["47eae4c6346f12e9", "1ef2da96bb34e795", "b08e9a4871e3e07a", "96367367ee85ac49"]
PROBE_DIGESTS = ["41696338a6418043", "d6410f69680e74ea", "a065d7499c5bd94e", "3af6596b823a044e"]
GOLDEN_PAIR_DIGESTS = {
    ("auto", False): AUTO_DIGESTS,
    ("auto", True): AUTO_DIGESTS,
    ("probe", False): PROBE_DIGESTS,
    ("probe", True): PROBE_DIGESTS,
}


def _digests(tmp_path, config, *, cache) -> list:
    store = tmp_path / "pairs.jsonl"
    events = list(
        MatchingService(config, cache=cache).stream_pairs(
            fixed_pairs(), seed=3, store_path=store
        )
    )
    assert events[-1].report.total == len(fixed_pairs())
    lines = store.read_text().splitlines()
    by_index = {record["index"]: record for record in map(json.loads, lines)}
    return [by_index[index]["pair_digest"] for index in sorted(by_index)]


@pytest.mark.parametrize("scheme, with_inverse", sorted(GOLDEN_PAIR_DIGESTS))
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_pair_digests_are_pinned(tmp_path, scheme, with_inverse, cached):
    config = MatchingConfig(fingerprint_scheme=scheme, with_inverse=with_inverse)
    digests = _digests(
        tmp_path, config, cache=build_cache() if cached else None
    )
    assert digests == GOLDEN_PAIR_DIGESTS[scheme, with_inverse]


@pytest.mark.parametrize("with_inverse", [False, True])
def test_a_stored_pair_is_fingerprinted_once(tmp_path, monkeypatch, with_inverse):
    # With a store and a cache attached, the pair digest and the cache key
    # come from one fingerprint per circuit.
    calls = []
    original = FingerprintRegistry.fingerprint

    def counting(self, target, **kwargs):
        calls.append(type(target).__name__)
        return original(self, target, **kwargs)

    monkeypatch.setattr(FingerprintRegistry, "fingerprint", counting)
    _digests(
        tmp_path, MatchingConfig(with_inverse=with_inverse), cache=build_cache()
    )
    assert len(calls) == 2 * len(fixed_pairs())
