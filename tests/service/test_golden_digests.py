"""Golden fingerprint keys and pair keys.

Cache keys outlive the code that wrote them: a disk or remote cache
filled by one version is read by the next.  These values were recorded
before the numpy tabulation kernel existed, so a kernel change that
alters a single digest byte — and would silently fork every ``v2|``
cache — fails here.  The targets are built from fixed gate lists (no
RNG) at 4, 8 and 12 lines and cover each fingerprintable representation.
"""

from __future__ import annotations

import pytest

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import SwapGate, cnot, mct, not_gate, toffoli
from repro.circuits.library import increment
from repro.circuits.permutation import Permutation
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.oracles.oracle import CircuitOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.fingerprint import build_registry, pair_key


def fixed_circuit(num_lines: int) -> ReversibleCircuit:
    """A deterministic cascade with negative controls, swaps and MCTs."""
    circuit = increment(num_lines)
    circuit.append(not_gate(0))
    for line in range(num_lines - 1):
        circuit.append(cnot(line, line + 1, positive=line % 2 == 0))
    circuit.append(SwapGate(0, num_lines - 1))
    circuit.append(toffoli(1, 2, 0))
    circuit.append(
        mct(range(1, num_lines), 0, [line % 3 != 0 for line in range(1, num_lines)])
    )
    circuit.append(SwapGate(1, num_lines // 2))
    return circuit


def golden_targets() -> dict[str, object]:
    return {
        "circuit-4": fixed_circuit(4),
        "permutation-8": Permutation.from_circuit(fixed_circuit(8)),
        "quantum-8": QuantumCircuitOracle(fixed_circuit(8).inverse()),
        "oracle-12": CircuitOracle(fixed_circuit(12), with_inverse=True),
    }


GOLDEN_KEYS = {
    ("exact", "circuit-4"): "fp/v2:4:exact:function:fwd:7741368475776f2e03a76800a23596595c7898db4866c8aab210c9f88e3bc61e",
    ("exact", "permutation-8"): "fp/v2:8:exact:function:fwd:d8c1ebab690f602e97ba642ffca9efba62c915d550cb13e0ac50bd81649ac7a9",
    ("exact", "quantum-8"): "fp/v2:8:exact:function:fwd:0c8c4724bc913ec68680568291e61093d170bbeaab3302c5b9828a1a6565434c",
    ("exact", "oracle-12"): "fp/v2:12:exact:function:inv:5bc07cdb1afc458522d565095bf60424a4e3b8861bbc86eef54ae3a2acbae1dd",
    ("probe", "circuit-4"): "fp/v2:4:probe:probe:fwd:ae6d3b84ca58803c43facbab41f6cece3f8ce895da128e51e4c4ca5da46b1837",
    ("probe", "permutation-8"): "fp/v2:8:probe:probe:fwd:f721ff58ade863d4f1ee9fc34d7b1625accf5ccde8f423782c8f795d90bb0c70",
    ("probe", "quantum-8"): "fp/v2:8:probe:probe:fwd:839f24de851da630fc0ef0e5a408794e437f2504b4f0e61ff441eacca4c65702",
    ("probe", "oracle-12"): "fp/v2:12:probe:probe:inv:0f447c6d3289d28dc117bac5e8164857a0b0b21151fffc2c66c50635d5d6c977",
}

#: (scheme, first target, second target, class) -> pair key.
GOLDEN_PAIR_KEYS = {
    ("exact", "permutation-8", "quantum-8", "NP-I"): "v2|NP-I|fp/v2:8:exact:function:fwd:d8c1ebab690f602e97ba642ffca9efba62c915d550cb13e0ac50bd81649ac7a9|fp/v2:8:exact:function:fwd:0c8c4724bc913ec68680568291e61093d170bbeaab3302c5b9828a1a6565434c|305674b65e6243d5",
    ("exact", "oracle-12", "oracle-12", "I-I"): "v2|I-I|fp/v2:12:exact:function:inv:5bc07cdb1afc458522d565095bf60424a4e3b8861bbc86eef54ae3a2acbae1dd|fp/v2:12:exact:function:inv:5bc07cdb1afc458522d565095bf60424a4e3b8861bbc86eef54ae3a2acbae1dd|305674b65e6243d5",
    ("probe", "circuit-4", "circuit-4", "N-I"): "v2|N-I|fp/v2:4:probe:probe:fwd:ae6d3b84ca58803c43facbab41f6cece3f8ce895da128e51e4c4ca5da46b1837|fp/v2:4:probe:probe:fwd:ae6d3b84ca58803c43facbab41f6cece3f8ce895da128e51e4c4ca5da46b1837|7f9eb70c18174220",
}


@pytest.fixture(scope="module")
def targets():
    return golden_targets()


@pytest.mark.parametrize("scheme, name", sorted(GOLDEN_KEYS))
def test_fingerprint_key_is_pinned(scheme, name, targets):
    key = build_registry(scheme).fingerprint(targets[name]).key
    assert key == GOLDEN_KEYS[scheme, name]


@pytest.mark.parametrize("scheme, first, second, label", sorted(GOLDEN_PAIR_KEYS))
def test_pair_key_is_pinned(scheme, first, second, label, targets):
    registry = build_registry(scheme)
    key = pair_key(
        registry.fingerprint(targets[first]),
        registry.fingerprint(targets[second]),
        EquivalenceType.from_label(label),
        MatchingConfig(fingerprint_scheme=scheme),
    )
    assert key == GOLDEN_PAIR_KEYS[scheme, first, second, label]
