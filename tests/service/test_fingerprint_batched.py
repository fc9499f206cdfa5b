"""Kernel-vs-scalar fingerprint invariance, and the peek_table cliff.

The evaluation kernel is never an identity: for every scheme the
digests the library computes (numpy tabulation for the exact tier,
bitslicing for probes) must be byte-identical to the ones the scalar
reference loop of ``tests/scalar_reference.py`` produces on every
target — including the wide (16-24 line) corpus family, where the probe
tier is the only functional identity.  The second half pins the
``peek_table`` cost cliff fix: sampled-probe fingerprints of an opaque
wide oracle touch exactly ``probe_count`` inputs, never the exponential
table.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.io import real
from repro.circuits.random import random_circuit
from repro.oracles.oracle import CircuitOracle, FunctionOracle, PermutationOracle
from repro.circuits.permutation import Permutation
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.fingerprint import (
    DEFAULT_PROBE_COUNT,
    FINGERPRINT_SCHEMES,
    build_registry,
)
from repro.service.workload import generate_corpus
from tests.scalar_reference import scalar_fingerprint

CORPUS_SEED = 20240601


@pytest.fixture(scope="module")
def wide_family_circuits(tmp_path_factory):
    """Every circuit of a generated ``wide`` (16-24 line) corpus."""
    root = tmp_path_factory.mktemp("fp_wide_corpus")
    manifest = generate_corpus(
        root, families=("wide",), pairs_per_class=1, seed=CORPUS_SEED
    )
    circuits = []
    for entry in manifest.entries:
        circuits.append(real.read_real(root / entry.circuit1))
        circuits.append(real.read_real(root / entry.circuit2))
    assert circuits and all(c.num_lines >= 16 for c in circuits)
    return circuits


class TestBatchedDigestInvariance:
    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_wide_corpus_digests_identical(self, scheme, wide_family_circuits):
        policy = build_registry(scheme)
        for circuit in wide_family_circuits:
            fp_kernel = policy.fingerprint(circuit)
            fp_scalar = scalar_fingerprint(policy, circuit)
            assert fp_kernel.key == fp_scalar.key
            assert fp_kernel.digest == fp_scalar.digest

    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_narrow_targets_digests_identical(self, scheme, rng):
        """Below the width limit the exact tier tabulates every target."""
        circuit = random_circuit(6, 24, rng)
        permutation = Permutation(circuit.truth_table())
        targets = [
            circuit,
            CircuitOracle(circuit, with_inverse=True),
            permutation,
            PermutationOracle(permutation),
            QuantumCircuitOracle(circuit),
        ]
        policy = build_registry(scheme)
        for target in targets:
            assert policy.fingerprint(target).key == scalar_fingerprint(
                policy, target
            ).key


class _CountingOracle(FunctionOracle):
    """An opaque oracle that counts evaluations and forbids tabulation."""

    def __init__(self, num_lines: int) -> None:
        mask = (1 << num_lines) - 1

        def negate_all(value: int) -> int:
            self.evaluations += 1
            return value ^ mask

        super().__init__(negate_all, num_lines)
        self.evaluations = 0

    def peek_table(self):  # pragma: no cover - the cliff this test pins
        raise AssertionError(
            "peek_table would materialise 2**num_lines entries; the probe "
            "tier must stay on the bounded probe set"
        )


class TestPeekTableCliff:
    def test_width_16_oracle_is_probed_not_tabulated(self):
        """The fingerprint of a 16-line opaque oracle costs 64 evaluations,
        not a 65536-entry table."""
        oracle = _CountingOracle(16)
        fp = build_registry("auto").fingerprint(oracle)
        assert fp.scheme == "probe"
        assert oracle.evaluations == DEFAULT_PROBE_COUNT
        assert oracle.total_queries == 0  # white-box, never charged

    def test_probe_count_scales_the_cost(self):
        oracle = _CountingOracle(18)
        registry = build_registry("probe", probe_count=7)
        registry.fingerprint(oracle)
        assert oracle.evaluations == 7
