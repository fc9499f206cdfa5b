"""Unit tests for the versioned three-tier fingerprint ladder."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import types

import pytest

import repro.service.fingerprint as fingerprint_module
from repro.circuits import library
from repro.circuits.gates import Control, MCTGate
from repro.circuits.library import from_permutation
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import FingerprintError
from repro.oracles.oracle import CircuitOracle, FunctionOracle, PermutationOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.fingerprint import (
    DEFAULT_PROBE_COUNT,
    FUNCTIONAL_WIDTH_LIMIT,
    KEY_PREFIX,
    FingerprintRegistry,
    OracleFingerprint,
    build_registry,
    config_digest,
    fingerprint,
    pair_key,
    pair_key_schemes,
    probe_inputs,
    scheme_label,
)

WIDE = 16  # past FUNCTIONAL_WIDTH_LIMIT, cheap enough to tabulate in tests


def wide_circuit(width: int = WIDE):
    return library.increment(width)


@pytest.fixture
def width_limit(monkeypatch):
    """Set the module's width limit for one test (it is read at call time)."""
    return lambda limit: monkeypatch.setattr(fingerprint_module, "FUNCTIONAL_WIDTH_LIMIT", limit)


def test_the_package_attribute_names_the_module():
    # A plain import must bind the module, so a patch of one of its
    # globals (``_clock``, ``FUNCTIONAL_WIDTH_LIMIT``) reaches its readers.
    assert isinstance(fingerprint_module, types.ModuleType)
    assert fingerprint_module is sys.modules["repro.service.fingerprint"]


class TestFunctionalFingerprints:
    def test_circuit_and_its_permutation_collide(self, small_random_circuit):
        fp_circuit = fingerprint(small_random_circuit)
        fp_table = fingerprint(Permutation.from_circuit(small_random_circuit))
        assert fp_circuit == fp_table
        assert fp_circuit.kind == "function"
        assert fp_circuit.scheme == "exact"

    def test_resynthesised_circuit_collides(self, rng):
        circuit = random_circuit(3, 10, rng)
        resynthesis = from_permutation(Permutation.from_circuit(circuit))
        assert circuit.gates != resynthesis.gates  # different structure...
        assert fingerprint(circuit) == fingerprint(resynthesis)  # ...same function

    def test_different_functions_differ(self, rng):
        first = random_circuit(4, 12, rng)
        second = random_circuit(4, 12, rng)
        if first.truth_table() == second.truth_table():  # pragma: no cover
            pytest.skip("random circuits collided")
        assert fingerprint(first) != fingerprint(second)

    def test_inverse_flag_is_part_of_identity(self, small_random_circuit):
        plain = fingerprint(small_random_circuit)
        inverse = fingerprint(small_random_circuit, with_inverse=True)
        assert plain.digest == inverse.digest
        assert plain != inverse
        assert plain.key != inverse.key


class TestOracleDispatch:
    def test_circuit_oracle_uses_white_box(self, small_random_circuit):
        oracle = CircuitOracle(small_random_circuit, with_inverse=True)
        fp = fingerprint(oracle)
        assert fp.with_inverse is True
        assert fp.digest == fingerprint(small_random_circuit).digest
        assert oracle.query_count == 0  # fingerprinting charges no queries

    def test_permutation_oracle(self, rng):
        permutation = Permutation.from_circuit(random_circuit(4, 8, rng))
        oracle = PermutationOracle(permutation)
        assert fingerprint(oracle).digest == fingerprint(permutation).digest

    def test_quantum_oracle(self, small_random_circuit):
        oracle = QuantumCircuitOracle(small_random_circuit)
        assert fingerprint(oracle).digest == fingerprint(small_random_circuit).digest
        assert oracle.query_count == 0

    def test_opaque_oracle_tabulates_without_charging(self):
        oracle = FunctionOracle(lambda value: value ^ 0b101, 3)
        fp = fingerprint(oracle)
        assert fp.kind == "function"
        assert oracle.query_count == 0

    def test_opaque_wide_oracle_raises_under_exact(self, width_limit):
        width_limit(8)
        registry = build_registry("exact")
        oracle = FunctionOracle(lambda value: value, 20)
        with pytest.raises(FingerprintError):
            registry.fingerprint(oracle)

    def test_unsupported_type_raises(self):
        with pytest.raises(FingerprintError):
            fingerprint(object())


class TestRegistryResolution:
    def test_auto_is_exact_below_the_limit(self, small_random_circuit):
        registry = build_registry("auto")
        assert registry.fingerprint(small_random_circuit).scheme == "exact"

    def test_auto_is_probe_above_the_limit(self):
        registry = build_registry("auto")
        fp = registry.fingerprint(wide_circuit())
        assert fp.scheme == "probe"
        assert fp.kind == "probe"

    def test_probe_mode_probes_at_every_width(self, small_random_circuit):
        registry = build_registry("probe")
        assert registry.fingerprint(small_random_circuit).scheme == "probe"
        assert registry.fingerprint(wide_circuit()).scheme == "probe"

    def test_exact_mode_falls_back_to_structure(self):
        registry = build_registry("exact")
        assert registry.fingerprint(wide_circuit()).scheme == "structure"

    def test_auto_without_probes_restores_v1_fallback(self):
        registry = build_registry("auto", probe_count=0)
        assert registry.fingerprint(wide_circuit()).scheme == "structure"

    def test_unknown_scheme_raises(self):
        with pytest.raises(FingerprintError):
            build_registry("telepathy")

    def test_the_policy_is_the_configs_two_knobs(self):
        config = MatchingConfig(fingerprint_scheme="probe", probe_count=7)
        registry = build_registry(
            config.fingerprint_scheme, probe_count=config.probe_count
        )
        assert registry == FingerprintRegistry("probe", 7)
        assert [field.name for field in dataclasses.fields(registry)] == [
            "fingerprint_scheme",
            "probe_count",
        ]
        # Frozen: no consumer can change another's cache-key policy.
        with pytest.raises(dataclasses.FrozenInstanceError):
            registry.probe_count = 8


class TestProbeInputs:
    def test_deterministic_and_in_range(self):
        first = probe_inputs(18, 32)
        again = probe_inputs(18, 32)
        assert first == again
        assert len(first) == 32
        assert all(0 <= value < (1 << 18) for value in first)

    def test_prefix_stability(self):
        # Counter-mode derivation: a larger probe budget extends, never
        # reshuffles, the set — what lets the wide near-miss generator pin
        # its perturbation to the first probe for any probe count.
        assert probe_inputs(20, 64)[:8] == probe_inputs(20, 8)

    def test_width_and_salt_change_the_set(self):
        assert probe_inputs(16, 8) != probe_inputs(17, 8)
        assert probe_inputs(16, 8) != probe_inputs(16, 8, salt="other")

    def test_positive_count_required(self):
        with pytest.raises(FingerprintError):
            probe_inputs(4, 0)
        with pytest.raises(FingerprintError):
            build_registry("probe", probe_count=0)


class TestProbeSoundness:
    """The satellite criteria: canonical across representations,
    distinct for probe-aligned near-misses, identical across processes."""

    def test_equal_wide_representations_collide(self):
        circuit = wide_circuit()
        # A structurally different but functionally identical circuit:
        # the same cascade with a self-inverse gate applied twice.
        resynthesis = circuit.copy()
        gate = MCTGate((Control(0, True), Control(1, True)), 2)
        resynthesis.append(gate)
        resynthesis.append(gate)
        assert circuit.gates != resynthesis.gates
        # ... and the tabulated permutation, behind an opaque oracle.
        permutation = Permutation.from_circuit(circuit)
        oracle = PermutationOracle(permutation)

        registry = build_registry("probe")
        fps = {
            registry.fingerprint(target).digest
            for target in (circuit, resynthesis, permutation, oracle)
        }
        assert len(fps) == 1
        assert oracle.query_count == 0  # probed via peek, not query

    def test_opaque_wide_oracle_is_fingerprintable(self):
        circuit = wide_circuit()
        opaque = FunctionOracle(circuit.simulate, circuit.num_lines)
        fp = build_registry("auto").fingerprint(opaque)
        assert fp.scheme == "probe"
        assert fp.digest == build_registry("auto").fingerprint(circuit).digest
        assert opaque.query_count == 0

    def test_probe_aligned_near_miss_gets_a_distinct_digest(self):
        circuit = wide_circuit()
        probed = probe_inputs(circuit.num_lines, 1)[0]
        image = circuit.simulate(probed)
        near_miss = circuit.copy()
        near_miss.append(
            MCTGate(
                tuple(
                    Control(line, bool((image >> line) & 1))
                    for line in range(1, circuit.num_lines)
                ),
                0,
            )
        )
        # Exactly two truth-table entries differ...
        assert near_miss.simulate(probed) != image
        registry = build_registry("probe")
        # ...and the first probe sees one of them, at any probe count.
        for count in (1, DEFAULT_PROBE_COUNT):
            tuned = build_registry("probe", probe_count=count)
            assert (
                tuned.fingerprint(circuit).digest
                != tuned.fingerprint(near_miss).digest
            )
        assert (
            registry.fingerprint(circuit).digest
            != registry.fingerprint(near_miss).digest
        )

    def test_probe_count_is_part_of_the_digest(self):
        circuit = wide_circuit()
        few = build_registry("probe", probe_count=8).fingerprint(circuit)
        many = build_registry("probe", probe_count=16).fingerprint(circuit)
        assert few.digest != many.digest  # a miss across budgets, never a hit

    def test_probe_digest_is_deterministic_across_processes(self):
        script = (
            "from repro.circuits import library\n"
            "from repro.service.fingerprint import build_registry\n"
            f"fp = build_registry('probe').fingerprint(library.increment({WIDE}))\n"
            "print(fp.key)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        local = build_registry("probe").fingerprint(wide_circuit())
        assert result.stdout.strip() == local.key


class TestPairKey:
    def test_key_is_versioned(self, small_random_circuit):
        fp = fingerprint(small_random_circuit)
        key = pair_key(fp, fp, EquivalenceType.N_I, MatchingConfig())
        assert key.startswith(KEY_PREFIX)
        assert fp.key.startswith("fp/v2:")

    def test_key_distinguishes_policy_and_class(self, small_random_circuit):
        fp = fingerprint(small_random_circuit)
        base = MatchingConfig()
        keys = {
            pair_key(fp, fp, EquivalenceType.NP_I, base),
            pair_key(fp, fp, EquivalenceType.N_I, base),
            pair_key(fp, fp, EquivalenceType.NP_I, MatchingConfig(epsilon=0.5)),
            pair_key(fp, fp, EquivalenceType.NP_I, MatchingConfig(allow_quantum=False)),
            pair_key(fp, fp, EquivalenceType.NP_I, MatchingConfig(max_queries=7)),
            pair_key(fp, fp, EquivalenceType.NP_I, MatchingConfig(probe_count=9)),
            pair_key(
                fp, fp, EquivalenceType.NP_I, MatchingConfig(fingerprint_scheme="probe")
            ),
        }
        assert len(keys) == 7

    def test_key_is_stable_across_processes(self):
        # Pure function of its inputs — no id()s, no hash randomisation.
        fp = OracleFingerprint(num_lines=4, kind="function", digest="ab" * 32)
        key = pair_key(fp, fp, EquivalenceType.I_P, MatchingConfig())
        assert key == pair_key(fp, fp, EquivalenceType.I_P, MatchingConfig())
        assert key.startswith("v2|I-P|fp/v2:4:exact:function:fwd:")

    def test_scheme_parsing(self):
        exact = OracleFingerprint(4, "function", "ab" * 32, scheme="exact")
        probe = OracleFingerprint(16, "probe", "cd" * 32, scheme="probe")
        key = pair_key(exact, probe, EquivalenceType.I_P, MatchingConfig())
        assert pair_key_schemes(key) == ("exact", "probe")
        assert scheme_label(key) == "exact+probe"
        same = pair_key(probe, probe, EquivalenceType.I_P, MatchingConfig())
        assert scheme_label(same) == "probe"
        # v1 keys (no version prefix) are foreign.
        assert pair_key_schemes("I-P|4:function:fwd:ab|4:function:fwd:ab|x") is None
        assert scheme_label("anything else") == "unversioned"


class TestConfigDigest:
    def test_stability(self):
        assert config_digest(MatchingConfig()) == config_digest(MatchingConfig())
        assert config_digest(MatchingConfig()) != config_digest(
            MatchingConfig(with_inverse=True)
        )

    def test_every_field_reaches_the_digest(self):
        """The asdict derivation makes omitting a config field impossible."""
        base = MatchingConfig()
        changed = {
            "epsilon": 0.5,
            "allow_quantum": False,
            "allow_brute_force": True,
            "with_inverse": True,
            "max_queries": 123,
            "fingerprint_scheme": "probe",
            "probe_count": 5,
        }
        fields = {field.name for field in dataclasses.fields(MatchingConfig)}
        assert fields == set(changed)  # grow this test with the config
        for name, value in changed.items():
            variant = dataclasses.replace(base, **{name: value})
            assert config_digest(variant) != config_digest(base), name


class TestWidthLimitCompatibility:
    def test_wide_circuit_past_custom_limit_probes(self, rng, width_limit):
        width_limit(4)
        fp = fingerprint(random_circuit(6, 10, rng))
        assert fp.kind == "probe"

    def test_identical_structure_collides(self, rng, width_limit):
        width_limit(1)
        circuit = random_circuit(5, 12, rng)
        registry = build_registry("exact")
        assert registry.fingerprint(circuit) == registry.fingerprint(circuit.copy())

    def test_structural_miss_never_wrong_hit(self, rng, width_limit):
        # Functionally equal but structurally different circuits get
        # *different* structural fingerprints: a cache miss, not a wrong hit.
        width_limit(1)
        circuit = random_circuit(3, 8, rng)
        resynthesis = from_permutation(Permutation.from_circuit(circuit))
        registry = build_registry("exact")
        assert registry.fingerprint(circuit) != registry.fingerprint(resynthesis)

    def test_default_limit_is_fourteen(self):
        assert FUNCTIONAL_WIDTH_LIMIT == 14
