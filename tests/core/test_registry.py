"""Unit tests for the Table 1 dispatch table."""

from __future__ import annotations

import pytest

from repro.core import EquivalenceType
from repro.core.problem import MatchContext
from repro.core.registry import (
    Capability,
    MatcherKind,
    detect_capabilities,
    resolve,
)
from repro.exceptions import UnsupportedEquivalenceError
from repro.oracles import CircuitOracle


NO_CAPS: frozenset[Capability] = frozenset()
QUANTUM_ONLY = frozenset({Capability.QUANTUM})
INVERSE_ONLY = frozenset({Capability.INVERSE, Capability.BOTH_INVERSES})
INVERSE_AND_QUANTUM = INVERSE_ONLY | QUANTUM_ONLY


def _expected_matcher(
    equivalence: EquivalenceType, inverse: bool, quantum: bool
) -> str | None:
    """The Table 1 capability matrix: expected winner or None (= raises)."""
    label = equivalence.label
    table = {
        "I-I": ("i-i/trivial", "i-i/trivial"),
        "I-N": ("i-n/zero-probe", "i-n/zero-probe"),
        "I-P": ("i-p/binary-code", "i-p/output-sequences"),
        "I-NP": ("i-np/binary-code", "i-np/output-sequences"),
        "P-I": ("p-i/binary-code", "p-i/one-hot"),
        "P-N": ("p-n/binary-code", "p-n/one-hot"),
        "N-I": ("n-i/inverse-probe", "n-i/swap-test" if quantum else None),
        "NP-I": ("np-i/binary-code", "np-i/swap-test" if quantum else None),
        "N-P": ("n-p/inverse-pair", None),
    }
    if label not in table:
        return None  # the UNIQUE-SAT-hard classes
    with_inverse, without_inverse = table[label]
    return with_inverse if inverse else without_inverse


class TestResolutionMatrix:
    @pytest.mark.parametrize("equivalence", list(EquivalenceType))
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("quantum", [False, True])
    def test_every_cell_resolves_or_raises(self, equivalence, inverse, quantum):
        capabilities = set()
        if inverse:
            capabilities |= INVERSE_ONLY
        if quantum:
            capabilities |= QUANTUM_ONLY
        expected = _expected_matcher(equivalence, inverse, quantum)
        if expected is None:
            with pytest.raises(UnsupportedEquivalenceError):
                resolve(equivalence, capabilities)
        else:
            assert resolve(equivalence, capabilities).name == expected

    @pytest.mark.parametrize("equivalence", list(EquivalenceType))
    def test_brute_force_opt_in_makes_every_nontrivial_class_eligible(
        self, equivalence
    ):
        spec = resolve(
            equivalence, {Capability.BRUTE_FORCE} | INVERSE_AND_QUANTUM
        )
        if equivalence is EquivalenceType.I_I:
            assert spec.kind is MatcherKind.EXACT
        else:
            # Something cheaper wins whenever it exists; brute force only
            # remains for the classes with no polynomial algorithm.
            hard = _expected_matcher(equivalence, True, True) is None
            assert (spec.kind is MatcherKind.BRUTE_FORCE) == hard

    def test_n_p_needs_both_inverses(self):
        with pytest.raises(UnsupportedEquivalenceError):
            resolve(EquivalenceType.N_P, {Capability.INVERSE})
        spec = resolve(
            EquivalenceType.N_P,
            {Capability.INVERSE, Capability.BOTH_INVERSES},
        )
        assert spec.name == "n-p/inverse-pair"

    def test_fallback_chain_prefers_exact_over_quantum(self):
        spec = resolve(EquivalenceType.N_I, INVERSE_AND_QUANTUM)
        assert spec.kind is MatcherKind.EXACT
        assert spec.name == "n-i/inverse-probe"

    def test_generated_error_message_lists_registered_matchers(self):
        with pytest.raises(UnsupportedEquivalenceError) as excinfo:
            resolve(EquivalenceType.N_I, NO_CAPS)
        message = str(excinfo.value)
        assert "n-i/inverse-probe" in message
        assert "n-i/swap-test" in message
        assert "inverse" in message
        with pytest.raises(UnsupportedEquivalenceError) as excinfo:
            resolve(EquivalenceType.P_P, NO_CAPS)
        message = str(excinfo.value)
        assert "unique-sat-hard" in message
        assert "brute-force" in message


class TestDetectCapabilities:
    def test_circuits_offer_no_inverse(self, small_random_circuit):
        capabilities = detect_capabilities(
            small_random_circuit, small_random_circuit, MatchContext()
        )
        assert Capability.INVERSE not in capabilities
        assert Capability.QUANTUM in capabilities
        assert Capability.BRUTE_FORCE not in capabilities

    def test_single_inverse_oracle(self, small_random_circuit):
        oracle = CircuitOracle(small_random_circuit, with_inverse=True)
        capabilities = detect_capabilities(
            oracle, small_random_circuit, MatchContext()
        )
        assert Capability.INVERSE in capabilities
        assert Capability.BOTH_INVERSES not in capabilities

    def test_both_inverse_oracles(self, small_random_circuit):
        oracle1 = CircuitOracle(small_random_circuit, with_inverse=True)
        oracle2 = CircuitOracle(small_random_circuit, with_inverse=True)
        capabilities = detect_capabilities(oracle1, oracle2, MatchContext())
        assert Capability.BOTH_INVERSES in capabilities

    def test_context_flags_gate_quantum_and_brute_force(self, small_random_circuit):
        ctx = MatchContext(allow_quantum=False, allow_brute_force=True)
        capabilities = detect_capabilities(
            small_random_circuit, small_random_circuit, ctx
        )
        assert Capability.QUANTUM not in capabilities
        assert Capability.BRUTE_FORCE in capabilities
