"""Unit tests for the MatchingEngine facade and its per-pair dispatch."""

from __future__ import annotations

import inspect

import pytest

from repro.circuits.random import random_circuit
from repro.core import (
    EquivalenceType,
    MatchingConfig,
    MatchingEngine,
    make_instance,
    verify_match,
)
from repro.core.engine import BatchEntry, get_default_engine
from repro.exceptions import (
    MatchingError,
    QueryBudgetExceededError,
    UnsupportedEquivalenceError,
)
from repro.oracles import CircuitOracle


class TestEngineMatch:
    @pytest.mark.parametrize("label", ["I-N", "I-P", "P-I", "NP-I"])
    def test_matches_and_verifies(self, rng, label):
        equivalence = EquivalenceType.from_label(label)
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, equivalence, rng)
        engine = MatchingEngine()
        result = engine.match(c1, c2, equivalence, rng=rng, epsilon=1e-4)
        assert result.equivalence is equivalence
        assert verify_match(c1, c2, equivalence, result)

    def test_config_with_inverse_grants_inverse_access(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(with_inverse=True))
        result = engine.match(c1, c2, EquivalenceType.N_I)
        assert result.quantum_queries == 0
        assert result.queries == 2

    def test_config_no_quantum_raises_without_inverse(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(allow_quantum=False))
        with pytest.raises(UnsupportedEquivalenceError):
            engine.match(c1, c2, EquivalenceType.N_I)

    def test_brute_force_opt_in_solves_hard_class(self, rng):
        base = random_circuit(3, 8, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_N, rng)
        engine = MatchingEngine(MatchingConfig(allow_brute_force=True))
        result = engine.match(c1, c2, EquivalenceType.N_N, rng=rng)
        assert verify_match(c1, c2, EquivalenceType.N_N, result)

    def test_query_budget_is_enforced(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_P, rng)
        engine = MatchingEngine(MatchingConfig(max_queries=1))
        with pytest.raises(QueryBudgetExceededError):
            engine.match(c1, c2, EquivalenceType.I_P, rng=rng)

    def test_query_budget_binds_the_quantum_tier_too(self, rng):
        # N-I without inverses resolves to the swap-test matcher; the budget
        # must carry over to the lifted quantum oracles.
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(max_queries=2))
        with pytest.raises(QueryBudgetExceededError):
            engine.match(c1, c2, EquivalenceType.N_I, rng=rng)

    def test_prebuilt_oracles_pass_through(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        oracle1, oracle2 = CircuitOracle(c1), CircuitOracle(c2)
        MatchingEngine().match(oracle1, oracle2, EquivalenceType.I_N)
        assert oracle1.query_count == 1  # queried directly, not via a copy

    def test_no_stale_oracle_after_circuit_mutation(self, rng):
        # match() coerces fresh every call, so mutating a circuit between
        # calls must be reflected — an engine-lifetime cache would keep the
        # inverse materialised from the pre-mutation gates.
        from repro.circuits.gates import not_gate

        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(with_inverse=True))
        first = engine.match(c1, c2, EquivalenceType.N_I)
        assert verify_match(c1, c2, EquivalenceType.N_I, first)
        # Appending the same gate to both sides preserves N-I equivalence;
        # only a fresh inverse of the mutated c2 recovers the witness.
        c1.append(not_gate(0))
        c2.append(not_gate(0))
        second = engine.match(c1, c2, EquivalenceType.N_I)
        assert second.queries == 2  # still the classical inverse tier
        assert verify_match(c1, c2, EquivalenceType.N_I, second)

class TestMatchMany:
    """The guarded per-pair dispatch the service executors run."""

    def _pairs(self, rng, labels):
        base = random_circuit(4, 14, rng)
        pairs = []
        for label in labels:
            equivalence = EquivalenceType.from_label(label)
            c1, c2, _ = make_instance(base, equivalence, rng)
            pairs.append((c1, c2, equivalence))
        return pairs

    def test_one_entry_per_triple_in_order(self, rng):
        pairs = self._pairs(rng, ["I-N", "I-P", "P-I", "N-I"])
        entries = MatchingEngine().match_many(pairs, rng=rng)
        assert all(isinstance(entry, BatchEntry) for entry in entries)
        assert [entry.index for entry in entries] == [0, 1, 2, 3]
        assert all(entry.matched and entry.error is None for entry in entries)
        # N-I without an inverse runs on the quantum tier.
        assert entries[3].result.quantum_queries > 0
        assert entries[3].matcher == "n-i/swap-test"

    def test_per_pair_witnesses_verify(self, rng):
        pairs = self._pairs(rng, ["I-N", "P-I", "I-NP"])
        entries = MatchingEngine().match_many(pairs, rng=rng)
        for (c1, c2, equivalence), entry in zip(pairs, entries):
            assert entry.matched
            assert entry.equivalence is equivalence
            assert verify_match(c1, c2, equivalence, entry.result)

    def test_failures_are_recorded_not_raised(self, rng):
        base = random_circuit(3, 8, rng)
        good1, good2, _ = make_instance(base, EquivalenceType.I_N, rng)
        hard1, hard2, _ = make_instance(base, EquivalenceType.P_P, rng)
        good, hard = MatchingEngine().match_many(
            [
                (good1, good2, EquivalenceType.I_N),
                (hard1, hard2, EquivalenceType.P_P),
            ]
        )
        assert good.matched
        assert not hard.matched and hard.result is None
        assert "UnsupportedEquivalenceError" in hard.error
        assert hard.matcher is None  # resolution itself failed

    def test_budget_failures_recorded_per_pair(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_P, rng)
        engine = MatchingEngine(MatchingConfig(max_queries=1))
        [entry] = engine.match_many([(c1, c2, EquivalenceType.I_P)], rng=rng)
        assert not entry.matched
        assert "QueryBudgetExceededError" in entry.error
        assert entry.matcher is not None  # resolved, then ran out of budget

    def test_budget_applies_per_pair_not_across_batch(self, rng):
        # A shared circuit must not let early pairs starve later ones:
        # every pair gets freshly coerced oracles.
        base = random_circuit(4, 14, rng)
        partners = [
            make_instance(base, EquivalenceType.I_N, rng)[0] for _ in range(3)
        ]
        engine = MatchingEngine(MatchingConfig(max_queries=2))
        entries = engine.match_many(
            [(partner, base, EquivalenceType.I_N) for partner in partners]
        )
        assert all(entry.matched for entry in entries)  # I-N costs 2 each

    def test_rng_is_the_only_option(self):
        parameters = inspect.signature(MatchingEngine.match_many).parameters
        assert list(parameters) == ["self", "pairs", "rng"]

    def test_malformed_pairs_raise_value_error(self, rng):
        base = random_circuit(3, 8, rng)
        engine = MatchingEngine()
        with pytest.raises(ValueError):
            engine.match_many([(base,)])
        with pytest.raises(ValueError):
            engine.match_many([(base, base)])  # no class


class TestWidthMismatch:
    """A 3-line and a 4-line circuit never match, under any class."""

    @pytest.mark.parametrize("with_inverse", [False, True])
    @pytest.mark.parametrize("equivalence", list(EquivalenceType))
    def test_every_class_refuses_once(self, rng, equivalence, with_inverse):
        narrow = random_circuit(3, 8, rng)
        wide = random_circuit(4, 8, rng)
        engine = MatchingEngine(MatchingConfig(with_inverse=with_inverse))
        [entry] = engine.match_many([(narrow, wide, equivalence)], rng=rng)
        assert not entry.matched
        assert entry.matcher is None  # refused before resolution
        assert entry.error == (
            "MatchingError: circuits must have the same number of lines"
        )
        with pytest.raises(MatchingError, match="same number of lines"):
            engine.match(wide, narrow, equivalence, rng=rng)


class TestDefaultEngine:
    def test_shared_instance(self):
        assert get_default_engine() is get_default_engine()

    def test_module_match_delegates_to_default_engine(self, rng):
        from repro.core import match

        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        result = match(c1, c2, "I-N")
        assert result.equivalence is EquivalenceType.I_N
