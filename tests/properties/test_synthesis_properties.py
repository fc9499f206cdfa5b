"""Property-based tests for synthesis and cost metrics."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.metrics import depth, metrics, quantum_cost
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit, random_permutation
from repro.synthesis import synthesize_basic, synthesize_bidirectional

seeds = st.integers(min_value=0, max_value=2**32 - 1)
widths = st.integers(min_value=2, max_value=4)


class TestSynthesisProperties:
    @given(seeds, widths)
    @settings(max_examples=40, deadline=None)
    def test_both_variants_realise_the_permutation(self, seed, width):
        permutation = random_permutation(width, random.Random(seed))
        for synthesiser in (synthesize_basic, synthesize_bidirectional):
            circuit = synthesiser(permutation)
            assert Permutation.from_circuit(circuit) == permutation

    @given(seeds, widths)
    @settings(max_examples=30, deadline=None)
    def test_gate_counts_respect_the_mmd_upper_bound(self, seed, width):
        """Every step repairs at most ``width`` bits, over ``2**width`` steps."""
        permutation = random_permutation(width, random.Random(seed))
        bound = width * (1 << width)
        assert synthesize_basic(permutation).num_gates <= bound
        assert synthesize_bidirectional(permutation).num_gates <= bound


class TestMetricsProperties:
    @given(seeds, widths, st.integers(min_value=0, max_value=25))
    @settings(max_examples=50, deadline=None)
    def test_metric_sanity_bounds(self, seed, width, gates):
        circuit = random_circuit(width, gates, random.Random(seed))
        report = metrics(circuit)
        assert 0 <= report.depth <= report.gate_count
        assert report.quantum_cost >= report.gate_count
        assert report.t_count >= 0
        assert report.ancillas_for_toffoli_form == max(0, report.max_controls - 2)

    @given(seeds, widths, st.integers(min_value=0, max_value=25))
    @settings(max_examples=30, deadline=None)
    def test_quantum_cost_is_additive_over_concatenation(self, seed, width, gates):
        rng = random.Random(seed)
        first = random_circuit(width, gates, rng)
        second = random_circuit(width, gates, rng)
        assert quantum_cost(first.then(second)) == quantum_cost(first) + quantum_cost(
            second
        )

    @given(seeds, widths, st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_depth_of_concatenation_bounded_by_sum(self, seed, width, gates):
        rng = random.Random(seed)
        first = random_circuit(width, gates, rng)
        second = random_circuit(width, gates, rng)
        combined = first.then(second)
        assert depth(combined) <= depth(first) + depth(second)
