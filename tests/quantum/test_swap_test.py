"""Unit tests for the swap test (Fig. 3)."""

from __future__ import annotations

import itertools
import random

import pytest

import repro.quantum.swap_test as swap_test_module
from repro.exceptions import QuantumError
from repro.quantum.statevector import MINUS, PLUS, ZERO, product_state
from repro.quantum.swap_test import (
    SwapTest,
    swap_test_probability,
    swap_test_probability_via_circuit,
)


class TestProbabilities:
    def test_identical_states_always_measure_zero(self):
        state = product_state([PLUS, ZERO, MINUS])
        assert swap_test_probability(state, state) == pytest.approx(1.0)

    def test_orthogonal_states_measure_zero_half_the_time(self):
        zero = product_state([ZERO])
        one = product_state(["1"])
        assert swap_test_probability(zero, one) == pytest.approx(0.5)

    def test_plus_zero_overlap(self):
        probability = swap_test_probability(product_state([PLUS]), product_state([ZERO]))
        assert probability == pytest.approx(0.75)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QuantumError):
            swap_test_probability(product_state([ZERO]), product_state([ZERO, ZERO]))

    def test_circuit_construction_agrees_with_analytic(self):
        labels = [ZERO, "1", PLUS, MINUS]
        for label_a, label_b in itertools.product(labels, repeat=2):
            for extra in (ZERO, PLUS):
                state_a = product_state([label_a, extra])
                state_b = product_state([label_b, extra])
                analytic = swap_test_probability(state_a, state_b)
                simulated = swap_test_probability_via_circuit(state_a, state_b)
                assert simulated == pytest.approx(analytic, abs=1e-9)


class TestSampler:
    def test_identical_states_never_sample_one(self):
        tester = SwapTest(rng=1)
        state = product_state([PLUS, PLUS, ZERO])
        assert tester.sample_many(state, state, 50) == [0] * 50

    def test_orthogonal_states_sample_one_roughly_half(self):
        tester = SwapTest(rng=2)
        zero = product_state([ZERO, ZERO])
        flipped = product_state(["1", ZERO])
        outcomes = tester.sample_many(zero, flipped, 400)
        assert 0.35 < sum(outcomes) / len(outcomes) < 0.65

    def test_run_counter(self):
        tester = SwapTest(rng=5)
        state = product_state([ZERO])
        tester.sample_many(state, state, 7)
        assert tester.runs == 7

    def test_accepts_random_instance_and_circuit_mode(self):
        tester = SwapTest(rng=random.Random(6), use_circuit=True)
        state_a = product_state([ZERO, PLUS])
        state_b = product_state([ZERO, PLUS])
        assert tester.probability_of_zero(state_a, state_b) == pytest.approx(1.0)
        assert tester.sample(state_a, state_b) == 0

    def test_seeded_samplers_are_reproducible(self):
        zero = product_state([ZERO])
        one = product_state(["1"])
        first = SwapTest(rng=7).sample_many(zero, one, 20)
        second = SwapTest(rng=7).sample_many(zero, one, 20)
        assert first == second


class TestProbabilityReuse:
    @pytest.mark.parametrize(
        ("use_circuit", "kernel"),
        [(False, "swap_test_probability"), (True, "swap_test_probability_via_circuit")],
    )
    def test_same_read_only_pair_is_computed_once(self, monkeypatch, use_circuit, kernel):
        calls = []
        original = getattr(swap_test_module, kernel)

        def counting(state_a, state_b):
            calls.append((state_a, state_b))
            return original(state_a, state_b)

        monkeypatch.setattr(swap_test_module, kernel, counting)
        zero = product_state([ZERO, PLUS])
        one = product_state(["1", PLUS])
        tester = SwapTest(rng=8, use_circuit=use_circuit)
        tester.sample_many(zero, one, 12)
        assert len(calls) == 1
        assert tester.runs == 12
        tester.sample(one, zero)
        assert len(calls) == 2

    def test_writable_states_are_recomputed(self, monkeypatch):
        calls = []
        original = swap_test_module.swap_test_probability

        def counting(state_a, state_b):
            calls.append((state_a, state_b))
            return original(state_a, state_b)

        monkeypatch.setattr(swap_test_module, "swap_test_probability", counting)
        state_a = product_state([ZERO]).copy()
        state_b = product_state([ZERO]).copy()
        tester = SwapTest(rng=9)
        assert tester.sample(state_a, state_b) == 0
        state_b.vector[:] = [0.0, 1.0]
        tester.sample_many(state_a, state_b, 5)
        assert len(calls) == 6
        assert tester.probability_of_zero(state_a, state_b) == pytest.approx(0.5)

    def test_reuse_draws_the_same_measurements(self):
        # One rng draw per repetition, reused or not: the outcomes and the
        # rng's next draw match a sampler that recomputes every time.
        zero = product_state([ZERO, MINUS])
        one = product_state(["1", MINUS])
        reused_rng, fresh_rng = random.Random(10), random.Random(10)
        reused = SwapTest(reused_rng).sample_many(zero, one, 30)
        fresh_tester = SwapTest(fresh_rng)
        fresh = [fresh_tester.sample(zero.copy(), one.copy()) for _ in range(30)]
        assert reused == fresh
        assert reused_rng.random() == fresh_rng.random()
