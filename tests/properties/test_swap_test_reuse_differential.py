"""Differential harness: reused swap-test probes vs. simulating every query.

The quantum oracle reuses its last output and the swap test its last
probability when handed the same read-only states again, so the
``ceil(log2(1/epsilon))`` repetitions of Algorithm 1 simulate each probe
once.  That reuse is an *optimisation*, never a second semantics: every
query and every swap test is still charged, and every repetition still
draws one measurement from the rng.

This harness runs each quantum matcher twice on the same seeded instance:
once as shipped, and once through a reference oracle that hands the
simulator a writable copy of every probe, so neither memo can ever hit.
The two runs must agree on the witnesses, on ``quantum_queries`` and
``swap_tests``, and on the rng's next draw (the same number of draws was
taken).  The sweep covers widths 2-10 x 20 seeds for N-I and NP-I on the
analytic swap test, plus widths 2-4 on the Fig. 3 circuit swap test.
Every case derives its rng from a fixed seed, so a failure reproduces
exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.matchers import match_n_i_quantum, match_np_i_quantum
from repro.core.verify import make_instance
from repro.exceptions import QueryBudgetExceededError
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.swap_test import SwapTest

MATCHERS = {
    "N-I": (EquivalenceType.N_I, match_n_i_quantum),
    "NP-I": (EquivalenceType.NP_I, match_np_i_quantum),
}
SEEDS = range(20)
#: epsilon = 1e-6 gives 20 repetitions per swap test, so a matching probe
#: or an un-negated line repeats the same states 20 times.
EPSILON = 1e-6


class CopyingOracle(QuantumCircuitOracle):
    """Reference oracle: simulates every query on a fresh writable copy.

    A writable state never hits the oracle's memo, and each query returns
    a new output object, so the swap test's memo never hits either: this
    is the simulate-every-repetition behaviour the reuse must reproduce.
    """

    def query_state(self, state):
        return super().query_state(state.copy())


def instance(name: str, width: int, seed: int):
    equivalence, _ = MATCHERS[name]
    rng = random.Random(f"swap-test-reuse:{name}:{width}:{seed}")
    base = random_circuit(width, 3 * width, rng)
    c1, c2, _ = make_instance(base, equivalence, rng)
    return c1, c2


def run(name, c1, c2, oracle_type, seed, use_circuit=False, max_queries=None):
    """Run one matcher; return its observable outcome and the rng's next draw."""
    _, matcher = MATCHERS[name]
    rng = random.Random(seed)
    oracle1 = oracle_type(c1, max_queries=max_queries)
    oracle2 = oracle_type(c2, max_queries=max_queries)
    tester = SwapTest(rng, use_circuit=use_circuit)
    try:
        result = matcher(oracle1, oracle2, epsilon=EPSILON, swap_test=tester)
    except QueryBudgetExceededError:
        outcome = ("budget", oracle1.query_count, oracle2.query_count, tester.runs)
    else:
        pi_x = None if result.pi_x is None else tuple(result.pi_x.mapping)
        outcome = (
            result.nu_x,
            pi_x,
            result.quantum_queries,
            result.swap_tests,
        )
    return outcome, rng.random()


def assert_same_as_reference(name, width, seed, **options):
    c1, c2 = instance(name, width, seed)
    reused = run(name, c1, c2, QuantumCircuitOracle, seed, **options)
    reference = run(name, c1, c2, CopyingOracle, seed, **options)
    assert reused == reference


@pytest.mark.parametrize("name", sorted(MATCHERS))
@pytest.mark.parametrize("width", range(2, 11))
def test_analytic_swap_test_matches_reference(name, width):
    for seed in SEEDS:
        assert_same_as_reference(name, width, seed)


@pytest.mark.parametrize("name", sorted(MATCHERS))
@pytest.mark.parametrize("width", range(2, 5))
def test_circuit_swap_test_matches_reference(name, width):
    for seed in SEEDS:
        assert_same_as_reference(name, width, seed, use_circuit=True)


@pytest.mark.parametrize("name", sorted(MATCHERS))
@pytest.mark.parametrize("width", (3, 6))
def test_budget_exhausts_at_the_same_query(name, width):
    # A budget below the match's cost raises mid-repetition; the reuse
    # must charge up to the very same query and swap test.
    for seed in SEEDS:
        assert_same_as_reference(name, width, seed, max_queries=2 * width + 3)


def test_sweep_reaches_both_swap_test_outcomes():
    # Guard against a degenerate sweep: the instances must include negated
    # lines (some swap test measures 1) and un-negated ones (all repeat).
    negations = [
        bit
        for seed in SEEDS
        for bit in run("N-I", *instance("N-I", 5, seed), QuantumCircuitOracle, seed)[0][0]
    ]
    assert any(negations) and not all(negations)
