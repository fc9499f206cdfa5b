"""Golden results of the quantum N-I and NP-I matchers.

Swap-test outcomes are Born-rule draws from one seeded rng, so a matcher's
result depends on every amplitude of every probe and oracle output.  A
change to how probes are prepared or when they are built must leave the
same draws, witnesses and query counts; these values pin them at fixed
seeds and widths 4, 8 and 12 (the probes are built from random circuits
with negative controls, so line permutations and negations are both
exercised).
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.matchers import match_n_i_quantum, match_np_i_quantum
from repro.core.verify import make_instance

MATCHERS = {
    "N-I": (EquivalenceType.N_I, match_n_i_quantum),
    "NP-I": (EquivalenceType.NP_I, match_np_i_quantum),
}

#: (class, width, seed) -> (nu_x as 0/1 string, pi_x mapping or None,
#: quantum_queries, swap_tests).
GOLDEN = {
    ("N-I", 4, 1): ("1011", None, 32, 16),
    ("N-I", 4, 2): ("0011", None, 44, 22),
    ("N-I", 8, 1): ("10001001", None, 108, 54),
    ("N-I", 8, 2): ("10111000", None, 90, 45),
    ("N-I", 12, 1): ("111101001110", None, 118, 59),
    ("N-I", 12, 2): ("000011011011", None, 140, 70),
    ("NP-I", 4, 1): ("1101", (0, 3, 1, 2), 96, 48),
    ("NP-I", 4, 2): ("0111", (2, 1, 0, 3), 102, 51),
    ("NP-I", 8, 1): ("01111001", (1, 7, 6, 3, 5, 2, 4, 0), 274, 137),
    ("NP-I", 8, 2): ("11110111", (5, 0, 1, 6, 3, 2, 4, 7), 230, 115),
    ("NP-I", 12, 1): (
        "111100101010", (6, 8, 7, 10, 5, 11, 3, 4, 1, 2, 9, 0), 496, 248
    ),
    ("NP-I", 12, 2): (
        "011111100100", (5, 11, 4, 3, 10, 0, 7, 8, 1, 2, 6, 9), 476, 238
    ),
}


def golden_result(name: str, width: int, seed: int) -> tuple:
    equivalence, matcher = MATCHERS[name]
    rng = random.Random(f"golden-quantum:{name}:{width}:{seed}")
    base = random_circuit(width, 3 * width, rng)
    c1, c2, _ = make_instance(base, equivalence, rng)
    result = matcher(c1, c2, epsilon=1e-3, rng=rng)
    nu_x = "".join("1" if bit else "0" for bit in result.nu_x)
    pi_x = None if result.pi_x is None else tuple(result.pi_x.mapping)
    return nu_x, pi_x, result.quantum_queries, result.swap_tests


@pytest.mark.parametrize("key", sorted(GOLDEN, key=repr), ids=repr)
def test_quantum_matcher_result_is_pinned(key):
    assert golden_result(*key) == GOLDEN[key]
