"""Golden query accounting of the classical matchers.

Table 1 measures every matcher in oracle queries, so the order in which a
matcher charges its two oracles is part of its result.  These values pin,
for every classical regime (I-N, I-P, I-NP, P-I, P-N, N-P and the
classical-inverse N-I and NP-I) under every inverse configuration the
class admits and at widths 4, 8 and 12:

* the witnesses;
* each oracle's forward and inverse query counts, and ``queries``;
* for each oracle that was queried, the exception and both oracles'
  counters at the moment a rerun stops when that oracle's budget is one
  query short of what it spent (``max_queries = spent - 1``).

A change to how queries are checked, charged or batched must leave all of
these unchanged.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.matchers import (
    match_i_n,
    match_i_np,
    match_i_p,
    match_n_i,
    match_n_p,
    match_np_i,
    match_p_i,
    match_p_n,
)
from repro.core.verify import make_instance
from repro.exceptions import QueryBudgetExceededError
from repro.oracles import CircuitOracle

ALL_INVERSES = ("both", "c1", "c2", "none")

#: class -> (matcher(oracle1, oracle2, rng), admissible inverse
#: configurations).
MATCHERS = {
    "I-N": (lambda o1, o2, rng: match_i_n(o1, o2), ALL_INVERSES),
    "I-P": (lambda o1, o2, rng: match_i_p(o1, o2, rng=rng), ALL_INVERSES),
    "I-NP": (lambda o1, o2, rng: match_i_np(o1, o2, rng=rng), ALL_INVERSES),
    "P-I": (lambda o1, o2, rng: match_p_i(o1, o2), ALL_INVERSES),
    "P-N": (lambda o1, o2, rng: match_p_n(o1, o2), ALL_INVERSES),
    "N-P": (lambda o1, o2, rng: match_n_p(o1, o2), ("both",)),
    "N-I": (lambda o1, o2, rng: match_n_i(o1, o2), ("both", "c1", "c2")),
    "NP-I": (
        lambda o1, o2, rng: match_np_i(o1, o2, rng=rng), ("both", "c1", "c2")
    ),
}

WIDTHS = (4, 8, 12)

#: (class, inverses, width) -> (witnesses, counts, queries, stops) where
#: witnesses is (nu_x, pi_x, nu_y, pi_y) with negations as 0/1 strings and
#: permutations as mappings; counts is (forward1, inverse1, forward2,
#: inverse2); stops holds one (budgeted oracle, budget message, counts)
#: entry per oracle that was queried.  Only QueryBudgetExceededError is
#: caught, so any other exception at the stop fails the test.
GOLDEN = {
    ("I-N", "both", 4): (
        (None, None, "0001", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "both", 8): (
        (None, None, "11100101", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "both", 12): (
        (None, None, "100000011100", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "c1", 4): (
        (None, None, "0101", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "c1", 8): (
        (None, None, "00000110", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "c1", 12): (
        (None, None, "110100100100", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "c2", 4): (
        (None, None, "1010", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "c2", 8): (
        (None, None, "10000000", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "c2", 12): (
        (None, None, "111001110000", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "none", 4): (
        (None, None, "1011", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "none", 8): (
        (None, None, "00110010", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-N", "none", 12): (
        (None, None, "100110010001", None),
        (1, 0, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("I-P", "both", 4): (
        (None, None, None, (1, 0, 2, 3)),
        (2, 0, 0, 2), 4,
        (
            (1, "query budget of 1 exhausted", (1, 0, 0, 2)),
            (2, "query budget of 1 exhausted", (0, 0, 0, 1)),
        ),
    ),
    ("I-P", "both", 8): (
        (None, None, None, (4, 7, 1, 3, 2, 6, 0, 5)),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 3)),
            (2, "query budget of 2 exhausted", (0, 0, 0, 2)),
        ),
    ),
    ("I-P", "both", 12): (
        (None, None, None, (7, 2, 1, 11, 0, 8, 6, 5, 4, 10, 9, 3)),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 4)),
            (2, "query budget of 3 exhausted", (0, 0, 0, 3)),
        ),
    ),
    ("I-P", "c1", 4): (
        (None, None, None, (1, 3, 2, 0)),
        (0, 2, 2, 0), 4,
        (
            (1, "query budget of 1 exhausted", (0, 1, 0, 0)),
            (2, "query budget of 1 exhausted", (0, 2, 1, 0)),
        ),
    ),
    ("I-P", "c1", 8): (
        (None, None, None, (3, 5, 6, 7, 1, 2, 0, 4)),
        (0, 3, 3, 0), 6,
        (
            (1, "query budget of 2 exhausted", (0, 2, 0, 0)),
            (2, "query budget of 2 exhausted", (0, 3, 2, 0)),
        ),
    ),
    ("I-P", "c1", 12): (
        (None, None, None, (6, 3, 10, 4, 0, 2, 9, 8, 7, 11, 5, 1)),
        (0, 4, 4, 0), 8,
        (
            (1, "query budget of 3 exhausted", (0, 3, 0, 0)),
            (2, "query budget of 3 exhausted", (0, 4, 3, 0)),
        ),
    ),
    ("I-P", "c2", 4): (
        (None, None, None, (1, 2, 0, 3)),
        (2, 0, 0, 2), 4,
        (
            (1, "query budget of 1 exhausted", (1, 0, 0, 2)),
            (2, "query budget of 1 exhausted", (0, 0, 0, 1)),
        ),
    ),
    ("I-P", "c2", 8): (
        (None, None, None, (3, 2, 6, 5, 4, 1, 0, 7)),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 3)),
            (2, "query budget of 2 exhausted", (0, 0, 0, 2)),
        ),
    ),
    ("I-P", "c2", 12): (
        (None, None, None, (4, 7, 5, 11, 2, 9, 6, 10, 8, 1, 3, 0)),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 4)),
            (2, "query budget of 3 exhausted", (0, 0, 0, 3)),
        ),
    ),
    ("I-P", "none", 4): (
        (None, None, None, (2, 3, 0, 1)),
        (14, 0, 14, 0), 28,
        (
            (1, "query budget of 13 exhausted", (13, 0, 0, 0)),
            (2, "query budget of 13 exhausted", (14, 0, 13, 0)),
        ),
    ),
    ("I-P", "none", 8): (
        (None, None, None, (4, 2, 3, 1, 7, 0, 6, 5)),
        (16, 0, 16, 0), 32,
        (
            (1, "query budget of 15 exhausted", (15, 0, 0, 0)),
            (2, "query budget of 15 exhausted", (16, 0, 15, 0)),
        ),
    ),
    ("I-P", "none", 12): (
        (None, None, None, (10, 1, 7, 2, 0, 8, 4, 9, 11, 6, 5, 3)),
        (18, 0, 18, 0), 36,
        (
            (1, "query budget of 17 exhausted", (17, 0, 0, 0)),
            (2, "query budget of 17 exhausted", (18, 0, 17, 0)),
        ),
    ),
    ("I-NP", "both", 4): (
        (None, None, "0001", (2, 1, 0, 3)),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 3)),
            (2, "query budget of 2 exhausted", (1, 0, 0, 2)),
        ),
    ),
    ("I-NP", "both", 8): (
        (None, None, "00110111", (4, 6, 2, 1, 0, 3, 7, 5)),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 4)),
            (2, "query budget of 3 exhausted", (1, 0, 0, 3)),
        ),
    ),
    ("I-NP", "both", 12): (
        (None, None, "001001011010", (8, 11, 4, 5, 2, 1, 10, 9, 3, 6, 7, 0)),
        (5, 0, 0, 5), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 0, 5)),
            (2, "query budget of 4 exhausted", (1, 0, 0, 4)),
        ),
    ),
    ("I-NP", "c1", 4): (
        (None, None, "1011", (1, 0, 2, 3)),
        (0, 3, 3, 0), 6,
        (
            (1, "query budget of 2 exhausted", (0, 2, 1, 0)),
            (2, "query budget of 2 exhausted", (0, 3, 2, 0)),
        ),
    ),
    ("I-NP", "c1", 8): (
        (None, None, "10101111", (1, 6, 3, 5, 0, 2, 7, 4)),
        (0, 4, 4, 0), 8,
        (
            (1, "query budget of 3 exhausted", (0, 3, 1, 0)),
            (2, "query budget of 3 exhausted", (0, 4, 3, 0)),
        ),
    ),
    ("I-NP", "c1", 12): (
        (None, None, "001001100101", (5, 8, 9, 3, 6, 1, 0, 7, 11, 4, 10, 2)),
        (0, 5, 5, 0), 10,
        (
            (1, "query budget of 4 exhausted", (0, 4, 1, 0)),
            (2, "query budget of 4 exhausted", (0, 5, 4, 0)),
        ),
    ),
    ("I-NP", "c2", 4): (
        (None, None, "0110", (2, 0, 3, 1)),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 3)),
            (2, "query budget of 2 exhausted", (1, 0, 0, 2)),
        ),
    ),
    ("I-NP", "c2", 8): (
        (None, None, "11100110", (5, 3, 7, 1, 6, 0, 2, 4)),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 4)),
            (2, "query budget of 3 exhausted", (1, 0, 0, 3)),
        ),
    ),
    ("I-NP", "c2", 12): (
        (None, None, "110111101001", (0, 2, 1, 6, 7, 4, 10, 8, 3, 11, 5, 9)),
        (5, 0, 0, 5), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 0, 5)),
            (2, "query budget of 4 exhausted", (1, 0, 0, 4)),
        ),
    ),
    ("I-NP", "none", 4): (
        (None, None, "1001", (0, 2, 1, 3)),
        (15, 0, 15, 0), 30,
        (
            (1, "query budget of 14 exhausted", (14, 0, 0, 0)),
            (2, "query budget of 14 exhausted", (15, 0, 14, 0)),
        ),
    ),
    ("I-NP", "none", 8): (
        (None, None, "01110101", (1, 7, 2, 6, 4, 3, 5, 0)),
        (17, 0, 17, 0), 34,
        (
            (1, "query budget of 16 exhausted", (16, 0, 0, 0)),
            (2, "query budget of 16 exhausted", (17, 0, 16, 0)),
        ),
    ),
    ("I-NP", "none", 12): (
        (None, None, "100110011011", (2, 3, 4, 7, 1, 8, 11, 9, 5, 6, 10, 0)),
        (19, 0, 19, 0), 38,
        (
            (1, "query budget of 18 exhausted", (18, 0, 0, 0)),
            (2, "query budget of 18 exhausted", (19, 0, 18, 0)),
        ),
    ),
    ("P-I", "both", 4): (
        (None, (1, 2, 0, 3), None, None),
        (2, 0, 0, 2), 4,
        (
            (1, "query budget of 1 exhausted", (1, 0, 0, 0)),
            (2, "query budget of 1 exhausted", (2, 0, 0, 1)),
        ),
    ),
    ("P-I", "both", 8): (
        (None, (6, 1, 3, 0, 5, 7, 4, 2), None, None),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 0)),
            (2, "query budget of 2 exhausted", (3, 0, 0, 2)),
        ),
    ),
    ("P-I", "both", 12): (
        (None, (0, 9, 7, 5, 11, 10, 4, 2, 1, 8, 6, 3), None, None),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 0)),
            (2, "query budget of 3 exhausted", (4, 0, 0, 3)),
        ),
    ),
    ("P-I", "c1", 4): (
        (None, (1, 3, 2, 0), None, None),
        (0, 2, 2, 0), 4,
        (
            (1, "query budget of 1 exhausted", (0, 1, 2, 0)),
            (2, "query budget of 1 exhausted", (0, 0, 1, 0)),
        ),
    ),
    ("P-I", "c1", 8): (
        (None, (5, 2, 6, 7, 4, 0, 1, 3), None, None),
        (0, 3, 3, 0), 6,
        (
            (1, "query budget of 2 exhausted", (0, 2, 3, 0)),
            (2, "query budget of 2 exhausted", (0, 0, 2, 0)),
        ),
    ),
    ("P-I", "c1", 12): (
        (None, (9, 0, 6, 10, 5, 3, 7, 11, 4, 2, 8, 1), None, None),
        (0, 4, 4, 0), 8,
        (
            (1, "query budget of 3 exhausted", (0, 3, 4, 0)),
            (2, "query budget of 3 exhausted", (0, 0, 3, 0)),
        ),
    ),
    ("P-I", "c2", 4): (
        (None, (0, 2, 3, 1), None, None),
        (2, 0, 0, 2), 4,
        (
            (1, "query budget of 1 exhausted", (1, 0, 0, 0)),
            (2, "query budget of 1 exhausted", (2, 0, 0, 1)),
        ),
    ),
    ("P-I", "c2", 8): (
        (None, (2, 1, 4, 5, 7, 6, 0, 3), None, None),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 0)),
            (2, "query budget of 2 exhausted", (3, 0, 0, 2)),
        ),
    ),
    ("P-I", "c2", 12): (
        (None, (6, 11, 4, 1, 2, 5, 8, 0, 10, 7, 9, 3), None, None),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 0)),
            (2, "query budget of 3 exhausted", (4, 0, 0, 3)),
        ),
    ),
    ("P-I", "none", 4): (
        (None, (1, 2, 3, 0), None, None),
        (4, 0, 4, 0), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 0)),
            (2, "query budget of 3 exhausted", (4, 0, 3, 0)),
        ),
    ),
    ("P-I", "none", 8): (
        (None, (0, 2, 5, 1, 4, 3, 7, 6), None, None),
        (8, 0, 8, 0), 16,
        (
            (1, "query budget of 7 exhausted", (7, 0, 0, 0)),
            (2, "query budget of 7 exhausted", (8, 0, 7, 0)),
        ),
    ),
    ("P-I", "none", 12): (
        (None, (3, 4, 11, 2, 1, 7, 5, 10, 8, 0, 9, 6), None, None),
        (12, 0, 12, 0), 24,
        (
            (1, "query budget of 11 exhausted", (11, 0, 0, 0)),
            (2, "query budget of 11 exhausted", (12, 0, 11, 0)),
        ),
    ),
    ("P-N", "both", 4): (
        (None, (2, 1, 0, 3), "1010", None),
        (3, 0, 1, 2), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 1, 0)),
            (2, "query budget of 2 exhausted", (3, 0, 1, 1)),
        ),
    ),
    ("P-N", "both", 8): (
        (None, (6, 2, 1, 0, 3, 4, 5, 7), "01011011", None),
        (4, 0, 1, 3), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 1, 0)),
            (2, "query budget of 3 exhausted", (4, 0, 1, 2)),
        ),
    ),
    ("P-N", "both", 12): (
        (None, (6, 7, 10, 5, 0, 8, 11, 2, 9, 4, 3, 1), "101001111111", None),
        (5, 0, 1, 4), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 1, 0)),
            (2, "query budget of 4 exhausted", (5, 0, 1, 3)),
        ),
    ),
    ("P-N", "c1", 4): (
        (None, (1, 2, 0, 3), "1110", None),
        (1, 2, 3, 0), 6,
        (
            (1, "query budget of 2 exhausted", (1, 1, 3, 0)),
            (2, "query budget of 2 exhausted", (1, 0, 2, 0)),
        ),
    ),
    ("P-N", "c1", 8): (
        (None, (1, 0, 6, 4, 3, 7, 2, 5), "00001111", None),
        (1, 3, 4, 0), 8,
        (
            (1, "query budget of 3 exhausted", (1, 2, 4, 0)),
            (2, "query budget of 3 exhausted", (1, 0, 3, 0)),
        ),
    ),
    ("P-N", "c1", 12): (
        (None, (6, 5, 4, 0, 7, 1, 8, 10, 2, 3, 9, 11), "101111111101", None),
        (1, 4, 5, 0), 10,
        (
            (1, "query budget of 4 exhausted", (1, 3, 5, 0)),
            (2, "query budget of 4 exhausted", (1, 0, 4, 0)),
        ),
    ),
    ("P-N", "c2", 4): (
        (None, (3, 0, 2, 1), "0100", None),
        (3, 0, 1, 2), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 1, 0)),
            (2, "query budget of 2 exhausted", (3, 0, 1, 1)),
        ),
    ),
    ("P-N", "c2", 8): (
        (None, (3, 2, 1, 4, 5, 7, 0, 6), "00011001", None),
        (4, 0, 1, 3), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 1, 0)),
            (2, "query budget of 3 exhausted", (4, 0, 1, 2)),
        ),
    ),
    ("P-N", "c2", 12): (
        (None, (1, 6, 10, 0, 7, 11, 3, 4, 8, 9, 2, 5), "011001010100", None),
        (5, 0, 1, 4), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 1, 0)),
            (2, "query budget of 4 exhausted", (5, 0, 1, 3)),
        ),
    ),
    ("P-N", "none", 4): (
        (None, (0, 3, 2, 1), "0100", None),
        (5, 0, 5, 0), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 1, 0)),
            (2, "query budget of 4 exhausted", (5, 0, 4, 0)),
        ),
    ),
    ("P-N", "none", 8): (
        (None, (5, 4, 7, 3, 0, 2, 1, 6), "00010101", None),
        (9, 0, 9, 0), 18,
        (
            (1, "query budget of 8 exhausted", (8, 0, 1, 0)),
            (2, "query budget of 8 exhausted", (9, 0, 8, 0)),
        ),
    ),
    ("P-N", "none", 12): (
        (None, (8, 4, 2, 7, 5, 10, 9, 3, 11, 0, 1, 6), "100010010110", None),
        (13, 0, 13, 0), 26,
        (
            (1, "query budget of 12 exhausted", (12, 0, 1, 0)),
            (2, "query budget of 12 exhausted", (13, 0, 12, 0)),
        ),
    ),
    ("N-P", "both", 4): (
        ("1100", None, None, (2, 0, 3, 1)),
        (0, 3, 2, 1), 6,
        (
            (1, "query budget of 2 exhausted", (0, 2, 0, 1)),
            (2, "query budget of 2 exhausted", (0, 3, 1, 1)),
        ),
    ),
    ("N-P", "both", 8): (
        ("10010110", None, None, (6, 0, 2, 5, 3, 7, 1, 4)),
        (0, 4, 3, 1), 8,
        (
            (1, "query budget of 3 exhausted", (0, 3, 0, 1)),
            (2, "query budget of 3 exhausted", (0, 4, 2, 1)),
        ),
    ),
    ("N-P", "both", 12): (
        ("100101100001", None, None, (4, 3, 7, 8, 10, 1, 5, 6, 11, 2, 0, 9)),
        (0, 5, 4, 1), 10,
        (
            (1, "query budget of 4 exhausted", (0, 4, 0, 1)),
            (2, "query budget of 4 exhausted", (0, 5, 3, 1)),
        ),
    ),
    ("N-I", "both", 4): (
        ("0100", None, None, None),
        (1, 0, 0, 1), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("N-I", "both", 8): (
        ("00100101", None, None, None),
        (1, 0, 0, 1), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("N-I", "both", 12): (
        ("110000001001", None, None, None),
        (1, 0, 0, 1), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("N-I", "c1", 4): (
        ("1001", None, None, None),
        (0, 1, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 1, 0)),
            (2, "query budget of 0 exhausted", (0, 0, 0, 0)),
        ),
    ),
    ("N-I", "c1", 8): (
        ("01111010", None, None, None),
        (0, 1, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 1, 0)),
            (2, "query budget of 0 exhausted", (0, 0, 0, 0)),
        ),
    ),
    ("N-I", "c1", 12): (
        ("011010000100", None, None, None),
        (0, 1, 1, 0), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 1, 0)),
            (2, "query budget of 0 exhausted", (0, 0, 0, 0)),
        ),
    ),
    ("N-I", "c2", 4): (
        ("1010", None, None, None),
        (1, 0, 0, 1), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("N-I", "c2", 8): (
        ("01000010", None, None, None),
        (1, 0, 0, 1), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("N-I", "c2", 12): (
        ("000000001100", None, None, None),
        (1, 0, 0, 1), 2,
        (
            (1, "query budget of 0 exhausted", (0, 0, 0, 0)),
            (2, "query budget of 0 exhausted", (1, 0, 0, 0)),
        ),
    ),
    ("NP-I", "both", 4): (
        ("1111", (3, 0, 1, 2), None, None),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 1)),
            (2, "query budget of 2 exhausted", (3, 0, 0, 2)),
        ),
    ),
    ("NP-I", "both", 8): (
        ("00010000", (4, 0, 3, 2, 6, 5, 7, 1), None, None),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 1)),
            (2, "query budget of 3 exhausted", (4, 0, 0, 3)),
        ),
    ),
    ("NP-I", "both", 12): (
        ("111000110011", (10, 5, 11, 2, 7, 4, 6, 8, 9, 1, 0, 3), None, None),
        (5, 0, 0, 5), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 0, 1)),
            (2, "query budget of 4 exhausted", (5, 0, 0, 4)),
        ),
    ),
    ("NP-I", "c1", 4): (
        ("1000", (1, 0, 3, 2), None, None),
        (0, 3, 3, 0), 6,
        (
            (1, "query budget of 2 exhausted", (0, 2, 3, 0)),
            (2, "query budget of 2 exhausted", (0, 1, 2, 0)),
        ),
    ),
    ("NP-I", "c1", 8): (
        ("00101110", (3, 6, 5, 7, 4, 2, 0, 1), None, None),
        (0, 4, 4, 0), 8,
        (
            (1, "query budget of 3 exhausted", (0, 3, 4, 0)),
            (2, "query budget of 3 exhausted", (0, 1, 3, 0)),
        ),
    ),
    ("NP-I", "c1", 12): (
        ("011001101000", (2, 0, 10, 1, 7, 3, 6, 8, 4, 11, 5, 9), None, None),
        (0, 5, 5, 0), 10,
        (
            (1, "query budget of 4 exhausted", (0, 4, 5, 0)),
            (2, "query budget of 4 exhausted", (0, 1, 4, 0)),
        ),
    ),
    ("NP-I", "c2", 4): (
        ("0111", (0, 1, 3, 2), None, None),
        (3, 0, 0, 3), 6,
        (
            (1, "query budget of 2 exhausted", (2, 0, 0, 1)),
            (2, "query budget of 2 exhausted", (3, 0, 0, 2)),
        ),
    ),
    ("NP-I", "c2", 8): (
        ("01111111", (1, 6, 7, 2, 3, 4, 0, 5), None, None),
        (4, 0, 0, 4), 8,
        (
            (1, "query budget of 3 exhausted", (3, 0, 0, 1)),
            (2, "query budget of 3 exhausted", (4, 0, 0, 3)),
        ),
    ),
    ("NP-I", "c2", 12): (
        ("010001001111", (1, 0, 10, 3, 4, 8, 9, 5, 2, 6, 11, 7), None, None),
        (5, 0, 0, 5), 10,
        (
            (1, "query budget of 4 exhausted", (4, 0, 0, 1)),
            (2, "query budget of 4 exhausted", (5, 0, 0, 4)),
        ),
    ),
}


def _bits(negation) -> str | None:
    if negation is None:
        return None
    return "".join("1" if bit else "0" for bit in negation)


def _mapping(permutation) -> tuple[int, ...] | None:
    return None if permutation is None else tuple(permutation.mapping)


def _counts(oracle1, oracle2) -> tuple[int, int, int, int]:
    return (
        oracle1.query_count,
        oracle1.inverse_query_count,
        oracle2.query_count,
        oracle2.inverse_query_count,
    )


def _run(name: str, inverses: str, width: int, budgets=(None, None)):
    matcher, _ = MATCHERS[name]
    rng = random.Random(f"golden-classical:{name}:{inverses}:{width}")
    base = random_circuit(width, 3 * width, rng)
    c1, c2, _ = make_instance(base, EquivalenceType.from_label(name), rng)
    oracle1 = CircuitOracle(
        c1, with_inverse=inverses in ("both", "c1"), max_queries=budgets[0]
    )
    oracle2 = CircuitOracle(
        c2, with_inverse=inverses in ("both", "c2"), max_queries=budgets[1]
    )
    try:
        result = matcher(oracle1, oracle2, rng)
    except QueryBudgetExceededError as error:
        return error, _counts(oracle1, oracle2)
    return result, _counts(oracle1, oracle2)


def golden_result(name: str, inverses: str, width: int) -> tuple:
    result, counts = _run(name, inverses, width)
    witnesses = (
        _bits(result.nu_x),
        _mapping(result.pi_x),
        _bits(result.nu_y),
        _mapping(result.pi_y),
    )
    stops = []
    spent_by_oracle = (counts[0] + counts[1], counts[2] + counts[3])
    for index, spent in enumerate(spent_by_oracle):
        if spent == 0:
            continue
        budgets = [None, None]
        budgets[index] = spent - 1
        error, stopped_at = _run(name, inverses, width, tuple(budgets))
        stops.append((index + 1, str(error), stopped_at))
    return witnesses, counts, result.queries, tuple(stops)


CASES = [
    (name, inverses, width)
    for name, (_, admissible) in MATCHERS.items()
    for inverses in admissible
    for width in WIDTHS
]


def test_every_case_is_pinned():
    assert sorted(GOLDEN, key=repr) == sorted(CASES, key=repr)


@pytest.mark.parametrize("key", CASES, ids=repr)
def test_classical_matcher_accounting_is_pinned(key):
    assert golden_result(*key) == GOLDEN[key]
