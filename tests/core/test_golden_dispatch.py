"""Golden dispatch: which matcher every Table 1 cell runs, or why none can.

Each of the 16 X-Y classes gets one 3-line promised pair, matched through
:meth:`MatchingEngine.match_many` under every combination of

* inverse access: none, the first oracle only, or both oracles;
* quantum access: off or on;
* the brute-force opt-in: off or on;

192 cases in all.  For each case the resolved matcher name, whether it
produced witnesses, and the exact error text are pinned, so a change to
how dispatch is built must resolve every cell to the same matcher, or fail
it with the same message, as before.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.random import random_circuit
from repro.core import EquivalenceType, MatchingConfig, MatchingEngine, make_instance
from repro.oracles import CircuitOracle

INVERSES = ("none", "first", "both")


def run_case(label: str, inverses: str, quantum: bool, brute_force: bool):
    """``(matcher, matched, error)`` of one dispatch cell."""
    equivalence = EquivalenceType.from_label(label)
    rng = random.Random(f"golden-dispatch/{label}")
    base = random_circuit(3, 8, rng)
    circuit1, circuit2, _ = make_instance(base, equivalence, rng)
    target1 = (
        circuit1
        if inverses == "none"
        else CircuitOracle(circuit1, with_inverse=True)
    )
    target2 = (
        CircuitOracle(circuit2, with_inverse=True) if inverses == "both" else circuit2
    )
    engine = MatchingEngine(
        MatchingConfig(allow_quantum=quantum, allow_brute_force=brute_force)
    )
    [entry] = engine.match_many(
        [(target1, target2, equivalence)],
        rng=random.Random(f"golden-dispatch/{label}/{inverses}"),
    )
    return entry.matcher, entry.matched, entry.error


#: Every distinct error text, keyed by the name the cases use.
ERRORS = {
    'E00': (
        'UnsupportedEquivalenceError: no N-I matcher is eligible with capabilities {} (class is quantum-easy)\n'
        '  - n-i/inverse-probe [exact, O(1)] requires {inverse}; missing {inverse}\n'
        '  - n-i/swap-test [quantum, O(n log 1/eps)] requires {quantum}; missing {quantum}\n'
        '  - n-i/simon [quantum, O(n)] requires {quantum}; missing {quantum}\n'
        '  - n-i/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}'
    ),
    'E01': (
        'UnsupportedEquivalenceError: no N-N matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - n-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E02': (
        'UnsupportedEquivalenceError: no N-N matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - n-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E03': (
        'UnsupportedEquivalenceError: no N-N matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - n-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E04': (
        'UnsupportedEquivalenceError: no N-N matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - n-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E05': (
        'UnsupportedEquivalenceError: no N-N matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - n-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E06': (
        'UnsupportedEquivalenceError: no N-N matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - n-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E07': (
        'UnsupportedEquivalenceError: no N-P matcher is eligible with capabilities {} (class is conditionally-easy)\n'
        '  - n-p/inverse-pair [exact, O(log n)] requires {both-inverses}; missing {both-inverses}\n'
        '  - n-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}'
    ),
    'E08': (
        'UnsupportedEquivalenceError: no N-P matcher is eligible with capabilities {quantum} (class is conditionally-easy)\n'
        '  - n-p/inverse-pair [exact, O(log n)] requires {both-inverses}; missing {both-inverses}\n'
        '  - n-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}'
    ),
    'E09': (
        'UnsupportedEquivalenceError: no N-P matcher is eligible with capabilities {inverse} (class is conditionally-easy)\n'
        '  - n-p/inverse-pair [exact, O(log n)] requires {both-inverses}; missing {both-inverses}\n'
        '  - n-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}'
    ),
    'E10': (
        'UnsupportedEquivalenceError: no N-P matcher is eligible with capabilities {inverse, quantum} (class is conditionally-easy)\n'
        '  - n-p/inverse-pair [exact, O(log n)] requires {both-inverses}; missing {both-inverses}\n'
        '  - n-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}'
    ),
    'E11': (
        'UnsupportedEquivalenceError: no N-NP matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - n-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E12': (
        'UnsupportedEquivalenceError: no N-NP matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - n-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E13': (
        'UnsupportedEquivalenceError: no N-NP matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - n-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E14': (
        'UnsupportedEquivalenceError: no N-NP matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - n-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E15': (
        'UnsupportedEquivalenceError: no N-NP matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - n-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E16': (
        'UnsupportedEquivalenceError: no N-NP matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - n-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E17': (
        'UnsupportedEquivalenceError: no P-P matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - p-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E18': (
        'UnsupportedEquivalenceError: no P-P matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - p-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E19': (
        'UnsupportedEquivalenceError: no P-P matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - p-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E20': (
        'UnsupportedEquivalenceError: no P-P matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - p-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E21': (
        'UnsupportedEquivalenceError: no P-P matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - p-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E22': (
        'UnsupportedEquivalenceError: no P-P matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - p-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E23': (
        'UnsupportedEquivalenceError: no P-NP matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - p-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E24': (
        'UnsupportedEquivalenceError: no P-NP matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - p-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E25': (
        'UnsupportedEquivalenceError: no P-NP matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - p-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E26': (
        'UnsupportedEquivalenceError: no P-NP matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - p-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E27': (
        'UnsupportedEquivalenceError: no P-NP matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - p-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E28': (
        'UnsupportedEquivalenceError: no P-NP matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - p-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E29': (
        'UnsupportedEquivalenceError: no NP-I matcher is eligible with capabilities {} (class is quantum-easy)\n'
        '  - np-i/binary-code [exact, O(log n)] requires {inverse}; missing {inverse}\n'
        '  - np-i/swap-test [quantum, O(n^2 log 1/eps)] requires {quantum}; missing {quantum}\n'
        '  - np-i/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}'
    ),
    'E30': (
        'UnsupportedEquivalenceError: no NP-N matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - np-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E31': (
        'UnsupportedEquivalenceError: no NP-N matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - np-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E32': (
        'UnsupportedEquivalenceError: no NP-N matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - np-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E33': (
        'UnsupportedEquivalenceError: no NP-N matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - np-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E34': (
        'UnsupportedEquivalenceError: no NP-N matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - np-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E35': (
        'UnsupportedEquivalenceError: no NP-N matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - np-n/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E36': (
        'UnsupportedEquivalenceError: no NP-P matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - np-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E37': (
        'UnsupportedEquivalenceError: no NP-P matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - np-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E38': (
        'UnsupportedEquivalenceError: no NP-P matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - np-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E39': (
        'UnsupportedEquivalenceError: no NP-P matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - np-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E40': (
        'UnsupportedEquivalenceError: no NP-P matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - np-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E41': (
        'UnsupportedEquivalenceError: no NP-P matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - np-p/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E42': (
        'UnsupportedEquivalenceError: no NP-NP matcher is eligible with capabilities {} (class is unique-sat-hard)\n'
        '  - np-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E43': (
        'UnsupportedEquivalenceError: no NP-NP matcher is eligible with capabilities {quantum} (class is unique-sat-hard)\n'
        '  - np-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E44': (
        'UnsupportedEquivalenceError: no NP-NP matcher is eligible with capabilities {inverse} (class is unique-sat-hard)\n'
        '  - np-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E45': (
        'UnsupportedEquivalenceError: no NP-NP matcher is eligible with capabilities {inverse, quantum} (class is unique-sat-hard)\n'
        '  - np-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E46': (
        'UnsupportedEquivalenceError: no NP-NP matcher is eligible with capabilities {both-inverses, inverse} (class is unique-sat-hard)\n'
        '  - np-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
    'E47': (
        'UnsupportedEquivalenceError: no NP-NP matcher is eligible with capabilities {both-inverses, inverse, quantum} (class is unique-sat-hard)\n'
        '  - np-np/brute-force [brute-force, O(2^n poly)] requires {brute-force}; missing {brute-force}\n'
        'the class is no easier than UNIQUE-SAT (Theorems 2 and 3); see repro.core.hardness for the reductions'
    ),
}

#: (class, inverses, quantum, brute force) -> (matcher, matched, error key).
GOLDEN = {
    ('I-I', 'none', False, False): ('i-i/trivial', True, None),
    ('I-I', 'none', False, True): ('i-i/trivial', True, None),
    ('I-I', 'none', True, False): ('i-i/trivial', True, None),
    ('I-I', 'none', True, True): ('i-i/trivial', True, None),
    ('I-I', 'first', False, False): ('i-i/trivial', True, None),
    ('I-I', 'first', False, True): ('i-i/trivial', True, None),
    ('I-I', 'first', True, False): ('i-i/trivial', True, None),
    ('I-I', 'first', True, True): ('i-i/trivial', True, None),
    ('I-I', 'both', False, False): ('i-i/trivial', True, None),
    ('I-I', 'both', False, True): ('i-i/trivial', True, None),
    ('I-I', 'both', True, False): ('i-i/trivial', True, None),
    ('I-I', 'both', True, True): ('i-i/trivial', True, None),
    ('I-N', 'none', False, False): ('i-n/zero-probe', True, None),
    ('I-N', 'none', False, True): ('i-n/zero-probe', True, None),
    ('I-N', 'none', True, False): ('i-n/zero-probe', True, None),
    ('I-N', 'none', True, True): ('i-n/zero-probe', True, None),
    ('I-N', 'first', False, False): ('i-n/zero-probe', True, None),
    ('I-N', 'first', False, True): ('i-n/zero-probe', True, None),
    ('I-N', 'first', True, False): ('i-n/zero-probe', True, None),
    ('I-N', 'first', True, True): ('i-n/zero-probe', True, None),
    ('I-N', 'both', False, False): ('i-n/zero-probe', True, None),
    ('I-N', 'both', False, True): ('i-n/zero-probe', True, None),
    ('I-N', 'both', True, False): ('i-n/zero-probe', True, None),
    ('I-N', 'both', True, True): ('i-n/zero-probe', True, None),
    ('I-P', 'none', False, False): ('i-p/output-sequences', True, None),
    ('I-P', 'none', False, True): ('i-p/output-sequences', True, None),
    ('I-P', 'none', True, False): ('i-p/output-sequences', True, None),
    ('I-P', 'none', True, True): ('i-p/output-sequences', True, None),
    ('I-P', 'first', False, False): ('i-p/binary-code', True, None),
    ('I-P', 'first', False, True): ('i-p/binary-code', True, None),
    ('I-P', 'first', True, False): ('i-p/binary-code', True, None),
    ('I-P', 'first', True, True): ('i-p/binary-code', True, None),
    ('I-P', 'both', False, False): ('i-p/binary-code', True, None),
    ('I-P', 'both', False, True): ('i-p/binary-code', True, None),
    ('I-P', 'both', True, False): ('i-p/binary-code', True, None),
    ('I-P', 'both', True, True): ('i-p/binary-code', True, None),
    ('I-NP', 'none', False, False): ('i-np/output-sequences', True, None),
    ('I-NP', 'none', False, True): ('i-np/output-sequences', True, None),
    ('I-NP', 'none', True, False): ('i-np/output-sequences', True, None),
    ('I-NP', 'none', True, True): ('i-np/output-sequences', True, None),
    ('I-NP', 'first', False, False): ('i-np/binary-code', True, None),
    ('I-NP', 'first', False, True): ('i-np/binary-code', True, None),
    ('I-NP', 'first', True, False): ('i-np/binary-code', True, None),
    ('I-NP', 'first', True, True): ('i-np/binary-code', True, None),
    ('I-NP', 'both', False, False): ('i-np/binary-code', True, None),
    ('I-NP', 'both', False, True): ('i-np/binary-code', True, None),
    ('I-NP', 'both', True, False): ('i-np/binary-code', True, None),
    ('I-NP', 'both', True, True): ('i-np/binary-code', True, None),
    ('N-I', 'none', False, False): (None, False, 'E00'),
    ('N-I', 'none', False, True): ('n-i/brute-force', True, None),
    ('N-I', 'none', True, False): ('n-i/swap-test', True, None),
    ('N-I', 'none', True, True): ('n-i/swap-test', True, None),
    ('N-I', 'first', False, False): ('n-i/inverse-probe', True, None),
    ('N-I', 'first', False, True): ('n-i/inverse-probe', True, None),
    ('N-I', 'first', True, False): ('n-i/inverse-probe', True, None),
    ('N-I', 'first', True, True): ('n-i/inverse-probe', True, None),
    ('N-I', 'both', False, False): ('n-i/inverse-probe', True, None),
    ('N-I', 'both', False, True): ('n-i/inverse-probe', True, None),
    ('N-I', 'both', True, False): ('n-i/inverse-probe', True, None),
    ('N-I', 'both', True, True): ('n-i/inverse-probe', True, None),
    ('N-N', 'none', False, False): (None, False, 'E01'),
    ('N-N', 'none', False, True): ('n-n/brute-force', True, None),
    ('N-N', 'none', True, False): (None, False, 'E02'),
    ('N-N', 'none', True, True): ('n-n/brute-force', True, None),
    ('N-N', 'first', False, False): (None, False, 'E03'),
    ('N-N', 'first', False, True): ('n-n/brute-force', True, None),
    ('N-N', 'first', True, False): (None, False, 'E04'),
    ('N-N', 'first', True, True): ('n-n/brute-force', True, None),
    ('N-N', 'both', False, False): (None, False, 'E05'),
    ('N-N', 'both', False, True): ('n-n/brute-force', True, None),
    ('N-N', 'both', True, False): (None, False, 'E06'),
    ('N-N', 'both', True, True): ('n-n/brute-force', True, None),
    ('N-P', 'none', False, False): (None, False, 'E07'),
    ('N-P', 'none', False, True): ('n-p/brute-force', True, None),
    ('N-P', 'none', True, False): (None, False, 'E08'),
    ('N-P', 'none', True, True): ('n-p/brute-force', True, None),
    ('N-P', 'first', False, False): (None, False, 'E09'),
    ('N-P', 'first', False, True): ('n-p/brute-force', True, None),
    ('N-P', 'first', True, False): (None, False, 'E10'),
    ('N-P', 'first', True, True): ('n-p/brute-force', True, None),
    ('N-P', 'both', False, False): ('n-p/inverse-pair', True, None),
    ('N-P', 'both', False, True): ('n-p/inverse-pair', True, None),
    ('N-P', 'both', True, False): ('n-p/inverse-pair', True, None),
    ('N-P', 'both', True, True): ('n-p/inverse-pair', True, None),
    ('N-NP', 'none', False, False): (None, False, 'E11'),
    ('N-NP', 'none', False, True): ('n-np/brute-force', True, None),
    ('N-NP', 'none', True, False): (None, False, 'E12'),
    ('N-NP', 'none', True, True): ('n-np/brute-force', True, None),
    ('N-NP', 'first', False, False): (None, False, 'E13'),
    ('N-NP', 'first', False, True): ('n-np/brute-force', True, None),
    ('N-NP', 'first', True, False): (None, False, 'E14'),
    ('N-NP', 'first', True, True): ('n-np/brute-force', True, None),
    ('N-NP', 'both', False, False): (None, False, 'E15'),
    ('N-NP', 'both', False, True): ('n-np/brute-force', True, None),
    ('N-NP', 'both', True, False): (None, False, 'E16'),
    ('N-NP', 'both', True, True): ('n-np/brute-force', True, None),
    ('P-I', 'none', False, False): ('p-i/one-hot', True, None),
    ('P-I', 'none', False, True): ('p-i/one-hot', True, None),
    ('P-I', 'none', True, False): ('p-i/one-hot', True, None),
    ('P-I', 'none', True, True): ('p-i/one-hot', True, None),
    ('P-I', 'first', False, False): ('p-i/binary-code', True, None),
    ('P-I', 'first', False, True): ('p-i/binary-code', True, None),
    ('P-I', 'first', True, False): ('p-i/binary-code', True, None),
    ('P-I', 'first', True, True): ('p-i/binary-code', True, None),
    ('P-I', 'both', False, False): ('p-i/binary-code', True, None),
    ('P-I', 'both', False, True): ('p-i/binary-code', True, None),
    ('P-I', 'both', True, False): ('p-i/binary-code', True, None),
    ('P-I', 'both', True, True): ('p-i/binary-code', True, None),
    ('P-N', 'none', False, False): ('p-n/one-hot', True, None),
    ('P-N', 'none', False, True): ('p-n/one-hot', True, None),
    ('P-N', 'none', True, False): ('p-n/one-hot', True, None),
    ('P-N', 'none', True, True): ('p-n/one-hot', True, None),
    ('P-N', 'first', False, False): ('p-n/binary-code', True, None),
    ('P-N', 'first', False, True): ('p-n/binary-code', True, None),
    ('P-N', 'first', True, False): ('p-n/binary-code', True, None),
    ('P-N', 'first', True, True): ('p-n/binary-code', True, None),
    ('P-N', 'both', False, False): ('p-n/binary-code', True, None),
    ('P-N', 'both', False, True): ('p-n/binary-code', True, None),
    ('P-N', 'both', True, False): ('p-n/binary-code', True, None),
    ('P-N', 'both', True, True): ('p-n/binary-code', True, None),
    ('P-P', 'none', False, False): (None, False, 'E17'),
    ('P-P', 'none', False, True): ('p-p/brute-force', True, None),
    ('P-P', 'none', True, False): (None, False, 'E18'),
    ('P-P', 'none', True, True): ('p-p/brute-force', True, None),
    ('P-P', 'first', False, False): (None, False, 'E19'),
    ('P-P', 'first', False, True): ('p-p/brute-force', True, None),
    ('P-P', 'first', True, False): (None, False, 'E20'),
    ('P-P', 'first', True, True): ('p-p/brute-force', True, None),
    ('P-P', 'both', False, False): (None, False, 'E21'),
    ('P-P', 'both', False, True): ('p-p/brute-force', True, None),
    ('P-P', 'both', True, False): (None, False, 'E22'),
    ('P-P', 'both', True, True): ('p-p/brute-force', True, None),
    ('P-NP', 'none', False, False): (None, False, 'E23'),
    ('P-NP', 'none', False, True): ('p-np/brute-force', True, None),
    ('P-NP', 'none', True, False): (None, False, 'E24'),
    ('P-NP', 'none', True, True): ('p-np/brute-force', True, None),
    ('P-NP', 'first', False, False): (None, False, 'E25'),
    ('P-NP', 'first', False, True): ('p-np/brute-force', True, None),
    ('P-NP', 'first', True, False): (None, False, 'E26'),
    ('P-NP', 'first', True, True): ('p-np/brute-force', True, None),
    ('P-NP', 'both', False, False): (None, False, 'E27'),
    ('P-NP', 'both', False, True): ('p-np/brute-force', True, None),
    ('P-NP', 'both', True, False): (None, False, 'E28'),
    ('P-NP', 'both', True, True): ('p-np/brute-force', True, None),
    ('NP-I', 'none', False, False): (None, False, 'E29'),
    ('NP-I', 'none', False, True): ('np-i/brute-force', True, None),
    ('NP-I', 'none', True, False): ('np-i/swap-test', True, None),
    ('NP-I', 'none', True, True): ('np-i/swap-test', True, None),
    ('NP-I', 'first', False, False): ('np-i/binary-code', True, None),
    ('NP-I', 'first', False, True): ('np-i/binary-code', True, None),
    ('NP-I', 'first', True, False): ('np-i/binary-code', True, None),
    ('NP-I', 'first', True, True): ('np-i/binary-code', True, None),
    ('NP-I', 'both', False, False): ('np-i/binary-code', True, None),
    ('NP-I', 'both', False, True): ('np-i/binary-code', True, None),
    ('NP-I', 'both', True, False): ('np-i/binary-code', True, None),
    ('NP-I', 'both', True, True): ('np-i/binary-code', True, None),
    ('NP-N', 'none', False, False): (None, False, 'E30'),
    ('NP-N', 'none', False, True): ('np-n/brute-force', True, None),
    ('NP-N', 'none', True, False): (None, False, 'E31'),
    ('NP-N', 'none', True, True): ('np-n/brute-force', True, None),
    ('NP-N', 'first', False, False): (None, False, 'E32'),
    ('NP-N', 'first', False, True): ('np-n/brute-force', True, None),
    ('NP-N', 'first', True, False): (None, False, 'E33'),
    ('NP-N', 'first', True, True): ('np-n/brute-force', True, None),
    ('NP-N', 'both', False, False): (None, False, 'E34'),
    ('NP-N', 'both', False, True): ('np-n/brute-force', True, None),
    ('NP-N', 'both', True, False): (None, False, 'E35'),
    ('NP-N', 'both', True, True): ('np-n/brute-force', True, None),
    ('NP-P', 'none', False, False): (None, False, 'E36'),
    ('NP-P', 'none', False, True): ('np-p/brute-force', True, None),
    ('NP-P', 'none', True, False): (None, False, 'E37'),
    ('NP-P', 'none', True, True): ('np-p/brute-force', True, None),
    ('NP-P', 'first', False, False): (None, False, 'E38'),
    ('NP-P', 'first', False, True): ('np-p/brute-force', True, None),
    ('NP-P', 'first', True, False): (None, False, 'E39'),
    ('NP-P', 'first', True, True): ('np-p/brute-force', True, None),
    ('NP-P', 'both', False, False): (None, False, 'E40'),
    ('NP-P', 'both', False, True): ('np-p/brute-force', True, None),
    ('NP-P', 'both', True, False): (None, False, 'E41'),
    ('NP-P', 'both', True, True): ('np-p/brute-force', True, None),
    ('NP-NP', 'none', False, False): (None, False, 'E42'),
    ('NP-NP', 'none', False, True): ('np-np/brute-force', True, None),
    ('NP-NP', 'none', True, False): (None, False, 'E43'),
    ('NP-NP', 'none', True, True): ('np-np/brute-force', True, None),
    ('NP-NP', 'first', False, False): (None, False, 'E44'),
    ('NP-NP', 'first', False, True): ('np-np/brute-force', True, None),
    ('NP-NP', 'first', True, False): (None, False, 'E45'),
    ('NP-NP', 'first', True, True): ('np-np/brute-force', True, None),
    ('NP-NP', 'both', False, False): (None, False, 'E46'),
    ('NP-NP', 'both', False, True): ('np-np/brute-force', True, None),
    ('NP-NP', 'both', True, False): (None, False, 'E47'),
    ('NP-NP', 'both', True, True): ('np-np/brute-force', True, None),
}


def test_covers_every_cell():
    assert len(GOLDEN) == len(EquivalenceType) * len(INVERSES) * 2 * 2 == 192


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_dispatch_is_unchanged(case):
    matcher, matched, error_key = GOLDEN[case]
    expected_error = None if error_key is None else ERRORS[error_key]
    assert run_case(*case) == (matcher, matched, expected_error)
