"""Scalar reference evaluation: the loops the vectorized kernels must match.

The library evaluates circuits with two kernels — numpy tabulation over
the whole input space (``repro.circuits.evaluate``) and 64-lane
bitslicing for sampled batches (``repro.circuits.bitslice``).  Neither
is allowed to change an answer, so the tests compare both against the
plain loop kept here: one gate-object ``simulate`` or table lookup per
input (an opaque oracle, which has no scalar form, goes through
``peek``).  :func:`scalar_fingerprint` recomputes digests through that
loop, so a test can require kernel-computed keys to be byte-identical
to reference ones.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import contextmanager

import repro.service.fingerprint as fingerprint_module
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.oracles.oracle import CircuitOracle, PermutationOracle
from repro.quantum.oracle import QuantumCircuitOracle


def _evaluator(target):
    """``(evaluate one input, bit width)`` for any fingerprintable target."""
    if isinstance(target, (QuantumCircuitOracle, PermutationOracle)):
        target = target.permutation
    elif isinstance(target, CircuitOracle):
        target = target.circuit
    if isinstance(target, Permutation):
        return target, target.num_bits
    if isinstance(target, ReversibleCircuit):
        return target.simulate, target.num_lines
    return target.peek, target.num_lines


def scalar_outputs(target, values: Iterable[int]) -> list[int]:
    """The target's outputs on ``values``, one scalar evaluation each."""
    evaluate, _ = _evaluator(target)
    return [evaluate(value) for value in values]


def scalar_table(target) -> list[int]:
    """The full truth table, one scalar evaluation per input."""
    evaluate, num_lines = _evaluator(target)
    return [evaluate(value) for value in range(1 << num_lines)]


@contextmanager
def scalar_evaluation():
    """Within the block, every fingerprint evaluates through the loops above.

    Swaps the fingerprint module's two evaluation helpers (the exact
    tier's table, the probe tier's outputs) for :func:`scalar_table` and
    :func:`scalar_outputs`; the ladder and the digests stay the module's.
    """
    saved = fingerprint_module._table, fingerprint_module._outputs
    fingerprint_module._table = scalar_table
    fingerprint_module._outputs = scalar_outputs
    try:
        yield
    finally:
        fingerprint_module._table, fingerprint_module._outputs = saved


def scalar_fingerprint(policy, target, **options):
    """``policy.fingerprint(target, **options)`` on the scalar reference loops."""
    with scalar_evaluation():
        return policy.fingerprint(target, **options)
