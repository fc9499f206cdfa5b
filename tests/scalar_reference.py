"""Scalar reference evaluation: the loops the vectorized kernels must match.

The library evaluates circuits with two kernels — numpy tabulation over
the whole input space (``repro.circuits.evaluate``) and 64-lane
bitslicing for sampled batches (``repro.circuits.bitslice``).  Neither
is allowed to change an answer, so the tests compare both against the
plain loop kept here: one gate-object ``simulate`` or table lookup per
input (an opaque oracle, which has no scalar form, goes through
``peek``).  The fingerprinter subclasses below recompute
digests through that loop, so a test can require kernel-computed keys
to be byte-identical to reference ones.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.oracles.oracle import CircuitOracle, PermutationOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.fingerprint import (
    FingerprintRegistry,
    SampledProbeFingerprinter,
    TruthTableFingerprinter,
    build_registry,
)


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


class ScalarTruthTableFingerprinter(TruthTableFingerprinter):
    """The exact tier with its table computed by :func:`scalar_table`."""

    def _table(self, target) -> list[int]:
        return scalar_table(target)


class ScalarProbeFingerprinter(SampledProbeFingerprinter):
    """The probe tier with its outputs computed by :func:`scalar_outputs`."""

    def _outputs(self, target, probes: list[int]) -> list[int]:
        return scalar_outputs(target, probes)


def scalar_registry(scheme: str = "auto", **knobs) -> FingerprintRegistry:
    """``build_registry(scheme, **knobs)`` on the scalar reference loops."""
    strategies = []
    for strategy in build_registry(scheme, **knobs).fingerprinters:
        if isinstance(strategy, TruthTableFingerprinter):
            strategy = ScalarTruthTableFingerprinter(strategy.width_limit)
        elif isinstance(strategy, SampledProbeFingerprinter):
            strategy = ScalarProbeFingerprinter(strategy.probe_count, strategy.salt)
        strategies.append(strategy)
    return FingerprintRegistry(tuple(strategies))
