"""Exhaustive tabulation of reversible circuits with numpy.

Everything that needs a circuit's *whole* truth table — ``truth_table``,
``is_identity``, ``functionally_equal``, ``Permutation.from_circuit``, the
state-vector permutation of :func:`repro.quantum.apply.apply_circuit` and
the exact fingerprint tier — goes through :func:`tabulate`.  It holds the
state of every input at once as one ``int64`` array over
``arange(2**n)`` and makes one numpy pass per gate:

* **MCT** — one masked compare (``state & controls == polarities``) and
  one conditional XOR of the target bit where it holds;
* **SWAP** — XOR both bits wherever they differ.

Sampled batches (a few to a few hundred inputs) stay on the 64-lane
kernel of :mod:`repro.circuits.bitslice`, which wins at those sizes.  The
scalar :meth:`~repro.circuits.circuit.ReversibleCircuit.simulate` loop is
the reference both are held to (``tests/properties/``), and the only
fallback here: for user-defined gate kinds, and for widths whose inputs
do not fit an ``int64`` word.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import bitslice
from repro.circuits.gates import SwapGate

__all__ = ["WORD_LINES", "tabulate"]

#: Widest circuit the numpy kernel tabulates: ``arange(2**n)`` must fit a
#: signed 64-bit word.
WORD_LINES = 62


def tabulate(circuit) -> np.ndarray:
    """The full truth table of ``circuit``: entry ``x`` is ``simulate(x)``.

    Returns a fresh ``int64`` array of length ``2**num_lines``.
    Exponential in the line count, like every exhaustive view.
    """
    num_lines = circuit.num_lines
    gates = circuit.gates
    if num_lines > WORD_LINES or not bitslice.supports(gates):
        return np.fromiter(
            (circuit.simulate(value) for value in range(1 << num_lines)),
            dtype=np.int64,
            count=1 << num_lines,
        )
    state = np.arange(1 << num_lines, dtype=np.int64)
    for gate in gates:
        if isinstance(gate, SwapGate):
            differ = ((state >> gate.line_a) ^ (state >> gate.line_b)) & 1
            state ^= differ * ((1 << gate.line_a) | (1 << gate.line_b))
            continue
        flip = 1 << gate.target
        if not gate.controls:
            state ^= flip
            continue
        mask = polarity = 0
        for control in gate.controls:
            mask |= 1 << control.line
            if control.positive:
                polarity |= 1 << control.line
        np.bitwise_xor(state, flip, out=state, where=(state & mask) == polarity)
    return state
