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

Both kernels read the same lowered ops: the circuit's cached
:func:`repro.circuits.bitslice.compile_gates` output
(:meth:`~repro.circuits.circuit.ReversibleCircuit.compiled`), which
already carries each MCT gate's control mask and polarity, so a table
rebuilds nothing per gate.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.bitslice import OP_SWAP

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
    ops = circuit.compiled() if num_lines <= WORD_LINES else None
    if ops is None:
        return np.fromiter(
            (circuit.simulate(value) for value in range(1 << num_lines)),
            dtype=np.int64,
            count=1 << num_lines,
        )
    state = np.arange(1 << num_lines, dtype=np.int64)
    for tag, first, second, target, mask, polarity in ops:
        if tag == OP_SWAP:
            differ = ((state >> first) ^ (state >> second)) & 1
            state ^= differ * ((1 << first) | (1 << second))
        elif mask:
            np.bitwise_xor(
                state, 1 << target, out=state, where=(state & mask) == polarity
            )
        else:
            state ^= 1 << target
    return state
