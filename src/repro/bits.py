"""Bit-vector helpers shared across the package.

Reversible circuits operate on length-``n`` bit vectors.  Throughout the
package a bit vector is represented in one of two interchangeable forms:

* as a Python ``int`` whose bit ``i`` (least-significant bit = bit 0) holds
  the value of circuit line ``i``;
* as a sequence of ``n`` ints/bools, index ``i`` holding line ``i``.

The integer form is what the simulator uses internally (it makes a truth
table a plain permutation of ``range(2**n)``); the list form is what users
and the paper's notation prefer.  The helpers here convert between the two
and provide the handful of bit tricks used in several modules.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "popcount",
    "parity",
    "one_hot",
]


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack a sequence of bits (index ``i`` = line ``i``) into an integer."""
    value = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1, True, False):
            raise ValueError(f"bit {index} is {bit!r}, expected 0 or 1")
        if bit:
            value |= 1 << index
    return value


def int_to_bits(value: int, width: int) -> list[int]:
    """Unpack ``value`` into a list of ``width`` bits, line 0 first."""
    if value < 0:
        raise ValueError("bit vectors are non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> index) & 1 for index in range(width)]


def popcount(value: int) -> int:
    """Number of set bits in ``value``."""
    return bin(value).count("1")


def parity(value: int) -> int:
    """Parity (XOR of all bits) of ``value``."""
    return popcount(value) & 1


def one_hot(index: int, width: int) -> int:
    """The bit vector with only line ``index`` set, of ``width`` lines."""
    if not 0 <= index < width:
        raise ValueError(f"index {index} out of range for width {width}")
    return 1 << index
