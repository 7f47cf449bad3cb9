"""Bits of questions and answers.

Inside the package a question or answer is a big-endian integer: bit k
(1-indexed, to match the usual numbering of tested qubits) of an m-bit
value i is ``(i >> (m - k)) & 1``, so bit 1 is the most significant.
This module holds the vectorized bit table and parity over such integers,
and the formatting of an integer as the bit string that documents show
(bit 1 its leftmost character).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def from_int(i: int, n: int) -> str:
    """Length-n big-endian bit string for integer ``i``."""
    if not 0 <= i < (1 << n):
        raise ValueError(f"{i} does not fit in {n} bits")
    return format(i, f"0{n}b")


def all_strings(n: int) -> Iterator[str]:
    """All length-n bit strings in lexicographic (= numeric) order."""
    for i in range(1 << n):
        yield from_int(i, n)


def bit_table(n: int) -> np.ndarray:
    """table[i, k] = bit k + 1 of the n-bit integer i, for every i < 2^n."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def parity(v) -> np.ndarray:
    """1 where a nonnegative integer (or each entry of an integer array, up
    to 63 bits) has an odd number of set bits, else 0."""
    v = np.asarray(v, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1
