"""Bit-string bookkeeping for questions and answers.

Bit strings are plain ``str`` objects over the alphabet {'0', '1'}.
Positions are 1-indexed (bit 1 is the leftmost character) to match the
usual numbering of tested qubits, and the integer encoding is big-endian:
bit 1 is the most significant bit of the index.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def check(s: str) -> str:
    """Validate that ``s`` is a nonempty bit string and return it unchanged."""
    if not isinstance(s, str) or not s or any(c not in "01" for c in s):
        raise ValueError(f"not a bit string: {s!r}")
    return s


def bit(s: str, k: int) -> int:
    """The k-th bit of ``s`` as an int, 1-indexed."""
    if not 1 <= k <= len(s):
        raise ValueError(f"bit index {k} out of range for length {len(s)}")
    return int(s[k - 1])


def to_int(s: str) -> int:
    """Big-endian integer value of a bit string."""
    return int(s, 2) if s else 0


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


def sign_grid(n: int) -> np.ndarray:
    """signs[s, t] = (-1)^{s . t} over all n-bit integers s, t."""
    idx = np.arange(1 << n)
    return np.where(parity(idx[:, None] & idx[None, :]), -1.0, 1.0)
