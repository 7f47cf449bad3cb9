"""Bit helpers: big-endian integers, the bit table, parity, string formatting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsh_selftest import bits


def test_int_round_trip():
    assert bits.from_int(6, 4) == "0110"
    assert bits.from_int(0, 3) == "000"
    with pytest.raises(ValueError):
        bits.from_int(8, 3)
    with pytest.raises(ValueError):
        bits.from_int(-1, 3)


def test_all_strings_is_numeric_order():
    seq = list(bits.all_strings(2))
    assert seq == ["00", "01", "10", "11"]
    assert list(bits.all_strings(1)) == ["0", "1"]


@given(st.integers(min_value=1, max_value=10), st.data())
def test_round_trip_random(n, data):
    i = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    s = bits.from_int(i, n)
    assert len(s) == n
    assert int(s, 2) == i


def test_parity_matches_popcount():
    values = np.concatenate([np.arange(1 << 12), [2**40 + 3, 2**62 + 2**61 + 1]])
    want = np.array([bin(int(v)).count("1") % 2 for v in values])
    assert np.array_equal(bits.parity(values), want)
    assert bits.parity(7) == 1 and bits.parity(0) == 0
