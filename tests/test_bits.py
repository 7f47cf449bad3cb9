"""Bitstring helpers: 1-indexed, big-endian, strings of '0'/'1'."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsh_selftest import bits


def test_check_accepts_valid():
    bits.check("0")
    bits.check("0110")


@pytest.mark.parametrize("bad", ["", "01a", "2", " 01", "0 1"])
def test_check_rejects(bad):
    with pytest.raises(ValueError):
        bits.check(bad)


def test_bit_is_one_indexed_big_endian():
    s = "100"
    assert bits.bit(s, 1) == 1
    assert bits.bit(s, 2) == 0
    assert bits.bit(s, 3) == 0
    with pytest.raises(ValueError):
        bits.bit(s, 0)
    with pytest.raises(ValueError):
        bits.bit(s, 4)


def test_int_round_trip():
    assert bits.to_int("0110") == 6
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
    assert bits.to_int(s) == i


def test_parity_matches_popcount():
    values = np.concatenate([np.arange(1 << 12), [2**40 + 3, 2**62 + 2**61 + 1]])
    want = np.array([bin(int(v)).count("1") % 2 for v in values])
    assert np.array_equal(bits.parity(values), want)
    assert bits.parity(7) == 1 and bits.parity(0) == 0
