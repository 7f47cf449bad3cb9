"""The report writer, and the exactness of strategy documents."""

import json
import math

import numpy as np
import pytest

from chsh_selftest import Strategy, jsonio, strategy_from_text, strategy_to_text


def test_strategy_text_round_trips_doubles():
    vals = [0.1, 1 / 3, 2 ** 0.5, 2.828427124746190, 1e-300, -0.0]
    state = np.array(vals + [0.0, 0.0]).view(complex)  # four amplitudes: dim 2 x 2
    obs = np.broadcast_to(np.eye(2, dtype=complex), (2, 1, 2, 2))
    back = strategy_from_text(strategy_to_text(Strategy(state=state, alice=obs, bob=obs)))
    assert back.state.view(float).tolist() == vals + [0.0, 0.0]
    assert math.copysign(1.0, back.state.view(float)[5]) == -1.0


def test_12_digit_mode_truncates():
    text = jsonio.dumps({"x": math.sqrt(2), "row": [1 / 3, 2.0]})
    assert "1.41421356237" in text
    assert "1.4142135623730951" not in text
    assert json.loads(text) == {"x": 1.41421356237, "row": [0.333333333333, 2.0]}


def test_rejects_non_finite():
    obs = np.broadcast_to(np.eye(2, dtype=complex), (2, 1, 2, 2))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": bad})
        state = np.array([bad, 0.0, 0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            strategy_to_text(Strategy(state=state, alice=obs, bob=obs))


def test_nested_structure():
    doc = {"a": {"b": [1, 2]}, "c": "s", "d": True, "e": None}
    assert json.loads(jsonio.dumps(doc)) == doc
