"""Parallel CHSH self-testing: exact values, sampling, and certification.

The root exports the documented API; everything else is imported from
its module (``chsh_selftest.extraction``, ``chsh_selftest.verifier``, ...).
"""

from .game import MAX_EXACT_N, TSIRELSON, exact_value, referee_simulate
from .strategy import (
    NOISE_MODELS,
    NoiseSpec,
    Strategy,
    ideal_strategy,
    load_strategy,
    noisy_strategy,
    random_strategy,
    save_strategy,
    strategy_from_text,
    strategy_to_text,
    validate,
)
from .verifier import MAX_CERTIFY_N, SelfTestReport, certify

__all__ = [
    "Strategy",
    "NoiseSpec",
    "NOISE_MODELS",
    "ideal_strategy",
    "noisy_strategy",
    "random_strategy",
    "load_strategy",
    "save_strategy",
    "strategy_from_text",
    "strategy_to_text",
    "validate",
    "exact_value",
    "referee_simulate",
    "certify",
    "SelfTestReport",
    "MAX_EXACT_N",
    "MAX_CERTIFY_N",
    "TSIRELSON",
]

__version__ = "0.1.0"
