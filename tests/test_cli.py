"""Command line behavior: output formats, seeds, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

from chsh_selftest import (
    NoiseSpec,
    Strategy,
    ideal_strategy,
    save_strategy,
    strategy_to_text,
    validate,
)
from chsh_selftest.cli import main
from test_strategy import MALFORMED_EDITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_ideal(capsys):
    code, out, _ = run(capsys, "value", "--n", "2")
    assert code == 0
    assert out.strip() == "2.828427124746"


def test_value_rejects_odd_n(capsys):
    code, _, err = run(capsys, "value", "--n", "3")
    assert code == 2
    assert "even" in err


def test_value_requires_n(capsys):
    code, _, err = run(capsys, "value")
    assert code == 2


def test_value_noisy(capsys):
    code, out, _ = run(capsys, "value", "--n", "2", "--noise", "bob-rotation",
                       "--noise-param", "0.1")
    assert code == 0
    assert out.strip() == f"{2 * np.sqrt(2) * np.cos(0.1):.12f}"


def test_simulate_deterministic(capsys):
    args = ("simulate", "--n", "2", "--rounds", "5000", "--seed", "21")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("estimate ")
    assert lines[1].startswith("stderr ")
    assert lines[2].startswith("win_rate ")


def test_simulate_requires_seed(capsys, monkeypatch):
    monkeypatch.delenv("SEED", raising=False)
    code, _, err = run(capsys, "simulate", "--n", "2", "--rounds", "100")
    assert code == 2
    assert "seed" in err


def test_simulate_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("SEED", "21")
    code, out_env, _ = run(capsys, "simulate", "--n", "2", "--rounds", "5000")
    assert code == 0
    code, out_flag, _ = run(capsys, "simulate", "--n", "2", "--rounds", "5000",
                            "--seed", "21")
    assert out_env == out_flag
    # the flag wins over the environment
    monkeypatch.setenv("SEED", "999")
    code, out_mixed, _ = run(capsys, "simulate", "--n", "2", "--rounds", "5000",
                             "--seed", "21")
    assert out_mixed == out_flag


def test_simulate_rejects_bad_rounds(capsys):
    code, _, _ = run(capsys, "simulate", "--n", "2", "--rounds", "0",
                     "--seed", "1")
    assert code == 2
    code, _, _ = run(capsys, "simulate", "--n", "2", "--seed", "1")
    assert code == 2


def test_certify_csv_default(capsys):
    code, out, _ = run(capsys, "certify", "--n", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["n", "model", "param", "value"]
    assert len(rows) == 2
    assert rows[1][0] == "2"
    assert float(rows[1][3]) == pytest.approx(2 * np.sqrt(2), abs=1e-10)


def test_certify_text_format(capsys):
    code, out, _ = run(capsys, "certify", "--n", "2", "--noise", "bob-rotation",
                       "--noise-param", "0.1", "--format", "text")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert all(doc["flags"].values())


def test_certify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", "--n", "2", "--format", "text",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["n"] == 2


def test_certify_rejects_large_n(capsys):
    code, _, err = run(capsys, "certify", "--n", "10")
    assert code == 2


def test_certify_strategy_file(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    save_strategy(ideal_strategy(2), str(path))
    code, out, _ = run(capsys, "certify", "--strategy", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "file"


def test_malformed_strategy_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "value", "--strategy", str(path))
    assert code == 2
    path.write_text(json.dumps({"n": 2}))
    code, _, _ = run(capsys, "value", "--strategy", str(path))
    assert code == 2


@pytest.mark.parametrize("mangle", MALFORMED_EDITS, ids=lambda mangle: mangle.__name__)
def test_malformed_strategy_document_is_a_config_error(capsys, tmp_path, mangle):
    path = tmp_path / "malformed.json"
    path.write_text(mangle(strategy_to_text(ideal_strategy(2))))
    code, out, err = run(capsys, "value", "--strategy", str(path))
    assert code == 2
    assert err.startswith("error: malformed strategy document: ")
    assert len(err.splitlines()) == 1 and out == ""


def test_invalid_strategy_file_fails_validation(capsys, tmp_path):
    s = ideal_strategy(2)
    alice = s.alice.copy()
    alice[0, 0] *= 0.5
    bad = Strategy(state=s.state, alice=alice, bob=s.bob)
    path = tmp_path / "bad.json"
    save_strategy(bad, str(path))
    code, _, err = run(capsys, "value", "--strategy", str(path))
    assert code == 3
    assert "validation" in err


def test_missing_strategy_file(capsys):
    code, _, _ = run(capsys, "value", "--strategy", "/nonexistent/x.json")
    assert code == 2


def test_sweep_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "2", "--noise", "bob-rotation",
                       "--noise-param", "0,0.1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[1][2] == "0"
    assert rows[2][2] == "0.1"
    # every numeric field parses back
    for row in rows[1:]:
        float(row[3]); float(row[4]); float(row[14])


def test_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "", "--noise-param", "")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1


def test_sweep_rejects_odd_n(capsys):
    code, _, _ = run(capsys, "sweep", "--n", "2,3", "--noise-param", "0")
    assert code == 2


def test_logset(capsys):
    code, out, _ = run(capsys, "logset", "--n", "8")
    assert code == 0
    assert out.splitlines() == ["1010", "0110", "0001"]
    code, out, _ = run(capsys, "logset", "--n", "2")
    assert code == 0
    assert out == ""
    code, _, _ = run(capsys, "logset", "--n", "5")
    assert code == 2


def test_unknown_command_exits_nonzero(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("certify", "--n", "2"),
    ("certify", "--n", "8", "--coverage", "sampled"),
    ("sweep", "--n", "2", "--noise-param", "0", "--coverage", "sampled"),
])
def test_samples_below_one_is_a_config_error(capsys, argv, samples):
    code, out, err = run(capsys, *argv, "--samples", samples)
    assert code == 2
    assert err.strip() == "error: --samples must be a positive integer"
    assert out == ""


def test_sweep_reports_certify_errors_as_config_errors(capsys):
    code, out, err = run(capsys, "sweep", "--n", "8", "--noise-param", "0",
                         "--coverage", "exhaustive")
    assert code == 2
    assert err.startswith("error: exhaustive coverage limited to n <= 6")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "2", "--rounds", "10"),
    ("certify", "--n", "2"),
    ("sweep", "--n", "2", "--noise-param", "0"),
])
def test_non_integer_seed_env_is_a_config_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("SEED", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.strip() == "error: SEED must be an integer"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "2", "--rounds", "10"),
    ("certify", "--n", "2"),
])
def test_negative_seed_is_a_config_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("SEED", raising=False)
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert err.strip() == "error: the seed must be non-negative"
    assert out == ""
    monkeypatch.setenv("SEED", "-1")
    assert run(capsys, *argv)[0] == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["state", "matrix"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_strategy_fails_validation(capsys, tmp_path, field, bad):
    doc = json.loads(strategy_to_text(ideal_strategy(2)))
    if field == "state":
        doc["state"][0][0] = bad
    else:
        doc["alice_obs"]["0"][0][1][0] = bad
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # the stdlib writes NaN / Infinity tokens
    code, out, err = run(capsys, "value", "--strategy", str(path))
    assert code == 3
    assert "validation" in err
    assert "nan" not in out.lower()


@pytest.mark.parametrize("key", ["n", "dim_A", "dim_B"])
@pytest.mark.parametrize("bad", ["2", 2.0, True])
def test_non_integer_size_field_is_a_config_error(capsys, tmp_path, key, bad):
    doc = json.loads(strategy_to_text(ideal_strategy(2)))
    doc[key] = bad
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "value", "--strategy", str(path))
    assert code == 2
    assert f"{key} must be an integer" in err


@pytest.mark.parametrize("residual", [3e-9, 9e-9])
def test_hermiticity_residual_within_validation_certifies(capsys, tmp_path, residual):
    # Bob's all-zeros and all-ones observables pick up opposite tiny phases,
    # so their sum and difference carry twice the per-observable residual
    s = ideal_strategy(2)
    phi = residual / math.sqrt(2.0)  # entries of Bob's observables have modulus 1/sqrt(2)
    phases = np.array([1 + 1j * phi, 1 - 1j * phi])  # at questions "0" and "1"
    skewed = Strategy(state=s.state, alice=s.alice, bob=phases[:, None, None, None] * s.bob)
    diag = validate(skewed)
    assert diag.ok and diag.hermiticity == pytest.approx(residual, rel=1e-6)
    path = tmp_path / "skewed.json"
    save_strategy(skewed, str(path))
    code, _, err = run(capsys, "certify", "--strategy", str(path))
    assert code in (0, 1), err
