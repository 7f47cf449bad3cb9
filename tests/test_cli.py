"""Command line behavior: output formats, seeds, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_selftest import (
    NOISE_MODELS,
    NoiseSpec,
    Strategy,
    ideal_strategy,
    noisy_strategy,
    save_strategy,
    strategy_to_text,
    validate,
)
from chsh_selftest import cli
from chsh_selftest import strategy as strategy_mod
from chsh_selftest.cli import main
from chsh_selftest.game import MAX_EXACT_N
from chsh_selftest.verifier import MAX_CERTIFY_N
from test_strategy import MALFORMED_EDITS
from test_verifier import orthogonal_junk_strategy


SWEEP_HEADER = cli.SWEEP_COLUMNS + "\r\n"


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


@pytest.mark.parametrize("source", [("--n", "12", "--noise", "bob-rotation"),
                                    ("--strategy", "strategy.json")], ids=["built", "file"])
@pytest.mark.parametrize("run_flags, message", [
    (("--rounds", "0", "--seed", "1"), "--rounds must be a positive integer"),
    (("--rounds", "10"), "sampling needs a seed (--seed or SEED)"),
], ids=["rounds", "seed"])
def test_simulate_refuses_rounds_and_seed_before_building(capsys, monkeypatch, source,
                                                          run_flags, message):
    def never(*args, **kwargs):
        raise AssertionError("the strategy was built or read")

    monkeypatch.setattr(cli, "noisy_strategy", never)
    monkeypatch.setattr(cli, "load_strategy", never)
    monkeypatch.delenv("SEED", raising=False)
    code, out, err = run(capsys, "simulate", *source, *run_flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags,expect", [
    ("--n 8 --noise bob-rotation --noise-param 0.1 --rounds 10000 --seed 7",
     ("2.802400000000", "0.028543596439", "0.850300000000")),
    ("--n 4 --noise partial-entanglement --noise-param 0.6 --rounds 20000 --seed 3",
     ("2.704000000000", "0.020843246437", "0.838000000000")),
    ("--n 6 --noise none --rounds 5000 --seed 11",
     ("2.785600000000", "0.040600692251", "0.848200000000")),
    # one tree per batch and two round chunks
    ("--n 12 --noise partial-entanglement --noise-param 0.7 --rounds 2000 --seed 5",
     ("2.824000000000", "0.063360234056", "0.853000000000")),
    # one GEMM a question for Bob's masses: in batches of 8 trees at n = 10,
    # and at n = 8 where 300 rounds are fewer than 16 questions times the
    # drawn pairs
    ("--n 10 --noise bob-rotation --noise-param 0.2 --rounds 10000 --seed 13",
     ("2.776000000000", "0.028800440041", "0.847000000000")),
    ("--n 8 --noise partial-entanglement --noise-param 0.5 --rounds 300 --seed 2",
     ("2.826666666667", "0.163673910613", "0.853333333333")),
])
def test_simulate_output_is_pinned(capsys, flags, expect):
    # the first three were recorded with the state-collapse sampler, the
    # n = 12 run with the per-question table sampler and the last two with
    # one GEMM a question for Bob; every later sampler draws the same answers
    code, out, _ = run(capsys, "simulate", *flags.split())
    assert code == 0
    assert out.splitlines() == [f"{name} {value}" for name, value
                                in zip(("estimate", "stderr", "win_rate"), expect)]


@pytest.mark.parametrize("rounds", [10**14, 2**62, 2**70])
def test_simulate_too_many_rounds_is_a_config_error(capsys, rounds):
    # numpy refuses each of these draws before allocating anything: 10^14
    # int64 questions exceed a 47-bit address space, the others numpy's limits
    code, out, err = run(capsys, "simulate", "--n", "2", "--rounds", str(rounds),
                         "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot simulate {rounds} rounds: ")
    assert len(err.strip().splitlines()) == 1


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


def test_certify_strategy_with_junk_orthogonal_to_the_ideal_state(capsys, tmp_path):
    path = tmp_path / "orthogonal.json"
    save_strategy(orthogonal_junk_strategy(), str(path))
    code, out, err = run(capsys, "certify", "--strategy", str(path), "--format", "text")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["value"] == 0.0 and doc["junk_norm"] == 0.0 and doc["passed"]


def test_malformed_strategy_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "value", "--strategy", str(path))
    assert code == 2
    path.write_text(json.dumps({"n": 2}))
    code, _, _ = run(capsys, "value", "--strategy", str(path))
    assert code == 2


def test_a_document_declaring_a_huge_n_is_refused_before_listing_its_questions(
        capsys, tmp_path):
    # n = 80 with one question of 40 observables: listing every length-40
    # question would ask for 2^40 strings, so the loader must count first
    family = [[[1.0, 0.0]]] * 40  # 40 flat 1x1 identities
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": 80, "dim_A": 1, "dim_B": 1, "state": [[1.0, 0.0]],
        "alice_obs": {"0" * 40: family}, "bob_obs": {"0" * 40: family},
    }))
    real = strategy_mod.bits.all_strings

    def bounded(m):
        assert m <= 20, f"listed all 2^{m} questions"
        return real(m)

    with mock.patch.object(strategy_mod.bits, "all_strings", bounded):
        code, out, err = run(capsys, "value", "--strategy", str(path))
    assert code == 2 and out == "" and "malformed strategy document" in err


@pytest.mark.parametrize("mangle", MALFORMED_EDITS, ids=lambda mangle: mangle.__name__)
def test_malformed_strategy_document_is_a_config_error(capsys, tmp_path, mangle):
    path = tmp_path / "malformed.json"
    path.write_text(mangle(strategy_to_text(ideal_strategy(2))))
    code, out, err = run(capsys, "value", "--strategy", str(path))
    assert code == 2
    assert err.startswith("error: malformed strategy document: ")
    assert len(err.splitlines()) == 1 and out == ""


@pytest.mark.parametrize("command, limit, stage", [
    ("value", MAX_EXACT_N, "exhaustive value"),
    ("certify", MAX_CERTIFY_N, "certification pipeline"),
    ("simulate", MAX_EXACT_N, "referee simulation"),
], ids=["value", "certify", "simulate"])
def test_value_above_the_exact_limit_is_refused_before_building(capsys, monkeypatch,
                                                                 command, limit, stage):
    def never(*args, **kwargs):
        raise AssertionError("the strategy was built")

    monkeypatch.setattr(cli, "noisy_strategy", never)
    code, out, err = run(capsys, command, "--n", str(limit + 2))
    assert code == 2 and out == ""
    assert err == f"error: {stage} limited to n <= {limit}\n"


@pytest.mark.parametrize("argv", [
    ("value", "--n", "2"),
    ("simulate", "--n", "2", "--rounds", "10", "--seed", "1"),
    ("certify", "--n", "2"),
    ("sweep", "--n", "2", "--noise-param", "0"),
], ids=lambda argv: argv[0])
def test_a_build_numpy_cannot_allocate_is_a_config_error(capsys, monkeypatch, argv):
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 160. GiB for an array")

    monkeypatch.setattr(cli, "noisy_strategy", unallocatable)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: Unable to allocate 160. GiB for an array\n"


@pytest.mark.parametrize("argv, target", [
    (("certify", "--n", "2"), "missing-dir/r.csv"),
    (("sweep", "--n", "2", "--noise-param", "0"), "."),
], ids=["certify-to-a-missing-directory", "sweep-to-a-directory"])
def test_an_unwritable_out_is_a_config_error(capsys, tmp_path, argv, target):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: ")
    assert len(err.splitlines()) == 1


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


def test_one_scaled_copy_of_a_repeated_observable_fails_validation(capsys, tmp_path):
    # a noise model holds each observable in many questions; validation
    # checks each distinct matrix once, so the one changed copy is caught
    s = noisy_strategy(8, NoiseSpec("bob-rotation", 0.1))
    alice = s.alice.copy()
    alice[5, 0] *= 1 + 1e-6
    path = tmp_path / "scaled.json"
    save_strategy(Strategy(state=s.state, alice=alice, bob=s.bob), str(path))
    code, _, err = run(capsys, "value", "--strategy", str(path))
    assert code == 3
    assert "unitarity=2.000e-06" in err


def test_each_call_answers_like_the_first_of_its_process(capsys):
    argvs = [("value", "--n", "4"), ("value", "--rounds", "3"),
             ("simulate", "--n", "4", "--rounds", "300", "--seed", "3"),
             ("certify", "--n", "2", "--format", "text")]
    firsts = []
    for argv in argvs:
        cli.build_parser.cache_clear()  # a fresh parser, as in a new process
        firsts.append(run(capsys, *argv))
    assert [code for code, _, _ in firsts] == [0, 2, 0, 0]
    assert firsts[1][2].startswith("usage: chsh-selftest ")
    assert "unrecognized arguments: --rounds 3" in firsts[1][2]
    # the same calls again, in order, all through the parser of the last one
    parser = cli.build_parser()
    assert [run(capsys, *argv) for argv in argvs] == firsts
    assert cli.build_parser() is parser


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


def test_logset(capsys, monkeypatch):
    code, out, _ = run(capsys, "logset", "--n", "8")
    assert code == 0
    assert out.splitlines() == ["1010", "0110", "0001"]
    code, out, _ = run(capsys, "logset", "--n", "2")
    assert code == 0
    assert out == ""
    code, _, _ = run(capsys, "logset", "--n", "5")
    assert code == 2

    def unbuilt(n):
        raise AssertionError("log_question_set ran")

    # refused before the question set is built
    monkeypatch.setattr(cli, "log_question_set", unbuilt)
    code, out, err = run(capsys, "logset", "--n", str(cli.MAX_LOGSET_N + 2))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: pair-separating question set limited to n <= {cli.MAX_LOGSET_N}"


def test_unknown_command_exits_nonzero(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_sweep_reports_certify_errors_as_config_errors(capsys, monkeypatch):
    def failing_certify(strategy, seed=0):
        raise ValueError("certification failed")

    monkeypatch.setattr(cli, "certify", failing_certify)
    code, out, err = run(capsys, "sweep", "--n", "2", "--noise-param", "0")
    assert code == 2
    assert err.strip() == "error: certification failed"
    assert out == ""


def test_sweep_refuses_a_bad_noise_parameter_before_certifying(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a grid point was certified")

    monkeypatch.setattr(cli, "certify", never)
    code, out, err = run(capsys, "sweep", "--n", "2,4", "--noise", "bob-rotation",
                         "--noise-param", "0,0.1,nan")
    assert code == 2 and out == ""
    assert err == "error: noise parameter must be finite\n"


@pytest.mark.parametrize("argv", [
    ("value", "--n", "2", "--seed", "1"),
    ("value", "--n", "2", "--out", "report.txt"),
    ("value", "--n", "2", "--format", "text"),
    ("simulate", "--n", "2", "--rounds", "10", "--seed", "1", "--out", "report.txt"),
    ("simulate", "--n", "2", "--rounds", "10", "--seed", "1", "--format", "text"),
    ("sweep", "--n", "2", "--noise-param", "0", "--strategy", "s.json"),
    ("sweep", "--n", "2", "--noise-param", "0", "--format", "text"),
    ("certify", "--n", "2", "--coverage", "sampled"),
    ("certify", "--n", "2", "--samples", "100"),
    ("sweep", "--n", "2", "--noise-param", "0", "--samples", "100"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err
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


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Strategy files (valid, garbled, failing validation, missing) and --out targets."""
    root = tmp_path_factory.mktemp("cli_paths")
    ideal = ideal_strategy(2)
    save_strategy(ideal, str(root / "ideal.json"))
    (root / "garbled.json").write_text(strategy_to_text(ideal)[:150])
    alice = ideal.alice.copy()
    alice[0, 0] *= 0.5
    save_strategy(Strategy(state=ideal.state, alice=alice, bob=ideal.bob),
                  str(root / "invalid.json"))
    strategies = [str(root / name) for name in
                  ("ideal.json", "garbled.json", "invalid.json", "missing.json")]
    outs = [str(root / "report.out"), str(root / "missing-dir" / "r.csv"), str(root)]
    return strategies, outs


@st.composite
def cli_calls(draw, paths):
    """An argv of one subcommand with flags drawn from small pools, and a SEED
    value; None in a pool leaves the flag out, and repeats weight a value."""
    strategies, outs = paths
    command = draw(st.sampled_from(["value", "simulate", "certify", "sweep", "logset"]))
    argv = [command]

    def pick(flag, pool):
        value = draw(st.sampled_from(pool))
        if value is not None:
            argv.extend([flag, value])

    if command == "logset":
        pick("--n", [None, "2", "4", "8", "3", "0", "-2", "2000000000"])
        return argv, None
    noises = [None, None, ("bob-rotation", "0.1"), ("partial-entanglement", "0.6"),
              ("bob-rotation", "2"), ("none", "0.1"), ("partial-entanglement", "-0.5"),
              ("bob-rotation", "nan"), ("partial-entanglement", "inf")]
    noise = draw(st.sampled_from(noises))
    if noise:
        argv.extend(["--noise", noise[0]])
    if command == "sweep":
        pick("--n", [None, "2", "4", "2,4", "", "3", "-2", str(MAX_CERTIFY_N + 2), "2,x"])
        param = [noise[1], f"0,{noise[1]}"] if noise else [None, "0", "x"]
        pick("--noise-param", param)
    else:
        # even n <= 4 builds; only value and certify refuse an n before building
        over = {"value": [str(MAX_EXACT_N + 2)], "certify": [str(MAX_CERTIFY_N + 2)]}
        pick("--n", [None, "2", "2", "4", "4", "3", "-2"] + over.get(command, []))
        if noise:
            argv.extend(["--noise-param", noise[1]])
        pick("--strategy", [None, None, None] + strategies)
    if command != "value":
        pick("--seed", [None, None, "0", "7", "-1"])
    if command == "simulate":
        pick("--rounds", [None, "40", "40", "0", "-3"])
    if command in ("certify", "sweep"):
        pick("--out", [None, None] + outs)
    if command == "certify":
        pick("--format", [None, "text"])
    return argv, draw(st.sampled_from([None, None, "5", "-4", "abc"]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_run_is_a_verdict_or_one_classified_error(data, cli_paths):
    argv, seed_env = data.draw(cli_calls(cli_paths))
    out_file = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_file and os.path.isfile(out_file):
        os.remove(out_file)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("SEED", None)
        if seed_env is not None:
            os.environ["SEED"] = seed_env
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    if code == 1:
        # a failed report, written where the report goes
        assert argv[0] in ("certify", "sweep")
        report = open(out_file, encoding="utf-8").read() if out_file else out
        assert report.startswith(SWEEP_HEADER) or '"passed": false' in report
