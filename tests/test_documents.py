"""Strategy documents: the numpy-backed loader against the stdlib parse.

``oracle_from_text`` is the loader this package used before numeric arrays
were parsed by numpy: ``json.loads`` builds the whole tree of lists and
floats, and ``np.array`` turns each payload into an array.  Mutated
documents must load to the same bits, or be refused, exactly where the
oracle refuses them.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_selftest import (
    NoiseSpec,
    Strategy,
    load_strategy,
    noisy_strategy,
    random_strategy,
    save_strategy,
    strategy_from_text,
    strategy_to_text,
    validate,
)
from chsh_selftest import bits, cli, jsonio, strategy as strategy_module
from test_pinned_reports import load_workloads
from test_strategy import VALIDATE_FAMILIES, validate_per_question, validate_strategy
from test_strategy import assert_same_bits as assert_same_validation

WORKLOADS = load_workloads()


def _oracle_int(numeral: str):
    """A JSON integer as the old parse read it, with two exceptions that
    match every float parser: -0 keeps its sign (``json.loads`` gives int
    0, which ``np.array`` made +0.0), and an integer beyond int64 becomes
    the nearest double (``np.array`` made an object array of it, which the
    old parse refused)."""
    value = int(numeral)
    return float(numeral) if numeral == "-0" or abs(value) >= 2**63 else value


def _oracle_pairs(obj, what):
    try:
        raw = np.array(obj)
        ok = raw.dtype.kind in "biuf" and raw.shape[-1:] == (2,)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{what} must hold nested lists of [re, im] number pairs")
    return np.ascontiguousarray(raw, dtype=float).view(complex)[..., 0]


def _oracle_stack(families, what, m, dim):
    if not isinstance(families, dict):
        raise ValueError(f"{what} must be an object keyed by question")
    questions = sorted(families)
    stack = _oracle_pairs([families[q] for q in questions], what)
    if (stack.shape[1:2] != (m,) or stack.shape != (1 << m, m, dim * dim)
            or questions != list(bits.all_strings(m))):
        raise ValueError(f"{what} does not match n and its dimension")
    return stack.reshape(1 << m, m, dim, dim)


def oracle_from_text(text: str) -> Strategy:
    doc = json.loads(text, parse_int=_oracle_int)
    try:
        for key in ("n", "dim_A", "dim_B"):
            if type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer")
        n, da, db = doc["n"], doc["dim_A"], doc["dim_B"]
        if n < 2 or n % 2 != 0:
            raise ValueError("n must be even and at least 2")
        state = _oracle_pairs(doc["state"], "state")
        if state.shape != (da * db,):
            raise ValueError("state must hold dim_A * dim_B amplitudes")
        alice = _oracle_stack(doc["alice_obs"], "alice_obs", n // 2, da)
        bob = _oracle_stack(doc["bob_obs"], "bob_obs", n // 2, db)
        return Strategy(state=state, alice=alice, bob=bob)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc


def _same_bits(got: Strategy, want: Strategy) -> bool:
    return all(g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in ((got.state, want.state), (got.alice, want.alice),
                            (got.bob, want.bob)))


def _same_strategy(got: Strategy | None, want: Strategy | None) -> bool:
    """Both refused (None), or the same arrays, dtypes, distinct
    observables and classes."""
    if got is None or want is None:
        return got is want
    pairs = ((got.state, want.state), (got.alice, want.alice), (got.bob, want.bob))
    return _same_bits(got, want) and all(g.dtype == w.dtype for g, w in pairs) and all(
        g.shape == w.shape and g.tobytes() == w.tobytes() and g.dtype == w.dtype
        for got_player, want_player in zip(got._observables, want._observables)
        for g, w in zip(got_player, want_player))


def _compact_text(strategy, path) -> str:
    """The document perfbench writes: one line per matrix, repr floats."""
    WORKLOADS.write_strategy(strategy, path)
    return path.read_text()


def _documents(tmp_dir):
    # at n <= 4 a player has at most one question whose matrices were all
    # read before; at n = 6, four
    strategies = [noisy_strategy(2, NoiseSpec("bob-rotation", 0.2)),
                  noisy_strategy(4, NoiseSpec("bob-rotation", 0.1)),
                  noisy_strategy(4, NoiseSpec("partial-entanglement", 0.6)),
                  noisy_strategy(6, NoiseSpec("bob-rotation", 0.15)),
                  random_strategy(2, np.random.default_rng(1), dim_a=3, dim_b=2),
                  random_strategy(4, np.random.default_rng(2))]
    docs = [strategy_to_text(s) for s in strategies]
    docs += [_compact_text(s, tmp_dir / f"doc{i}.json") for i, s in enumerate(strategies)]
    return docs


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return _documents(tmp_path_factory.mktemp("documents"))


def test_documents_load_to_the_oracles_bits(documents):
    for text in documents:
        assert _same_bits(strategy_from_text(text), oracle_from_text(text))


NUMERAL = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
BOOLEAN = re.compile(r"\btrue\b|\bfalse\b")

#: what a numeral may be replaced by: numbers, near-numbers and other JSON
TOKENS = ["+1", "01", ".5", "1.", "1e", "--1", "1.2.3", "1 2", "-0", "0", "-0.0", "2",
          "1e400", "-1e-400", "1E+2", "0e0", "4.9406564584124654e-324",
          "12345678901234567890123", "true", "false", "null", "NaN", "-Infinity",
          '"1"', "[]", "[1, 0]", "[[1, 0]]", "{}", ""]
#: characters a character-level mutation inserts
CHARS = list("0123456789-+.eE,[] \n\t\"{}:tn")


@st.composite
def mutations(draw, documents):
    """A valid document with one to three character or token edits."""
    text = draw(st.sampled_from(documents))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "duplicate",
                                     "token", "token", "truncate"]))
        spans = [m.span() for m in NUMERAL.finditer(text)]
        if kind == "token" and spans:
            a, b = draw(st.sampled_from(spans))
            text = text[:a] + draw(st.sampled_from(TOKENS)) + text[b:]
            continue
        if not text:
            break
        i = draw(st.integers(0, len(text) - 1))
        if kind == "delete":
            text = text[:i] + text[i + 1:]
        elif kind == "insert":
            text = text[:i] + draw(st.sampled_from(CHARS)) + text[i:]
        elif kind == "replace":
            text = text[:i] + draw(st.sampled_from(CHARS)) + text[i + 1:]
        elif kind == "duplicate":
            text = text[:i] + text[i] + text[i:]
        else:
            text = text[:i]
    return text


def _load(loader, text):
    try:
        return loader(text)
    except ValueError:
        return None


def _cli(path, text, *argv):
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--strategy", str(path)])
    return code, out.getvalue(), err.getvalue()


#: each command a strategy file is run through, with the codes it gives a valid file
COMMANDS = [(("value",), (0,)), (("certify",), (0, 1)),
            (("simulate", "--rounds", "20", "--seed", "1"), (0,))]


def _check_like_the_oracle(text, path):
    """The loader matches the oracle on ``text``, and every command gives
    the code its load and validation call for, with one error line at most."""
    want = _load(oracle_from_text, text)
    got = _load(strategy_from_text, text)
    # the file the commands read loads as its text does
    path.write_text(text, encoding="utf-8")
    assert _same_strategy(_load(load_strategy, path), got)
    if got is None and want is not None:
        # booleans are refused; read as the numbers numpy made of them, the
        # document loads like the oracle
        assert BOOLEAN.search(text)
        numbers = BOOLEAN.sub(lambda m: "1" if m.group() == "true" else "0", text)
        assert _same_bits(strategy_from_text(numbers), want)
    elif want is None:
        assert got is None
    else:
        assert _same_bits(got, want)

    for argv, verdicts in COMMANDS:
        code, out, err = _cli(path, text, *argv)
        if got is None:
            assert code == 2 and err.startswith("error: malformed strategy document: ")
        elif validate(got).ok:
            assert code in verdicts
        else:
            assert code == 3
        assert len(err.splitlines()) == (code >= 2) and "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_load_like_the_oracle(data, documents, tmp_path_factory):
    text = data.draw(mutations(documents))
    _check_like_the_oracle(text, tmp_path_factory.getbasetemp() / "mutated.json")


SIZE_KEYS = ("n", "dim_A", "dim_B")
#: what a size field may be replaced by: other JSON types, and sizes no
#: document holds, up to ones whose 2^(n/2) questions no machine could build
SIZE_VALUES = ["2", "", 2.0, 4.5, 1e300, True, False, None, [2], {"n": 2},
               -2, 0, 1, 3, 6, 10**6, 2**62, 10**30]


@st.composite
def key_edits(draw, documents):
    """A valid document with whole keys deleted or size fields replaced
    (a replacement may happen to restore the size it replaced)."""
    doc = json.loads(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            doc[draw(st.sampled_from(SIZE_KEYS))] = draw(st.sampled_from(SIZE_VALUES))
            continue
        # a top-level key, or one question of either side
        holder = draw(st.sampled_from([doc, doc.get("alice_obs"), doc.get("bob_obs")]))
        if isinstance(holder, dict) and holder:
            del holder[draw(st.sampled_from(sorted(holder)))]
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_documents_with_keys_deleted_or_sizes_mistyped(data, documents, tmp_path_factory):
    text = data.draw(key_edits(documents))
    _check_like_the_oracle(text, tmp_path_factory.getbasetemp() / "edited.json")


@pytest.mark.parametrize("numeral", ["+1", "01", ".5", "1.", "1e", "--1", "1.2.3", "1 2"])
def test_numerals_outside_json_are_malformed(documents, tmp_path, numeral):
    for text in documents:
        payload = text.index("[", text.index('"alice_obs"'))
        first = NUMERAL.search(text, payload)
        bad = text[:first.start()] + numeral + text[first.end():]
        with pytest.raises(ValueError):
            oracle_from_text(bad)
        with pytest.raises(ValueError, match="malformed strategy document"):
            strategy_from_text(bad)
        code, out, err = _cli(tmp_path / "bad.json", bad, "value")
        assert code == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("numeral", ["+1", "01", "-01", "00", ".5", "-.5", "1.", "1.e5",
                                     "1e", "1e+", "--1", "-", "1.2.3", "1e5e5", "1e5.5",
                                     "1 2", "1-2", "0x1", "inf", "1_0", "0 .0", "0. 0",
                                     "- 0", "-0 .0", "0.0 0", "0 0.0", "0.0.0", "-0.0.0"])
def test_the_fast_path_refuses_what_json_refuses(numeral):
    # refused by the numpy path itself, not only by the stdlib it falls back to
    assert jsonio._numeric(f"[[{numeral}, 0], [0, 0]]") is None
    assert jsonio._numeric(f"[[0, 0], [0, {numeral}]]") is None


@pytest.mark.parametrize("text", ["[]", "[[]]", "[1, [2]]", "[[1], [2, 3]]", "[[1] 2]",
                                  "[1[, 2]]", "[[] 1]", "[1 []]", "[1,, 2]", "[1, 2,]",
                                  "[, 1]", "[[1], 2]", "[1]]", "[[1]", "[1] [2]",
                                  "[[1, 2], [3], [4, 5, 6]]"])
def test_the_fast_path_refuses_ragged_or_broken_nesting(text):
    assert jsonio._numeric(text) is None


@pytest.mark.parametrize("text, shape", [
    ("[0]", (1,)),
    ("[1, -0.5e-3, 0e0, 1E+2, -0]", (5,)),
    ("[\n  [0.5, 0],\n  [-0.25, 1]\n]", (2, 2)),
    ("[[[1, 2]], [[3, 4]], [[5, 6]]]", (3, 1, 2)),
    ("[ [ 1 , 2 ] ]", (1, 2)),
])
def test_the_fast_path_reads_json_numbers(text, shape):
    got = jsonio._numeric(text)
    want = np.array(json.loads(text, parse_int=_oracle_int), dtype=float)
    assert got.shape == shape and got.tobytes() == want.tobytes()


def test_loads_returns_numeric_arrays_and_leaves_the_rest_to_the_stdlib():
    text = ('{"a": [[1, 0], [0.5, 2]], "b": [1, "x"], "c": [true], "d": 3, "e": [NaN], '
            '"f": [[[1, 0]], [[0.5, 2]]], "g": [[[0.5, 2]], [[1, 0]]]}')
    doc = jsonio.loads(text)
    reference = json.loads(text)
    # an array nested two deep is parsed whole, one nested three deep is
    # read by reference one element at a time: each gives the same array
    assert isinstance(doc["a"], np.ndarray) and isinstance(doc["g"], jsonio.Rows)
    for key in ("a", "f", "g"):
        values = np.asarray(doc[key])
        assert values.dtype == float and values.tolist() == reference[key]
    # "g" holds "f"'s rows and their ids
    assert doc["g"].ids == [1, 0] and doc["g"].rows[0] is doc["f"].rows[1]
    assert doc["b"] == reference["b"] and doc["c"] == [True] and doc["d"] == 3
    assert np.isnan(doc["e"][0])
    # numbers in an array the stdlib parses are doubles too
    fallback = jsonio.loads("[NaN, -0, 12345678901234567890123]")
    assert np.signbit(fallback[1]) and fallback[2] == 1.2345678901234568e22
    for bad in ("{not json", '{"a": [1, 2] 3}', "[1, 2] [3]", '{"n": 2\u0662}',
                '{"n": 2.\u0665}'):
        with pytest.raises(ValueError):
            jsonio.loads(bad)


@pytest.mark.parametrize("kind", [str, bytes])
def test_a_refused_array_comes_back_whole_as_json_gives_it(kind):
    # the arrays nested in a refused array are lists too, and brackets in a
    # string are no array
    text = ('{"a": [[1, 0], "x"], "b": [{"c": [[[1, 2]]]}, [[[3, 4]]]], "s": "[[[1, 2]]]",'
            ' "t": "\\"[", "\\u00e9[": [[[1, 2]], [[3, 4]]], "u": [[[3, 4]]]}')
    doc = jsonio.loads(text if kind is str else text.encode())
    reference = json.loads(text)
    for key in ("a", "b", "s", "t"):
        assert doc[key] == reference[key] and type(doc[key]) is type(reference[key])
    assert isinstance(doc["é["], jsonio.Rows) and doc["u"].ids == [1]
    assert np.asarray(doc["u"]).tolist() == reference["u"]


@pytest.mark.parametrize("kind", [str, bytes])
@pytest.mark.parametrize("text", [
    '{"é": [[1, 0],\n [0, 1]],\n "b": [[[1, 2]], [[3, 4]]] 3}',
    '{"a": [[[1, 2]], [[3, 4]]], "b": [[[1, 2]], [[3, 4]]],\n "c" 3}',
    '{"a": [[1, 0]], "b": [1, [[2, 0]]} ',
])
def test_a_syntax_error_is_named_at_its_place_in_the_document(kind, text):
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        jsonio.loads(text if kind is str else text.encode())
    assert str(got.value) == str(want.value)


def test_bytes_that_are_not_utf8_are_named_at_their_place():
    # after two payloads, and characters of two bytes before them
    data = '{"é": [[1, 0]], "bé": [[[1, 2]]], "c'.encode() + b'\xff": 1}'
    with pytest.raises(UnicodeDecodeError) as want:
        data.decode("utf-8")
    with pytest.raises(UnicodeDecodeError) as got:
        jsonio.loads(data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", ["[[0.5, 0]]", "[]", "2", '"x"', "null", "{not json"])
def test_documents_that_are_no_object_are_malformed(text):
    with pytest.raises(ValueError, match="malformed strategy document"):
        strategy_from_text(text)


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"n": ' * 100_000 + "2" + "}" * 100_000])
def test_deep_nesting_is_malformed_not_a_recursion_error(text):
    with pytest.raises(ValueError, match="nested too deeply"):
        strategy_from_text(text)


def test_numpy_partial_parse_is_caught_in_every_numpy(monkeypatch):
    # numpy 2.4 raises on text it cannot read to the end; older numpy only
    # warns, and returns the values it read before the unreadable part
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = np.fromstring(b"1 2 x", dtype=float, sep=" ")
        except ValueError:
            values = None
    if values is not None:
        assert values.tolist() == [1.0, 2.0]
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)
    fromstring = np.fromstring

    def old_numpy(short: bool, warn: bool):
        def partial(data, dtype=float, sep=" "):
            if warn:
                warnings.warn("string or file could not be read to its end due to "
                              "unmatched data", DeprecationWarning, stacklevel=2)
            values = fromstring(data, dtype=dtype, sep=sep)
            return values[:-1] if short else values
        return partial

    # a payload without zeros, and one of mostly zeros
    for text in ("[[1, 2], [3, 4]]", "[[1, 0], [0.0, -0.0], [0, 2]]"):
        want = json.loads(text)
        assert jsonio._numeric(text).tolist() == want
        for short, warn in ((True, True), (True, False), (False, True)):
            monkeypatch.setattr(np, "fromstring", old_numpy(short, warn))
            assert jsonio._numeric(text) is None
            assert jsonio.loads(text) == want  # the stdlib parse instead
        monkeypatch.setattr(np, "fromstring", fromstring)


#: every way JSON spells a zero
ZERO_SPELLINGS = ["0", "-0", "0.0", "-0.0", "0e0", "-0.0e-0", "0.000", "0E+5"]
#: 2 x 2 matrices of numerals that end in the digit 0 or begin like a zero,
#: most of them no zero
NEAR_ZEROS = ["[[1.5, 0.0], [-2.5, -0.0]]", "[[1.5, 0.0], [-2.5, 0.5]]",
              "[[10.0, 20], [-30.0, 0.05]]", "[[0.05, -0.0], [0.0, 0.0e5]]"]


@pytest.mark.parametrize("numerals, where", [
    *[pytest.param([spelling], where, id=f"{spelling}-{where}")
      for spelling in ZERO_SPELLINGS for where in ("first", "interior", "last")],
    *[pytest.param(NUMERAL.findall(matrix), "first", id=matrix) for matrix in NEAR_ZEROS],
])
def test_zero_spellings_load_like_the_oracle(numerals, where):
    # Alice's payloads hold X and Z: six of their eight numerals are zeros
    text = strategy_to_text(noisy_strategy(2, NoiseSpec("bob-rotation", 0.2)))
    start = text.index("[", text.index('"alice_obs"'))
    spans = [m.span() for m in NUMERAL.finditer(text, start, text.index("]]]", start))]
    at = {"first": 0, "interior": len(spans) // 2, "last": len(spans) - len(numerals)}[where]
    edited = text
    for (a, b), numeral in reversed(list(zip(spans[at:], numerals))):
        edited = edited[:a] + numeral + edited[b:]
    payload = edited[start:edited.index("]]]", start) + 3]
    got = jsonio._numeric(payload)
    want = np.array(json.loads(payload, parse_int=_oracle_int), dtype=float)
    assert got.tobytes() == want.tobytes()
    # each entry keeps its numeral's value and sign
    entries = got.reshape(-1)[at:at + len(numerals)]
    assert entries.tobytes() == np.array([float(x) for x in numerals]).tobytes()
    assert _same_bits(strategy_from_text(edited), oracle_from_text(edited))


def _spy_numeric(monkeypatch) -> list:
    """The shapes of the payloads ``jsonio`` parses from now on (None where
    the parse refuses one)."""
    calls = []
    numeric = jsonio._numeric

    def spy(region):
        values = numeric(region)
        calls.append(None if values is None else values.shape)
        return values

    monkeypatch.setattr(jsonio, "_numeric", spy)
    return calls


@pytest.mark.parametrize("make, parses, matrices", [
    # per player the 2 m distinct matrices, new in question 0...0 (m of
    # them, one parse) and in each question with a single 1 bit (one
    # each): with the state, 1 + 2 (1 + m) parses
    (lambda: noisy_strategy(10, NoiseSpec("bob-rotation", 0.1)), 1 + 2 * 6, 2 * 10),
    (lambda: noisy_strategy(10, NoiseSpec("partial-entanglement", 0.6)), 1 + 2 * 6, 2 * 10),
    (lambda: noisy_strategy(12, NoiseSpec("bob-rotation", 0.1)), 1 + 2 * 7, 2 * 12),
    # no matrix repeats: the state, and each payload's m matrices in one parse
    (lambda: random_strategy(6, np.random.default_rng(4)), 1 + 2 * 8, 2 * 3 * 8),
], ids=["bob-rotation", "partial-entanglement", "bob-rotation-n12", "random"])
def test_each_repeated_matrix_text_is_parsed_once(monkeypatch, tmp_path, make, parses,
                                                  matrices):
    s = make()
    for text in (_compact_text(s, tmp_path / "doc.json"), strategy_to_text(s)):
        calls = _spy_numeric(monkeypatch)
        assert _same_bits(strategy_from_text(text), s)
        assert len(calls) == parses and None not in calls
        # the state is nested two deep, each run of matrices three
        assert sum(shape[0] for shape in calls if len(shape) == 3) == matrices


def _payload(text: str, side: str, question: str) -> tuple[int, int]:
    """Start and end of one question's payload in a one-line document."""
    start = text.index("[", text.index(f'"{question}"', text.index(f'"{side}"')))
    return start, text.index("]]]", start) + 3


def _edit_matrix(text: str, edit, index: int = 0) -> tuple[str, str]:
    """``text`` with ``edit`` applied to matrix ``index`` of Alice's last
    question, every one of whose matrices was read before, and the edited
    matrix's text."""
    start, end = _payload(text, "alice_obs", "111")
    matrix_start = start + 1
    for _ in range(index):
        matrix_start = text.index("[", text.index("]]", matrix_start) + 2)
    matrix_end = text.index("]]", matrix_start) + 2
    edited = edit(text[matrix_start:matrix_end])
    assert edited != text[matrix_start:matrix_end]
    return text[:matrix_start] + edited + text[matrix_end:], edited


def _first_numeral(matrix: str, want) -> tuple[int, int]:
    return next(m.span() for m in NUMERAL.finditer(matrix) if want(m.group()))


def _negate_a_zero(matrix: str) -> str:
    a, b = _first_numeral(matrix, lambda numeral: numeral == "0.0")
    return matrix[:a] + "-0.0" + matrix[b:]


def _change_a_digit(matrix: str) -> str:
    a, b = _first_numeral(matrix, lambda numeral: numeral not in ("0.0", "-0.0"))
    digit = matrix[b - 1]
    return matrix[:b - 1] + ("1" if digit == "0" else "0") + matrix[b:]


@pytest.mark.parametrize("edit", [
    lambda matrix: matrix.replace("], [", "],  [", 1),
    lambda matrix: matrix.replace("[[", "[ [", 1),
    _negate_a_zero,
    _change_a_digit,
], ids=["whitespace-inside", "whitespace-leading", "negative-zero", "one-digit"])
def test_a_repeated_matrix_changed_in_its_text_loads_like_the_oracle(
        monkeypatch, tmp_path, edit):
    strategy = noisy_strategy(6, NoiseSpec("bob-rotation", 0.2))
    for text in (strategy_to_text(strategy), _compact_text(strategy, tmp_path / "doc.json")):
        edited, _ = _edit_matrix(text, edit)
        calls = _spy_numeric(monkeypatch)
        strategy_from_text(edited)
        # the state, the 1 + m runs of distinct matrices per player, and the
        # edited matrix, or the edited payload where its leading brackets no
        # longer say it holds matrices
        assert len(calls) == 1 + 2 * 4 + 1
        _check_like_the_oracle(edited, tmp_path / "edited.json")


def test_a_new_matrix_in_a_known_payload_parses_alone(monkeypatch, tmp_path):
    strategy = noisy_strategy(6, NoiseSpec("bob-rotation", 0.2))
    regions = []
    numeric = jsonio._numeric
    monkeypatch.setattr(jsonio, "_numeric",
                        lambda region: regions.append(region) or numeric(region))
    for text in (strategy_to_text(strategy), _compact_text(strategy, tmp_path / "doc.json")):
        # the middle one of the three matrices of a payload of known matrices
        edited, matrix = _edit_matrix(text, _negate_a_zero, index=1)
        regions.clear()
        strategy_from_text(edited)
        # the state, the 1 + m runs of distinct matrices per player, and the
        # new one alone, in brackets: the known matrix after it is still
        # found by its length
        assert regions.count(f"[{matrix}]") == 1 and len(regions) == 1 + 2 * 4 + 1
        _check_like_the_oracle(edited, tmp_path / "edited.json")


def test_whitespace_between_closing_brackets_loads_like_the_oracle(tmp_path):
    strategy = noisy_strategy(6, NoiseSpec("partial-entanglement", 0.6))
    for text in (strategy_to_text(strategy), _compact_text(strategy, tmp_path / "doc.json")):
        # a first question whose separators no longer end in "]],", and a
        # repeat whose separators do not either
        for side, question in (("alice_obs", "000"), ("bob_obs", "111")):
            start, end = _payload(text, side, question)
            spaced = text[start:end].replace("]], ", "] ], ").replace("]]]", "]] ]")
            text = text[:start] + spaced + text[end:]
        _check_like_the_oracle(text, tmp_path / "spaced.json")


def _in_a_payload(data: bytes, byte: bytes) -> bytes:
    """``data`` with the first digit of Alice's first matrix replaced by ``byte``."""
    at = data.index(b"[[[", data.index(b'"alice_obs"')) + 3
    return data[:at] + byte + data[at + 1:]


#: edits of a document's bytes, and the code ``value`` exits with on the file
FILE_EDITS = {
    "bom": (lambda data: b"\xef\xbb\xbf" + data, 2),
    "crlf": (lambda data: data.replace(b"\n", b"\r\n"), 0),
    # a payload after a key whose characters take two bytes each
    "non-ascii-key": (lambda data: data.replace(
        b'"state"', '"\u043a\u043b\u044e\u0447": [[1, 0]], "state"'.encode(), 1), 0),
    "invalid-utf8-key": (lambda data: data.replace(b'"state"', b'"\xff": 1, "state"', 1), 2),
    "invalid-utf8-payload": (lambda data: _in_a_payload(data, b"\xff"), 2),
    "empty": (lambda data: b"", 2),
}


@pytest.mark.parametrize("edit", sorted(FILE_EDITS))
def test_a_file_loads_as_its_text_does(tmp_path, edit):
    """A file loads to the arrays, dtypes and classes its text loads to,
    or both are refused, where a file that is not UTF-8 has no text."""
    change, code = FILE_EDITS[edit]
    path = tmp_path / "doc.json"
    _compact_text(noisy_strategy(4, NoiseSpec("bob-rotation", 0.1)), path)
    data = change(path.read_bytes())
    path.write_bytes(data)
    try:
        want = _load(strategy_from_text, data.decode("utf-8"))
    except UnicodeDecodeError:
        want = None
    assert _same_strategy(_load(load_strategy, path), want)
    assert (want is None) == (code == 2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["value", "--strategy", str(path)]) == code
    assert len(err.getvalue().splitlines()) == (code == 2)


def test_a_document_piped_to_dev_stdin_loads_as_its_file_does(tmp_path):
    # a pipe cannot be mapped, so its bytes are read whole
    path = tmp_path / "doc.json"
    _compact_text(noisy_strategy(4, NoiseSpec("partial-entanglement", 0.6)), path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    piped = subprocess.run([sys.executable, "-m", "chsh_selftest.cli", "value", "--strategy",
                            "/dev/stdin"], input=path.read_bytes(), capture_output=True,
                           env=env, timeout=120)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["value", "--strategy", str(path)]) == 0
    assert (piped.returncode, piped.stdout.decode(), piped.stderr) == (0, out.getvalue(), b"")


def assert_classes_are_those_of_the_stacks(s: Strategy) -> None:
    """The classes a strategy holds are those ``_classes`` finds in its
    stacks: the same class numbers, and distinct observables bit-identical
    to members of them, in class order and of the stack's dtype."""
    for stack, (distinct, cls) in zip((s.alice, s.bob), s._observables):
        flat = stack.reshape(-1, *stack.shape[2:])
        want_distinct, want_cls = strategy_module._classes(flat)
        assert np.array_equal(cls, want_cls)
        assert distinct.dtype == flat.dtype
        assert distinct.tobytes() == want_distinct.tobytes()


@pytest.mark.parametrize("family", VALIDATE_FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_handed_classes_are_those_the_stacks_hold(tmp_path, n, family):
    # "complex state" is a noise model with a global phase on its state
    s = validate_strategy(n, family)
    texts = (strategy_to_text(s), _compact_text(s, tmp_path / "doc.json"))
    for strategy in (s, *map(strategy_from_text, texts)):
        assert_classes_are_those_of_the_stacks(strategy)
        assert_same_validation(validate(strategy), validate_per_question(strategy))
    # the stacks a loaded strategy gathers are the arrays of its payloads,
    # dtypes included
    for text in texts:
        assert _same_strategy(strategy_from_text(text), oracle_from_text(text))


def test_the_benchmark_random_files_gather_their_payloads(tmp_path):
    # the pinned seed's certify-n6 files.  Where nothing repeats, a gathered
    # stack is a reshape of the distinct one and copies nothing; a random
    # 8 x 8 observable whose signs all agree is +-1, and random-0's Alice
    # has one twice
    plan = WORKLOADS.make_plan("certify-n6", WORKLOADS.DEFAULT_SEED, tmp_path)
    paths = [inp["argv"][2] for inp in plan["inputs"] if "--strategy" in inp["argv"]]
    reshaped = []
    for path in paths:
        s = load_strategy(path)
        assert _same_strategy(s, oracle_from_text(Path(path).read_text()))
        for stack, (distinct, cls) in zip((s.alice, s.bob), s._observables):
            reshaped.append(np.shares_memory(stack, distinct))
            assert reshaped[-1] == (len(distinct) == len(cls))
        assert_same_validation(validate(s), validate_per_question(s))
    assert reshaped == [False, True, True, True]


@pytest.mark.parametrize("edit, classes", [
    # another text of the same bits joins its class
    (lambda matrix: matrix.replace("1.0", "1.00", 1).replace("0.0", "0e0", 1), 2 * 3),
    # a zero of the other sign is a class of its own
    (_negate_a_zero, 2 * 3 + 1),
], ids=["respelled", "negative-zero"])
def test_a_respelled_matrix_is_classed_by_its_bits(monkeypatch, tmp_path, edit, classes):
    text = strategy_to_text(noisy_strategy(6, NoiseSpec("partial-entanglement", 0.6)))
    edited, _ = _edit_matrix(text, edit)
    calls = []
    spy = strategy_module._classes
    monkeypatch.setattr(strategy_module, "_classes",
                        lambda flat: calls.append(len(flat)) or spy(flat))
    s = strategy_from_text(edited)
    # each player's distinct matrix texts are grouped, not their 24 matrices:
    # Alice's one more text, then Bob's 2 m
    assert calls == [2 * 3 + 1, 2 * 3]
    monkeypatch.setattr(strategy_module, "_classes", spy)
    assert len(s._observables[0][0]) == classes
    assert_classes_are_those_of_the_stacks(s)
    assert_same_validation(validate(s), validate_per_question(s))


@pytest.mark.parametrize("text", [
    # known elements, but no closing bracket at the payload's end
    '{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]]5}',
    '{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]]}',
    # known elements in a broken frame
    '{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]]]]}',
    '{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],,[[3,4]]]}',
    '{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]]],[[3,4]]]}',
    '{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],x[[3,4]]]}',
])
def test_a_payload_of_known_elements_keeps_json_framing(text):
    with pytest.raises(ValueError):
        json.loads(text)
    with pytest.raises(ValueError):
        jsonio.loads(text)


@pytest.mark.parametrize("text, parses", [
    # "a" takes one parse of its elements, and "b" is a stack of their rows
    ('{"a": [[[1,2]],[[3,4]]], "b": [[[3,4]],\n\t [[1,2]],[[3,4]]]}', 1),
    # a last element with whitespace after it is another text
    ('{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]] ]}', 2),
    # known elements of two shapes: a ragged array, which numpy cannot
    # hold, so "b" is parsed whole and refused
    ('{"a": [[[1,2]],[[3,4]]], "c": [[[5]],[[6]]], "b": [[[1,2]],[[5]]]}', 3),
    # the same text one level deeper is another element
    ('{"a": [[[1,2]],[[3,4]]], "b": [[[[1,2]],[[3,4]]]]}', 2),
    # separators with whitespace inside: the walk of "a" reads two elements
    # as one text, so its parse holds more elements than the walk read, and
    # "a" is parsed whole; "b" alike after its first element
    ('{"a": [[[1,2]] ,[[3,4]],[[5,6]]], "b": [[[5,6]],[[1,2]] ,[[3,4]]]}', 4),
    ('{"a": [[[1,2] ],[[3,4]],[[5,6]]], "b": [[[5,6]],[[1,2] ],[[3,4]]]}', 4),
    # a depth the leading brackets understate: the parse of the elements
    # is nested deeper than the walk's separators say, and each payload
    # is parsed whole
    ('{"a": [[[ [1]],[[2]]] ,[[[3]] ,[[4]]],[[[5]] ,[[6]]]],'
     ' "b": [[[ [1]],[[[5]] ,[[6]]],[[2]]] ,[[[3]] ,[[4]]]]}', 4),
])
def test_a_payload_of_known_elements_loads_like_json(monkeypatch, text, parses):
    calls = _spy_numeric(monkeypatch)
    got, want = jsonio.loads(text), json.loads(text)
    assert len(calls) == parses
    for key, value in want.items():
        if isinstance(got[key], (np.ndarray, jsonio.Rows)):
            values = np.asarray(got[key])
            assert values.dtype == float and values.tolist() == value
        else:
            assert got[key] == value


def _every_key_collides(monkeypatch):
    """Every element text from now on takes one key, whatever its length
    and its ends: only the check against the document tells texts apart."""
    monkeypatch.setattr(jsonio, "_key", lambda doc, begin, end: 0)


def test_a_hash_collision_is_no_hit(monkeypatch):
    # every element text collides with every other on the table's key
    _every_key_collides(monkeypatch)
    text = strategy_to_text(noisy_strategy(6, NoiseSpec("bob-rotation", 0.2)))
    assert _same_bits(strategy_from_text(text), oracle_from_text(text))


def test_the_table_is_dropped_when_loads_returns(monkeypatch):
    decoders = []

    class Spy(jsonio._Decoder):
        def __init__(self):
            super().__init__()
            decoders.append(self)

    monkeypatch.setattr(jsonio, "_Decoder", Spy)
    jsonio.loads('{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]]]}')
    with pytest.raises(ValueError):
        jsonio.loads('{"a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]]5}')
    assert [(d.seen, d.lengths) for d in decoders] == [({}, {}), ({}, {})]


def _as_lists(obj):
    """``obj`` with every array, and every payload read by reference
    (``jsonio.Rows``), turned into nested lists."""
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    return np.asarray(obj).tolist() if isinstance(obj, (np.ndarray, jsonio.Rows)) else obj


def _loads_like_json(text: str) -> None:
    assert _as_lists(jsonio.loads(text)) == json.loads(text)


@pytest.mark.parametrize("text, parsed", [
    # the separator after "b"'s second element; "b" is ragged, so the
    # parse of its new elements refuses them, and it is parsed whole and
    # refused
    ('{"a": [[[1,2,3,4]],[[5,6,7,8]]], "b": [[[1]],[[2]],[[7,7,7,7]]]}', [None, None]),
    # the closing bracket after it
    ('{"a": [[[1,2,3,4]],[[5,6,7,8]]], "b": [[[1]],[[2]]]}', [(2, 1, 1)]),
], ids=["separator", "closing"])
@pytest.mark.parametrize("collide", [False, True], ids=["hash", "colliding-hash"])
def test_a_known_length_over_other_texts_is_no_hit(monkeypatch, text, parsed, collide):
    # "a" records elements 11 characters long; the first 11 characters of
    # "b" are two elements and the separator between them, and a separator
    # or the closing bracket follows
    if collide:  # then only the check against the document tells them apart
        _every_key_collides(monkeypatch)
    calls = _spy_numeric(monkeypatch)
    _loads_like_json(text)
    assert calls == [(2, 1, 4)] + parsed  # "b"'s first element is parsed, as new


def test_a_text_recorded_with_another_length_is_no_hit(monkeypatch):
    _every_key_collides(monkeypatch)
    # "b"'s two elements span the length of "c"'s element, and the document
    # spells them at the offset of "a"'s first
    calls = _spy_numeric(monkeypatch)
    _loads_like_json('{"c": [[[1,2,3,4,5,6]]], "a": [[[1,2]],[[3,4]]], "b": [[[1,2]],[[3,4]]]}')
    assert calls == [(1, 1, 6), (2, 1, 2)]
    # "b" holds a prefix of "c"'s element, as long as "d"'s, and no array
    text = '{"c": [[[7,8],[1,2]]], "d": [[[12]]], "b": [[[7,8]]}'
    with pytest.raises(ValueError):
        json.loads(text)
    with pytest.raises(ValueError):
        jsonio.loads(text)


@pytest.mark.parametrize("text", [
    # an element read at another position of another payload
    '{"a": [[[1,2]],[[3,4]],[[5,6]]], "b": [[[5,6]],[[1,2]]]}',
    # one player's matrix text in the other player's payload
    '{"alice": {"0": [[[1,0]],[[0,1]]]}, "bob": {"0": [[[0,1]],[[0,1]],[[1,0]]]}}',
])
def test_a_known_text_at_another_position_is_a_hit(monkeypatch, text):
    calls = _spy_numeric(monkeypatch)
    _loads_like_json(text)
    # each distinct element of the first payload is parsed, in one parse,
    # and nothing else
    assert calls == [(len(set(re.findall(r"\[\[[^][]*\]\]", text))), 1, 2)]


@pytest.mark.parametrize("text, parses", [
    # the last element has a known length, and whitespace, not the closing
    # bracket, follows it
    ('{"a": [[[1,2]],[[3,4]]], "b": [[[3,4]],[[1,2]]\n ]}', 2),
    # a last element recorded with the whitespace after it is that text
    ('{"a": [[[1,2]],[[3,4]] ], "b": [[[1,2]],[[3,4]] ]}', 1),
    # where a separator follows, it is no known text: the walk reads two
    # elements as one text, and "b" is parsed whole
    ('{"a": [[[1,2]],[[3,4]] ], "b": [[[3,4]] ,[[1,2]]]}', 3),
])
def test_a_last_element_followed_by_whitespace(monkeypatch, text, parses):
    calls = _spy_numeric(monkeypatch)
    _loads_like_json(text)
    assert len(calls) == parses


def test_known_rows_of_two_shapes_are_parsed(monkeypatch):
    # every element of "b" is known, but as rows of two shapes: the parse
    # refuses the ragged payload, and the stdlib reads it into lists
    text = '{"a": [[[1,2]],[[3,4]]], "c": [[[5],[6]]], "b": [[[1,2]],[[5],[6]]]}'
    calls = _spy_numeric(monkeypatch)
    _loads_like_json(text)
    assert calls == [(2, 1, 2), (1, 2, 1), None]


@pytest.mark.parametrize("make, runs", [
    # nothing repeats: every question's m matrices
    (lambda: random_strategy(6, np.random.default_rng(5)), [3] * 2 * 8),
    # per player the 2 m distinct matrices: question 0...0's m, and one in
    # each question with a single 1 bit
    (lambda: noisy_strategy(8, NoiseSpec("partial-entanglement", 0.6)), ([4] + [1] * 4) * 2),
], ids=["random", "partial-entanglement"])
def test_each_parse_reads_a_run_of_new_matrices_or_the_state(monkeypatch, tmp_path, make, runs):
    # a question payload's consecutive new matrices are read in one parse,
    # and the state, nested two deep, whole
    s = make()
    side = s.dim_a * s.dim_a
    for text in (strategy_to_text(s), _compact_text(s, tmp_path / "doc.json")):
        parses = _spy_numeric(monkeypatch)
        assert _same_bits(strategy_from_text(text), s)
        assert parses == [(s.state.size, 2)] + [(run, side, 2) for run in runs]


def _complex_bytes(s: Strategy) -> int:
    """The arrays' bytes as complex128, 16 per entry, whatever their dtype."""
    return 16 * (s.state.size + s.alice.size + s.bob.size)


@pytest.mark.parametrize("make, dtype, bound", [
    (lambda: noisy_strategy(8, NoiseSpec("bob-rotation", 0.1)), np.float64, 1.5),
    (lambda: random_strategy(8, np.random.default_rng(3)), np.complex128, 1.5),
    # a repeated payload is read by reference, and each matrix written once,
    # into its stack: measured 0.55x, against 1.01x where every payload was
    # copied into an array of its own and then into the stack
    (lambda: noisy_strategy(10, NoiseSpec("partial-entanglement", 0.6)), np.float64, 0.65),
], ids=["bob-rotation", "random", "partial-entanglement-n10"])
def test_loading_holds_about_one_copy_of_the_arrays(make, dtype, bound):
    s = make()
    text = strategy_to_text(s)
    tracemalloc.start()
    try:
        back = strategy_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.alice.tobytes() == s.alice.tobytes()
    assert back.alice.dtype == back.bob.dtype == dtype
    # measured: 1.22x (random) and 0.62x (bob-rotation, whose float64
    # arrays take half the complex bytes the document spells out)
    assert peak <= bound * _complex_bytes(s)


def test_a_sparse_load_holds_its_distinct_observables_and_their_parse(tmp_path):
    # a noise-model file's 2 m distinct matrices per player are kept, and
    # no dense stack is built: the peak is them, and the [re, im] pairs
    # that hold them and the state as parsed.  Measured 490 KB of a 635 KB
    # bound at n = 10, against 2.9 MB when the load built the 2.6 MB of
    # dense stacks
    path = tmp_path / "doc.json"
    save_strategy(noisy_strategy(10, NoiseSpec("partial-entanglement", 0.6)), path)
    tracemalloc.start()
    try:
        back = load_strategy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "alice" not in vars(back) and "bob" not in vars(back)
    distinct = [obs for obs, _ in back._observables]
    assert [len(obs) for obs in distinct] == [2 * 5, 2 * 5]
    parsed = 16 * (back.state.size + sum(obs.size for obs in distinct))
    assert peak <= 1.25 * (sum(obs.nbytes for obs in distinct) + parsed)


def test_loading_a_file_holds_no_decoded_copy_of_it(tmp_path):
    # the bytes are parsed in place: reading the text held its bytes and
    # its decoded copy at once, at least twice the file
    s = noisy_strategy(10, NoiseSpec("partial-entanglement", 0.6))
    path = tmp_path / "doc.json"
    save_strategy(s, path)
    tracemalloc.start()
    try:
        back = load_strategy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.alice.tobytes() == s.alice.tobytes()
    assert peak <= path.stat().st_size + 0.65 * _complex_bytes(s)
