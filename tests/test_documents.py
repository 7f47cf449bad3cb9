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
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_selftest import (
    NoiseSpec,
    Strategy,
    noisy_strategy,
    random_strategy,
    strategy_from_text,
    strategy_to_text,
    validate,
)
from chsh_selftest import bits, cli, jsonio
from test_pinned_reports import load_workloads

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


def _compact_text(strategy, path) -> str:
    """The document perfbench writes: one line per matrix, repr floats."""
    WORKLOADS.write_strategy(strategy, path)
    return path.read_text()


def _documents(tmp_dir):
    strategies = [noisy_strategy(2, NoiseSpec("bob-rotation", 0.2)),
                  noisy_strategy(4, NoiseSpec("bob-rotation", 0.1)),
                  noisy_strategy(4, NoiseSpec("partial-entanglement", 0.6)),
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
    text = '{"a": [[1, 0], [0.5, 2]], "b": [1, "x"], "c": [true], "d": 3, "e": [NaN]}'
    doc = jsonio.loads(text)
    assert isinstance(doc["a"], np.ndarray) and doc["a"].dtype == float
    reference = json.loads(text)
    assert doc["a"].tolist() == reference["a"]
    assert doc["b"] == reference["b"] and doc["c"] == [True] and doc["d"] == 3
    assert np.isnan(doc["e"][0])
    # numbers in an array the stdlib parses are doubles too
    fallback = jsonio.loads("[NaN, -0, 12345678901234567890123]")
    assert np.signbit(fallback[1]) and fallback[2] == 1.2345678901234568e22
    for bad in ("{not json", '{"a": [1, 2] 3}', "[1, 2] [3]", '{"n": 2\u0662}',
                '{"n": 2.\u0665}'):
        with pytest.raises(ValueError):
            jsonio.loads(bad)


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

    # a payload numpy reads whole, and one of mostly zeros, which it reads
    # but for its zeros
    for text in ("[[1, 2], [3, 4]]", "[[1, 0], [0.0, -0.0], [0, 2]]"):
        want = json.loads(text)
        assert jsonio._numeric(text).tolist() == want
        for short, warn in ((True, True), (True, False), (False, True)):
            monkeypatch.setattr(np, "fromstring", old_numpy(short, warn))
            assert jsonio._numeric(text) is None
            assert jsonio.loads(text) == want  # the stdlib parse instead
        monkeypatch.setattr(np, "fromstring", fromstring)


def _spy_sparse(monkeypatch) -> list:
    """The sizes of the payloads ``jsonio`` reads on its zero path from now on."""
    calls = []
    sparse = jsonio._parse_sparse

    def spy(text, size):
        calls.append(size)
        return sparse(text, size)

    monkeypatch.setattr(jsonio, "_parse_sparse", spy)
    return calls


#: every way JSON spells a zero; the zero path reads 0, -0, 0.0 and -0.0 itself
ZERO_SPELLINGS = ["0", "-0", "0.0", "-0.0", "0e0", "-0.0e-0", "0.000", "0E+5"]


@pytest.mark.parametrize("where", ["first", "interior", "last"])
@pytest.mark.parametrize("spelling", ZERO_SPELLINGS)
def test_zero_spellings_load_like_the_oracle(monkeypatch, spelling, where):
    # Alice's payloads hold X and Z: six of their eight numerals are zeros
    text = strategy_to_text(noisy_strategy(2, NoiseSpec("bob-rotation", 0.2)))
    start = text.index("[", text.index('"alice_obs"'))
    spans = [m.span() for m in NUMERAL.finditer(text, start, text.index("]]]", start))]
    at = {"first": 0, "interior": len(spans) // 2, "last": len(spans) - 1}[where]
    edited = text[:spans[at][0]] + spelling + text[spans[at][1]:]
    payload = edited[start:edited.index("]]]", start) + 3]
    calls = _spy_sparse(monkeypatch)
    got = jsonio._numeric(payload)
    assert calls == [len(spans)]  # read on the zero path
    want = np.array(json.loads(payload, parse_int=_oracle_int), dtype=float)
    assert got.tobytes() == want.tobytes()
    entry = got.reshape(-1)[at]
    assert entry == 0.0 and np.signbit(entry) == spelling.startswith("-")
    assert _same_bits(strategy_from_text(edited), oracle_from_text(edited))


@pytest.mark.parametrize("text, sparse", [
    ("[[1.5, 0.0], [-2.5, -0.0]]", True),   # half the numerals end in 0
    ("[[1.5, 0.0], [-2.5, 0.5]]", False),   # fewer than half
    ("[[10.0, 20], [-30.0, 0.05]]", True),  # numerals that end in 0 but are no zeros
    ("[[0.05, -0.0], [0.0, 0.0e5]]", True),  # and ones that begin like a zero
])
def test_the_zero_gate_changes_no_value(monkeypatch, text, sparse):
    calls = _spy_sparse(monkeypatch)
    got = jsonio._numeric(text)
    want = np.array(json.loads(text, parse_int=_oracle_int), dtype=float)
    assert bool(calls) == sparse
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _complex_bytes(s: Strategy) -> int:
    """The arrays' bytes as complex128, 16 per entry, whatever their dtype."""
    return 16 * (s.state.size + s.alice.size + s.bob.size)


@pytest.mark.parametrize("make, dtype", [
    (lambda: noisy_strategy(8, NoiseSpec("bob-rotation", 0.1)), np.float64),
    (lambda: random_strategy(8, np.random.default_rng(3)), np.complex128),
], ids=["bob-rotation", "random"])
def test_loading_holds_about_one_copy_of_the_arrays(make, dtype):
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
    # measured: 1.24x (random) and 1.14x (bob-rotation, whose float64
    # arrays take half the complex bytes the document spells out)
    assert peak <= 1.5 * _complex_bytes(s)
