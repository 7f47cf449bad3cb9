"""The report writer, and a JSON parser that reads numeric arrays
straight into numpy.

``dumps`` rounds a report's floats to 12 significant digits and hands
the result to the stdlib encoder.  Strategy documents are written by
``strategy.strategy_to_text``: the text ``json.dumps`` gives, each float
its shortest round-trip ``repr``, which pins every double, -0.0
included.

A strategy file is mostly ``[re, im]`` pairs: millions of numbers that
the stdlib decoder would turn into Python lists and floats.  ``loads``
lets the stdlib decoder read the document's skeleton (objects, strings,
the numbers outside arrays) but reads each array that holds only numbers
straight into a float64 array of the array's nesting shape, through one
numpy text parse per matrix text.  The numerals keep JSON's grammar; any
array that the fast path does not accept is handed to the stdlib
decoder, which parses it into lists (reading its numbers as floats) or
raises as ``json.loads`` would.

Many matrices repeat.  In the paper's test a player's observable for one
pair depends only on that pair's question bit, so the file of an honest
or locally noisy strategy writes each of a player's matrices once for
every question that shares its bit: an n = 12 noise-model file holds 24
distinct matrix texts, in 4 lengths, among its 768.  So an array nested
at least three deep (each question's list of matrices) is walked one
element at a time (``_Decoder._walk``) and comes back by reference, as
``Rows``: each element's row and a document-wide id of its text.  An
element whose text was read before in the same ``loads`` call is found
by the text lengths recorded at its depth and takes its stored row and
id, with no copy; the others are parsed alone and copied into one block
per payload.  An n = 12 noise-model file so takes 25 parses (one per
distinct matrix text, and the state) and holds its 24 rows in 14 small
blocks (1.6 MB) for its 128 payloads; a random file, which repeats
nothing, takes one parse per matrix and the state.  ``np.asarray`` of
``Rows`` gives the array a whole parse gives; the strategy loader
instead writes each row straight into its player's stack and groups the
ids into classes of bit-identical matrices (``strategy._stack_from_doc``).  An array the walk cannot read
(whitespace inside a separator, rows of unequal shapes) and every array
nested less deeply take one parse of the whole.  The table of elements
read holds offsets, rows and ids, never copies of the texts.
"""

from __future__ import annotations

import json
import json.scanner
import math
import warnings

import numpy as np


def _rounded(obj):
    """``obj`` with every float rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {key: _rounded(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(x) for x in obj]
    return obj


def dumps(obj) -> str:
    """Report text: indented JSON with floats rounded to 12 significant
    digits; a non-finite float raises ValueError."""
    return json.dumps(_rounded(obj), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# parsing

# Class codes of the bytes of a numeric array with its whitespace deleted.
_COMMA, _OPEN, _CLOSE, _MINUS, _PLUS, _DOT, _EXP, _ZERO, _DIGIT, _OTHER = range(1, 11)
_STRUCTURE = (_COMMA, _OPEN, _CLOSE)
_DIGITS = (_ZERO, _DIGIT)


def _class_table() -> bytes:
    table = bytearray([_OTHER]) * 256
    for chars, code in ((b",", _COMMA), (b"[", _OPEN), (b"]", _CLOSE), (b"-", _MINUS),
                        (b"+", _PLUS), (b".", _DOT), (b"eE", _EXP), (b"0", _ZERO),
                        (b"123456789", _DIGIT)):
        for ch in chars:
            table[ch] = code
    return bytes(table)


def _pair_ok(a: int, b: int) -> bool:
    """Whether class b may follow class a in a numeric array without
    whitespace, where every slot between '[' or ',' and ',' or ']' holds
    one JSON numeral: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][-+]?[0-9]+)?"""
    if _OTHER in (a, b):
        return False
    if a in _STRUCTURE and b in _STRUCTURE:
        return (a, b) in ((_OPEN, _OPEN), (_CLOSE, _CLOSE), (_CLOSE, _COMMA), (_COMMA, _OPEN))
    if a in (_OPEN, _COMMA):  # a numeral starts
        return b == _MINUS or b in _DIGITS
    if a == _CLOSE or b == _OPEN:  # a numeral touching the wrong side of a bracket
        return False
    if b in (_COMMA, _CLOSE):  # a numeral ends
        return a in _DIGITS
    if a in (_MINUS, _PLUS, _DOT):
        return b in _DIGITS
    if a == _EXP:
        return b in _DIGITS or b in (_MINUS, _PLUS)
    return b in _DIGITS or b in (_DOT, _EXP)


def _pair_table() -> bytes:
    """Symbol for each pair code 16 a + b: b"!" for a pair no numeric
    array holds, and the letters of the leading-zero patterns (Z D: a
    numeral starting "0" and a digit; M N D: "-0" and a digit)."""
    table = bytearray(b"!") * 256
    for a in range(1, 11):
        for b in range(1, 11):
            if _pair_ok(a, b):
                table[16 * a + b] = ord(".")
    for a in (_OPEN, _COMMA):
        table[16 * a + _ZERO] = ord("Z")
        table[16 * a + _MINUS] = ord("M")
    table[16 * _MINUS + _ZERO] = ord("N")
    for b in _DIGITS:
        table[16 * _ZERO + b] = ord("D")
    return bytes(table)


_CLASSES = _class_table()
_PAIRS = _pair_table()
_WHITESPACE = b" \t\n\r"
_NUMERAL_CODES = bytes([_MINUS, _PLUS, _DOT, _EXP, _ZERO, _DIGIT])
_TO_BLANKS = bytes.maketrans(b",[]\t\n\r", b"      ")


def _shape(skeleton: bytes) -> tuple | None:
    """The shape whose brackets and commas are ``skeleton``, or None.

    The first run of j closing brackets ends the first element at depth
    ndim - j; each element's length fixes how many of the next-inner ones
    it holds.  Only a rectangular nesting reproduces ``skeleton`` exactly.
    """
    opening, closing = bytes([_OPEN]), bytes([_CLOSE])
    ndim = len(skeleton) - len(skeleton.lstrip(opening))
    if not 0 < ndim <= 32:  # deeper nesting is left to the stdlib (and numpy 1.x's limit)
        return None
    shape: list = []
    inner = 0  # skeleton length of one element one level down (a numeral: none)
    for j in range(1, ndim + 1):
        end = skeleton.find(closing * j)
        if end < 0:
            return None
        length = end + j - (ndim - j)
        count, rest = divmod(length - 1, inner + 1)
        if rest or count < 1:
            return None
        shape.insert(0, count)
        inner = length
    if inner != len(skeleton):
        return None
    expected = b""
    for count in reversed(shape):
        expected = opening + bytes([_COMMA]).join([expected] * count) + closing
    return tuple(shape) if expected == skeleton else None


def _numeric(region: str) -> np.ndarray | None:
    """The float64 array written in ``region`` (which starts with '['), or
    None unless ``region`` is exactly one rectangular JSON array of numbers.

    After the byte-pair check, every slot of the bracket skeleton holds a
    run of numeral characters that starts and ends like a JSON numeral and
    has no leading zero.  The text is then read as blank-separated tokens;
    a run split by whitespace or holding two numerals ("1.2.3") gives more
    tokens than slots or a partial parse, and both are refused, so each
    slot holds exactly one JSON numeral.

    Each buffer is dropped as soon as it has been read, and the caller
    passes the only reference to ``region``.
    """
    try:
        raw = region.encode("ascii")
    except UnicodeEncodeError:
        return None
    del region
    packed = raw.translate(_CLASSES, _WHITESPACE)
    shape = _shape(packed.translate(None, _NUMERAL_CODES))
    if shape is None:
        return None
    codes = np.frombuffer(packed, dtype=np.uint8)
    pairs = codes[:-1] * 16
    pairs += codes[1:]
    del codes, packed
    pairs = pairs.tobytes()
    symbols = pairs.translate(_PAIRS)
    del pairs
    if b"!" in symbols or _leading_zero(np.frombuffer(symbols, dtype=np.uint8)):
        return None
    del symbols
    text = raw.translate(_TO_BLANKS)
    del raw
    values = _parse(text)
    if values is None or values.size != math.prod(shape):
        return None
    return values.reshape(shape)


def _leading_zero(symbols: np.ndarray) -> bool:
    """Whether the pair symbols hold "ZD" (a numeral starting "0" and a
    digit) or "MND" ("-0" and a digit), by shifted compares into two
    masks that are reused in place."""
    digit = np.equal(symbols[1:], ord("D"))  # digit[i]: symbol i + 1 is D
    found = np.equal(symbols[:-1], ord("Z"))
    found &= digit
    if found.any():
        return True
    np.equal(symbols[:-1], ord("N"), out=found)
    found &= digit  # "ND" at i
    minus = np.equal(symbols[:-2], ord("M"), out=digit[1:])  # symbol i - 1 is M
    found[1:] &= minus
    return bool(found[1:].any())


def _parse(text: bytes) -> np.ndarray | None:
    """The blank-separated numerals of ``text`` through one numpy parse, or
    None if numpy cannot read it to its end."""
    # numpy < 2.4 only warns about a partial parse, and returns what it read
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype=float, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _ascii(parse):
    """A number parser for the skeleton that, like the C scanner, takes
    only ASCII digits (the pure-Python scanner's pattern matches any
    Unicode digit)."""
    def checked(numeral: str):
        if not numeral.isascii():
            raise ValueError(f"non-ASCII digits in number {numeral!r}")
        return parse(numeral)
    return checked


def _depth(text: str, start: int, stop: int) -> int:
    """The number of brackets that lead the array written in
    ``text[start:stop]``, counted up to 33 (``_shape`` takes at most 32
    levels)."""
    head = text[start:min(stop, start + 33)]
    return len(head) - len(head.lstrip("["))


class Rows:
    """A payload that ``loads`` read element by element, by reference.

    ``rows[i]`` is element i's float64 array: a row of the block of the
    payload that first wrote its text.  ``ids[i]`` numbers that text in
    its document, so two elements with one id hold the same text and the
    same bits.  ``np.asarray`` stacks the rows into the array that a parse
    of the whole payload gives.
    """

    __slots__ = ("rows", "ids")

    def __init__(self, rows: list, ids: list):
        self.rows, self.ids = rows, ids

    def __array__(self, dtype=None, copy=None):
        return np.stack(self.rows, dtype=dtype)


class _Decoder(json.JSONDecoder):
    """The stdlib decoder with its array parser replaced by ``_array``."""

    def __init__(self):
        super().__init__(parse_int=_ascii(int), parse_float=_ascii(float))
        self.parse_array = self._array
        self.scan_once = json.scanner.py_make_scanner(self)
        # numbers inside arrays are doubles on either path: an int would lose
        # the sign of -0, and numpy makes an object array of one beyond int64
        self._stdlib = json.JSONDecoder(parse_int=float)
        # the elements of the payloads walked so far: (hash, length) of an
        # element's text -> its offset in the document, its row and its id
        self.seen: dict = {}
        self.texts = 0  # the element texts recorded so far, which number the next
        # depth -> the lengths of the element texts recorded in payloads of
        # that depth, in the order first recorded (a dict as an ordered set)
        self.lengths: dict = {}

    def _array(self, s_and_end, scan_once):
        """Array starting just before ``end``: a numeric payload nested at
        least three deep through ``_walk`` (as ``Rows``), one the walk
        refuses and any other numeric array through ``_numeric``, anything
        else through the stdlib C scanner."""
        text, end = s_and_end
        start = end - 1
        # A payload is followed by a key or the end of its object; the
        # region up to there, less trailing whitespace and commas, must be
        # the whole array for the fast path.
        stop = text.find('"', end)
        stop = len(text) if stop < 0 else stop
        brace = text.find("}", end, stop)
        stop = stop if brace < 0 else brace
        while text[stop - 1] in " \t\n\r,":  # text[start] is '['
            stop -= 1
        depth = _depth(text, start, stop)
        values = self._walk(text, start, stop, depth) if depth >= 3 else None
        if values is None:
            values = _numeric(text[start:stop])  # _numeric holds the only reference
        if values is None:
            return self._stdlib.scan_once(text, start)
        return values, stop

    def _walk(self, text: str, start: int, stop: int, depth: int) -> Rows | None:
        """The payload ``text[start:stop]``, whose leading brackets number
        ``depth``, as the ``Rows`` of its elements, or None unless it is
        '[', its elements, each followed by a comma and JSON whitespace, and
        the closing ']' at ``stop - 1``, and the rows share one shape.

        Each element is first sought by the lengths recorded at ``depth``:
        a length is a candidate only where a text that long would end in
        the separator's depth - 1 closing brackets with its comma right
        after, or just before the closing bracket, and only a candidate's
        text is sliced, hashed and confirmed against the document at the
        stored offset, whose row and id it takes.  An element no length
        finds runs to the next separator (or the closing bracket) and is
        parsed alone; ``_numeric`` accepts it only as exactly one
        rectangular array (so it is the whole element).  The payload's new
        rows are copied into one block, allocated at the first of them,
        and each parse is dropped once copied; a payload of known rows
        allocates no array.  Each new text is then recorded with its row
        of the block and the next id.
        """
        if text[stop - 1] != "]":
            return None
        lengths = self.lengths.setdefault(depth, {})
        separator = "]" * (depth - 1) + ","
        slots = []  # (offset, end, the known entry or None) of each element
        begin = start + 1
        while True:
            for length in lengths:
                end = begin + length
                if end == stop - 1 or text.startswith(separator, end - depth + 1, stop):
                    piece = text[begin:end]
                    known = self.seen.get((hash(piece), length))
                    if known is not None and text.startswith(piece, known[0]):
                        slots.append((begin, end, known))
                        break
            else:
                comma = text.find(separator, begin, stop)
                end = stop - 1 if comma < 0 else comma + depth - 1
                slots.append((begin, end, None))
            if end == stop - 1:
                break
            begin = end + 1
            while text[begin] in " \t\n\r":  # text[stop - 1] is ']'
                begin += 1
        rows, ids = [], []
        block, fresh = None, 0
        for begin, end, known in slots:
            row = _numeric(text[begin:end]) if known is None else known[1]
            if row is None or (rows and row.shape != rows[0].shape):
                return None
            if known is None:  # copied into the block, and the parse dropped
                if block is None:
                    block = np.empty((sum(k is None for *_, k in slots), *row.shape))
                block[fresh] = row
                row, fresh = block[fresh], fresh + 1
            rows.append(row)
            ids.append(None if known is None else known[2])
        for i, (begin, end, known) in enumerate(slots):
            if known is None:
                ids[i] = self.texts
                self.seen[hash(text[begin:end]), end - begin] = begin, rows[i], self.texts
                self.texts += 1
                lengths[end - begin] = None
        return Rows(rows, ids)


def loads(text: str):
    """Parse JSON text; arrays holding only numbers come back as float64
    ndarrays of their nesting shape (as ``Rows`` where ``_Decoder._walk``
    read one element at a time: ``np.asarray`` gives that ndarray), other
    arrays as lists in which every number is a float, and everything else
    as ``json.loads`` returns it.
    Raises ValueError (``json.JSONDecodeError`` for syntax errors) on text
    that is not JSON."""
    decoder = _Decoder()
    try:
        return decoder.decode(text)
    except RecursionError:
        raise ValueError("document nested too deeply") from None
    finally:
        # the decoder and its scanner form a cycle that outlives this call,
        # and the table's rows would keep every payload alive
        decoder.seen.clear()
        decoder.lengths.clear()
