"""The report writer, and a JSON parser that reads numeric arrays
straight into numpy, in place in the document.

``dumps`` rounds a report's floats to 12 significant digits and hands
the result to the stdlib encoder.  Strategy documents are written by
``strategy.strategy_to_text``: the text ``json.dumps`` gives, each float
its shortest round-trip ``repr``, which pins every double, -0.0
included.

A strategy file is mostly ``[re, im]`` pairs: millions of numbers that
the stdlib decoder would turn into Python lists and floats, in 40 MB of
text at n = 12 that a decoded copy would double.  ``loads`` takes the
document as text or as its UTF-8 bytes (``bytes``, or a read-only
``mmap`` of the file) and reads it in place.  A scan finds each array
outside string literals and reads each one that holds only numbers from
its own slice straight into a float64 array of the array's nesting
shape, through one numpy text parse per matrix text; the numerals keep
JSON's grammar.  The rest is the skeleton: keys, strings, ``n``,
``dim_A``, ``dim_B``, the question maps, and each array the fast path
does not accept (whole, with any arrays nested in it).  The skeleton is
decoded from UTF-8 piece by piece between the payloads, with "[]"
standing in for each payload, and the stdlib decoder reads it: it takes
each payload by its stand-in's position, and parses any other array into
lists (reading its numbers as floats) or raises as ``json.loads`` would.
So no payload reaches the stdlib as text, and bytes are never decoded
whole; a syntax error or bytes that are not UTF-8 are still reported at
their place in the document.

Many matrices repeat.  In the paper's test a player's observable for one
pair depends only on that pair's question bit, so the file of an honest
or locally noisy strategy writes each of a player's matrices once for
every question that shares its bit: an n = 12 noise-model file holds 24
distinct matrix texts, in 4 lengths, among its 768.  So an array nested
at least three deep (each question's list of matrices) is walked one
element at a time (``_Decoder._walk``) and comes back by reference, as
``Rows``: each element's row and a document-wide id of its text.  An
element whose text was read before in the same ``loads`` call is found
by the text lengths recorded at its depth, looked up by its length and
its first and last 16 characters (``_key``), and confirmed against the
document at the stored offset of each text recorded with that key; it
takes that text's row and id, with no copy.  Each run of consecutive
new elements takes one parse, which is the block of their rows.  An
n = 12 noise-model file so takes 15 parses (the state, and per player
one of the first question's 6 matrices and one for each of the 6
questions with a single 1 bit) and holds its 24 rows in 14 small blocks
(1.6 MB) for its 128 payloads; a random file, which repeats nothing,
takes one parse per payload and the state.
``np.asarray`` of ``Rows`` gives the array a whole parse gives; the
strategy loader instead writes each distinct row once into its player's
stack of distinct observables and groups the ids into classes of
bit-identical matrices (``strategy._stack_from_doc``).  An array the
walk cannot read (whitespace inside a separator, rows of unequal shapes)
and every array nested less deeply take one parse of the whole.  The
table of elements read holds offsets, rows, ids and the short ends of
the keys, never whole copies of the texts.
"""

from __future__ import annotations

import itertools
import json
import json.scanner
import math
import re
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


def _numeric(region) -> np.ndarray | None:
    """The float64 array written in ``region`` (text or bytes that start
    with '['), or None unless ``region`` is exactly one rectangular JSON
    array of numbers.

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
        raw = region.encode("ascii") if isinstance(region, str) else region
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


class _Letters:
    """What the scan of a document looks for, spelled in the document's
    kind (``str``, or bytes), and how a piece of it becomes text."""

    def __init__(self, kind: type):
        def spell(chars: str):
            return chars if kind is str else chars.encode("ascii")
        self.kind = kind
        self.token = re.compile(spell(r'["\[\]]'))
        # the rest of a string literal after its opening quote
        self.string = re.compile(spell(r'[^"\\]*(?:\\.[^"\\]*)*"'), re.DOTALL)
        self.quote, self.brace, self.open, self.close, self.comma = map(spell, '"}[],')
        self.blank = spell(" \t\n\r")

    def text(self, doc, begin: int, end: int) -> str:
        """``doc[begin:end]`` as text; bytes that are not UTF-8 raise
        UnicodeDecodeError at their place in ``doc``."""
        if self.kind is str:
            return doc[begin:end]
        try:
            return str(doc[begin:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError(exc.encoding, doc, begin + exc.start, begin + exc.end,
                                     exc.reason) from None


_TEXT, _BYTES = _Letters(str), _Letters(bytes)


def _key(doc, begin: int, end: int) -> tuple:
    """The table's key of the element text ``doc[begin:end]``: its length
    and its first and last 16 characters.  Every repeat of a text shares
    its key; only the check against the document tells apart two texts
    that share one."""
    return end - begin, doc[begin:min(end, begin + 16)], doc[max(begin, end - 16):end]


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
    """The scan that reads a document's payloads and writes its skeleton,
    and the stdlib decoder of the skeleton, with its array parser replaced
    by ``_array``."""

    def __init__(self):
        super().__init__(parse_int=_ascii(int), parse_float=_ascii(float))
        self.parse_array = self._array
        self.scan_once = json.scanner.py_make_scanner(self)
        # numbers inside arrays are doubles on either path: an int would lose
        # the sign of -0, and numpy makes an object array of one beyond int64
        self._stdlib = json.JSONDecoder(parse_int=float)
        # the skeleton offset of each payload's stand-in -> the payload
        self.payloads: dict = {}
        # the elements of the payloads walked so far: _key of an element's
        # text -> (its offset in the document, its length, its row, its id)
        # of each text recorded with that key
        self.seen: dict = {}
        self.texts = 0  # the element texts recorded so far, which number the next
        # depth -> the lengths of the element texts recorded in payloads of
        # that depth, in the order first recorded (a dict as an ordered set)
        self.lengths: dict = {}

    def read(self, doc, view):
        """The document ``doc`` (text or bytes; ``view`` is the text, or a
        memoryview of the bytes): its payloads through the fast path, and
        its skeleton through the stdlib decoder.  A syntax error names its
        place in the document, not in the skeleton."""
        skeleton, shifts = self._skeleton(doc, view, _TEXT if doc is view else _BYTES)
        try:
            return self.decode(skeleton)
        except json.JSONDecodeError as exc:
            # each stand-in ends at a skeleton offset where the document is
            # ahead by the payloads' lengths less 2 each, all in ASCII
            shift = max(total for end, total in shifts if end <= exc.pos)
            text = doc if doc is view else str(doc, "utf-8")  # decodes: the skeleton did
            raise json.JSONDecodeError(exc.msg, text, exc.pos + shift) from None

    def _skeleton(self, doc, view, letters: _Letters) -> tuple[str, list]:
        """The text of ``doc`` with "[]" standing in for each payload the
        fast path reads, which ``payloads`` holds by the stand-in's offset,
        and (the skeleton offset where each stand-in ends, the document's
        lead there).

        The scan takes each '[' outside string literals that no array it
        left to the stdlib holds.  Where the fast path refuses that array,
        it is left to the stdlib whole, so the arrays nested in it are
        parsed as ``json.loads`` parses them; the brackets counted outside
        string literals find its end, as the stdlib's parse of it would.
        The text between payloads is decoded piece by piece (a payload is
        ASCII, so no UTF-8 sequence spans one)."""
        pieces, shifts = [], [(0, 0)]
        length = last = pos = nested = 0  # nested: open brackets of a left array
        while (token := letters.token.search(doc, pos)) is not None:
            char, pos = token.group(), token.end()
            if char == letters.quote:
                rest = letters.string.match(doc, pos)
                pos = len(doc) if rest is None else rest.end()
            elif char == letters.close:
                nested = max(nested - 1, 0)
            elif nested:
                nested += 1
            elif (payload := self._payload(doc, view, letters, token.start())) is None:
                nested = 1
            else:
                value, pos = payload
                pieces.append(letters.text(doc, last, token.start()))
                length += len(pieces[-1])
                self.payloads[length] = value
                length += 2
                shifts.append((length, shifts[-1][1] + pos - token.start() - 2))
                last = pos
        pieces.append(letters.text(doc, last, len(doc)))
        return "[]".join(pieces), shifts

    def _array(self, s_and_end, scan_once):
        """The payload whose stand-in starts just before ``end``, or the
        stdlib C scanner's parse of the array there."""
        skeleton, end = s_and_end
        if end - 1 in self.payloads:
            return self.payloads.pop(end - 1), end + 1
        return self._stdlib.scan_once(skeleton, end - 1)

    def _payload(self, doc, view, letters: _Letters, start: int) -> tuple | None:
        """The array starting at ``doc[start]`` and its end, or None where
        the fast path refuses it: a numeric array nested at least three deep
        through ``_walk`` (as ``Rows``), one the walk refuses and any other
        numeric array through ``_numeric``."""
        # A payload is followed by a key or the end of its object; the
        # region up to there, less trailing whitespace and commas, must be
        # the whole array for the fast path.
        stop = doc.find(letters.quote, start)
        stop = len(doc) if stop < 0 else stop
        brace = doc.find(letters.brace, start, stop)
        stop = stop if brace < 0 else brace
        while doc[stop - 1:stop] in letters.blank + letters.comma:  # doc[start] is '['
            stop -= 1
        head = doc[start:min(stop, start + 33)]  # _shape takes at most 32 levels
        depth = len(head) - len(head.lstrip(letters.open))
        values = self._walk(doc, view, letters, start, stop, depth) if depth >= 3 else None
        if values is None:
            values = _numeric(doc[start:stop])  # _numeric holds the only reference
        return None if values is None else (values, stop)

    def _walk(self, doc, view, letters: _Letters, start: int, stop: int,
              depth: int) -> Rows | None:
        """The payload ``doc[start:stop]``, whose leading brackets number
        ``depth``, as the ``Rows`` of its elements, or None unless it is
        '[', its elements, each followed by a comma and JSON whitespace, and
        the closing ']' at ``stop - 1``, and the rows share one shape.

        Each element is first sought by the lengths recorded at ``depth``:
        a length is a candidate only where a text that long would end in
        the separator's depth - 1 closing brackets with its comma right
        after, or just before the closing bracket, and only then is the
        text's ``_key`` looked up; each text recorded with that key is
        confirmed against the document at its stored offset, and the first
        that matches gives its row and id.  An element no length finds runs
        to the next separator (or the closing bracket) and is new.  Each run
        of consecutive new elements takes one ``_numeric`` parse of its
        texts in brackets, and its rows are views of that parse, its block;
        a payload of known rows allocates no array.  The parse must hold as
        many elements as the run, nested ``depth`` deep: in a rectangular
        array of that depth each separator the walk found is one between
        top-level elements, so each element's text is exactly one row.
        Each new text is then recorded with its row and the next id.
        """
        if doc[stop - 1:stop] != letters.close:
            return None
        lengths = self.lengths.setdefault(depth, {})
        separator = letters.close * (depth - 1) + letters.comma
        slots = []  # (offset, end, the known entry or None) of each element
        begin = start + 1
        while True:
            for length in lengths:
                end = begin + length
                if end == stop - 1 or (end < stop - 1
                                       and doc[end - depth + 1:end + 1] == separator):
                    known = self._known(doc, view, begin, end)
                    if known is not None:
                        slots.append((begin, end, known))
                        break
            else:
                comma = doc.find(separator, begin, stop)
                end = stop - 1 if comma < 0 else comma + depth - 1
                slots.append((begin, end, None))
            if end == stop - 1:
                break
            begin = end + 1
            while doc[begin:begin + 1] in letters.blank:  # doc[stop - 1] is ']'
                begin += 1
        rows = []
        for new, run in itertools.groupby(slots, key=lambda slot: slot[2] is None):
            run = list(run)
            if not new:
                rows += [known[2] for *_, known in run]
                continue
            block = _numeric(letters.open + doc[run[0][0]:run[-1][1]] + letters.close)
            if block is None or block.ndim != depth or len(block) != len(run):
                return None
            rows.extend(block)
        if any(row.shape != rows[0].shape for row in rows):
            return None
        ids = []
        for (begin, end, known), row in zip(slots, rows):
            if known is None:
                known = (begin, end - begin, row, self.texts)
                self.seen.setdefault(_key(doc, begin, end), []).append(known)
                self.texts += 1
                lengths[end - begin] = None
            ids.append(known[3])
        return Rows(rows, ids)

    def _known(self, doc, view, begin: int, end: int) -> tuple | None:
        """The table's entry of the text ``doc[begin:end]``, or None where
        no text recorded with its key has its length and is written at that
        entry's offset."""
        for entry in self.seen.get(_key(doc, begin, end), ()):
            offset, length = entry[:2]
            # sought in a window of its own length, so found only at the offset
            if length == end - begin and doc.find(view[begin:end], offset, offset + length) >= 0:
                return entry
        return None


def loads(doc):
    """Parse a JSON document, given as text (``str``) or as its UTF-8 bytes
    (``bytes``, or a read-only ``mmap`` of a file), which are read in place:
    arrays holding only numbers come back as float64 ndarrays of their
    nesting shape (as ``Rows`` where ``_Decoder._walk`` read one element at
    a time: ``np.asarray`` gives that ndarray), other arrays as lists in
    which every number is a float, and everything else as ``json.loads``
    returns it.
    Raises ValueError (``json.JSONDecodeError`` for syntax errors,
    ``UnicodeDecodeError`` for bytes that are not UTF-8) on a document that
    is not JSON."""
    decoder = _Decoder()
    view = doc if isinstance(doc, str) else memoryview(doc)
    try:
        return decoder.read(doc, view)
    except RecursionError:
        raise ValueError("document nested too deeply") from None
    finally:
        if view is not doc:
            view.release()  # a mapped file can then be closed
        # the decoder and its scanner form a cycle that outlives this call,
        # and the table's rows would keep every payload alive
        decoder.seen.clear()
        decoder.lengths.clear()
        decoder.payloads.clear()
