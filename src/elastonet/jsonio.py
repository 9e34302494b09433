"""Strict JSON reading helpers and the canonical writer.

All file formats in this package serialize complex numbers as two-element
``[re, im]`` arrays and are written with sorted keys, two-space indentation
and Python's shortest round-trip float repr, so identical data always
produces byte-identical files.
"""

import json
import math
from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import SchemaError

INDENT = "  "

# float64 bytes formatted in one pass; the pass's work arrays peak at about
# 32 times as much (2 MB)
FORMAT_CHUNK_BYTES = 1 << 16
_CHUNK = FORMAT_CHUNK_BYTES // 8


def dumps_canonical(obj):
    """Serialize to the canonical byte-stable JSON form.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\n"``, and so are the errors: ``ValueError`` for NaN
    or infinity, ``TypeError`` for what JSON cannot hold, each raised at the
    first offending value in document order. Keys must be str: a dict with
    another key is a ``TypeError`` naming that key's type, raised before its
    keys are sorted. A float64 ndarray is written as
    its ``tolist()``; any other ndarray is refused. Payloads are trees: a
    container that holds itself is not detected.

    The walk writes all text but the floats and collects those in document
    order. A list of two or more alike items (see ``_column``) is one
    column: one template for the whole list, its text items written at
    once, its floats one block, and a column of float blocks that are
    bitwise symmetric in their two leading axes taken by upper triangles. A
    list whose items differ is cut into runs of alike items, each written
    the same way. A run of one item, and one with a NaN, an integer too
    long to write or a value JSON cannot hold, is walked item by item, so
    the errors stay those of ``json.dumps``. One ``float_texts`` call then
    formats all the floats, chunk by chunk within it, and their texts fill
    the templates' places by slices, so no Python code runs per number.
    """
    out, floats = [], _Floats()
    try:
        _encode(obj, 0, out, floats)
    except (TypeError, ValueError, RecursionError):
        floats.check()  # a NaN or infinity before the error comes first
        raise
    floats.check()
    out.append("\n")
    floats.fill(out)
    return "".join(out)


class _Floats:
    """The floats of one document in document order, and the slots of its
    text that they fill."""

    def __init__(self):
        self.arrays = []  # float64 arrays, checked finite
        self.run = []  # floats after the last array, not yet checked
        # (start, count, spread) of each block, a scalar at index i of the
        # text being the block (i - 1, 1, None)
        self.slots = []

    def scalar(self, out, value):
        """Give the float ``value`` the next slot of ``out``."""
        self.run.append(value)
        self.slots.append((len(out) - 1, 1, None))
        out.append(None)

    def add(self, start, values, spread=None):
        """Give the 1-D float64 array ``values``, checked finite, the odd
        places of the text from ``start`` on: one each, or as ``spread``
        writes them."""
        self.check()
        self.arrays.append(values)
        self.slots.append((start, len(values), spread))

    def check(self):
        """Raise at the first NaN or infinity of the floats not yet checked."""
        if self.run:
            values = np.array(self.run, dtype=float)
            _check_finite(values, self.run)
            self.arrays.append(values)
            self.run = []

    def fill(self, out):
        """Format the checked floats in one ``float_texts`` call and write
        their texts into the slots of ``out``."""
        if not self.slots:
            return
        # the blocks let go, so one copy of the floats is held while formatting
        values, self.arrays = np.concatenate(self.arrays), []
        texts, pos = float_texts(values), 0
        for start, count, spread in self.slots:
            if spread is None:
                out[start + 1:start + 2 * count:2] = texts[pos:pos + count]
            else:
                spread(out, start, texts, pos)
            pos += count


def _check_finite(values, items):
    """Raise ``json.dumps``'s error at the first NaN or infinity of the
    float64 array ``values``, named as the same item of ``items``."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = items[int(finite.argmin())]
        if isinstance(items, np.ndarray):
            bad = float(bad)  # an ndarray is written as its tolist()
        raise ValueError("Out of range float values are not JSON compliant: " + repr(bad))


def _encode(obj, level, out, floats):
    # the order of json.encoder: bool before int, tuple like list
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        floats.scalar(out, obj)
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, level, out, floats)
    elif isinstance(obj, dict):
        _encode_dict(obj, level, out, floats)
    elif isinstance(obj, np.ndarray) and obj.dtype == float:
        block = np.asarray(obj)  # a subclass (np.matrix) as its np.ndarray.tolist()
        column = _block_column(block[None], level)
        floats.check()
        _check_finite(column.values[0], column.values[0])
        _emit(column, "", out, floats)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _encode_list(seq, level, out, floats):
    if not seq:
        out.append("[]")
        return
    sep = ",\n" + INDENT * (level + 1)
    column, cuts = _column_or_cuts(seq, level + 1) if len(seq) > 1 else (None, ())
    if isinstance(column, np.ndarray):  # the list is one float block
        _emit(_block_column(column[None], level), "", out, floats)
        return
    out.append("[" + sep[1:])
    if column is None:
        _encode_runs(seq, cuts, level + 1, sep, out, floats)
    else:
        _emit(column, sep, out, floats)
    out.append("\n" + INDENT * level + "]")


def _encode_runs(seq, cuts, level, sep, out, floats):
    """Write the items of ``seq`` at indent ``level``, joined by ``sep``: each
    run of two or more items between ``cuts`` as one column, or cut again
    where its items differ; any other run item by item."""
    bounds = (0, *cuts, len(seq))
    for k in range(len(bounds) - 1):
        if k:
            out.append(sep)
        run = seq[bounds[k]:bounds[k + 1]]
        column, inner = _column_or_cuts(run, level) if cuts and len(run) > 1 else (None, ())
        if isinstance(column, np.ndarray):
            column = _block_column(column, level)
        if column is not None:
            _emit(column, sep, out, floats)
        elif inner:
            _encode_runs(run, inner, level, sep, out, floats)
        else:
            for j, item in enumerate(run):
                if j:
                    out.append(sep)
                _encode(item, level, out, floats)


def _encode_dict(obj, level, out, floats):
    if not obj:
        out.append("{}")
        return
    for key in obj:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {key.__class__.__name__}")
    sep = ",\n" + INDENT * (level + 1)
    out.append("{" + sep[1:])
    for k, (key, value) in enumerate(sorted(obj.items())):
        if k:
            out.append(sep)
        out.append(encode_basestring_ascii(key) + ": ")
        _encode(value, level + 1, out, floats)
    out.append("\n" + INDENT * level + "}")


# A column of entries: ``text`` is an entry's text with \0 for each float and
# \1 for each text item (encoded keys and texts hold neither); ``texts``
# holds, for each \1 in order, the entries' items; ``values`` is the float64
# array of the entries' floats, one row an entry, checked finite. When some
# block is mirrored, an entry's floats ``upper`` are formatted, and
# ``source`` gives each float of an entry the formatted one it repeats.
_Column = namedtuple("_Column", "text texts values upper source")

# the text of an item of a column of one of these types
_TEXTS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


class _Uneven(Exception):
    """Entries that are not one column; ``cuts`` are the entries where a run
    of one kind starts, when their kinds differ."""

    def __init__(self, cuts=()):
        super().__init__(cuts)
        self.cuts = cuts


def _column_or_cuts(entries, level):
    try:
        return _column(entries, level), ()
    except _Uneven as uneven:
        return None, uneven.cuts
    except RecursionError:  # left to the walk, which meets it in order
        return None, ()


def _column(entries, level):
    """The ``entries``, each written at indent ``level``, as one column: a
    float64 array of shape ``(len(entries), *shape)`` when they are float
    blocks of one shape (floats, nested lists of floats, float64 ndarrays),
    else a ``_Column``. Alike entries are all floats, all of one type of
    ``str``, ``int`` and ``bool``, dicts with one set of str keys (a column
    per key), or lists and tuples of one length (a column of all their
    items, or failing that a column per index). Raise ``_Uneven`` where they
    are not alike, and where one holds a NaN, an infinity or an integer too
    long to write."""
    kinds = {*map(type, entries)}
    kind = next(iter(kinds)) if len(kinds) == 1 else None
    if kind is dict:
        return _dict_column(entries, level)
    if kind in _TEXTS:
        try:
            texts = list(map(_TEXTS[kind], entries))
        except ValueError:  # an integer past the digit limit of str()
            raise _Uneven() from None
        return _Column("\1", [texts], np.empty((len(entries), 0)), None, None)
    if kind is np.ndarray:
        if len({(a.dtype, a.shape) for a in entries}) > 1:
            raise _Uneven(_cuts(entries))
        if entries[0].dtype != float:
            raise _Uneven()
        return _finite(np.stack(entries))
    if kinds <= {list, tuple}:
        return _list_column(entries, level)
    if all(issubclass(t, float) for t in kinds):
        return _finite(np.array(entries, dtype=float))
    raise _Uneven(_cuts(entries))


def _finite(values):
    """``values``, unless one is a NaN or an infinity: that is left to the
    walk, which raises at it in document order."""
    if not np.isfinite(values).all():
        raise _Uneven()
    return values


def _dict_column(records, level):
    first = records[0]
    if not all(map(first.keys().__eq__, map(dict.keys, records))):
        raise _Uneven(_cuts(records))
    if any(type(key) is not str for key in first):
        raise _Uneven()
    parts = [(encode_basestring_ascii(key) + ": ",
              _column(list(map(itemgetter(key), records)), level + 1)) for key in sorted(first)]
    return _join(parts, "{}", level, len(records))


def _list_column(lists, level):
    lengths = {*map(len, lists)}
    if len(lengths) > 1:
        raise _Uneven(_cuts(lists))
    length, count = lengths.pop(), len(lists)
    if not length:
        return np.empty((count, 0))
    items = list(chain.from_iterable(lists))
    try:
        column = _column(items, level + 1)
    except _Uneven:  # items that differ within a list
        return _join([("", _column(items[i::length], level + 1)) for i in range(length)],
                     "[]", level, count)
    if isinstance(column, np.ndarray):
        return column.reshape(count, length, *column.shape[1:])
    text, texts, values, upper, source = column
    parts = [("", _Column(text, [t[i::length] for t in texts], values[i::length], upper, source))
             for i in range(length)]
    return _join(parts, "[]", level, count)


def _join(parts, brackets, level, count):
    """The column of ``count`` entries, each written at indent ``level`` as
    ``brackets`` around ``parts``: (prefix, column) pairs of its items."""
    if not parts:
        return _Column(brackets, [], np.empty((count, 0)), None, None)
    columns = [_block_column(c, level + 1) if isinstance(c, np.ndarray) else c for _, c in parts]
    sep = ",\n" + INDENT * (level + 1)
    text = (brackets[0] + sep[1:] + sep.join([p + c.text for (p, _), c in zip(parts, columns)])
            + "\n" + INDENT * level + brackets[1])
    values = np.concatenate([c.values for c in columns], axis=1)
    upper = source = None
    if any(c.upper is not None for c in columns):
        upper, source, full, kept = [], [], 0, 0
        for c in columns:
            every = np.arange(c.values.shape[1])
            upper.append(full + (every if c.upper is None else c.upper))
            source.append(kept + (every if c.source is None else c.source))
            full, kept = full + len(every), kept + len(upper[-1])
        upper, source = np.concatenate(upper), np.concatenate(source)
    return _Column(text, [t for c in columns for t in c.texts], values, upper, source)


def _cuts(entries):
    """The entries where a run of one kind starts: one type (every float is
    one kind), a list's length, a dict's keys, an ndarray's dtype and shape."""
    kinds = list(map(_kind, entries))
    return [k for k in range(1, len(kinds)) if kinds[k] != kinds[k - 1]]


def _kind(value):
    kind = type(value)
    if kind is dict:
        return kind, value.keys()  # keys compare as sets
    if kind is list or kind is tuple:
        return list, len(value)
    if kind is np.ndarray:
        return kind, value.dtype, value.shape
    return float if issubclass(kind, float) else kind


def _block_column(stack, level):
    """The float blocks ``stack[k]``, each written at indent ``level``, as a
    column; by their upper triangles when every one is bitwise symmetric."""
    shape = stack.shape[1:]
    upper, source = _triangle_gathers(shape) if _mirrored(stack) else (None, None)
    return _Column(_block_text(shape, level), [], stack.reshape(len(stack), -1), upper, source)


def _mirrored(stack):
    """Whether the blocks ``stack[k]`` are square (n >= 2) in their two
    leading axes with equal bits across them; ``-0.0`` and ``0.0`` differ."""
    shape = stack.shape[1:]
    if len(shape) < 2 or not shape[0] == shape[1] > 1 or 0 in shape:
        return False
    bits = stack.view(np.uint64)
    return np.array_equal(bits, bits.swapaxes(1, 2))


@lru_cache(maxsize=1024)
def _triangle_gathers(shape):
    """For a symmetric block of ``shape``: ``upper`` indexes its entries with
    row <= column, row-major; ``source`` gives each entry its index in
    ``upper``."""
    n = shape[0]
    index = np.arange(math.prod(shape)).reshape(n, n, -1)
    upper = index[np.triu_indices(n)].ravel()  # ascending
    # entry (i, j) mirrors (min(i, j), max(i, j)), the smaller flat index
    source = np.searchsorted(upper, np.minimum(index, index.swapaxes(0, 1)).ravel())
    upper.flags.writeable = source.flags.writeable = False  # cached, shared
    return upper, source


@lru_cache(maxsize=1024)
def _block_text(shape, level):
    """The text of a block of ``shape`` at indent ``level``, \\0 for a float."""
    if not shape:
        return "\0"
    if not shape[0]:
        return "[]"
    sep = ",\n" + INDENT * (level + 1)
    item = _block_text(shape[1:], level + 1)
    return "[" + sep[1:] + sep.join([item] * shape[0]) + "\n" + INDENT * level + "]"


def _emit(column, sep, out, floats):
    """Write the entries of ``column`` joined by ``sep``: one template, whose
    floats join the document's floats as one block."""
    count = len(column.values)
    *row, end = _stretches(column.text, column.texts, count)
    if not row:  # no floats
        out.append(sep.join([end] * count if isinstance(end, str) else end))
        return
    start, step = len(out), 2 * len(row)
    if column.upper is None:
        floats.add(start, column.values.ravel())
    else:
        floats.add(start, column.values[:, column.upper].ravel(), _spread(column.source, count))
    # an entry's text between its floats at the even places; a stretch that
    # differs between entries is written entry by entry below
    cell = [None] * step
    cell[::2] = row
    for _ in range(count):
        out += cell
    stop = len(out)
    if column.texts:
        for g in range(1, len(row)):
            if not isinstance(row[g], str):
                out[start + 2 * g:stop:step] = row[g]
    # an entry's first stretch joins the last stretch of the entry before it
    first, last = ([s] * count if isinstance(s, str) else s for s in (row[0], end))
    out[start:stop:step] = map("".join, zip(chain([""], last), chain([""], repeat(sep)), first))
    out.append(last[-1])


def _stretches(text, texts, count):
    """The text of ``count`` entries between their floats, stretch by
    stretch: a str where the entries' texts are equal, else a list of them."""
    if not texts:
        return text.split("\0")
    texts = iter(texts)
    stretches = []
    for stretch in text.split("\0"):
        head, *parts = stretch.split("\1")
        if parts:
            items = [repeat(head, count)]
            for part in parts:
                items += [next(texts), repeat(part)]
            stretch = list(map("".join, zip(*items)))
        stretches.append(stretch)
    return stretches


def _spread(source, count):
    """A function that writes the texts of the floats of ``count`` entries
    into the odd places of their template, from ``out[start]`` on, given
    the texts of their formatted floats from ``texts[pos]`` on; ``source``
    maps each float of an entry to its formatted one."""
    get, kept, step = itemgetter(*source.tolist()), int(source.max()) + 1, 2 * len(source)

    def spread(out, start, texts, pos):
        for k in range(start + 1, start + count * step, step):
            out[k:k + step:2] = get(texts[pos:pos + kept])
            pos += kept

    return spread


# Shortest round-trip digits by Schubfach (R. Giulietti, "The Schubfach way
# to render doubles", 2020, as in the JDK's DoubleToDecimal), vectorized in
# uint64: each 64x64-bit product is built from 32-bit limbs. The JDK writes
# at least two digits where repr writes one (5e-324), so its rescale of small
# subnormals is left out and its one-digit-shorter test runs from s >= 10.

_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
_LOW63 = _U64(2**63 - 1)
_K_MIN, _K_MAX = -324, 292  # floor(log10) of the finite doubles' spacings


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 400."""
    return (e * 913124641741) >> 38


def _powers_of_ten():
    """For k = _K_MIN.._K_MAX, g = floor(10**-k * 2**(125 - floor(log2(10**-k))))
    + 1, a 126-bit integer, as its high and low 63 bits."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k > 0:
            g.append((1 << shift) // 10**k + 1)
        else:
            g.append((10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1)
    return (np.array([v >> 63 for v in g], dtype=_U64),
            np.array([v & (2**63 - 1) for v in g], dtype=_U64))


_G_HIGH, _G_LOW = _powers_of_ten()
_POW10 = np.array([10**i for i in range(18)], dtype=_U64)


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the product of a, b < 2**63, given as 32-bit limbs."""
    lo = a_lo * b_lo
    cross = a_lo * b_hi
    mid = (lo >> _U64(32)) + (cross & _LOW32) + a_hi * b_lo
    return a_hi * b_hi + (cross >> _U64(32)) + (mid >> _U64(32))


def _rop(g, cp):
    """The JDK's ``rop``: g * cp / 2**127 rounded to odd, for the limbs
    ``g = (g1, g1_lo, g1_hi, g0_lo, g0_hi)`` of g1 * 2**63 + g0."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _LOW32, cp >> _U64(32)
    z = ((g1 * cp) >> _U64(1)) + _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    vbp = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U64(63))
    return vbp | (((z & _LOW63) + _LOW63) >> _U64(63))


def _shortest(x):
    """``(f, k)``: of the decimals ``f * 10**k`` with fewest digits that read
    back as the nonzero finite float64 ``x``, the nearest, ties to even ``f``.
    ``f`` may end in zeros."""
    bits = x.view(_U64)
    biased = (bits >> _U64(52)).astype(np.int64) & 0x7FF
    t = bits & _U64(2**52 - 1)
    c = t | ((biased != 0).astype(_U64) << _U64(52))
    q = np.maximum(biased, 1) - 1075  # x = c * 2**q
    # a power of two above the smallest normal spacing is twice as far from
    # the next float up as from the next down
    irregular = (t == 0) & (biased > 1)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1, g0 = _G_HIGH[k - _K_MIN], _G_LOW[k - _K_MIN]
    g = (g1, g1 & _LOW32, g1 >> _U64(32), g0 & _LOW32, g0 >> _U64(32))
    # four times x, its lower and its upper rounding bound, over 10**k
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    out = c & _U64(1)  # an odd c rounds to neither bound
    s = vb >> _U64(2)
    t = s + _U64(1)
    uin = vbl + out <= s << _U64(2)
    win = (t << _U64(2)) + out <= vbr
    mid = (s + t) << _U64(1)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0))
    f = np.where(np.where(uin != win, uin, nearer_s), s, t)
    # one digit fewer: the one multiple of ten, if any, within the bounds
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (tp10 << _U64(2)) + out <= vbr
    return np.where((s >= _U64(10)) & (upin != wpin), np.where(upin, sp10, tp10), f), k


# The layout of repr's text: per float, a row of the ASCII source columns
# below, gathered by one of _LAYOUTS. Fixed notation for 1e-4 <= |x| < 1e16,
# else d.ddde+XX; ".0" ends an integral value.
_WIDTH = 24  # the longest text: -1.2345678901234567e-308
_ZEROS, _DIGITS, _POINT, _MINUS, _E, _EXP_SIGN, _EXP_DIGITS, _NUL = 0, 4, 21, 22, 23, 24, 25, 28
_FIXED = 20 * 17  # fixed notation: 20 decimal point positions by 17 digit counts


def _layouts():
    """Source columns of each layout, padded with _NUL: (sign, decimal point
    position, digit count) in fixed notation, then (sign, digit count,
    three-digit exponent)."""
    rows = []
    for sign in ([], [_MINUS]):
        for point in range(-3, 17):
            for digits in range(1, 18):
                if point > 0:
                    whole = [_DIGITS + i for i in range(point)]
                    frac = [_DIGITS + i for i in range(point, max(digits, point + 1))]
                else:
                    whole = [_ZEROS]
                    frac = [_ZEROS] * -point + [_DIGITS + i for i in range(digits)]
                rows.append(sign + whole + [_POINT] + frac)
        for digits in range(1, 18):
            mantissa = [_DIGITS] + [_POINT] * (digits > 1) + [_DIGITS + i for i in range(1, digits)]
            for wide in (0, 1):
                rows.append(sign + mantissa + [_E, _EXP_SIGN]
                            + [_EXP_DIGITS + i for i in range(1 - wide, 3)])
    return np.array([row + [_NUL] * (_WIDTH - len(row)) for row in rows])


def _digit_table(count, width):
    """The zero-padded decimal texts of 0..count-1 as rows of ASCII bytes."""
    n = np.arange(count)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10
    return (n + ord("0")).astype(np.uint8)


_LAYOUTS = _layouts()
_SIGNED = len(_LAYOUTS) // 2
_SOURCE = np.zeros(_NUL + 1, dtype=np.uint8)  # the columns every row shares
_SOURCE[_ZEROS:_DIGITS] = ord("0")
_SOURCE[[_POINT, _MINUS, _E]] = [ord("."), ord("-"), ord("e")]
# four digits, and a three-digit exponent and _NUL, packed in a uint32
_QUADS = _digit_table(10**4, 4).view(np.uint32).ravel()
_EXPONENTS = np.hstack([_digit_table(325, 3), np.zeros((325, 1), np.uint8)]).view(np.uint32).ravel()
_QUAD_ZEROS = (np.arange(10**4)[:, None] % 10 ** np.arange(1, 5) == 0).sum(1)  # trailing zeros


def float_texts(values):
    """``float.__repr__`` of each float in the 1-D float64 array ``values``,
    formatted ``_CHUNK`` at a time."""
    texts = []
    for start in range(0, len(values), _CHUNK):
        texts += _format_chunk(values[start:start + _CHUNK])
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = "nan" if np.isnan(values[k]) else "-inf" if values[k] < 0 else "inf"
    return texts


def _format_chunk(x):
    src, layout = _source(x)
    return _gather(src, layout).astype(np.uint32).view(f"U{_WIDTH}").ravel().tolist()


def _source(x):
    """The source row of each float of ``x`` and the index of its layout."""
    n = len(x)
    zero = x == 0
    f, k = _shortest(x)
    f[zero] = 0
    length = np.searchsorted(_POW10, f, side="right")
    point = length + k  # digits before the decimal point
    point[zero] = 1
    exponent = point - 1
    # f's digits, left-aligned to 17: a leading one and four groups of four
    lead, rest = np.divmod(f * _POW10[17 - length], _U64(10**16))
    quads = np.empty((n, 4), dtype=np.intp)
    for j in range(3):
        quads[:, j], rest = np.divmod(rest, _U64(10 ** (12 - 4 * j)))
    quads[:, 3] = rest
    zeros = _QUAD_ZEROS[quads[:, 3]]
    more = quads[:, 3] == 0
    for j in (2, 1, 0):
        zeros += more * _QUAD_ZEROS[quads[:, j]]
        more &= quads[:, j] == 0
    digits = 17 - zeros  # of zero, its one 0
    src = np.empty((n, _NUL + 1), dtype=np.uint8)
    src[:] = _SOURCE
    src[:, _DIGITS] = lead + ord("0")
    src[:, _DIGITS + 1:_POINT] = _QUADS[quads].view(np.uint8)
    src[:, _EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    src[:, _EXP_DIGITS:] = _EXPONENTS[np.abs(exponent)].view(np.uint8).reshape(n, 4)
    fixed = (point > -4) & (point < 17)
    layout = np.where(fixed, (point + 3) * 17 + digits - 1,
                      _FIXED + 2 * (digits - 1) + (np.abs(exponent) >= 100))
    layout += _SIGNED * np.signbit(x)
    return src, layout


def _gather(src, layout):
    """Each row of ``src`` laid out by its layout, as ``_WIDTH`` ASCII bytes
    padded with NUL; the flat index, the largest work array, dies here."""
    index = _LAYOUTS[layout]
    index += (np.arange(len(src)) * (_NUL + 1))[:, None]
    return src.ravel()[index]


def complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_pairs(a):
    """Complex matrix as an array of ``[re, im]`` pairs, shape ``(rows, cols, 2)``."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def check_fields(obj, path, required):
    """Validate that a JSON object has exactly the expected fields."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required:
            raise SchemaError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing field")


def as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(f"{path}: must be finite")
    return v


def as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def as_bool(value, path):
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean")
    return value


def as_list(value, path, length=None):
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array")
    if length is not None and len(value) != length:
        raise SchemaError(f"{path}: expected {length} entries, got {len(value)}")
    return value


def as_vector(value, path, length=None):
    return np.array(
        [as_number(v, f"{path}[{k}]") for k, v in enumerate(as_list(value, path, length))],
        dtype=float,
    )


def as_matrix(value, path, shape=None):
    rows = as_list(value, path)
    if shape is None:
        width = len(as_list(rows[0], f"{path}[0]")) if rows else 0
    elif len(rows) != shape[0]:
        raise SchemaError(f"{path}: expected {shape[0]} rows, got {len(rows)}")
    else:
        width = shape[1]
    data = [as_vector(row, f"{path}[{k}]", width) for k, row in enumerate(rows)]
    return np.array(data, dtype=float).reshape(len(rows), width)


def load_json(path_on_disk):
    try:
        with open(path_on_disk, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: bad UTF-8 or an integer past Python's digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path_on_disk}: cannot parse JSON ({exc})") from exc


def write_json(path_on_disk, obj):
    with open(path_on_disk, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
