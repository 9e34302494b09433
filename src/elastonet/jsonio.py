"""Strict JSON reading helpers and the canonical writer.

All file formats in this package serialize complex numbers as two-element
``[re, im]`` arrays and are written with sorted keys, two-space indentation
and Python's shortest round-trip float repr, so identical data always
produces byte-identical files.
"""

import json
import math
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
    first offending value in document order. A float64 ndarray is written as
    its ``tolist()``; any other ndarray is refused. Payloads are trees: a
    container that holds itself is not detected.

    The walk writes all text but the floats and collects those in document
    order: each scalar, and each rectangular block (a float64 ndarray, or
    nested lists or tuples whose items are all floats) whole, or by its upper
    triangle when it is bitwise symmetric. ``float_texts`` then formats them
    chunk by chunk, and each block fills the template cached for its shape
    and indent level, so no Python code runs per number.
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
        # a scalar's index in the text, or (index, count, template, mirror)
        self.slots = []

    def scalar(self, out, value):
        """Give the float ``value`` the next slot of ``out``."""
        self.run.append(value)
        self.slots.append(len(out))
        out.append(None)

    def add(self, out, values, template, mirror=None):
        """Give the block ``values`` the next slot of ``out``: a float64 array
        the caller checked after ``check``, or a list or tuple of floats that
        ``check`` checks."""
        if isinstance(values, np.ndarray):
            self.arrays.append(values)
        else:
            self.run += values
        self.slots.append((len(out), len(values), template, mirror))
        out.append(None)

    def check(self):
        """Raise at the first NaN or infinity of the floats not yet checked."""
        if self.run:
            values = np.array(self.run, dtype=float)
            _check_finite(values, self.run)
            self.arrays.append(values)
            self.run = []

    def fill(self, out):
        """Format the checked floats ``_CHUNK`` at a time and write the text
        of each slot into ``out``."""
        values = np.concatenate(self.arrays) if self.arrays else np.empty(0)
        texts, pos, done = [], 0, 0
        for k, slot in enumerate(self.slots):
            self.slots[k] = None  # a record list's template is its own: let it go
            scalar = type(slot) is int
            count = 1 if scalar else slot[1]
            if pos + count > len(texts):
                texts, pos = texts[pos:], 0
                while len(texts) < count:
                    texts += float_texts(values[done:done + _CHUNK])
                    done += _CHUNK
            if scalar:
                out[slot] = texts[pos]
            else:
                index, _, template, mirror = slot
                strings = texts[pos:pos + count]
                text = template.copy()
                text[1::2] = strings if mirror is None else mirror(strings)
                out[index] = "".join(text)
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
        _encode_block(block.ravel(), block.shape, level, out, floats, block)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _encode_list(seq, level, out, floats):
    shape = _float_shape(seq)
    if shape is not None:
        flat = seq
        for _ in shape[1:]:
            flat = list(chain.from_iterable(flat))
        block = np.array(flat, dtype=float).reshape(shape) if len(shape) > 1 else None
        _encode_block(flat, shape, level, out, floats, block)
        return
    if not seq:
        out.append("[]")
        return
    if _encode_records(seq, level, out, floats):
        return
    sep = ",\n" + INDENT * (level + 1)
    out.append("[" + sep[1:])
    for k, value in enumerate(seq):
        if k:
            out.append(sep)
        _encode(value, level + 1, out, floats)
    out.append("\n" + INDENT * level + "]")


# the text of a column of one of these types, item by item
_TEXTS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _encode_records(seq, level, out, floats):
    """Write a list of two or more dicts that share one set of str keys
    column by column, and return whether it did.

    Each column must be all floats, all lists or tuples of one length of
    floats, or all of one type of ``str``, ``int`` and ``bool``, whose
    items are written as their text now. The list is one record template
    repeated: its text columns fill it here, and its floats join the run
    as one block, in document order. The template is built from texts of
    one record's size, not one text of the whole list, so that no large
    text is made and dropped per list. Any other list, and one whose text
    ``json.dumps`` would refuse (an integer too long to write), is left to
    the item-by-item walk, so the text and the errors stay those of
    ``json.dumps``.
    """
    first = seq[0]
    if len(seq) < 2 or {*map(type, seq)} != {dict} or not first:
        return False
    keys = sorted(first) if {*map(type, first)} == {str} else None
    if keys is None or not all(map(first.keys().__eq__, map(dict.keys, seq))):
        return False
    # the record's text, with \0 for a float and \1 for a text column's
    # item: encoded keys and texts hold neither
    inner = INDENT * (level + 2)
    pieces, texts, blocks = [], [], []
    for key in keys:
        column = [row[key] for row in seq]
        kinds = {*map(type, column)}
        if all(map(isinstance, column, repeat(float))):
            value, block = "\0", zip(column)
        elif kinds <= {list, tuple} and len({*map(len, column)}) == 1 and all(
            map(isinstance, chain.from_iterable(column), repeat(float))
        ):
            value, block = _block_text((len(first[key]),), level + 2).replace("%s", "\0"), column
        elif len(kinds) == 1 and kinds <= _TEXTS.keys():
            try:
                texts.append(list(map(_TEXTS[kinds.pop()], column)))
            except ValueError:  # an integer past the digit limit of str()
                return False
            value, block = "\1", None
        else:
            return False
        pieces.append(inner + encode_basestring_ascii(key) + ": " + value)
        if block is not None:
            blocks.append(block)
    record = "{\n" + ",\n".join(pieces) + "\n" + INDENT * (level + 1) + "}"
    # the record's stretches between its floats, each as one text a record
    texts = iter(texts)
    stretches = []
    for stretch in record.split("\0"):
        parts = stretch.split("\1")
        items = [[parts[0]] * len(seq)]
        for part in parts[1:]:
            items += [next(texts), repeat(part)]
        stretches.append(list(map("".join, zip(*items))))
    sep = ",\n" + INDENT * (level + 1)
    head, tail = "[" + sep[1:], "\n" + INDENT * level + "]"
    if len(stretches) == 1:  # no floats
        out.append(head + sep.join(stretches[0]) + tail)
        return True
    # the list's text between its floats: a record's first stretch joins
    # the last stretch of the record before it
    opening, *middle, closing = stretches
    step = len(stretches) - 1
    text = [None] * (step * len(seq) + 1)
    text[:-1:step] = map("".join, zip(chain([""], closing), chain([head], repeat(sep)), opening))
    for g, stretch in enumerate(middle, 1):
        text[g::step] = stretch
    text[-1] = closing[-1] + tail
    template = [None] * (2 * len(text) - 1)
    template[::2] = text
    floats.add(out, list(chain.from_iterable(chain.from_iterable(zip(*blocks)))), template)
    return True


def _encode_dict(obj, level, out, floats):
    if not obj:
        out.append("{}")
        return
    sep = ",\n" + INDENT * (level + 1)
    out.append("{" + sep[1:])
    for k, (key, value) in enumerate(sorted(obj.items())):
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            floats.check()
            values = np.array([key], dtype=float)
            _check_finite(values, [key])
            key = float_texts(values)[0]
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        if k:
            out.append(sep)
        out.append(encode_basestring_ascii(key) + ": ")
        _encode(value, level + 1, out, floats)
    out.append("\n" + INDENT * level + "}")


def _float_shape(seq):
    """Shape of a non-empty rectangular nesting of lists or tuples of floats,
    else None."""
    if not seq:
        return None
    first = seq[0]
    if isinstance(first, float):
        return (len(seq),) if all(map(isinstance, seq, repeat(float))) else None
    if not isinstance(first, (list, tuple)):
        return None
    inner = _float_shape(first)
    if inner is None:
        return None
    for row in seq[1:]:
        if not isinstance(row, (list, tuple)) or _float_shape(row) != inner:
            return None
    return (len(seq),) + inner


def _encode_block(flat, shape, level, out, floats, block=None):
    """Collect the floats ``flat`` (row-major) of a nested array of ``shape``,
    given also as the float64 ndarray ``block`` unless it is a row of floats.
    A block is checked at once and collected whole, or by its upper triangle
    when it is bitwise symmetric (equal bits, equal text); a row waits for
    the next check."""
    symmetric = _bitwise_symmetric(flat, shape, block)
    template = _block_template(shape, level)
    if block is None:
        floats.add(out, flat, template)
        return
    values = block.ravel()
    floats.check()
    _check_finite(values, flat)
    if symmetric:
        upper, mirror = _triangle_gathers(shape)
        floats.add(out, values[upper], template, mirror)
    else:
        floats.add(out, values, template)


def _bitwise_symmetric(flat, shape, block=None):
    """Whether a non-empty block is square (n >= 2) in its two leading axes
    with equal bits across them; ``-0.0`` and ``0.0`` differ. The bits are
    read from ``block``, the block's float64 ndarray, when there is one."""
    if len(shape) < 2 or not shape[0] == shape[1] > 1 or 0 in shape:
        return False
    if block is None:
        block = np.array(flat, dtype=float).reshape(shape)
    bits = block.view(np.uint64)
    return np.array_equal(bits, bits.swapaxes(0, 1))


@lru_cache(maxsize=1024)
def _triangle_gathers(shape):
    """Gathers for a symmetric block of ``shape``: ``upper`` indexes its
    entries with row <= column, row-major; ``mirror`` spreads them over the
    block."""
    n = shape[0]
    index = np.arange(math.prod(shape)).reshape(n, n, -1)
    upper = index[np.triu_indices(n)].ravel()  # ascending
    # entry (i, j) mirrors (min(i, j), max(i, j)), the smaller flat index
    source = np.minimum(index, index.swapaxes(0, 1)).ravel()
    return upper, itemgetter(*np.searchsorted(upper, source).tolist())


@lru_cache(maxsize=1024)
def _block_template(shape, level):
    """The text of a block of ``shape`` at indent ``level`` as a list: its
    fixed pieces at the even places, None at the odd places of its floats."""
    pieces = _block_text(shape, level).split("%s")
    template = [None] * (2 * len(pieces) - 1)
    template[::2] = pieces
    return template


def _block_text(shape, level):
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    sep = ",\n" + INDENT * (level + 1)
    item = _block_text(shape[1:], level + 1)
    return "[" + sep[1:] + sep.join([item] * shape[0]) + "\n" + INDENT * level + "]"


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
    if shape is not None and len(rows) != shape[0]:
        raise SchemaError(f"{path}: expected {shape[0]} rows, got {len(rows)}")
    width = shape[1] if shape is not None else (len(rows[0]) if rows else 0)
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
